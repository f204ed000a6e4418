"""Command-line interface.

Every command reads a presentation file, computes, and prints a deterministic
report (text or json).  Exit codes: 0 a verdict was computed, 1 invalid input
(parse error, axiom violation, unknown name, wrong side, a flag out of
range), 2 a resource bound was hit before the computation finished
(`check-epi` and `consistency` then print the verdicts finished before it).
"""

import argparse
import functools
import json
import sys

from .complexes import Window, homology_dims
from .derived import derived_tensor, ext_table, rhom, tor_table
from .dga import (
    right_to_left_op,
    validate_dga,
    validate_module,
    validate_morphism,
)
from .epicheck import (
    check_dga_epi,
    check_dwyer_greenlees,
    consistency_run,
    generate_test_family,
)
from .homtensor import endomorphism_dga
from .parser import ParseError, parse, serialize
from .resolutions import ResourceBoundExceeded, semifree_resolution, verify_build_tree


class InputError(ValueError):
    pass


def _load(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    try:
        return parse(text)
    except ParseError as e:
        raise InputError(str(e))


def _get(pool: dict, name: str, kind: str):
    if name not in pool:
        raise InputError(f"unknown {kind} {name!r}")
    return pool[name]


_VALIDATORS = {"algebra": validate_dga, "module": validate_module, "morphism": validate_morphism}


def _validated(*objects):
    """Raise InputError on the first axiom violation of these (kind, name, object)
    triples or of the algebras they live over; each object is checked once."""
    seen: set = set()
    for kind, name, obj in objects:
        if kind == "module":
            parts = [("algebra", obj.algebra.name, obj.algebra)]
        elif kind == "morphism":
            parts = [("algebra", A.name, A) for A in (obj.source, obj.target)]
        else:
            parts = []
        for k, n, o in parts + [(kind, name, obj)]:
            if id(o) in seen:
                continue
            seen.add(id(o))
            viols = _VALIDATORS[k](o)
            if viols:
                raise InputError(f"{k} {n} violates the axioms: {viols[0]}")


def _window(text: str) -> Window:
    try:
        lo, hi = map(int, text.split("..", 1))
    except ValueError:
        raise InputError(f"window must be LO..HI, got {text!r}")
    if lo > hi:
        raise InputError(f"empty window {text!r}")
    return Window(lo, hi)


def _epi_depth(w: Window) -> int:
    """The D of an epimorphism check, whose verdicts cover degrees 0..D."""
    if w.lo != 0 or w.hi < 1:
        raise InputError(f"--window must be 0..HI with HI at least 1, got {w}")
    return w.hi


def _check_counts(args):
    # a test family always holds S and ΣS
    for flag, value, least in (
        ("--max-generators", args.max_generators, 1),
        ("--family-size", args.family_size, 2),
    ):
        if value < least:
            raise InputError(f"{flag} must be at least {least}, got {value}")


def _emit(args, title: str, data: dict, lines: list):
    if args.format == "json":
        print(json.dumps({"command": title, **data}, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


# -- commands ------------------------------------------------------------------


def cmd_validate(args):
    pf = _load(args.file)
    lines, objects, bad_count = [], {}, 0
    checks = (
        [("algebra", n, validate_dga, pf.algebras) for k, n in pf.order if k == "algebra"]
        + [("module", n, validate_module, pf.modules) for k, n in pf.order if k == "module"]
        + [("morphism", n, validate_morphism, pf.morphisms) for k, n in pf.order if k == "morphism"]
    )
    for kind, name, check, pool in checks:
        viols = check(pool[name])
        objects[f"{kind} {name}"] = [str(v) for v in viols]
        if viols:
            bad_count += len(viols)
            lines.append(f"{kind} {name}: {len(viols)} violation(s)")
            for v in viols:
                lines.append(f"  {v}")
        else:
            lines.append(f"{kind} {name}: ok")
    lines.append(f"result: {'valid' if bad_count == 0 else 'invalid'}")
    _emit(args, "validate", {"objects": objects, "valid": bad_count == 0}, lines)
    return 0 if bad_count == 0 else 1


def cmd_homology(args):
    pf = _load(args.file)
    M = _get(pf.modules, args.module, "module")
    _validated(("module", args.module, M))
    w = args.window
    dims = homology_dims(M.underlying(), w)
    lines = [f"homology of {args.module} on {w.lo}..{w.hi}"]
    lines += [f"  H_{n} = {dims[n]}" for n in range(w.lo, w.hi + 1)]
    _emit(args, "homology", {"module": args.module, "dims": {str(n): dims[n] for n in dims}}, lines)
    return 0


def cmd_resolve(args):
    pf = _load(args.file)
    M = _get(pf.modules, args.module, "module")
    _validated(("module", args.module, M))
    if M.side == "right":
        M = right_to_left_op(M)
    bottom = M.min_degree()
    if args.window.hi < bottom - 1:
        raise InputError(
            f"--window {args.window} ends below degree {bottom - 1}: the resolution of "
            f"{args.module} is exact from one below its bottom degree {bottom}"
        )
    res = semifree_resolution(M, args.window.hi, args.max_generators)
    by_degree: dict = {}
    for g in res.generators:
        by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
    lines = [
        f"semifree resolution of {args.module}: {len(res.generators)} generator(s), "
        f"exact on {res.validity.lo}..{res.validity.hi}"
    ]
    lines += [f"  degree {n}: {by_degree[n]}" for n in sorted(by_degree)]
    _emit(
        args,
        "resolve",
        {
            "module": args.module,
            "generators": {str(n): by_degree[n] for n in by_degree},
            "window": [res.validity.lo, res.validity.hi],
        },
        lines,
    )
    return 0


def _tor_ext(args, which: str):
    pf = _load(args.file)
    A = _get(pf.algebras, args.algebra, "algebra")
    M = _get(pf.modules, args.left, "module")
    N = _get(pf.modules, args.right, "module")
    _validated(("algebra", args.algebra, A), ("module", args.left, M), ("module", args.right, N))
    D = max(args.window.hi, 0)
    table = (tor_table if which == "tor" else ext_table)(A, M, N, D, args.max_generators)
    name = "Tor" if which == "tor" else "Ext"
    lines = [f"{name} over {args.algebra} of ({args.left}, {args.right}), degrees 0..{D}"]
    lines += [f"  {name}_{i} = {table[i]}" for i in range(D + 1)]
    _emit(args, which, {"table": {str(i): table[i] for i in table}}, lines)
    return 0


def cmd_tor(args):
    return _tor_ext(args, "tor")


def cmd_ext(args):
    return _tor_ext(args, "ext")


def _tensor_rhom(args, which: str):
    pf = _load(args.file)
    A = _get(pf.algebras, args.algebra, "algebra")
    M = _get(pf.modules, args.left, "module")
    N = _get(pf.modules, args.right, "module")
    _validated(("algebra", args.algebra, A), ("module", args.left, M), ("module", args.right, N))
    w = args.window
    D = max(abs(w.lo), abs(w.hi))
    dc = (derived_tensor if which == "tensor" else rhom)(A, M, N, D, args.max_generators)
    dims = homology_dims(dc.value, w)
    title = "derived tensor" if which == "tensor" else "derived hom"
    lines = [f"{title} over {args.algebra} of ({args.left}, {args.right}) on {w.lo}..{w.hi}"]
    lines += [f"  H_{n} = {dims[n]}" for n in range(w.lo, w.hi + 1)]
    _emit(args, which, {"dims": {str(n): dims[n] for n in dims}}, lines)
    return 0


def cmd_tensor(args):
    return _tensor_rhom(args, "tensor")


def cmd_rhom(args):
    return _tensor_rhom(args, "rhom")


def cmd_endo_dga(args):
    pf = _load(args.file)
    M = _get(pf.modules, args.module, "module")
    _validated(("module", args.module, M))
    if M.side != "left":
        raise InputError("endomorphism DGA needs a left module")
    Fdga, _ = endomorphism_dga(M)
    viols = validate_dga(Fdga)
    lines = [f"endomorphism DGA of {args.module}: dimension {Fdga.total_dim}"]
    by_degree: dict = {}
    for _, d in Fdga.basis:
        by_degree[d] = by_degree.get(d, 0) + 1
    lines += [f"  degree {n}: {by_degree[n]}" for n in sorted(by_degree)]
    lines.append(f"axioms: {'ok' if not viols else 'violated'}")
    _emit(
        args,
        "endo-dga",
        {
            "dimension": Fdga.total_dim,
            "by_degree": {str(n): by_degree[n] for n in by_degree},
            "valid": not viols,
        },
        lines,
    )
    return 0


def cmd_witness_verify(args):
    pf = _load(args.file)
    w = _get(pf.witnesses, args.witness, "witness")
    M = pf.modules[w.module_name]
    _validated(("module", w.module_name, M))
    if M.side == "right":
        M = right_to_left_op(M)
    ok = verify_build_tree(w.witness, M)
    if ok is True:
        lines = [f"witness {args.witness} for {w.module_name}: accepted"]
        data = {"accepted": True}
    else:
        lines = [
            f"witness {args.witness} for {w.module_name}: rejected",
            f"  {ok.reason} (degree {ok.degree})",
        ]
        data = {"accepted": False, "degree": ok.degree, "reason": ok.reason}
    _emit(args, "witness-verify", data, lines)
    return 0


def _verdict_lines(name: str, verdicts) -> list:
    return [f"morphism {name}:"] + [f"  {v.summary()}" for v in verdicts]


def _epi_report(args, name: str, rep) -> list:
    lines = _verdict_lines(name, rep.verdicts)
    lines.append(f"  agreement: {_yesno(rep.agreement)}")
    if rep.disagreement:
        lines.append(f"  disagreement: {rep.disagreement}")
    fails = [v for v in rep.verdicts if v.checkable and not v.holds]
    verdict = "YES" if rep.is_epi else "NO"
    if fails:
        verdict += f" ({fails[0].summary()})"
    lines.append(f"  homological epimorphism: {verdict}")
    return lines


def _verdict_data(verdicts) -> list:
    return [
        {
            "condition": str(v.condition),
            "status": v.status,
            "degree": v.degree,
            "dims": list(v.dims) if v.dims else None,
        }
        for v in verdicts
    ]


def _rep_data(rep) -> dict:
    return {
        "verdicts": _verdict_data(rep.verdicts),
        "agreement": rep.agreement,
        "is_epi": rep.is_epi,
    }


def cmd_check_epi(args):
    pf = _load(args.file)
    phi = _get(pf.morphisms, args.morphism, "morphism")
    _validated(("morphism", args.morphism, phi))
    D = _epi_depth(args.window)
    fam = generate_test_family(phi.target, args.seed, args.family_size)
    try:
        rep = check_dga_epi(phi, D, fam, args.max_generators)
    except ResourceBoundExceeded as e:
        # report the verdicts finished before the bound; main exits 2
        data = {"verdicts": _verdict_data(e.verdicts), "unfinished": str(e)}
        lines = _verdict_lines(args.morphism, e.verdicts) + [f"  unfinished: {e}"]
        _emit(args, "check-epi", {"morphism": args.morphism, **data}, lines)
        raise
    _emit(args, "check-epi", {"morphism": args.morphism, **_rep_data(rep)}, _epi_report(args, args.morphism, rep))
    return 0


def cmd_dwyer_greenlees(args):
    pf = _load(args.file)
    M = _get(pf.modules, args.module, "module")
    w = _get(pf.witnesses, args.witness, "witness")
    _validated(("module", args.module, M), ("module", w.module_name, pf.modules[w.module_name]))
    if M.side != "left":
        raise InputError("the acting module must be a left module")
    try:
        rep = check_dwyer_greenlees(M.algebra, M, w.witness, args.window)
    except ValueError as e:
        raise InputError(str(e))
    lines = [
        f"endomorphism picture for {args.module}:",
        f"  endomorphism DGA dimension: {rep.endomorphism_algebra.total_dim}",
        f"  degreewise comparison with the acting algebra: {_yesno(rep.degreewise_iso)}",
        f"  derived endpoint: {rep.endpoint.summary()}",
    ]
    _emit(
        args,
        "dwyer-greenlees",
        {
            "module": args.module,
            "dimension": rep.endomorphism_algebra.total_dim,
            "degreewise_iso": rep.degreewise_iso,
            "endpoint": rep.endpoint.status,
        },
        lines,
    )
    return 0


def cmd_consistency(args):
    pf = _load(args.file)
    corpus = [(n, pf.morphisms[n]) for k, n in pf.order if k == "morphism"]
    _validated(*(("morphism", n, phi) for n, phi in corpus))
    D = _epi_depth(args.window)

    def report(instances):
        lines = [line for name, r in instances for line in _epi_report(args, name, r)]
        return lines, {n: _rep_data(r) for n, r in instances}

    try:
        rep = consistency_run(corpus, args.seed, D, args.family_size, args.max_generators)
    except ResourceBoundExceeded as e:
        # the finished instances, then the capped one's finished verdicts; main exits 2
        lines, data = report(e.instances)
        name = corpus[len(e.instances)][0]
        lines += _verdict_lines(name, e.verdicts) + [f"  unfinished: {e}"]
        data[name] = {"verdicts": _verdict_data(e.verdicts), "unfinished": str(e)}
        _emit(args, "consistency", {"instances": data}, lines)
        raise
    lines, data = report(rep.instances)
    lines.append(f"all instances consistent: {_yesno(rep.agreement)}")
    if rep.first_disagreement:
        lines.append(f"first disagreement: {rep.first_disagreement}")
    _emit(args, "consistency", {"instances": data, "agreement": rep.agreement}, lines)
    return 0


def cmd_roundtrip(args):
    pf = _load(args.file)
    sys.stdout.write(serialize(pf))
    return 0


# -- entry point ---------------------------------------------------------------


# built once per process: parsing leaves it unchanged, and each build leaves
# about 800 argparse objects in cycles that only the cyclic collector frees
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dgkit")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, *positional):
        p = sub.add_parser(name)
        p.add_argument("file")
        for a in positional:
            p.add_argument(a)
        p.add_argument("--window", default="0..8")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--family-size", type=int, default=6)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-generators", type=int, default=10000)
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    add("homology", cmd_homology, "module")
    add("resolve", cmd_resolve, "module")
    add("tor", cmd_tor, "algebra", "left", "right")
    add("ext", cmd_ext, "algebra", "left", "right")
    add("tensor", cmd_tensor, "algebra", "left", "right")
    add("rhom", cmd_rhom, "algebra", "left", "right")
    add("endo-dga", cmd_endo_dga, "module")
    add("witness-verify", cmd_witness_verify, "witness")
    add("check-epi", cmd_check_epi, "morphism")
    add("dwyer-greenlees", cmd_dwyer_greenlees, "module", "witness")
    add("consistency", cmd_consistency)
    add("roundtrip", cmd_roundtrip)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # bad command-line usage is invalid input, not a resource bound
        return 0 if e.code in (0, None) else 1
    try:
        args.window = _window(args.window)
        _check_counts(args)
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ResourceBoundExceeded as e:
        print(f"resource bound: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
