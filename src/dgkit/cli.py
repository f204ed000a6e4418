"""Command-line interface.

Every command reads a presentation file, computes, and prints a deterministic
report (text or json).  One command table (`_COMMANDS`) gives each command its
handler, its positional arguments and the flags it reads; no other flag is
taken.  `main` checks only those flags, and one prologue loads the file, looks
up and validates the named objects and hands them to the handler.  Exit codes:
0 a verdict was computed, 1 invalid input (usage, parse error, axiom
violation, unknown name, wrong side, a flag out of range), 2 a resource bound
was hit before the computation finished (`check-epi` and `consistency` then
print the verdicts finished before it).
"""

import argparse
import collections
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


_POOLS = {"algebra": "algebras", "module": "modules", "morphism": "morphisms", "witness": "witnesses"}


def _prologue(args, positional) -> list:
    """Load the file and look up the object each positional argument names, in
    order; then validate them, a witness through the module it builds.
    Returns [presentation file, object, ...]."""
    pf = _load(args.file)
    objects, checked = [], []
    for dest in positional:
        # `left` and `right` name modules; every other positional names its kind
        kind, name = {"left": "module", "right": "module"}.get(dest, dest), getattr(args, dest)
        pool = getattr(pf, _POOLS[kind])
        if name not in pool:
            raise InputError(f"unknown {kind} {name!r}")
        obj = pool[name]
        objects.append(obj)
        if kind == "witness":
            kind, name = "module", obj.module_name
            obj = pf.modules[name]
        checked.append((kind, name, obj))
    _validated(*checked)
    return [pf, *objects]


def _window(text: str) -> Window:
    try:
        lo, hi = map(int, text.split("..", 1))
    except ValueError:
        raise InputError(f"window must be LO..HI, got {text!r}")
    if lo > hi:
        raise InputError(f"empty window {text!r}")
    return Window(lo, hi)


def _depth(w: Window, least: int) -> int:
    """The D of a command whose table or verdicts cover degrees 0..D: at
    least 0 for tor and ext, at least 1 for an epimorphism check."""
    if w.lo != 0 or w.hi < least:
        raise InputError(f"--window must be 0..HI with HI at least {least}, got {w}")
    return w.hi


def _check_flags(args):
    """Parse --window and range-check the counts, for the flags the command has."""
    if "window" in args:
        args.window = _window(args.window)
    # a test family always holds S and ΣS
    for flag, dest, least in (("--max-generators", "max_generators", 1), ("--family-size", "family_size", 2)):
        value = getattr(args, dest, least)  # a command without the flag passes
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


def _degree_counts(degrees) -> tuple:
    """Lines `  degree n: count` in degree order, and their json {"n": count}."""
    counts = collections.Counter(degrees)
    return [f"  degree {n}: {counts[n]}" for n in sorted(counts)], {str(n): c for n, c in counts.items()}


# -- commands ------------------------------------------------------------------


def cmd_validate(args, pf):
    lines, objects, bad_count = [], {}, 0
    # the algebras, then the modules, then the morphisms, each in file order
    for kind, name in [(kind, n) for kind in _VALIDATORS for k, n in pf.order if k == kind]:
        viols = _VALIDATORS[kind](getattr(pf, _POOLS[kind])[name])
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


def cmd_homology(args, pf, M):
    w = args.window
    dims = homology_dims(M.underlying(), w)
    lines = [f"homology of {args.module} on {w.lo}..{w.hi}"]
    lines += [f"  H_{n} = {dims[n]}" for n in range(w.lo, w.hi + 1)]
    _emit(args, "homology", {"module": args.module, "dims": {str(n): dims[n] for n in dims}}, lines)
    return 0


def cmd_resolve(args, pf, M):
    if M.side == "right":
        M = right_to_left_op(M)
    bottom = M.min_degree()
    if args.window.hi < bottom - 1:
        raise InputError(
            f"--window {args.window} ends below degree {bottom - 1}: the resolution of "
            f"{args.module} is exact from one below its bottom degree {bottom}"
        )
    res = semifree_resolution(M, args.window.hi, args.max_generators)
    counts, by_degree = _degree_counts(g.degree for g in res.generators)
    lines = [
        f"semifree resolution of {args.module}: {len(res.generators)} generator(s), "
        f"exact on {res.validity.lo}..{res.validity.hi}"
    ]
    _emit(
        args,
        "resolve",
        {
            "module": args.module,
            "generators": by_degree,
            "window": [res.validity.lo, res.validity.hi],
        },
        lines + counts,
    )
    return 0


def _pair_sides(args, pf, M, N):
    """Refuse a module over another algebra or on the wrong side before anything
    is resolved: tor and tensor take a right module, then a left one; ext and
    rhom take two left modules."""
    alg, tor_like = args.algebra, args.command in ("tor", "tensor")
    rule = f"a right {alg}-module, then a left {alg}-module" if tor_like else f"two left {alg}-modules"
    for name, X, side in ((args.left, M, "right" if tor_like else "left"), (args.right, N, "left")):
        over = pf.module_over[name]
        if X.side != side or over != alg:
            raise InputError(
                f"{args.command} over {alg} takes {rule}; module {name} is a {X.side} module over {over}"
            )


def cmd_tor_ext(args, pf, A, M, N):
    _pair_sides(args, pf, M, N)
    which = args.command
    D = _depth(args.window, 0)
    table = (tor_table if which == "tor" else ext_table)(A, M, N, D, args.max_generators)
    name = "Tor" if which == "tor" else "Ext"
    lines = [f"{name} over {args.algebra} of ({args.left}, {args.right}), degrees 0..{D}"]
    lines += [f"  {name}_{i} = {table[i]}" for i in range(D + 1)]
    _emit(args, which, {"table": {str(i): table[i] for i in table}}, lines)
    return 0


def cmd_tensor_rhom(args, pf, A, M, N):
    _pair_sides(args, pf, M, N)
    which, w = args.command, args.window
    D = max(abs(w.lo), abs(w.hi))
    dc = (derived_tensor if which == "tensor" else rhom)(A, M, N, D, args.max_generators)
    dims = homology_dims(dc.value, w)
    title = "derived tensor" if which == "tensor" else "derived hom"
    lines = [f"{title} over {args.algebra} of ({args.left}, {args.right}) on {w.lo}..{w.hi}"]
    lines += [f"  H_{n} = {dims[n]}" for n in range(w.lo, w.hi + 1)]
    _emit(args, which, {"dims": {str(n): dims[n] for n in dims}}, lines)
    return 0


def cmd_endo_dga(args, pf, M):
    if M.side != "left":
        raise InputError("endomorphism DGA needs a left module")
    Fdga, _ = endomorphism_dga(M)
    viols = validate_dga(Fdga)
    counts, by_degree = _degree_counts(d for _, d in Fdga.basis)
    lines = [f"endomorphism DGA of {args.module}: dimension {Fdga.total_dim}", *counts]
    lines.append(f"axioms: {'ok' if not viols else 'violated'}")
    _emit(
        args,
        "endo-dga",
        {
            "dimension": Fdga.total_dim,
            "by_degree": by_degree,
            "valid": not viols,
        },
        lines,
    )
    return 0


def cmd_witness_verify(args, pf, w):
    M = pf.modules[w.module_name]
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


def _epi_report(name: str, rep) -> list:
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


def cmd_check_epi(args, pf, phi):
    D = _depth(args.window, 1)
    fam = generate_test_family(phi.target, args.seed, args.family_size)
    try:
        rep = check_dga_epi(phi, D, fam, args.max_generators)
    except ResourceBoundExceeded as e:
        # report the verdicts finished before the bound; main exits 2
        data = {"verdicts": _verdict_data(e.verdicts), "unfinished": str(e)}
        lines = _verdict_lines(args.morphism, e.verdicts) + [f"  unfinished: {e}"]
        _emit(args, "check-epi", {"morphism": args.morphism, **data}, lines)
        raise
    _emit(args, "check-epi", {"morphism": args.morphism, **_rep_data(rep)}, _epi_report(args.morphism, rep))
    return 0


def cmd_dwyer_greenlees(args, pf, M, w):
    if w.module_name != args.module:
        raise InputError(f"witness {args.witness} is declared for module {w.module_name}, not {args.module}")
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


def cmd_consistency(args, pf):
    corpus = [(n, pf.morphisms[n]) for k, n in pf.order if k == "morphism"]
    _validated(*(("morphism", n, phi) for n, phi in corpus))
    D = _depth(args.window, 1)

    def report(instances):
        lines = [line for name, r in instances for line in _epi_report(name, r)]
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


def cmd_roundtrip(args, pf):
    sys.stdout.write(serialize(pf))
    return 0


# -- entry point ---------------------------------------------------------------


_FLAGS = {
    "--window": {"default": "0..8"},
    "--seed": {"type": int, "default": 0},
    "--family-size": {"type": int, "default": 6},
    "--max-generators": {"type": int, "default": 10000},
    "--format": {"choices": ("text", "json"), "default": "text"},
}
_PAIR = ("algebra", "left", "right")
_RESOLVING = ("--window", "--max-generators", "--format")
_EPI = ("--window", "--seed", "--family-size", "--max-generators", "--format")

# command -> (handler, positional arguments after the file, flags it reads)
_COMMANDS = {
    "validate": (cmd_validate, (), ("--format",)),
    "homology": (cmd_homology, ("module",), ("--window", "--format")),
    "resolve": (cmd_resolve, ("module",), _RESOLVING),
    "tor": (cmd_tor_ext, _PAIR, _RESOLVING),
    "ext": (cmd_tor_ext, _PAIR, _RESOLVING),
    "tensor": (cmd_tensor_rhom, _PAIR, _RESOLVING),
    "rhom": (cmd_tensor_rhom, _PAIR, _RESOLVING),
    "endo-dga": (cmd_endo_dga, ("module",), ("--format",)),
    "witness-verify": (cmd_witness_verify, ("witness",), ("--format",)),
    "check-epi": (cmd_check_epi, ("morphism",), _EPI),
    "dwyer-greenlees": (cmd_dwyer_greenlees, ("module", "witness"), ("--window", "--format")),
    "consistency": (cmd_consistency, (), _EPI),
    "roundtrip": (cmd_roundtrip, (), ()),
}


# built once per process: parsing leaves it unchanged, and each build leaves
# about 800 argparse objects in cycles that only the cyclic collector frees
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dgkit")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, positional, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for a in ("file", *positional):
            p.add_argument(a)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        # bad command-line usage is invalid input, not a resource bound
        return 0 if e.code in (0, None) else 1
    fn, positional, _ = _COMMANDS[args.command]
    try:
        _check_flags(args)
        return fn(args, *_prologue(args, positional))
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
