import contextlib
import io
import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dgkit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_good_fixture(capsys):
    code, out, _ = _run(capsys, "validate", FIXTURES / "truncated.dg")
    assert code == 0
    assert "result: valid" in out


def test_readme_presentation_block_validates(capsys, tmp_path):
    # the field, algebra and module blocks of the README's format example,
    # comment lines included, form a presentation `validate` accepts
    readme = (FIXTURES.parent / "README.md").read_text()
    block = readme.split("## Presentation format")[1].split("```text\n")[1].split("```")[0]
    keep = []
    for chunk in block.split("\n\n"):
        head = next(s for s in chunk.splitlines() if not s.lstrip().startswith("#"))
        if head.split()[0] in ("field", "algebra", "module"):
            keep.append(chunk)
    assert len(keep) == 3
    path = tmp_path / "readme.dg"
    path.write_text("\n\n".join(keep) + "\n")
    code, out, err = _run(capsys, "validate", path)
    assert code == 0, err
    assert err == ""


def test_validate_axiom_violation_exits_one(capsys):
    code, out, _ = _run(capsys, "validate", FIXTURES / "bad_axiom.dg")
    assert code == 1
    assert "leibniz" in out


def test_validate_grading_violation_of_differential_exits_one(capsys, tmp_path):
    # d m = n with both in degree 0: the differential table breaks the grading
    path = tmp_path / "bad_grading.dg"
    path.write_text(
        "field Q\n\nalgebra A\n  basis e:0\n  unit e\n\n"
        "module M over A\n  basis m:0 n:0\n  d m = n\n"
    )
    code, out, err = _run(capsys, "validate", path)
    assert code == 1
    assert any(line.strip().startswith("grading fails at") for line in out.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("fixture", ["bad_parse.dg", "bad_field.dg"])
def test_parse_errors_exit_one(capsys, fixture):
    code, _, err = _run(capsys, "validate", FIXTURES / fixture)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["validate", "roundtrip"])
def test_field_fp_zero_exits_one(capsys, tmp_path, command):
    # Fp 0 once validated and computed over the rationals, and roundtrip wrote it back
    path = tmp_path / "fp0.dg"
    path.write_text("field Fp 0\n\nalgebra A\n  basis e:0\n  unit e\n")
    code, out, err = _run(capsys, command, path)
    assert (code, out) == (1, "")
    assert err.strip() == "error: line 1, column 1: expected prime modulus (got 0)"


@pytest.mark.parametrize(
    "p, expected",
    [
        (10**18 + 3, None),  # a prime: trial division took minutes
        (10**18 + 1, "prime modulus (got 1000000000000000001)"),  # 101 · 9901 · 999999000001
        (561, "prime modulus (got 561)"),  # a Carmichael number
        (3215031751, "prime modulus (got 3215031751)"),  # a strong pseudoprime to 2, 3, 5 and 7
        # a strong pseudoprime to every prime base up to 37: base 41 decides it
        (318665857834031151167461, "prime modulus (got 318665857834031151167461)"),
        (2**89 - 1, "a modulus below 3317044064679887385961981 (got 618970019642690137449562111)"),
    ],
)
def test_prime_moduli_are_decided_within_a_second(capsys, tmp_path, p, expected):
    path = tmp_path / "fp.dg"
    path.write_text(f"field Fp {p}\n\nalgebra A\n  basis e:0\n  unit e\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, "validate", path)
    assert time.perf_counter() - start < 1
    if expected is None:
        assert (code, out.splitlines()[-1], err) == (0, "result: valid", "")
    else:
        assert (code, out, err) == (1, "", f"error: line 1, column 1: expected {expected}\n")


def _blocks(*blocks: str) -> str:
    """A presentation from its block heads and bodies, each a string of lines
    joined by '; ' whose first line is the head."""
    out = ["field Q"]
    for block in blocks:
        head, *body = block.split("; ")
        out += ["", head] + [f"  {line}" for line in body]
    return "\n".join(out) + "\n"


_A, _B, _PHI = "algebra A; basis e:0", "algebra B; basis f:0", "morphism phi : A -> B; e -> f"
# a file that breaks one morphism axiom each, and the violation it names
BAD_MORPHISMS = {
    "degree-preservation": (
        _blocks(f"{_A} x:1; unit e; mul x x = 0", f"{_B} y:0; unit f; mul y y = 0", f"{_PHI}; x -> y"),
        "degree-preservation fails at (1)",
    ),
    "unit-preservation": (
        _blocks(f"{_A}; unit e", f"{_B}; unit f", "morphism phi : A -> B; e -> 0"),
        "unit-preservation fails at (0)",
    ),
    # the identity on the basis, into a copy of A with d = 0
    "d-commutation": (
        _blocks(
            f"{_A} x:0 y:1; unit e; mul x x = 0; d y = x",
            f"{_B} x:0 y:1; unit f; mul x x = 0",
            f"{_PHI}; x -> x; y -> y",
        ),
        "d-commutation fails at (2)",
    ),
    # x·x = 0 but y·y = y
    "multiplicativity": (
        _blocks(f"{_A} x:0; unit e; mul x x = 0", f"{_B} y:0; unit f; mul y y = y", f"{_PHI}; x -> y"),
        "multiplicativity fails at (1, 1)",
    ),
}
_NEGATIVE = _blocks(
    "algebra A; basis e:0 z:-1; unit e; mul z z = 0", "morphism idA : A -> A; e -> e; z -> z", "module M over A; basis m:0"
)
# case -> (file text, None for no file; arguments after the path; the one error line)
BAD_INPUTS = {
    **{
        axiom: (text, ["check-epi", "{path}", "phi"], f"morphism phi violates the axioms: {violation}")
        for axiom, (text, violation) in BAD_MORPHISMS.items()
    },
    "second field line": ("field Q\nfield Q\n", ["validate", "{path}"], "line 2, column 1: expected a single field declaration"),
    "missing file": (None, ["validate", "{path}"], "cannot read {path}: No such file or directory"),
    "resolve below degree 0": (_NEGATIVE, ["resolve", "{path}", "M"], "algebra must be nonnegatively graded"),
    "check-epi below degree 0": (_NEGATIVE, ["check-epi", "{path}", "idA"], "algebra must be nonnegatively graded"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_inputs_exit_one_with_one_error_line(capsys, tmp_path, case):
    text, argv, expected = BAD_INPUTS[case]
    path = tmp_path / "bad.dg"
    if text is not None:
        path.write_text(text)
    code, out, err = _run(capsys, *(a.format(path=path) for a in argv))
    assert (code, out, err) == (1, "", f"error: {expected.format(path=path)}\n")
    if case in BAD_MORPHISMS:  # validate lists the violation
        code, out, err = _run(capsys, "validate", path)
        assert (code, err) == (1, "")
        assert f"  {BAD_MORPHISMS[case][1]}" in out.splitlines()
        assert out.splitlines()[-1] == "result: invalid"


def test_unknown_name_exits_one(capsys):
    code, _, err = _run(capsys, "homology", FIXTURES / "truncated.dg", "nope")
    assert code == 1
    assert "unknown module" in err


def test_resource_bound_exits_two(capsys):
    code, _, err = _run(
        capsys, "resolve", FIXTURES / "truncated.dg", "K", "--max-generators", "2"
    )
    assert code == 2
    assert "generator cap" in err


@pytest.mark.parametrize(
    "fixture, module", [("exterior.dg", "R"), ("exterior.dg", "M2"), ("truncated.dg", "RA")]
)
def test_resolve_free_module_is_exact_from_below_its_bottom(capsys, fixture, module):
    # a free module takes the one builder: exact on (bottom - 1)..HI like any other
    argv = ["resolve", FIXTURES / fixture, module, "--window", "0..6"]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0].endswith("exact on -1..6")
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["window"] == [-1, 6]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_resolve_free_module_obeys_generator_cap(capsys, fmt):
    # M2 is free on two generators; the cap applies to it as to any module
    argv = ["resolve", FIXTURES / "exterior.dg", "M2", "--window", "0..4"]
    code, out, err = _run(capsys, *argv, "--max-generators", "1", "--format", fmt)
    assert (code, out) == (2, "")
    assert "generator cap 1 exceeded at degree 1" in err


def test_check_epi_ring_mode_resource_bound_exits_two(capsys):
    # ring mode passes --max-generators to its Tor and Ext resolutions too;
    # the cap is hit in an Ext table of (5), after (1)-(4) and Translation
    argv = ["check-epi", FIXTURES / "truncated.dg", "aug", "--window", "0..3"]
    argv += ["--family-size", "3", "--max-generators", "12"]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert "generator cap" in err
    assert out.splitlines() == [
        "morphism aug:",
        "  (1) fails at degree 1: dims 1 vs 0",
        "  (translation) fails at degree 1: dims 1 vs 0",
        "  (2) fails at degree 1: dims 1 vs 0",
        "  (3) fails at degree 1: dims 1 vs 0",
        "  (4) fails at degree -3: dims 0 vs 1",
        "  unfinished: generator cap 12 exceeded at degree 7",
    ]
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 2
    rep = json.loads(out)
    assert [v["condition"] for v in rep["verdicts"]] == ["1", "translation", "2", "3", "4"]
    assert rep["unfinished"] == "generator cap 12 exceeded at degree 7"
    assert "is_epi" not in rep


def test_consistency_resource_bound_reports_finished_instances(capsys, tmp_path):
    # idk finishes; aug hits the cap in (5), as in the check-epi test above
    path = tmp_path / "two.dg"
    text = (FIXTURES / "truncated.dg").read_text()
    path.write_text(text.replace("morphism aug", "morphism idk : k -> k\n  u -> u\n\nmorphism aug"))
    argv = ["consistency", path, "--window", "0..3", "--family-size", "3", "--max-generators", "12"]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert "generator cap" in err
    lines = out.splitlines()
    assert lines[0] == "morphism idk:"
    assert "  homological epimorphism: YES" in lines
    assert lines[lines.index("morphism aug:"):] == [
        "morphism aug:",
        "  (1) fails at degree 1: dims 1 vs 0",
        "  (translation) fails at degree 1: dims 1 vs 0",
        "  (2) fails at degree 1: dims 1 vs 0",
        "  (3) fails at degree 1: dims 1 vs 0",
        "  (4) fails at degree -3: dims 0 vs 1",
        "  unfinished: generator cap 12 exceeded at degree 7",
    ]
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 2
    rep = json.loads(out)
    assert rep["command"] == "consistency" and "agreement" not in rep
    assert rep["instances"]["idk"]["is_epi"] is True
    aug = rep["instances"]["aug"]
    assert [v["condition"] for v in aug["verdicts"]] == ["1", "translation", "2", "3", "4"]
    assert aug["unfinished"] == "generator cap 12 exceeded at degree 7"


def test_tor_matches_periodic_oracle(capsys):
    code, out, _ = _run(
        capsys, "tor", FIXTURES / "truncated.dg", "A", "Kr", "K", "--window", "0..4"
    )
    assert code == 0
    for i in range(5):
        assert f"Tor_{i} = 1" in out


# (command, algebra, first module, second module, the module refused, its side, its algebra)
PAIR_MISMATCHES = [
    # a module over another algebra
    ("tor", "A", "Kr", "Kk", "Kk", "left", "k"),
    ("tensor", "A", "Kr", "Kk", "Kk", "left", "k"),
    ("ext", "k", "K", "Kk", "K", "left", "A"),
    ("rhom", "k", "Kk", "K", "K", "left", "A"),
    # a module on the wrong side: tor and tensor take a right module, then a
    # left one; ext and rhom take two left modules
    ("tor", "A", "K", "Kr", "K", "left", "A"),
    ("tensor", "A", "Kr", "Kr", "Kr", "right", "A"),
    ("ext", "A", "Kr", "K", "Kr", "right", "A"),
    ("rhom", "A", "K", "Kr", "Kr", "right", "A"),
]


@pytest.mark.parametrize("command, algebra, first, second, bad, side, over", PAIR_MISMATCHES)
def test_pair_commands_check_modules_before_resolving(
    capsys, monkeypatch, tmp_path, command, algebra, first, second, bad, side, over
):
    def refuse(*args, **kwargs):
        raise AssertionError("a resolution was requested")

    for module in ("dgkit.cli", "dgkit.derived", "dgkit.resolutions"):
        monkeypatch.setattr(f"{module}.semifree_resolution", refuse)
    path = tmp_path / "two_algebras.dg"
    path.write_text((FIXTURES / "truncated.dg").read_text() + "\nmodule Kk over k\n  basis m:0\n")
    code, out, err = _run(capsys, command, path, algebra, first, second, "--window", "0..2")
    assert code == 1
    assert out == ""
    assert f"module {bad} is a {side} module over {over}" in err
    for text in ("DgModule(", "free(", "Traceback"):
        assert text not in err


def test_check_epi_truncated_says_no(capsys):
    code, out, _ = _run(
        capsys,
        "check-epi",
        FIXTURES / "truncated.dg",
        "aug",
        "--window",
        "0..4",
        "--family-size",
        "2",
    )
    assert code == 0
    assert "homological epimorphism: NO" in out
    assert "agreement: yes" in out


def test_check_epi_product_says_yes(capsys):
    code, out, _ = _run(
        capsys,
        "check-epi",
        FIXTURES / "product.dg",
        "pr",
        "--window",
        "0..4",
        "--family-size",
        "2",
    )
    assert code == 0
    assert "homological epimorphism: YES" in out


def test_witness_verify_accepts(capsys):
    for w in ("wR", "wM2", "wRetract"):
        code, out, _ = _run(capsys, "witness-verify", FIXTURES / "exterior.dg", w)
        assert code == 0
        assert "accepted" in out


# well-formed cone and shift nodes over exterior.dg: C is module_cone(idR)'s
# layout, the target R then ΣR with d(Σa) = a and d(Σb) = b; SRR is Σ(E ⊕ E),
# whose shifted action carries the sign (-1)^{|x|}; g is E-linear nowhere
_CONE_MODULES = """
module C over E
  basis p:0 q:1 r:1 s:2
  act x p = q
  act x r = -1*s
  d r = p
  d s = q

module SRR over E
  basis a:1 b:2 c:1 d:2
  act x a = -1*b
  act x c = -1*d

map g : R -> R
  a -> a
"""


@pytest.mark.parametrize(
    "module, tree, verdict",
    [
        ("C", "(cone idR (leaf) (leaf))", "accepted"),
        ("C", "(cone g (leaf) (leaf))", "rejected\n  cone node map invalid: not linear over basis element x in degree 0 (degree 0)"),
        ("SRR", "(shift 1 (sum (leaf) (leaf)))", "accepted"),
        ("M2", "(shift 1 (sum (leaf) (leaf)))", "rejected\n  tree value does not match the module and no retract given (degree 0)"),
    ],
    ids=["cone", "cone-not-linear", "shift-of-sum", "shift-of-sum-wrong-module"],
)
def test_witness_verify_reads_cone_and_shift_nodes(capsys, tmp_path, module, tree, verdict):
    path = tmp_path / "cone.dg"
    path.write_text((FIXTURES / "exterior.dg").read_text() + _CONE_MODULES + f"\nwitness w for {module}\n  {tree}\n")
    assert _run(capsys, "witness-verify", path, "w") == (0, f"witness w for {module}: {verdict}\n", "")


def _nested_witness(tmp_path, node: str, depth: int):
    """exterior.dg plus a witness wDeep for R of ``depth`` nested nodes, one
    opening ``node`` per line around a leaf; and the line of the header."""
    base = (FIXTURES / "exterior.dg").read_text()
    body = [f"  {node}"] * (depth - 1) + ["  (leaf)" + ")" * (depth - 1)]
    path = tmp_path / "nested.dg"
    path.write_text(base + "\nwitness wDeep for R\n" + "\n".join(body) + "\n")
    return path, len(base.splitlines()) + 2


@pytest.mark.parametrize("node", ["(shift 1", "(sum"])
@pytest.mark.parametrize("command", ["validate", "witness-verify"])
def test_witness_nested_too_deep_is_a_parse_error(capsys, tmp_path, node, command):
    path, header = _nested_witness(tmp_path, node, 1000)
    code, _, err = _run(capsys, command, path, *(["wDeep"] if command == "witness-verify" else []))
    assert code == 1
    # the 257th '(' is on the 257th line after the header
    assert err.splitlines() == [
        f"error: line {header + 257}, column 1: expected at most 256 nested build-tree nodes"
    ]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "witness-verify"])
def test_witness_cone_of_a_wrong_degree_map_is_a_parse_error(capsys, tmp_path, command):
    # a → b raises degree by one; the cone reads g as a degree-0 map
    base = (FIXTURES / "exterior.dg").read_text() + "\nmap g : R -> R\n  a -> b\n\nwitness wG for R\n"
    path = tmp_path / "cone.dg"
    path.write_text(base + "  (cone g (leaf) (leaf))\n")
    code, out, err = _run(capsys, command, path, *(["wG"] if command == "witness-verify" else []))
    assert (code, out) == (1, "")
    line = len(base.splitlines()) + 1
    assert err == f"error: line {line}, column 1: expected degree-0 map 'g' (got 'a' -> 'b' in degree 1)\n"


def test_witness_nested_256_deep_parses(capsys, tmp_path):
    for node, verdict in (("(shift 1", "rejected"), ("(sum", "accepted")):
        path, _ = _nested_witness(tmp_path, node, 256)
        assert _run(capsys, "validate", path)[0] == 0
        code, out, _ = _run(capsys, "witness-verify", path, "wDeep")
        assert code == 0
        assert f"wDeep for R: {verdict}" in out


# a retract of R whose homotopy or inclusion is a map on M2 = R ⊕ ΣR
MIS_SHAPED_RETRACTS = {
    "homotopy": ("map hM : M2 -> M2\n", "retract idR idR hM", "h_0 shape 2x1 inconsistent"),
    "inclusion": (
        "map idM : M2 -> M2\n  a -> a\n  b -> b\n  c -> c\n  d -> d\n",
        "retract idM idR hR",
        "f_1 shape 2x2 inconsistent",
    ),
}


@pytest.mark.parametrize("case", sorted(MIS_SHAPED_RETRACTS))
def test_mis_shaped_retract_is_a_rejected_witness(capsys, tmp_path, case):
    block, retract, shape = MIS_SHAPED_RETRACTS[case]
    path = tmp_path / "retract.dg"
    path.write_text(
        (FIXTURES / "exterior.dg").read_text() + f"\n{block}\nwitness wBad for R\n  (leaf)\n  {retract}\n"
    )
    reason = f"retract map shapes: {shape} (degree 0)"
    code, out, err = _run(capsys, "witness-verify", path, "wBad")
    assert (code, err) == (0, "")
    assert out == f"witness wBad for R: rejected\n  {reason}\n"
    code, out, err = _run(capsys, "dwyer-greenlees", path, "R", "wBad", "--window=-2..8")
    assert (code, out) == (1, "")
    assert err == f"error: witness rejected: {reason}\n"


def test_dwyer_greenlees_regular(capsys):
    code, out, _ = _run(
        capsys, "dwyer-greenlees", FIXTURES / "exterior.dg", "R", "wR", "--window=-2..4"
    )
    assert code == 0
    assert "degreewise comparison with the acting algebra: yes" in out
    assert "holds-on-window" in out


@pytest.mark.parametrize("module, witness, declared", [("R", "wM2", "M2"), ("M2", "wR", "R")])
def test_dwyer_greenlees_refuses_another_modules_witness(capsys, monkeypatch, module, witness, declared):
    def refuse(*args, **kwargs):
        raise AssertionError("the endomorphism picture was built")

    monkeypatch.setattr("dgkit.cli.check_dwyer_greenlees", refuse)
    code, out, err = _run(
        capsys, "dwyer-greenlees", FIXTURES / "exterior.dg", module, witness, "--window=-2..8"
    )
    assert code == 1
    assert out == ""
    assert f"witness {witness} is declared for module {declared}, not {module}" in err
    for text in ("witness rejected", "tree value", "Traceback"):
        assert text not in err


def test_text_output_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = _run(
            capsys,
            "check-epi",
            FIXTURES / "product.dg",
            "pr",
            "--window",
            "0..3",
            "--family-size",
            "2",
            "--seed",
            "3",
        )
        assert code == 0
        runs.append(out.encode())
    assert runs[0] == runs[1]


def test_json_output_stable_and_parseable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = _run(
            capsys,
            "tor",
            FIXTURES / "truncated.dg",
            "A",
            "Kr",
            "K",
            "--window",
            "0..3",
            "--format",
            "json",
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    data = json.loads(runs[0])
    assert data["command"] == "tor"
    assert data["table"] == {"0": 1, "1": 1, "2": 1, "3": 1}
    assert list(data) == sorted(data)


def test_roundtrip_command_fixed_point(capsys):
    code, once, _ = _run(capsys, "roundtrip", FIXTURES / "exterior.dg")
    assert code == 0
    tmp = FIXTURES.parent / "test_output_roundtrip.dg"
    try:
        tmp.write_text(once)
        code, twice, _ = _run(capsys, "roundtrip", tmp)
        assert code == 0
        assert once == twice
    finally:
        tmp.unlink(missing_ok=True)


def test_bad_usage_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["homology"]) == 1


# -- each command takes only the flags it reads --------------------------------------

FLAG_VALUES = {
    "--window": "0..2",
    "--seed": "0",
    "--family-size": "2",
    "--max-generators": "10000",
    "--format": "json",
}
_RESOLVING = ("--window", "--max-generators", "--format")
_EPI = ("--window", "--seed", "--family-size", "--max-generators", "--format")
# command -> (fixture and positional arguments, flags it reads)
COMMAND_FLAGS = {
    "validate": (["truncated.dg"], ("--format",)),
    "homology": (["truncated.dg", "K"], ("--window", "--format")),
    "resolve": (["truncated.dg", "K"], _RESOLVING),
    "tor": (["truncated.dg", "A", "Kr", "K"], _RESOLVING),
    "ext": (["truncated.dg", "A", "K", "K"], _RESOLVING),
    "tensor": (["truncated.dg", "A", "Kr", "K"], _RESOLVING),
    "rhom": (["truncated.dg", "A", "K", "K"], _RESOLVING),
    "endo-dga": (["truncated.dg", "K"], ("--format",)),
    "witness-verify": (["exterior.dg", "wRetract"], ("--format",)),
    "check-epi": (["product.dg", "pr"], _EPI),
    "dwyer-greenlees": (["exterior.dg", "R", "wR"], ("--window", "--format")),
    "consistency": (["product.dg"], _EPI),
    "roundtrip": (["truncated.dg"], ()),
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_takes_the_flags_it_reads(capsys, command):
    (fixture, *positional), flags = COMMAND_FLAGS[command]
    argv = [command, FIXTURES / fixture, *positional]
    code, out, err = _run(capsys, *argv, *(a for f in flags for a in (f, FLAG_VALUES[f])))
    assert (code, err) == (0, "")
    if "--format" in flags:
        assert json.loads(out)["command"] == command
    for flag in sorted(set(FLAG_VALUES) - set(flags)):
        code, out, err = _run(capsys, *argv, flag, FLAG_VALUES[flag])
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "truncated.dg", "--family-size", "1"],
        ["roundtrip", "truncated.dg", "--window", "5..1"],
    ],
    ids=lambda argv: argv[0],
)
def test_flags_a_command_does_not_read_are_not_range_checked(capsys, argv):
    # the command never reads the flag: it is a usage error, not a bad value
    code, out, err = _run(capsys, argv[0], FIXTURES / argv[1], *argv[2:])
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {argv[2]}" in err
    assert "must be at least" not in err and "empty window" not in err
    assert _run(capsys, argv[0], FIXTURES / argv[1])[0] == 0


def test_bad_window_exits_one(capsys):
    code, _, err = _run(
        capsys, "homology", FIXTURES / "truncated.dg", "K", "--window", "5..1"
    )
    assert code == 1
    assert "empty window '5..1'" in err


def test_resolve_window_below_module_exits_one(capsys):
    # the resolution is exact from one below K's bottom degree 0 up to the
    # window's top, so a window ending below -1 leaves nothing to resolve
    code, out, err = _run(capsys, "resolve", FIXTURES / "truncated.dg", "K", "--window=-3..-2")
    assert code == 1
    assert out == ""
    assert "--window" in err and "bottom degree 0" in err
    assert "-1..-2" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-epi", "truncated.dg", "aug", "--window", "2..2"],
        ["check-epi", "truncated.dg", "aug", "--window=-5..2"],
        ["check-epi", "truncated.dg", "aug", "--window", "0..0"],
        ["consistency", "product.dg", "--window", "1..3"],
        ["consistency", "product.dg", "--window=-2..3"],
        ["consistency", "product.dg", "--window", "0..0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_epi_window_must_start_at_zero(capsys, argv):
    # the verdicts cover degrees 0..HI: a window starting elsewhere, or one
    # without a degree above 0, would be silently replaced by another
    code, out, err = _run(capsys, argv[0], FIXTURES / argv[1], *argv[2:], "--family-size", "2")
    assert code == 1
    assert out == ""
    assert "error: --window must be 0..HI with HI at least 1, got " in err


@pytest.mark.parametrize("window", [["--window", "3..4"], ["--window=-3..-1"]], ids=" ".join)
@pytest.mark.parametrize("command, modules", [("tor", ["Kr", "K"]), ("ext", ["K", "K"])])
def test_tor_ext_window_must_start_at_zero(capsys, command, modules, window):
    # the table covers degrees 0..HI: a window that starts elsewhere, or ends
    # below 0, would print degrees outside it
    code, out, err = _run(capsys, command, FIXTURES / "truncated.dg", "A", *modules, *window)
    assert (code, out) == (1, "")
    assert "error: --window must be 0..HI with HI at least 0, got " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, modules", [("tor", ["Kr", "K"]), ("ext", ["K", "K"])])
def test_tor_ext_window_from_zero_prints_its_degrees(capsys, command, modules):
    code, out, err = _run(capsys, command, FIXTURES / "truncated.dg", "A", *modules, "--window", "0..4")
    name = command.capitalize()
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{name} over A of ({', '.join(modules)}), degrees 0..4",
        *(f"  {name}_{i} = 1" for i in range(5)),
    ]


@pytest.mark.parametrize(
    "flag, value, least",
    [
        ("--max-generators", -1, 1),
        ("--max-generators", 0, 1),
        ("--family-size", -5, 2),
        ("--family-size", 1, 2),
    ],
)
def test_bad_count_flags_exit_one(capsys, flag, value, least):
    code, out, err = _run(capsys, "check-epi", FIXTURES / "truncated.dg", "aug", flag, value)
    assert code == 1
    assert out == ""
    assert f"error: {flag} must be at least {least}, got {value}" in err


# -- input validation in computing commands -----------------------------------------

BAD_GRADING = (
    "field Q\n\nalgebra A\n  basis e:0 x:0\n  unit e\n  mul x x = 0\n\n"
    "module M over A\n  basis m:0 n:1\n  act x m = n\n"
)


@pytest.fixture
def bad_grading(tmp_path):
    # x·m = n with |x| = |m| = 0 and |n| = 1: the action breaks the grading
    path = tmp_path / "bad_action_grading.dg"
    path.write_text(BAD_GRADING)
    return path


def test_validate_reports_action_grading(capsys, bad_grading):
    code, out, _ = _run(capsys, "validate", bad_grading)
    assert code == 1
    assert "grading fails at (1, 0)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "M"],
        ["resolve", "M"],
        ["endo-dga", "M"],
        ["tor", "A", "M", "M"],
        ["tensor", "A", "M", "M"],
    ],
    ids=lambda argv: argv[0],
)
def test_computing_commands_reject_invalid_module(capsys, bad_grading, argv):
    code, out, err = _run(capsys, argv[0], bad_grading, *argv[1:])
    assert code == 1
    assert out == ""
    assert "module M violates the axioms: grading fails at (1, 0)" in err


def test_check_epi_rejects_invalid_algebra(capsys, tmp_path):
    path = tmp_path / "bad_algebra.dg"
    text = (FIXTURES / "bad_axiom.dg").read_text()
    path.write_text(text + "\nmorphism idB : B -> B\n  e -> e\n  x -> x\n  y -> y\n")
    code, _, err = _run(capsys, "check-epi", path, "idB", "--family-size", "2")
    assert code == 1
    assert "algebra B violates the axioms: leibniz fails" in err


# -- mutated fixtures never crash the CLI ---------------------------------------------

_NUMBER = re.compile(r"-?\d+")
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _mutate(text: str, data) -> str:
    lines = [_TOKEN.findall(line) for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        slots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
        if not slots:
            break
        i, j = data.draw(st.sampled_from(slots), label="token")
        op = data.draw(st.sampled_from(("drop", "duplicate", "swap", "flip")), label="op")
        if op == "drop":
            del lines[i][j]
        elif op == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif op == "swap":
            k, m = data.draw(st.sampled_from(slots), label="other")
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        elif _NUMBER.search(lines[i][j]):
            new = data.draw(st.sampled_from((-2, -1, 0, 1, 2, 3, 5, 101)), label="number")
            lines[i][j] = _NUMBER.sub(str(new), lines[i][j], count=1)
    return "\n".join("  " + " ".join(toks) for toks in lines) + "\n"


def _first(text: str, keyword: str) -> str:
    found = re.search(rf"^\s*{keyword}\s+(\S+)", text, re.MULTILINE)
    return found.group(1) if found else "none"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(p.name for p in FIXTURES.glob("*.dg"))), st.data())
def test_mutated_fixtures_exit_cleanly(fixture, data):
    text = _mutate((FIXTURES / fixture).read_text(), data)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / fixture
        path.write_text(text)
        algebra, module, witness = (_first(text, k) for k in ("algebra", "module", "witness"))
        bounded = ["--window", "0..3", "--max-generators", "30"]
        for argv in (
            ["validate", path],
            ["roundtrip", path],
            ["homology", path, module],
            ["resolve", path, module, *bounded],
            ["endo-dga", path, module],
            ["tor", path, algebra, module, module, *bounded],
            ["witness-verify", path, witness],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(a) for a in argv])
            assert code in (0, 1, 2), (argv, text)
            assert "Traceback" not in err.getvalue(), (argv, text)
