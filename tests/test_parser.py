import math
from fractions import Fraction
from pathlib import Path

import pytest

from dgkit.dga import validate_dga, validate_module, validate_morphism
from dgkit import field
from dgkit.field import GF
from dgkit.parser import ParseError, parse, serialize
from dgkit.resolutions import verify_build_tree

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _read(name):
    return (FIXTURES / name).read_text()


GOOD = ["truncated.dg", "exterior.dg", "product.dg"]


def test_parse_truncated_objects():
    pf = parse(_read("truncated.dg"))
    assert set(pf.algebras) == {"A", "k"}
    assert set(pf.modules) == {"K", "Kr", "RA"}
    assert set(pf.morphisms) == {"aug"}
    assert set(pf.witnesses) == {"wRA"}
    A = pf.algebras["A"]
    assert A.total_dim == 2 and A.mul.get((1, 1), {}) == {}
    assert pf.modules["Kr"].side == "right"


def test_parsed_objects_satisfy_axioms():
    for name in GOOD:
        pf = parse(_read(name))
        for a in pf.algebras.values():
            assert validate_dga(a) == []
        for m in pf.modules.values():
            assert validate_module(m) == []
        for phi in pf.morphisms.values():
            assert validate_morphism(phi) == []


def test_unit_products_defaulted():
    pf = parse("field Q\nalgebra A\n  basis e:0 x:0\n  unit e\n  mul x x = 0\n")
    A = pf.algebras["A"]
    assert A.mul[(0, 1)] == {1: A.field.one}
    assert A.mul[(1, 0)] == {1: A.field.one}


@pytest.mark.parametrize(
    "block, axiom",
    [
        ("algebra A\n  basis e:0 x:0\n  unit e\n  mul e x = 0\n", "unit-law"),
        ("algebra A\n  basis e:0 x:0\n  unit e\n  mul x e = 2*x\n", "unit-law"),
        ("algebra A\n  basis e:0\n  unit e\nmodule M over A\n  basis m:0\n  act e m = 0\n", "unit-action"),
    ],
)
def test_explicit_unit_products_are_kept(block, axiom):
    # a written unit product or action, zero included, is not replaced by the default
    pf = parse("field Q\n" + block)
    bad = [validate_dga(A) for A in pf.algebras.values()] + [
        validate_module(M) for M in pf.modules.values()
    ]
    assert [v.axiom for vs in bad for v in vs][0] == axiom
    # and written back, so a round trip keeps it
    text = serialize(pf)
    assert serialize(parse(text)) == text
    again = parse(text)
    assert [A.mul for A in again.algebras.values()] == [A.mul for A in pf.algebras.values()]
    assert [M.act for M in again.modules.values()] == [M.act for M in pf.modules.values()]


def test_rational_and_prime_coefficients():
    pf = parse("field Q\nalgebra A\n  basis e:0 x:0\n  unit e\n  mul x x = 1/2*x + 3*e\n")
    assert pf.algebras["A"].mul[(1, 1)] == {0: Fraction(3), 1: Fraction(1, 2)}
    pf = parse("field Fp 5\nalgebra A\n  basis e:0 x:0\n  unit e\n  mul x x = 1/2*x\n")
    assert pf.algebras["A"].mul[(1, 1)] == {1: 3}  # 1/2 = 3 mod 5


def test_round_trip_fixed_point():
    for name in GOOD:
        s1 = serialize(parse(_read(name)))
        s2 = serialize(parse(s1))
        assert s1 == s2


def test_witnesses_verify_after_parse():
    pf = parse(_read("exterior.dg"))
    for w in pf.witnesses.values():
        assert verify_build_tree(w.witness, pf.modules[w.module_name]) is True


def test_retract_witness_round_trips():
    pf = parse(_read("exterior.dg"))
    pf2 = parse(serialize(pf))
    w = pf2.witnesses["wRetract"]
    assert w.retract == ("idR", "idR", "hR")
    assert verify_build_tree(w.witness, pf2.modules["R"]) is True


@pytest.mark.parametrize(
    "text,where",
    [
        ("", 1),
        ("algebra A\n  basis e:0\n  unit e\n", 1),
        ("field Fp 4\n", 1),
        ("field Q\nalgebra A\n  basis e:0\n", 2),  # no unit
        ("field Q\nalgebra A\n  basis e:0\n  unit q\n", 4),
        ("field Q\nalgebra A\n  basis e:0\n  unit e\n  mul y e = e\n", 5),
        ("field Q\nmodule M over A\n  basis m:0\n", 2),  # unknown algebra
        ("field Q\nalgebra A\n  basis e:0\n  unit e\nmorphism f : A -> B\n", 5),
        ("field Q\nalgebra A\n  basis e:0\n  unit e\n  mul e e = 2x\n", 5),
        ("field Q\nwitness w for M\n  (leaf)\n", 2),
        ("field Q\nalgebra A\n  basis e:0\n  unit e\nwitness w for A\n", 5),
    ],
)
def test_errors_are_positioned(text, where):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == where


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse("field Q\nalgebra A\n  basis e:0\n  unit e\nalgebra A\n  basis f:0\n  unit f\n")


def test_comments_and_blank_lines_ignored():
    pf = parse("# header\nfield Q\n\n# note\nalgebra A\n  basis e:0\n  unit e\n")
    assert set(pf.algebras) == {"A"}


@pytest.mark.parametrize("tree", ["(shift", "(cone", "(sum (leaf) (shift"])
def test_truncated_build_tree_is_a_parse_error(tree):
    text = "field Q\nalgebra A\n  basis e:0\n  unit e\nmodule M over A\n  basis m:0\n"
    with pytest.raises(ParseError) as exc:
        parse(text + f"witness w for M\n  {tree}\n")
    assert exc.value.line == 8


# -- pinned parse errors --------------------------------------------------------
# Each malformed block below reports (line, column, expected) as recorded before
# the block reader and the table helper were shared.  Algebra and module tables
# are resolved after the whole block is read (mul or act before d); arrow lines
# are resolved as they are read, so a bad label before a bad line wins.

_A = "field Q\nalgebra A\n  basis e:0 x:1\n  unit e\n"  # lines 1-4
_M = _A + "module M over A\n  basis m:0 n:1\n"  # lines 5-6
_N = _M + "module N over A\n  basis p:0\n"  # lines 7-8


@pytest.mark.parametrize(
    "text, line, column, expected",
    [
        ('field Q\nalgebra\n', 2, 1, 'algebra <name>'),
        (_A + 'algebra A\n  basis f:0\n  unit f\n', 5, 1, "fresh algebra name (got duplicate 'A')"),
        ('field Q\nalgebra A\n  basis e0\n  unit e\n', 3, 1, "label:degree (got 'e0')"),
        ('field Q\nalgebra A\n  basis e:x\n  unit e\n', 3, 1, "integer (got 'x')"),
        ('field Q\nalgebra A\n  basis e:0 e:1\n  unit e\n', 3, 1, "fresh basis label (got duplicate 'e')"),
        ('field Q\nalgebra A\n  basis e:0 e:0 x:q\n  unit e\n', 3, 1, "integer (got 'q')"),
        ('field Q\nalgebra A\n  basis e:0\n  unit e e\n', 4, 1, 'unit <label>'),
        (_A + '  mul x = e\n', 5, 1, 'mul <a> <b> = <lin-comb>'),
        (_A + '  d x e\n', 5, 1, 'd <a> = <lin-comb>'),
        (_A + '  act x e = e\n', 5, 1, 'basis, unit, mul or d line'),
        ('field Q\nalgebra A\n  basis e:0\n', 2, 1, "unit line in algebra block 'A'"),
        ('field Q\nalgebra A\n  basis e:0\n  unit q\n  mul q q = q\n', 4, 1, "known basis label (got 'q')"),
        (_A + '  mul y e = e\n', 5, 1, "known basis label (got 'y')"),
        (_A + '  mul e y = e\n', 5, 1, "known basis label (got 'y')"),
        (_A + '  mul x x = y\n', 5, 1, "known basis label (got 'y')"),
        (_A + '  mul x x = a*x\n', 5, 1, 'integer or rational coefficient'),
        (_A + '  mul x x = x + \n', 5, 1, "term between '+' signs"),
        (_A + '  mul x x = 1/0*x\n', 5, 1, 'integer or rational coefficient'),
        (_A + '  d q = e\n', 5, 1, "known basis label (got 'q')"),
        (_A + '  d x = 2*q\n', 5, 1, "known basis label (got 'q')"),
        (_A + '  d q = e\n  mul y e = e\n', 6, 1, "known basis label (got 'y')"),
        (_A + '  mul y e = e\n  frob\n', 6, 1, 'basis, unit, mul or d line'),
        ('field Q\nalgebra A\n  mul x x = x\n  basis e:0 x:0\n  unit e\n  d x = z\n', 6, 1, "known basis label (got 'z')"),
        (_A + 'module M over\n', 5, 1, 'module <name> over <algebra> [right]'),
        (_A + 'module M over A left\n', 5, 1, "'right' or end of line"),
        (_A + 'module M over B\n', 5, 1, "declared algebra (got 'B')"),
        (_M + 'module M over A\n  basis q:0\n', 7, 1, "fresh module name (got duplicate 'M')"),
        (_M + '  act x m\n', 7, 1, 'act <a> <m> = <lin-comb>'),
        (_M + '  act y m = n\n', 7, 1, "known algebra label (got 'y')"),
        (_M + '  act x q = n\n', 7, 1, "known module label (got 'q')"),
        (_M + '  act x m = r\n', 7, 1, "known basis label (got 'r')"),
        (_M + '  d q = m\n', 7, 1, "known module label (got 'q')"),
        (_M + '  d m = 1/2*n + e\n', 7, 1, "known basis label (got 'e')"),
        (_M + '  mul x m = n\n', 7, 1, 'basis, act or d line'),
        (_A + 'module M over A\n  basis m:0 m:1\n', 6, 1, "fresh basis label (got duplicate 'm')"),
        (_M + '  d q = m\n  act y m = n\n', 8, 1, "known algebra label (got 'y')"),
        (_M + '  act y m = n\n  d m\n', 8, 1, 'd <m> = <lin-comb>'),
        (_A + 'morphism f : A -> \n', 5, 1, 'morphism <name> : <source> -> <target>'),
        (_A + 'morphism f : A => A\n', 5, 1, 'morphism <name> : <source> -> <target>'),
        (_A + 'morphism f : A -> B\n', 5, 1, "declared algebra (got 'B')"),
        (_A + 'morphism f : A -> A\n  e -> e\nmorphism f : A -> A\n', 7, 1, "fresh morphism name (got duplicate 'f')"),
        (_A + 'morphism f : A -> A\n  e => e\n', 6, 1, '<element> -> <lin-comb>'),
        (_A + 'morphism f : A -> A\n  y -> e\n', 6, 1, "known source label (got 'y')"),
        (_A + 'morphism f : A -> A\n  e -> e + y\n', 6, 1, "known basis label (got 'y')"),
        (_A + 'morphism f : A -> A\n  y -> e\n  e e\n', 6, 1, "known source label (got 'y')"),
        (_A + 'morphism f : A -> A\n  e e\n  y -> e\n', 6, 1, '<element> -> <lin-comb>'),
        (_A + 'morphism f : A -> A\n  e -> e\n  x -> 3/x*x\n', 7, 1, 'integer or rational coefficient'),
        (_M + 'map g : M -> P\n', 7, 1, "declared module (got 'P')"),
        (_M + 'map g : M -> M\n  q -> m\n', 8, 1, "known source label (got 'q')"),
        (_M + 'map g : M -> M\n  m -> q\n', 8, 1, "known basis label (got 'q')"),
        (_N + 'map g : M -> N\n  m -> p\n  n -> x*p\n', 11, 1, 'integer or rational coefficient'),
        (_N + 'map g : M -> N\n  m -> p\nmap g : M -> N\n', 11, 1, "fresh map name (got duplicate 'g')"),
        (_N + 'map g : M -> N\n  m -> p + \n', 10, 1, "term between '+' signs"),
        (_N + 'map g : M -> N\n  m\n', 10, 1, '<element> -> <lin-comb>'),
        (_N + 'map g : M -> N -> N\n', 9, 1, 'map <name> : <source> -> <target>'),
        # a key has one line: the second is an error, whatever either says
        (_A + '  mul x x = x\n  mul x x = 0\n', 6, 1, "fresh table key (got duplicate 'x x')"),
        (_A + '  mul x x = 0\n  mul x x = e\n', 6, 1, "fresh table key (got duplicate 'x x')"),
        (_A + '  mul e x = x\n  mul e x = x\n', 6, 1, "fresh table key (got duplicate 'e x')"),
        (_A + '  d x = e\n  d e = 0\n  d x = 0\n', 7, 1, "fresh table key (got duplicate 'x')"),
        (_A + '  d x = e\n  d x = e\n  mul y e = e\n', 7, 1, "known basis label (got 'y')"),
        (_M + '  act x m = n\n  act x m = 0\n', 8, 1, "fresh table key (got duplicate 'x m')"),
        (_M + '  d n = m\n  d n = 2*m\n', 8, 1, "fresh table key (got duplicate 'n')"),
        (_A + 'morphism f : A -> A\n  e -> e\n  e -> e\n', 7, 1, "fresh table key (got duplicate 'e')"),
        (_N + 'map g : M -> N\n  m -> p\n  m -> 0\n', 11, 1, "fresh table key (got duplicate 'm')"),
        # a build-tree error is reported at the line of its token
        (_M + 'witness w for M\n  (shift x\n  (leaf))\n', 8, 1, "integer (got 'x')"),
        (_M + 'witness w for M\n  (sum (leaf)\n  (frob))\n', 9, 1, "leaf, shift, sum or cone (got 'frob')"),
        (_M + 'witness w for M\n  (shift 1\n  (leaf)\n', 9, 1, "')' closing the node"),
        (_M + 'witness w for M\n  (leaf)\n  (leaf)\n', 9, 1, 'end of s-expression'),
        # an algebra block has one unit line, whatever either says
        ('field Q\nalgebra A\n  basis e:0 x:0\n  unit e\n  unit x\n', 5, 1, "one unit line (got second 'unit x')"),
        # F_p needs a prime p: Fp 0 is not the rationals
        ('field Fp 0\n', 1, 1, 'prime modulus (got 0)'),
        ('field Fp 1\n', 1, 1, 'prime modulus (got 1)'),
    ],
)
def test_parse_error_positions_and_texts_are_pinned(text, line, column, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column, exc.value.expected) == (line, column, expected)
    assert str(exc.value) == f"line {line}, column {column}: expected {expected}"


# a witness reads a cone's map and a retract's i and p as degree-0 maps and
# its h as a degree-1 map; an image in another degree is an error at the
# map's token, or at the retract line
_G = _M + 'map g : M -> M\n  m -> n\n'  # degree 1, lines 7-8
_I = _M + 'map i : M -> M\n  m -> m\n  n -> n\n'  # degree 0, lines 7-9


@pytest.mark.parametrize(
    "text, line, expected",
    [
        (_G + 'witness w for M\n  (sum (leaf)\n  (cone g (leaf) (leaf)))\n', 11, "degree-0 map 'g' (got 'm' -> 'n' in degree 1)"),
        (_G + 'map h : M -> M\nwitness w for M\n  (leaf)\n  retract g g h\n', 12, "degree-0 map 'g' (got 'm' -> 'n' in degree 1)"),
        (_I + 'map h : M -> M\n  m -> m\nwitness w for M\n  retract i i h\n  (leaf)\n', 13, "degree-1 map 'h' (got 'm' -> 'm' in degree 0)"),
    ],
    ids=["cone", "retract-i", "retract-h"],
)
def test_witness_map_of_the_wrong_degree_is_a_parse_error(text, line, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column, exc.value.expected) == (line, 1, expected)


def test_witness_maps_of_their_degrees_parse():
    text = _I + 'map h : M -> M\n  m -> n\nwitness w for M\n  (leaf)\n  retract i i h\n'
    w = parse(text).witnesses["w"]
    assert w.retract == ("i", "i", "h")
    assert (w.witness.homotopy[0].rows, w.witness.homotopy[0].cols) == (1, 1)  # h: M_0 -> M_1


def test_gf_needs_a_prime():
    for p in (-3, 0, 1, 4, 9):
        with pytest.raises(ValueError):
            GF(p)
    assert GF(2).characteristic == 2 and GF(101).characteristic == 101


def test_gf_agrees_with_trial_division(monkeypatch):
    for p in range(10**4):
        if p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1)):
            assert GF(p).characteristic == p
        else:
            with pytest.raises(ValueError):
                GF(p)
    # beyond the bound Miller–Rabin decides nothing, and GF refuses the modulus
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        GF(2**89 - 1)
    # one primality test per field
    calls = []
    monkeypatch.setattr(field, "_is_prime", lambda n, test=field._is_prime: calls.append(n) or test(n))
    GF(10**18 + 3)
    assert calls == [10**18 + 3]


_LABEL = "basis label: not empty or 0, no *, +, = or ->"


@pytest.mark.parametrize(
    "label", ["0", "", "a*b", "a+b", "a=b", "a->b", "*", "+a", "b="],
)
@pytest.mark.parametrize("block", ["algebra", "module"])
def test_basis_labels_the_tables_cannot_name_are_rejected(label, block):
    # with label 0, `mul z z = 1*0` read z² as the basis element 0 and wrote
    # it back as `= 0`, zero; with label a=b, `d a=b = 0` split at its first '='
    if block == "algebra":
        text = f"field Q\nalgebra A\n  basis e:0 z:1 {label}:2\n  unit e\n  mul z z = 1*{label}\n  d {label} = 0\n"
    else:
        text = _A + f"module M over A\n  basis m:0 {label}:1\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    line = 3 if block == "algebra" else 6
    assert (exc.value.line, exc.value.expected) == (line, f"{_LABEL} (got {label!r})")


@pytest.mark.parametrize("label", ["x0", "0x", "10", "a-b", "a>b", "-", "x'", "1/2"])
def test_other_labels_round_trip(label):
    pf = parse(f"field Q\nalgebra A\n  basis e:0 z:1 {label}:2\n  unit e\n  mul z z = 2*{label}\n")
    assert pf.algebras["A"].mul[1, 1] == {2: 2}
    assert serialize(parse(serialize(pf))) == serialize(pf)
