from fractions import Fraction
from pathlib import Path

import pytest

from dgkit.dga import validate_dga, validate_module, validate_morphism
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
