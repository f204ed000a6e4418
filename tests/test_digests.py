"""Byte-identity guards: canonical-map matrices and README stdout, by sha256.

The digests were recorded before the chain-map builder replaced the
hand-written matrix-assembly loops.  A change that alters any matrix entry,
shape or degree of these maps, or any byte the README examples print, fails
here; a deliberate change has to record new digests and say why.
"""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from dgkit.cli import main
from dgkit.dga import bimodule_from_morphism, regular_bimodule
from dgkit.derived import (
    _condition3_map,
    _condition5_map,
    _induction_counit,
    _ring_condition4_map,
    counit_map,
    duality_map,
    multiplication_map,
    unit_map,
)
from dgkit.epicheck import generate_test_family
from dgkit.field import GF, QQ
from dgkit.resolutions import BuildTreeWitness, Leaf
from dgkit.standard import (
    exterior_algebra,
    identity_morphism,
    product_to_ground,
    triangular_to_product,
    truncated_polynomial,
    truncated_to_ground,
)

from oracles import tensor_unit_iso

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIELDS = {"Q": QQ, "F101": GF(101)}
CAP = 10000


def _digest(cm) -> str:
    """sha256 over the dimensions and every entry of every degree-wise matrix."""
    h = hashlib.sha256()
    src, tgt = cm.source, cm.target
    for n in sorted(set(src.space.dims) | set(tgt.space.dims)):
        m = cm.f(n)
        h.update(f"{n}:{src.dim(n)}->{tgt.dim(n)}:{m.rows}x{m.cols}:".encode())
        h.update(",".join(str(x) for row in m.entries for x in row).encode())
        h.update(b";")
    return h.hexdigest()


def _family_digests(maps) -> str:
    return hashlib.sha256("".join(_digest(cm) for cm in maps).encode()).hexdigest()


def _morphisms(F):
    """x -> 0 on k[x]/(x²), the identity of Λ(x), and T₂(k) -> k×k."""
    return (
        truncated_to_ground(2, F),
        identity_morphism(exterior_algebra(F)),
        triangular_to_product(F),
    )


def _family(phi):
    return generate_test_family(phi.target, 0, 3)


def _unit(F):
    out = []
    for S in (truncated_polynomial(2, F), exterior_algebra(F)):
        M = regular_bimodule(S)
        out += [unit_map(M, N, 2) for _, N in generate_test_family(S, 0, 3).left]
    return out


def _counit(F):
    out = []
    for phi in _morphisms(F)[:2]:
        M = bimodule_from_morphism(phi)
        out += [counit_map(M, N, 1) for _, N in _family(phi).left]
    return out


def _duality(F):
    w = BuildTreeWitness(Leaf(0))
    out = []
    for phi in (truncated_to_ground(2, F), product_to_ground(F)):
        M = bimodule_from_morphism(phi)
        out += [duality_map(M, N, w, 2) for _, N in _family(phi).left]
    return out


def _multiplication(F):
    return [
        multiplication_map(phi, 3)
        for phi in (truncated_to_ground(2, F), product_to_ground(F), triangular_to_product(F))
    ]


def _condition3(F):
    out = []
    for phi in _morphisms(F)[:2]:
        M = bimodule_from_morphism(phi)
        fam = _family(phi)
        out += [_condition3_map(M, Nr, Nl, 1, CAP) for (_, Nr), (_, Nl) in zip(fam.right, fam.left)]
    return out


def _condition5(F):
    out = []
    for phi in _morphisms(F)[:2]:
        M = bimodule_from_morphism(phi)
        out += [_condition5_map(M, N, 1, CAP) for _, N in _family(phi).left]
    return out


def _ring_condition2(F):
    out = []
    for phi in (truncated_to_ground(2, F), triangular_to_product(F)):
        out += [_induction_counit(phi, N, 3, CAP) for _, N in _family(phi).left]
    return out


def _ring_condition4(F):
    out = []
    for phi in (truncated_to_ground(3, F), triangular_to_product(F)):
        out += [_ring_condition4_map(phi, N, 3, CAP) for _, N in _family(phi).left]
    return out


def _tensor_unit(F):
    out = []
    for A in (truncated_polynomial(3, F), exterior_algebra(F)):
        out += [tensor_unit_iso(A, N) for _, N in generate_test_family(A, 0, 3).left]
    return out


MAP_DIGESTS = {
    # range-built: every map but tensor_unit_iso builds its compared complexes
    # and its matrices only on −D−1..D+1, the degrees quasi_iso reads on
    # −D..D, so the degrees outside drop out of these hashes; every matrix on
    # the range is the full build's (tests/test_ranges.py)
    #
    # the unit's target Hom_R(Q, M ⊗_S P), the counit's source Zt ⊗_R (Q ⊗_S P),
    # (3)'s source and (5)'s target Hom_R(Qs ⊗_S Pn, Qt ⊗_S N) are built on the
    # R-free views of Q and Q ⊗_S P, not on the generic kernel and quotient
    # bases: a change of basis, checked in tests/test_free_views.py
    ("unit_map", "Q"): "436623b7e8de444894a92e023192add6e1c617db778c1c7b112a5462f95a9101",
    ("unit_map", "F101"): "795cdf5b093be3d222cc1659b41a8da86f9f00bf1853bedef9fcd4535f849ec9",
    # a free module resolves to itself with ε = −id, a sign every entry of
    # these maps carries
    ("counit_map", "Q"): "015e3635a4ad1c655d1232dc3a5b1a08369569307c4e49ee85207a7dcb940e24",
    ("counit_map", "F101"): "fe8b8bed1b24c72304039cb93703674550cd61aa9c7756f666f929d3845393f6",
    # the duality map pairs the one truncated dual, whose deeper resolution Q
    # widens the source Q ⊗ P; homology on -2..2 is unchanged
    ("duality_map", "Q"): "9d5e847fb9bf2dd61ddc4ea3bca8bdd868f723cc4aa4db466ee0a88c0611a645",
    ("duality_map", "F101"): "7544c74b259881b151f742374bb87c5aec5608c97c35e7a02dc97ce8bdc39775",
    # multiplication, ring (2) and ring (4) over k × k and T₂(k) resolve on
    # generators of A e, which finish: a change of resolution, with every iso
    # report equal to the free builder's (tests/test_projective.py)
    ("multiplication_map", "Q"): "767bd1c2b29e1ee10c47698eca8ea67d1d48b20960470b01949041290a7f8137",
    ("multiplication_map", "F101"): "0534a74d9408cf23407f81a1edea9c6070d44c09f279c7808029c8073bd0cba6",
    ("_condition3_map", "Q"): "fb86066c18360ae188a4d6d2a3c16e422bb359fbf54c209b31cc7864d97d00cc",
    ("_condition3_map", "F101"): "e5ff0df1d0ec0728ec8ffec21ec95bb520abe16d75080ff175e3324212592c4a",
    # the Hom basis of (5)'s source and ring (4)'s target is now the generator
    # values of the resolution, not the RREF kernel basis of the A-linearity
    # constraints: a change of basis, checked in tests/test_free_hom.py
    ("_condition5_map", "Q"): "e33b8a0a203cbfa169c88a5925ddef5ca41f495a95972dcbb801400d38ce7957",
    ("_condition5_map", "F101"): "5fef9012a824a0f17e2ca2bfa9b7fbc9b29653031aebd8210e68d9f664996ef1",
    ("_ring_condition2_map", "Q"): "4a4dd83563c86794356dc9a4cf8beaed1cf888c940de5c0d96ad2733cb7eca16",
    ("_ring_condition2_map", "F101"): "8b7eba8f9a7b7728b43c751d580b0845bf283fe174999b1582fc6102ca49af95",
    ("_ring_condition4_map", "Q"): "d509aaf8dd920552447f983e2ff99f5b20e4d22396135d2c7b2aca4eb3195700",
    ("_ring_condition4_map", "F101"): "f30fef9de1acdaa3a76728579b06666b2952d586f2db6d30ff7177ad17168539",
    ("tensor_unit_iso", "Q"): "65ecec7194a82f5c2a9169e09515362ac974f4bc24fefdb64b1eb3d5299d501a",
    ("tensor_unit_iso", "F101"): "bc23e6de90ae30c1374660f59b82c70e83b9554b7505786ce2869472b003d820",
}

BUILDERS = {
    "unit_map": _unit,
    "counit_map": _counit,
    "duality_map": _duality,
    "multiplication_map": _multiplication,
    "_condition3_map": _condition3,
    "_condition5_map": _condition5,
    "_ring_condition2_map": _ring_condition2,
    "_ring_condition4_map": _ring_condition4,
    "tensor_unit_iso": _tensor_unit,
}


@pytest.mark.parametrize("name, field", sorted(MAP_DIGESTS), ids=lambda x: str(x))
def test_canonical_map_matrices_unchanged(name, field):
    maps = BUILDERS[name](FIELDS[field])
    assert all(cm.validate() is True for cm in maps)
    assert _family_digests(maps) == MAP_DIGESTS[(name, field)]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_rational_map_entries_in_normal_form(name):
    """Every Q matrix entry of these maps is an int, or a Fraction only when
    it is not integral."""
    for cm in BUILDERS[name](QQ):
        mats = [cm.f(n) for n in cm.source.degrees()]
        mats += [C.d(n) for C in (cm.source, cm.target) for n in C.degrees()]
        for m in mats:
            for x in (x for col in m.columns for x in col.values()):
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1), (name, x)


README_DIGESTS = {
    "validate": (
        ["validate", "truncated.dg"],
        "222ee0ef028c85322c9417605a4b4aaa0392b1bfbd45b9fa84e850d707ae47c5",
    ),
    "tor": (
        ["tor", "truncated.dg", "A", "Kr", "K", "--window", "0..8"],
        "4b6ea25c72c705eda519c57f4526ea529dae4a4e49d514affd0d33c7e99816dd",
    ),
    "check-epi": (
        ["check-epi", "truncated.dg", "aug", "--window", "0..4"],
        "bb14268534e5b53ddcc2e1de2949d44bfd845f635db292f8aecc1af3021ca12e",
    ),
    "dwyer-greenlees": (
        ["dwyer-greenlees", "exterior.dg", "R", "wR", "--window=-2..8"],
        "0725119a66e962a152e55512e83cc91ad6b0ea3fea3022e76aaddd49ee0a8403",
    ),
    "witness-verify": (
        ["witness-verify", "exterior.dg", "wRetract"],
        "42cd9c073c37e6985dcff7756eb32707d793325615c4677738b2c83a1b4ddea7",
    ),
    "consistency": (
        ["consistency", "product.dg", "--seed", "0", "--family-size", "4"],
        "3fc84d01d9e6e51c7e57759084620dd1a3971c54986725024b85679df0392940",
    ),
}


@pytest.mark.parametrize("example", sorted(README_DIGESTS))
def test_readme_example_stdout_unchanged(capsys, example):
    argv, digest = README_DIGESTS[example]
    argv = [str(FIXTURES / a) if a.endswith(".dg") else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
