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
        out += [unit_map(M, N, 2).chain_map for _, N in generate_test_family(S, 0, 3).left]
    return out


def _counit(F):
    out = []
    for phi in _morphisms(F)[:2]:
        M = bimodule_from_morphism(phi)
        out += [counit_map(M, N, 1).chain_map for _, N in _family(phi).left]
    return out


def _duality(F):
    w = BuildTreeWitness(Leaf(0))
    out = []
    for phi in (truncated_to_ground(2, F), product_to_ground(F)):
        M = bimodule_from_morphism(phi)
        out += [duality_map(M, N, w, 2).chain_map for _, N in _family(phi).left]
    return out


def _multiplication(F):
    return [
        multiplication_map(phi, 3).chain_map
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
    ("unit_map", "Q"): "370fe0de927375d579bce3e67926b979305c8957d0d2a70c5c8ea1d21e53e181",
    ("unit_map", "F101"): "e61642c82c039ef402e4b5e3963eb5d12cb347bbba07b3bc8c655e308f139ab6",
    # a free module resolves to itself with ε = −id, a sign every entry of
    # these maps carries
    ("counit_map", "Q"): "b7465099b2e5ef0a21e9c66ecccaee52b5c51815150f70430481617edf95ab7b",
    ("counit_map", "F101"): "b387d08055272d2af9039db429e216f59c889fa9ad5382f1322a8e9c5d2739bf",
    # the duality map pairs the one truncated dual, whose deeper resolution Q
    # widens the source Q ⊗ P; homology on -2..2 is unchanged
    ("duality_map", "Q"): "78047ccdfd6f1191d24784d517b43d52a92057ada1c16aa548f36d36f4eb513c",
    ("duality_map", "F101"): "3a0cfe88ccacabc852116d7601dfee7352eb29464960d582ac85a7de659be4f7",
    ("multiplication_map", "Q"): "2d60b60dbb56de716253d1083d0ea5211e75f7f384f3c39d927a1df3237c63e6",
    ("multiplication_map", "F101"): "8887119b40d03425f3db85dd435c26bef86917a215408a41db9438b2eae6f00c",
    ("_condition3_map", "Q"): "bd8efaa986949224ec670737eb2e4a270f5819fef81da761824a70cda28330d4",
    ("_condition3_map", "F101"): "2bade4213bdda15a4dd6a0aea0ffe10c66f5df48cbf4123cae97b1cd1ed37c28",
    # the Hom basis of (5)'s source and ring (4)'s target is now the generator
    # values of the resolution, not the RREF kernel basis of the A-linearity
    # constraints: a change of basis, checked in tests/test_free_hom.py
    ("_condition5_map", "Q"): "40f8bfb0a3da0085731f818887b37d454b177db4f19fe350f46cccaf0ad674d2",
    ("_condition5_map", "F101"): "14677d2b6b28dad7c531d3de4fe69689a6df8c3434a87b61f93b7d2831c77a68",
    ("_ring_condition2_map", "Q"): "7ed6b5a8457c701ef96d1d001e2cc78069c43431d47d3842088b0f9fee57405a",
    ("_ring_condition2_map", "F101"): "3854b11d845b9dd99e7af5ddd673ad1340602e41e25b9918f74c1898d879c048",
    ("_ring_condition4_map", "Q"): "b99f0ca667c90f365b974c7179f47da952e048897b04bcacb20e0942e90b40d4",
    ("_ring_condition4_map", "F101"): "0ea00544e7d6a5ee70448674a61f2b7381159b26942700cc1cd189fcbb45762a",
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
