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
    # the unit's target Hom_R(Q, M ⊗_S P), the counit's source Zt ⊗_R (Q ⊗_S P),
    # (3)'s source and (5)'s target Hom_R(Qs ⊗_S Pn, Qt ⊗_S N) are built on the
    # R-free views of Q and Q ⊗_S P, not on the generic kernel and quotient
    # bases: a change of basis, checked in tests/test_free_views.py
    ("unit_map", "Q"): "a168f857171f553b7dcdf3fd81ed23fc77ebe657f721696162c5a3a323ae3742",
    ("unit_map", "F101"): "a16e5e2a315175c578638e5dc99ca9b9a6f8c39f8a50429fa9132539b75855d1",
    # a free module resolves to itself with ε = −id, a sign every entry of
    # these maps carries
    ("counit_map", "Q"): "676776ac201d4f13e21a3c6d32fa74a8a8971592754cb63bc27f377a663bd4fc",
    ("counit_map", "F101"): "d5397cabef299245c0881c60a72e4bc0a0cd09f9b52a28dc3e7c722ee8dfd7c7",
    # the duality map pairs the one truncated dual, whose deeper resolution Q
    # widens the source Q ⊗ P; homology on -2..2 is unchanged
    ("duality_map", "Q"): "78047ccdfd6f1191d24784d517b43d52a92057ada1c16aa548f36d36f4eb513c",
    ("duality_map", "F101"): "3a0cfe88ccacabc852116d7601dfee7352eb29464960d582ac85a7de659be4f7",
    ("multiplication_map", "Q"): "2d60b60dbb56de716253d1083d0ea5211e75f7f384f3c39d927a1df3237c63e6",
    ("multiplication_map", "F101"): "8887119b40d03425f3db85dd435c26bef86917a215408a41db9438b2eae6f00c",
    ("_condition3_map", "Q"): "cc12ac0e72237abd13e38873e3ed73bad9b131051caf10f972aaa3610d3ecf25",
    ("_condition3_map", "F101"): "407f256401412f6bb84b1d26ca13d39bda4733c0fc71d1b94f7e83335bd14025",
    # the Hom basis of (5)'s source and ring (4)'s target is now the generator
    # values of the resolution, not the RREF kernel basis of the A-linearity
    # constraints: a change of basis, checked in tests/test_free_hom.py
    ("_condition5_map", "Q"): "0ffd1a0a7487c77326711ca8a853e22045d67457d3e9246252983c4e81dd16a2",
    ("_condition5_map", "F101"): "f9db95932eafa6d18461e83bd558448515632223b4d945c09c07409559cec566",
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
