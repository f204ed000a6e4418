"""Verdict pin: every field of every ConditionVerdict, and the agreement.

The digests were recorded before the iso reports, folds and agreement rules
of the checker were merged into one path.  A change that alters a verdict's
condition, status, window, failing degree, dims, member detail or note, or a
report's agreement or disagreement string, fails here.  The theorem makes
real conditions agree, so the disagreement cases replace one condition's map
by the zero chain map, which is not a quasi-isomorphism where homology lives.
"""

import hashlib

import pytest

from dgkit import epicheck
from dgkit.complexes import ChainMap
from dgkit.dga import DgaMorphism, bimodule_from_morphism
from dgkit.epicheck import (
    check_bimodule_conditions,
    check_dga_epi,
    check_ring_epi,
    generate_test_family,
)
from dgkit.field import GF, QQ
from dgkit.resolutions import BuildTreeWitness, Leaf
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    identity_morphism,
    product_kk,
    product_to_ground,
    truncated_to_ground,
)

FIELDS = {"Q": QQ, "F101": GF(101)}
SIZE = 3


def _report_digest(rep) -> str:
    rows = [
        (v.condition, v.status, v.window, v.degree, v.dims, v.members, v.note)
        for v in rep.verdicts
    ]
    raw = repr((rows, rep.agreement, rep.disagreement, rep.note))
    return hashlib.sha256(raw.encode()).hexdigest()


def _family(phi):
    return generate_test_family(phi.target, 0, SIZE)


def _dga_exterior_identity(F, monkeypatch):
    phi = identity_morphism(exterior_algebra(F))
    return check_dga_epi(phi, 2, _family(phi))


def _dga_truncated_augmentation(F, monkeypatch):
    phi = truncated_to_ground(2, F)
    return check_dga_epi(phi, 3, _family(phi))


def _ring_product_projection(F, monkeypatch):
    phi = product_to_ground(F)
    return check_ring_epi(phi, 3, _family(phi))


def _ring_unit_inclusion(F, monkeypatch):
    # k -> k × k is no ring epimorphism: S ⊗_R S → S is not bijective on H_0
    phi = DgaMorphism(ground_algebra(F), product_kk(F), {0: {0: F.one}}, name="unit")
    return check_ring_epi(phi, 3, _family(phi))


def _bimodule(phi, witness):
    M = bimodule_from_morphism(phi)
    return check_bimodule_conditions(M, witness, _family(phi), 1)


def _bimodule_without_witness(F, monkeypatch):
    return _bimodule(identity_morphism(exterior_algebra(F)), None)


def _bimodule_failing_without_witness(F, monkeypatch):
    return _bimodule(truncated_to_ground(2, F), None)


def _zero_unit(monkeypatch):
    unit = epicheck.unit_map

    def zero(*args):
        cm = unit(*args)
        return ChainMap.zero(cm.source, cm.target)

    monkeypatch.setattr(epicheck, "unit_map", zero)


def _bimodule_disagreement(F, monkeypatch):
    _zero_unit(monkeypatch)
    return _bimodule(identity_morphism(exterior_algebra(F)), BuildTreeWitness(Leaf(0)))


def _bimodule_disagreement_without_witness(F, monkeypatch):
    _zero_unit(monkeypatch)
    return _bimodule(identity_morphism(exterior_algebra(F)), None)


def _ring_disagreement(F, monkeypatch):
    condition4 = epicheck._ring_condition4_map

    def zero(*args):
        cm = condition4(*args)
        return ChainMap.zero(cm.source, cm.target)

    monkeypatch.setattr(epicheck, "_ring_condition4_map", zero)
    phi = product_to_ground(F)
    return check_ring_epi(phi, 3, _family(phi))


CASES = {
    "dga_exterior_identity": _dga_exterior_identity,
    "dga_truncated_augmentation": _dga_truncated_augmentation,
    "ring_product_projection": _ring_product_projection,
    "ring_unit_inclusion": _ring_unit_inclusion,
    "bimodule_without_witness": _bimodule_without_witness,
    "bimodule_failing_without_witness": _bimodule_failing_without_witness,
    "bimodule_disagreement": _bimodule_disagreement,
    "bimodule_disagreement_without_witness": _bimodule_disagreement_without_witness,
    "ring_disagreement": _ring_disagreement,
}

VERDICT_DIGESTS = {
    ("bimodule_disagreement", "F101"): "8127d96db8e458828100dd15eb9a5aec3203f676fbb9c2753ac910a955db1437",
    ("bimodule_disagreement", "Q"): "8127d96db8e458828100dd15eb9a5aec3203f676fbb9c2753ac910a955db1437",
    ("bimodule_disagreement_without_witness", "F101"): "124c5700dee61e88ec6daffb60129c1a8543695a05c886ab48ea3f198bbc724f",
    ("bimodule_disagreement_without_witness", "Q"): "124c5700dee61e88ec6daffb60129c1a8543695a05c886ab48ea3f198bbc724f",
    ("bimodule_failing_without_witness", "F101"): "f5bb941932bf1999e18f8dd87f0b39412edc9138244036f63bd6aa3987499d8b",
    ("bimodule_failing_without_witness", "Q"): "f5bb941932bf1999e18f8dd87f0b39412edc9138244036f63bd6aa3987499d8b",
    ("bimodule_without_witness", "F101"): "8c7d9fc6a28d20727e74ada1222c4a37064d7d9067e1e5e7fa91a727b9567ad8",
    ("bimodule_without_witness", "Q"): "8c7d9fc6a28d20727e74ada1222c4a37064d7d9067e1e5e7fa91a727b9567ad8",
    ("dga_exterior_identity", "F101"): "feddcaa55123401369848ad1010c08b3e77f860b42c8f400b12fb4ee8320ce2d",
    ("dga_exterior_identity", "Q"): "feddcaa55123401369848ad1010c08b3e77f860b42c8f400b12fb4ee8320ce2d",
    ("dga_truncated_augmentation", "F101"): "6300d90ff7ef9aca0260afd5570981eeb5736ecedfb7eb0c38c2870c1b6f1f14",
    ("dga_truncated_augmentation", "Q"): "6300d90ff7ef9aca0260afd5570981eeb5736ecedfb7eb0c38c2870c1b6f1f14",
    ("ring_disagreement", "F101"): "afd35adce09a5981d18da3544d31875b02b29bb07dafbd0e77b27aeed494faa3",
    ("ring_disagreement", "Q"): "afd35adce09a5981d18da3544d31875b02b29bb07dafbd0e77b27aeed494faa3",
    ("ring_product_projection", "F101"): "6caeb12818f29513dd1dbbac28a775901458e7a8cd5f280a4df231e8cb5c8838",
    ("ring_product_projection", "Q"): "6caeb12818f29513dd1dbbac28a775901458e7a8cd5f280a4df231e8cb5c8838",
    ("ring_unit_inclusion", "F101"): "e5150bb59b5095c5752a75bf203f2c1e3c6f18a9e5b6d426200537123cdc8ea3",
    ("ring_unit_inclusion", "Q"): "e5150bb59b5095c5752a75bf203f2c1e3c6f18a9e5b6d426200537123cdc8ea3",
}


@pytest.mark.parametrize("case, field", sorted(VERDICT_DIGESTS), ids=lambda x: str(x))
def test_verdicts_unchanged(case, field, monkeypatch):
    rep = CASES[case](FIELDS[field], monkeypatch)
    assert _report_digest(rep) == VERDICT_DIGESTS[(case, field)]
