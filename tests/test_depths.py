"""Resolution depths: the requests made on stock inputs are pinned.

Every call to `semifree_resolution` is logged as (module name, total
dimension, depth), in call order, and the log of each input is pinned by
sha256.  The digests were recorded before the depth arithmetic was moved
into one function; they cover the depths of `derived_tensor` and `rhom`,
which the canonical-map matrix digests do not see.  The tensor and rhom
cases also pin their provenance strings.
"""

import hashlib
from pathlib import Path

import pytest

import dgkit.cli
import dgkit.derived
import dgkit.epicheck
import dgkit.resolutions
from dgkit.cli import main
from dgkit.dga import left_regular, regular_bimodule, right_regular
from dgkit.complexes import Window, homology_dims
from dgkit.derived import derived_tensor, ext_table, rhom, tor_table
from dgkit.epicheck import check_dga_epi, generate_test_family
from dgkit.modops import module_shift
from dgkit.parser import parse
from dgkit.standard import exterior_algebra, identity_morphism

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RESOLVING_MODULES = (dgkit.resolutions, dgkit.derived, dgkit.epicheck, dgkit.cli)


@pytest.fixture
def depth_log(monkeypatch):
    """Log (name, dim, depth) of every resolution, wherever it is requested."""
    log = []
    build = dgkit.resolutions.semifree_resolution

    def logged(M, D, max_generators=10000, **types):
        log.append((M.name, M.total_dim, D))
        return build(M, D, max_generators, **types)

    for mod in RESOLVING_MODULES:
        if hasattr(mod, "semifree_resolution"):
            monkeypatch.setattr(mod, "semifree_resolution", logged)
    return log


def _cli(capsys, *argv):
    assert main([str(FIXTURES / a) if a.endswith(".dg") else a for a in argv]) == 0
    capsys.readouterr()


def _tor(capsys):
    _cli(capsys, "tor", "truncated.dg", "A", "Kr", "K", "--window", "0..8")


def _ext(capsys):
    _cli(capsys, "ext", "truncated.dg", "A", "K", "K", "--window", "0..6")


def _tensor(capsys):
    E = exterior_algebra()
    below = module_shift(right_regular(E), -2)
    return [
        derived_tensor(E, below, left_regular(E), 3).provenance,
        derived_tensor(E, right_regular(E), regular_bimodule(E), 2).provenance,
    ]


def _rhom(capsys):
    E = exterior_algebra()
    above = module_shift(left_regular(E), 2)
    return [
        rhom(E, left_regular(E), above, 3).provenance,
        rhom(E, regular_bimodule(E), left_regular(E), 2).provenance,
    ]


def _dga_identity(capsys):
    E = exterior_algebra()
    check_dga_epi(identity_morphism(E), 2, generate_test_family(E, 0, 3))


def _ring_product(capsys):
    phi = parse((FIXTURES / "product.dg").read_text()).morphisms["pr"]
    check_dga_epi(phi, 3, generate_test_family(phi.target, 0, 3))


DEPTH_DIGESTS = {
    "tor": (_tor, "68b5065daf381b8b20ddc355b996053210342ef26fa1229e3960e4cfbb4ddddb"),
    "ext": (_ext, "a43e1ed7dcd3cd09f145f66b0665578a446ad4ea68c2697a692750aba5b4d7fe"),
    "tensor": (_tensor, "3d4926e03813a4b6996a4351709f005ca00fa6778c53409fc01af3d35394f782"),
    "rhom": (_rhom, "fe0d556e7ce9716fe883e4edaff0a991d67ff17bfccb41a814bdebebcf148ee4"),
    "dga-identity": (
        _dga_identity,
        "f6aafccd6d218fa0e434c76ab9ee15debed057f4a04b73955d835a8a7600b4aa",
    ),
    "ring-product": (
        _ring_product,
        "94c1410d46b3464fecff425e8e8f5cb6d05a36ed7fc68acfbb4dee04cb8aa6ac",
    ),
}


@pytest.mark.parametrize("case", sorted(DEPTH_DIGESTS))
def test_resolution_depths_unchanged(capsys, depth_log, case):
    run, digest = DEPTH_DIGESTS[case]
    record = depth_log + (run(capsys) or [])
    assert hashlib.sha256(repr(record).encode()).hexdigest() == digest, record


# the sorted set of distinct requests, recorded before repeated resolutions
# were shared within a check: sharing may drop repeats, never change a depth
DISTINCT_DIGESTS = {
    "dga-identity": "294d401901b654a0bc970ec2e3897b03e7b39f782a5478889e0f019842a82079",
    "ring-product": "1d5b3b3623d18709d344339b1922f2d9594e8cf4cb144e6f152eb9d97baf9aad",
}


@pytest.mark.parametrize("case", sorted(DISTINCT_DIGESTS))
def test_distinct_resolution_requests_unchanged(capsys, depth_log, case):
    DEPTH_DIGESTS[case][0](capsys)
    distinct = sorted(set(depth_log))
    assert hashlib.sha256(repr(distinct).encode()).hexdigest() == DISTINCT_DIGESTS[case], distinct


# -- depth independence ----------------------------------------------------------


def _verdicts(rep):
    return [(v.condition, v.status, v.degree, v.dims, v.members) for v in rep.verdicts]


def _answers():
    """Tor/Ext tables, derived homology and epimorphism verdicts on stock inputs."""
    pf = parse((FIXTURES / "truncated.dg").read_text())
    A, K, Kr = pf.algebras["A"], pf.modules["K"], pf.modules["Kr"]
    E = exterior_algebra()
    below = module_shift(right_regular(E), -2)
    above = module_shift(left_regular(E), 2)
    aug = pf.morphisms["aug"]
    prod = parse((FIXTURES / "product.dg").read_text()).morphisms["pr"]
    return {
        "tor": tor_table(A, Kr, K, 5),
        "ext": ext_table(A, K, K, 5),
        "tensor": homology_dims(derived_tensor(E, below, left_regular(E), 3).value, Window(-3, 3)),
        "rhom": homology_dims(rhom(E, left_regular(E), above, 3).value, Window(-3, 3)),
        "idE": _verdicts(check_dga_epi(identity_morphism(E), 2, generate_test_family(E, 0, 3))),
        "aug": _verdicts(check_dga_epi(aug, 3, generate_test_family(aug.target, 0, 3))),
        "pr": _verdicts(check_dga_epi(prod, 3, generate_test_family(prod.target, 0, 3))),
    }


@pytest.fixture(scope="module")
def answers_at_required_depth():
    answers = _answers()
    assert all(status == "holds-on-window" for _, status, *_ in answers["idE"][:5])
    return answers


@pytest.mark.parametrize("k", [1, 2])
def test_answers_do_not_depend_on_depth_beyond_the_window(
    monkeypatch, answers_at_required_depth, k
):
    """Resolving k degrees deeper than required changes no answer on the window."""
    required = dgkit.resolutions.required_depth

    def deeper(D, *reaches):
        return required(D, *reaches) + k

    for mod in RESOLVING_MODULES:
        if hasattr(mod, "required_depth"):
            monkeypatch.setattr(mod, "required_depth", deeper)
    assert _answers() == answers_at_required_depth
