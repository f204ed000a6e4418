"""Differential test: a resolution read off a grown build against a fresh build.

Inside a ``resolution_scope`` every request for one module reads one build,
grown to the deepest request so far; a shallower request reads its prefix.
Each record the scope hands out must equal a fresh build at the same depth
outside a scope, in every table and in insertion order, and must not change
when a later, deeper request grows the build.  The requests are those the
canonical maps of ``tests/test_digests.py`` make, replayed per module in
three orders: as the maps make them, deepest first and shallowest first.
"""

import pytest

import dgkit.derived
import dgkit.resolutions
from dgkit.epicheck import check_dga_epi, generate_test_family
from dgkit.field import GF, QQ
from dgkit.resolutions import _request_key, resolution_scope, semifree_resolution
from dgkit.standard import exterior_algebra, identity_morphism, truncated_to_ground

from test_digests import BUILDERS

FIELDS = [QQ, GF(2), GF(101)]
# the digest families that resolve anything
RESOLVING = sorted(set(BUILDERS) - {"tensor_unit_iso"})


def _data(res):
    """Everything a record holds, insertion order included, as plain values."""
    P = res.free
    return (
        list(P.basis),
        list(P.act.items()),
        list(P.diff.items()),
        [P.component(n) for n in P.degrees()],
        [(g.label, g.degree, g.d_elem, g.eps) for g in P.gens],
        list(res.eps),
        res.validity,
    )


def _log_requests(monkeypatch):
    """Log (module, depth, cap, record, its data when handed out) per request."""
    log = []
    request = dgkit.resolutions.semifree_resolution

    def logged(M, D, max_generators=10000, types=None):
        res = request(M, D, max_generators, types=types)
        log.append((M, D, max_generators, types, res, _data(res)))
        return res

    for module in (dgkit.resolutions, dgkit.derived):
        monkeypatch.setattr(module, "semifree_resolution", logged)
    return log


def _check_against_fresh(log):
    """Every record equals a fresh out-of-scope build at its depth, and is as
    it was when handed out."""
    fresh = {}
    for M, D, cap, types, res, handed in log:
        key = _request_key(M, cap, types), D
        if key not in fresh:
            fresh[key] = _data(semifree_resolution(M, D, cap, types=types))
        assert handed == fresh[key], (M.name, D)
        assert _data(res) == handed, (M.name, D)


def _replay(monkeypatch, run):
    """Check the records of ``run()`` in a scope, then replay its requests."""
    log = _log_requests(monkeypatch)
    with resolution_scope():
        run()
    assert log
    requests = [(M, D, cap, types) for M, D, cap, types, _, _ in log]
    _check_against_fresh(log)
    # replay each module's requests deepest first, then shallowest first
    by_key = {}
    for M, D, cap, types in requests:
        by_key.setdefault(_request_key(M, cap, types), {})[D] = (M, D, cap, types)
    for deep_first in (True, False):
        log.clear()
        for depths in by_key.values():
            with resolution_scope():
                for D in sorted(depths, reverse=deep_first):
                    M, D, cap, types = depths[D]
                    dgkit.resolutions.semifree_resolution(M, D, cap, types=types)
        _check_against_fresh(log)


@pytest.mark.parametrize("name", RESOLVING)
@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_records_in_a_scope_equal_fresh_builds(monkeypatch, name, F):
    _replay(monkeypatch, lambda: BUILDERS[name](F))


CHECKS = {
    "dual2": (lambda F: truncated_to_ground(2, F), 3, 4),
    "idE": (lambda F: identity_morphism(exterior_algebra(F)), 2, 2),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_records_of_a_check_equal_fresh_builds(monkeypatch, case, F):
    # a whole check: bimodule and module requests at many staggered depths
    make, D, size = CHECKS[case]
    phi = make(F)
    _replay(monkeypatch, lambda: check_dga_epi(phi, D, generate_test_family(phi.target, 0, size)))
