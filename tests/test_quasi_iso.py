"""quasi_iso and ChainMap.validate, read off ranks, against their references.

``quasi_iso`` takes every number from one echelon per degree over the cone
block (d^S_n c | d^T_n f_n c | f_n c); ``oracles.quasi_iso_kernels``
eliminates a kernel basis of each source differential and a boundary
echelon of the target instead.  ``ChainMap.validate`` compares each square
column by column; ``oracles.validate_products`` compares the product
matrices.  On random chain maps, on perturbed maps that need not be chain
maps, and on every canonical map of the digest families, over Q, F_2 and
F_101, both must give the same report, or raise with the same witness.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dgkit.complexes import ChainMap, Window, quasi_iso
from dgkit.field import GF, QQ
from dgkit.linalg import Matrix

from oracles import quasi_iso_kernels, validate_products
from test_digests import BUILDERS
from test_ranges import DEPTHS, _random_chain_map

FIELDS = [QQ, GF(2), GF(101)]


def _outcome(check, f, w):
    """check(f, w) as a comparable value: the report's three fields, or the
    error's message and witness."""
    try:
        rep = check(f, w)
    except ValueError as err:
        return ("raises", str(err), err.witness)
    return ("report", rep.per_degree, rep.ok, rep.dims)


def _perturbed(rng, f: ChainMap) -> ChainMap:
    """f with one entry of one f_n changed: often no chain map at all."""
    n = rng.choice([n for n in f.source.degrees() if f.target.dim(n)])
    m = f.f(n)
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    cols = [dict(c) for c in m.columns]
    cols[j][i] = f.source.field.add(m[i, j], f.source.field.of(rng.randint(1, 3)))
    mats = {k: f.f(k) for k in f.source.degrees()}
    mats[n] = Matrix.from_columns(f.source.field, cols, m.rows)
    return ChainMap(f.source, f.target, mats)


def _windows(f: ChainMap):
    """Windows inside, across and beyond the maps' support."""
    degrees = f.source.degrees() + f.target.degrees()
    lo, hi = min(degrees), max(degrees)
    return [Window(lo + 1, hi - 1), Window(lo, hi), Window(lo - 2, hi + 2), Window(hi, hi + 1)]


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), F=st.sampled_from(FIELDS))
def test_quasi_iso_matches_the_kernel_oracle(rng, F):
    f, _, _, _ = _random_chain_map(rng, F, -2, rng.randint(0, 3))
    for g in (f, _perturbed(rng, f), _perturbed(rng, f)):
        for w in _windows(g):
            assert _outcome(quasi_iso, g, w) == _outcome(quasi_iso_kernels, g, w)


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), F=st.sampled_from(FIELDS))
def test_validate_matches_the_product_oracle(rng, F):
    f, _, _, _ = _random_chain_map(rng, F, -2, rng.randint(0, 3))
    assert f.validate() is True
    for g in (_perturbed(rng, f), _perturbed(rng, f)):
        assert g.validate() == validate_products(g)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_both_outcomes_are_exercised(F):
    # the corpus above has maps that raise, maps that fail validate, and
    # reports both true and false
    rng = random.Random(29)
    seen = set()
    for _ in range(30):
        f, _, _, _ = _random_chain_map(rng, F, -2, 2)
        g = _perturbed(rng, f)
        for h in (f, g):
            out = _outcome(quasi_iso, h, Window(-1, 1))
            assert out == _outcome(quasi_iso_kernels, h, Window(-1, 1))
            seen.add(out[0] if out[0] == "raises" else out[2])
            seen.add(h.validate() is True)
    assert seen == {"raises", True, False}


@pytest.mark.parametrize("F", FIELDS, ids=repr)
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_canonical_maps_match_both_oracles(name, F):
    for cm in BUILDERS[name](F):
        assert cm.validate() is True and validate_products(cm) is True
        if name in DEPTHS:
            w = Window(-DEPTHS[name], DEPTHS[name])
        else:  # tensor_unit_iso: an isomorphism on every degree
            degrees = cm.source.degrees() or [0]
            w = Window(min(degrees) - 1, max(degrees) + 1)
        assert _outcome(quasi_iso, cm, w) == _outcome(quasi_iso_kernels, cm, w)
