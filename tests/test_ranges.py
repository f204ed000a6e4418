"""Canonical maps built on their read range, against their full builds.

Each canonical map is checked by ``quasi_iso`` on −D..D, which reads degrees
−D−1..D+1 of its source and target (``complexes.read_range``).  So
``derived`` builds the compared tensor and Hom complexes, and the map's
matrices, on that range only.  A range-built map must be the full build
there: equal dimensions, the differentials d_n wherever n and n − 1 are
both in the range, equal matrices f_n and the same ``quasi_iso`` report.
The full build is derived's own with every ``degrees`` dropped: a spy on
``hom_over``, ``tensor_over`` and ``matrices_from_images`` in ``derived``,
and ``Complex.restrict`` as the identity.

``quasi_iso`` reads its ranks off one cone echelon per degree; its dims are
checked against ``homology_dims`` and against the spheres of random chain
maps between sums of spheres and disks in random bases.
"""

import random

import pytest

from dgkit import derived
from dgkit.complexes import ChainMap, Complex, GradedSpace, Window, homology_dims, quasi_iso, read_range
from dgkit.dga import left_regular, matrices_from_images, regular_bimodule
from dgkit.field import GF, QQ
from dgkit.homtensor import hom_over, tensor_over
from dgkit.linalg import Matrix, rank
from dgkit.resolutions import semifree_resolution, semifree_resolution_bimodule
from dgkit.standard import exterior_algebra

from oracles import plain
from test_digests import BUILDERS

FIELDS = [QQ, GF(2), GF(101)]


# the D each digest family's maps are built with, so checked on −D..D
DEPTHS = {
    "unit_map": 2,
    "counit_map": 1,
    "duality_map": 2,
    "multiplication_map": 3,
    "_condition3_map": 1,
    "_condition5_map": 1,
    "_ring_condition2_map": 3,
    "_ring_condition4_map": 3,
}


def _full_build(monkeypatch, build):
    """build() with every degree range dropped: derived's full build."""

    def hom(A, M, N, name=None, *, degrees=None):
        return hom_over(A, M, N, name)

    def tensor(A, M, N, name=None, *, degrees=None):
        return tensor_over(A, M, N, name)

    def matrices(source, target, image, offset=0, degrees=None):
        return matrices_from_images(source, target, image, offset)

    with monkeypatch.context() as m:
        m.setattr(derived, "hom_over", hom)
        m.setattr(derived, "tensor_over", tensor)
        m.setattr(derived, "matrices_from_images", matrices)
        m.setattr(Complex, "restrict", lambda self, w: self)
        return build()


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_range_built_maps_are_the_full_builds_on_the_range(monkeypatch, F):
    cut = 0
    for name, D in DEPTHS.items():
        w = Window(-D, D)
        rr = read_range(w)
        full_maps = _full_build(monkeypatch, lambda: BUILDERS[name](F))
        for ranged, full in zip(BUILDERS[name](F), full_maps, strict=True):
            assert ranged.validate() is True and full.validate() is True, name
            for C, G in ((ranged.source, full.source), (ranged.target, full.target)):
                assert all(n in rr for n in C.degrees()), name
                cut += sum(G.dim(n) for n in G.degrees() if n not in rr)
                for n in rr.degrees():
                    assert C.dim(n) == G.dim(n), (name, n)
                    if n - 1 in rr:
                        assert C.d(n) == G.d(n), (name, n)
            for n in rr.degrees():
                assert ranged.f(n) == full.f(n), (name, n)
            assert quasi_iso(ranged, w) == quasi_iso(full, w), name
    # the full builds reach outside the range, so the ranges cut something
    assert cut


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_validate_sees_a_flipped_sign_in_every_window_square(F):
    # negating f_n breaks the squares at n and n + 1 unless both sides
    # vanish there; both lie in −D..D+1, which validate checks
    flipped = 0
    for name, D in DEPTHS.items():
        for cm in BUILDERS[name](F):
            for n in Window(-D, D).degrees():
                f = cm.f(n)
                if (cm.target.d(n) * f).is_zero() and (f * cm.source.d(n + 1)).is_zero():
                    continue
                bad = ChainMap(cm.source, cm.target, {**cm.mats, n: f.scale(F.sign(1))})
                v = bad.validate()
                assert v is not True and v.degree in (n, n + 1), (name, n)
                flipped += 1
    assert flipped


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_structure_of_a_range_built_complex_raises(F):
    S = exterior_algebra(F)
    M = regular_bimodule(S)
    res = semifree_resolution(left_regular(S), 3)
    bres = semifree_resolution_bimodule(M, 3)
    w = Window(-1, 1)
    built = [
        tensor_over(S, M, res.free, degrees=w),  # outer left action
        tensor_over(S, bres.free, res.free, degrees=w),  # R-free in full
        hom_over(S, res.free, M, degrees=w),  # outer right action
        hom_over(S, plain(res.free), res.free, degrees=w),  # bare complex in full
    ]
    for X in built:
        assert all(n in w for n in X.complex.degrees())
        with pytest.raises(ValueError, match="built on degrees"):
            X.structure()


def _elementary(F, dim: int, i: int, j: int, c) -> Matrix:
    """The identity plus c at (i, j), i ≠ j."""
    return Matrix.from_columns(F, [{k: F.one, **({i: c} if k == j else {})} for k in range(dim)], dim)


def _random_basis(rng, F, dim: int):
    """A random invertible matrix and its inverse, as products of elementary ones."""
    g, inv = Matrix.identity(F, dim), Matrix.identity(F, dim)
    for _ in range(2 * dim if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = F.of(rng.randint(1, 3))
        g = _elementary(F, dim, i, j, c) * g
        inv = inv * _elementary(F, dim, i, j, F.neg(c))
    return g, inv


def _pieces(rng, lo: int, hi: int) -> list:
    """Spheres ("S", n) and disks ("D", n) with top n and bottom n − 1, on
    lo..hi, with a sphere at each end."""
    out = [("S", lo), ("S", hi)]
    for _ in range(rng.randint(3, 7)):
        out.append(("S", rng.randint(lo, hi)) if rng.random() < 0.5 else ("D", rng.randint(lo + 1, hi)))
    return out


def _cells(pieces) -> tuple[dict, dict]:
    """(piece index, degree) ↦ basis position within the degree, and the
    dimension of each degree."""
    cells, dims = {}, {}
    for p, (kind, n) in enumerate(pieces):
        for deg in (n, n - 1) if kind == "D" else (n,):
            cells[p, deg] = dims.get(deg, 0)
            dims[deg] = cells[p, deg] + 1
    return cells, dims


def _spheres(pieces, n: int) -> int:
    return sum(1 for kind, m in pieces if kind == "S" and m == n)


def _complex(F, pieces, cells, dims, bases) -> Complex:
    diffs = {}
    for n in dims:
        cols = [{} for _ in range(dims[n])]
        for p, (kind, top) in enumerate(pieces):
            if kind == "D" and top == n:
                cols[cells[p, n]] = {cells[p, n - 1]: F.one}
        diffs[n] = Matrix.from_columns(F, cols, dims.get(n - 1, 0))
    # d'_n = g_{n-1} d_n g_n^{-1}
    diffs = {n: bases[n - 1][0] * d * bases[n][1] if n - 1 in dims else d for n, d in diffs.items()}
    return Complex(F, GradedSpace(dims), diffs)


def _random_chain_map(rng, F, lo: int, hi: int):
    """A random chain map between sums of spheres and disks in random bases,
    and the rank of H_n(f) in each degree: that of its sphere-to-sphere block."""
    src, tgt = _pieces(rng, lo, hi), _pieces(rng, lo, hi)
    (cs, ds), (ct, dt) = _cells(src), _cells(tgt)
    bs = {n: _random_basis(rng, F, ds.get(n, 0)) for n in range(lo - 1, hi + 1)}
    bt = {n: _random_basis(rng, F, dt.get(n, 0)) for n in range(lo - 1, hi + 1)}
    X, Y = _complex(F, src, cs, ds, bs), _complex(F, tgt, ct, dt, bt)
    # the chain maps between pieces: S^n → S^n, S^n → bottom of D^{n+1},
    # D^n → D^n on top and bottom alike, top of D^n → S^n and → bottom of D^{n+1}
    entries: dict = {}  # degree ↦ {(target cell, source cell): c}
    spheres: dict = {}  # degree ↦ {(target piece, source piece): c}
    for p, (kp, n) in enumerate(src):
        for q, (kq, m) in enumerate(tgt):
            c = F.of(rng.randint(-2, 2))
            if not c:
                continue
            if kp == "S" and kq == "S" and n == m:
                entries.setdefault(n, {})[ct[q, n], cs[p, n]] = c
                spheres.setdefault(n, {})[q, p] = c
            elif kp == "S" and kq == "D" and m == n + 1:
                entries.setdefault(n, {})[ct[q, n], cs[p, n]] = c
            elif kp == "D" and kq == "D" and n == m:
                entries.setdefault(n, {})[ct[q, n], cs[p, n]] = c
                entries.setdefault(n - 1, {})[ct[q, n - 1], cs[p, n - 1]] = c
            elif kp == "D" and ((kq == "S" and m == n) or (kq == "D" and m == n + 1)):
                entries.setdefault(n, {})[ct[q, n], cs[p, n]] = c
    mats = {}
    for n in range(lo, hi + 1):
        cols = [{} for _ in range(X.dim(n))]
        for (i, j), c in entries.get(n, {}).items():
            cols[j][i] = c
        # f'_n = h_n f_n g_n^{-1}
        mats[n] = bt[n][0] * Matrix.from_columns(F, cols, Y.dim(n)) * bs[n][1]
    f = ChainMap(X, Y, mats)
    ranks = {}
    for n in range(lo, hi + 1):
        block = spheres.get(n, {})
        cols = [{q: c for (q, p2), c in block.items() if p2 == p} for p in range(len(src))]
        ranks[n] = rank(Matrix.from_columns(F, cols, len(tgt)))
    return f, ranks, src, tgt


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_quasi_iso_dims_are_the_homology_of_both_sides(F):
    rng = random.Random(22)
    verdicts = set()
    for _ in range(40):
        lo, hi = -2, rng.randint(1, 3)
        f, ranks, src, tgt = _random_chain_map(rng, F, lo, hi)
        assert f.validate() is True
        w = Window(lo + 1, hi - 1)
        # degrees outside the window, read by quasi_iso, are not empty
        for C in (f.source, f.target):
            assert C.dim(w.lo - 1) and C.dim(w.hi + 1)
        rep = quasi_iso(f, w)
        src_h, tgt_h = homology_dims(f.source, w), homology_dims(f.target, w)
        for n in w.degrees():
            hs, ht = _spheres(src, n), _spheres(tgt, n)
            assert rep.dims[n] == (src_h[n], tgt_h[n]) == (hs, ht)
            assert rep.per_degree[n] == (hs == ht == ranks[n])
            verdicts.add(rep.per_degree[n])
    assert verdicts == {True, False}
