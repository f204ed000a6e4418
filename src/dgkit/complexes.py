"""Bounded chain complexes of finite-dimensional graded vector spaces.

Indexing is homological throughout: the differential of a complex has degree
-1.  A degree-0 map of complexes is a ``ChainMap``; a homotopy is a dict of
degree +1 matrices, read by ``check_homotopy``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Field
from .linalg import Echelon, Matrix, kernel_basis, rank


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window {self.lo}..{self.hi}")

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def __str__(self):
        return f"{self.lo}..{self.hi}"


class GradedSpace:
    """Finite-support assignment of dimensions to degrees."""

    def __init__(self, dims: dict[int, int]):
        self.dims = {n: d for n, d in dims.items() if d > 0}

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def degrees(self):
        return sorted(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def min_degree(self):
        return min(self.dims) if self.dims else 0

    def max_degree(self):
        return max(self.dims) if self.dims else 0

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and other.dims == self.dims

    def __repr__(self):
        return f"GradedSpace({self.dims!r})"


@dataclass(frozen=True)
class Violation:
    degree: int
    reason: str
    witness: tuple = ()

    def __bool__(self):
        return False


class Complex:
    """Chain complex: graded space plus degree -1 differential matrices."""

    def __init__(self, field: Field, space: GradedSpace, diffs: dict[int, Matrix]):
        self.field = field
        self.space = space
        self.diffs = {}
        for n, m in diffs.items():
            if m.rows != space.dim(n - 1) or m.cols != space.dim(n):
                raise ValueError(
                    f"d_{n} has shape {m.rows}x{m.cols}, expected "
                    f"{space.dim(n - 1)}x{space.dim(n)}"
                )
            if not m.is_zero():
                self.diffs[n] = m

    def d(self, n: int) -> Matrix:
        m = self.diffs.get(n)
        if m is None:
            return Matrix.zero(self.field, self.space.dim(n - 1), self.space.dim(n))
        return m

    def dim(self, n: int) -> int:
        return self.space.dim(n)

    def degrees(self):
        return self.space.degrees()

    def min_degree(self):
        return self.space.min_degree()

    def max_degree(self):
        return self.space.max_degree()

    def is_zero(self) -> bool:
        return not self.space.dims

    def restrict(self, w: Window) -> "Complex":
        """The complex on the degrees in w: d_n is kept where n and n − 1
        both lie in w, the rule of every range-built complex."""
        dims = {n: d for n, d in self.space.dims.items() if n in w}
        diffs = {n: m for n, m in self.diffs.items() if n in w and n - 1 in w}
        return Complex(self.field, GradedSpace(dims), diffs)

    def __eq__(self, other):
        return (
            isinstance(other, Complex)
            and other.field == self.field
            and other.space == self.space
            and all(other.d(n) == self.d(n) for n in set(self.diffs) | set(other.diffs))
        )

    def __repr__(self):
        return f"Complex(dims={self.space.dims!r})"


class ChainMap:
    """Degree-0 map of complexes; commutation with d is checked on demand."""

    def __init__(self, source: Complex, target: Complex, mats: dict[int, Matrix]):
        self.source = source
        self.target = target
        self.mats = {}
        for n, m in mats.items():
            if m.rows != target.dim(n) or m.cols != source.dim(n):
                raise ValueError(f"f_{n} shape {m.rows}x{m.cols} inconsistent")
            if not m.is_zero():
                self.mats[n] = m

    def f(self, n: int) -> Matrix:
        m = self.mats.get(n)
        if m is None:
            return Matrix.zero(self.source.field, self.target.dim(n), self.source.dim(n))
        return m

    def validate(self):
        """True iff f commutes with the differentials in every degree: between
        complexes built on a range, every square of the range.  Each square
        is compared column by column, d(f(c)) against f(d(c)) for each basis
        element c of the source, with no product matrix; the Violation names
        the lowest degree where a square fails.  A matrix that is not stored
        is zero, and no zero matrix is built for it."""
        S, T = self.source, self.target
        for n in S.degrees():
            fn, dS = self.mats.get(n), S.diffs.get(n)
            if fn is None and dS is None:  # both paths send degree n to 0
                continue
            dT, f_prev = T.diffs.get(n), self.mats.get(n - 1)
            for fc, dc in zip(_columns(fn, S.dim(n)), _columns(dS, S.dim(n))):
                if (fc or dc) and _image(dT, fc) != _image(f_prev, dc):
                    return Violation(n, "chain-map square does not commute")
        return True

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self ∘ other (other applied first)."""
        degrees = set(self.target.space.dims) | set(other.source.space.dims)
        return ChainMap(
            other.source,
            self.target,
            {n: self.f(n) * other.f(n) for n in degrees},
        )

    @staticmethod
    def identity(C: Complex) -> "ChainMap":
        return ChainMap(C, C, {n: Matrix.identity(C.field, C.dim(n)) for n in C.degrees()})

    @staticmethod
    def zero(source: Complex, target: Complex) -> "ChainMap":
        return ChainMap(source, target, {})


def check_homotopy(f: ChainMap, g: ChainMap, h: dict[int, Matrix]):
    """True iff f - g = d h + h d exactly in every degree, where h_n:
    source_n → target_{n+1} is h[n], zero where absent; else a Violation at
    a mis-shaped h_n or at the lowest degree where the identity fails."""
    S, T = f.source, f.target
    for n, m in h.items():
        if m.rows != T.dim(n + 1) or m.cols != S.dim(n):
            return Violation(n, f"h_{n} shape {m.rows}x{m.cols} inconsistent")

    def h_(n: int) -> Matrix:
        return h[n] if n in h else Matrix.zero(S.field, T.dim(n + 1), S.dim(n))

    for n in sorted(set(S.space.dims) | set(T.space.dims)):
        if f.f(n) - g.f(n) != T.d(n + 1) * h_(n) + h_(n - 1) * S.d(n):
            return Violation(n, "f − g is not dh + hd")
    return True


def _columns(m: Matrix | None, cols: int):
    """The columns of m, or ``cols`` empty ones for a matrix not stored."""
    return m.columns if m is not None else ({},) * cols


def _image(m: Matrix | None, v: dict) -> dict:
    """m·v, where a matrix not stored is zero."""
    return m.image(v) if m is not None and v else {}


def _rank_d(C: Complex, n: int) -> int:
    """rank d_n, with no zero matrix built where d_n is zero."""
    m = C.diffs.get(n)
    return rank(m) if m is not None else 0


def homology_dims(C: Complex, w: Window) -> dict[int, int]:
    """dim H_n = dim C_n − rank d_n − rank d_{n+1} for each n in the window."""
    ranks = {n: _rank_d(C, n) for n in range(w.lo, w.hi + 2)}
    return {n: C.dim(n) - ranks[n] - ranks[n + 1] for n in w.degrees()}


@dataclass
class QuasiIsoReport:
    per_degree: dict[int, bool]
    ok: bool
    dims: dict[int, tuple[int, int]]

    def __bool__(self):
        return self.ok


def read_range(w: Window) -> Window:
    """The degrees :func:`quasi_iso` reads on the window w: H_n needs d_n
    and d_{n+1}, so w widened by one degree on each side.  A complex that
    only a quasi_iso on w compares is built on this range alone."""
    lo, hi = w.lo - 1, w.hi + 1
    return Window(lo, hi)


def quasi_iso(f: ChainMap, w: Window) -> QuasiIsoReport:
    """Per-degree bijectivity of H_n(f) on the window, read off ranks.

    Every number comes from one echelon per degree n of the window, over the
    block (d^S_n c | d^T_n f_n c | f_n c) of the cone of f, on indices laid
    out S_{n−1}, then T_{n−1}, then T_n, with the pivot of a row its least
    index.  The columns of d^T_{n+1} go in first, in the T_n block: the
    independent ones count rank d^T_{n+1}.  Then one column per source basis
    element c.  The pivots in the S_{n−1} block count rank d^S_n.  A pivot
    in the T_{n−1} block appears exactly when f maps a cycle to a non-cycle.
    Otherwise the pivots in the T_n block span B_n(T) + f(Z_n(S)), since
    rank [[A, B], [0, C]] = rank C + rank [A | B·ker C], so rank H_n(f) is
    their count minus rank d^T_{n+1}.  Two more ranks close the window:
    d^T at its bottom degree and d^S one above its top.

    Raises ValueError, with the cycle as ``witness``, when f does not map
    cycles to cycles: at the lowest such degree, the first cycle of that
    degree's kernel basis whose image is not a cycle.
    """
    src, tgt = f.source, f.target
    rank_ds, rank_dt, rank_hf = {w.hi + 1: _rank_d(src, w.hi + 1)}, {w.lo: _rank_d(tgt, w.lo)}, {}
    for n in w.degrees():
        rank_ds[n], rank_dt[n + 1], rank_hf[n] = _cone_ranks(f, n)
    per, dims = {}, {}
    for n in w.degrees():
        h_src = src.dim(n) - rank_ds[n] - rank_ds[n + 1]
        h_tgt = tgt.dim(n) - rank_dt[n] - rank_dt[n + 1]
        dims[n] = (h_src, h_tgt)
        per[n] = h_src == h_tgt == rank_hf[n]
    return QuasiIsoReport(per, all(per.values()), dims)


def _cone_ranks(f: ChainMap, n: int) -> tuple[int, int, int]:
    """(rank d^S_n, rank d^T_{n+1}, rank H_n(f)) from the degree-n cone
    echelon of :func:`quasi_iso`; raises its ValueError at a cycle that f
    maps to a non-cycle."""
    src, tgt = f.source, f.target
    if not (src.dim(n) or tgt.dim(n)):  # S_n = T_n = 0: every rank is 0
        return 0, 0, 0
    t0 = src.dim(n - 1)  # the T_{n−1} block starts here
    t1 = t0 + tgt.dim(n - 1)  # and the T_n block here
    E = Echelon(tgt.field)
    dT1 = _columns(tgt.diffs.get(n + 1), 0)  # no column to add when d^T_{n+1} = 0
    boundaries = sum(E.add({t1 + i: x for i, x in col.items()}) for col in dT1)
    dT, fn = tgt.diffs.get(n), f.mats.get(n)
    for dc, fc in zip(_columns(src.diffs.get(n), src.dim(n)), _columns(fn, src.dim(n))):
        if fc:
            dc = {**dc, **{t0 + i: x for i, x in _image(dT, fc).items()}}
            dc.update((t1 + i, x) for i, x in fc.items())
        if dc:
            E.add(dc)
    pivots = [0, 0, 0]  # in the S_{n−1}, T_{n−1} and T_n blocks
    for p in E.rows:
        pivots[(p >= t0) + (p >= t1)] += 1
    if pivots[1]:  # so f_n and d^T_n are both stored
        for z in kernel_basis(src.d(n)):
            if dT.image(fn.image(z)):
                err = ValueError(f"f_{n} maps a cycle to a non-cycle")
                err.witness = tuple(z.get(j, src.field.zero) for j in range(src.dim(n)))
                raise err
    return pivots[0], boundaries, pivots[2] - boundaries
