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
        complexes built on a range, every square of the range."""
        degrees = set(self.source.space.dims) | set(self.target.space.dims)
        for n in degrees:
            lhs = self.target.d(n) * self.f(n)
            rhs = self.f(n - 1) * self.source.d(n)
            if lhs != rhs:
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
    a mis-shaped h_n or at the first degree found where the identity fails."""
    S, T = f.source, f.target
    for n, m in h.items():
        if m.rows != T.dim(n + 1) or m.cols != S.dim(n):
            return Violation(n, f"h_{n} shape {m.rows}x{m.cols} inconsistent")

    def h_(n: int) -> Matrix:
        return h[n] if n in h else Matrix.zero(S.field, T.dim(n + 1), S.dim(n))

    for n in set(S.space.dims) | set(T.space.dims):
        if f.f(n) - g.f(n) != T.d(n + 1) * h_(n) + h_(n - 1) * S.d(n):
            return Violation(n, "f − g is not dh + hd")
    return True


def homology_dims(C: Complex, w: Window) -> dict[int, int]:
    """dim H_n = dim C_n − rank d_n − rank d_{n+1} for each n in the window."""
    ranks = {n: rank(C.d(n)) for n in range(w.lo, w.hi + 2)}
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
    """Per-degree bijectivity of H_n(f) on the window, from ranks.

    With one echelon per degree, rank H_n(f) = rank[B_n(tgt) | f(Z_n(src))]
    − dim B_n(tgt).  Each differential is eliminated once: on the source,
    one kernel of d_n for n in w.lo..w.hi + 1 gives Z_n and rank d_n (its
    columns minus its kernel); on the target, the boundary echelon of
    d_{n+1}, before any cycle image joins it, gives rank d_{n+1}, carried
    to degree n + 1.  Raises ValueError, with the cycle as ``witness``,
    when f does not map cycles to cycles.
    """
    src, tgt = f.source, f.target
    cycles = {n: kernel_basis(src.d(n)) for n in range(w.lo, w.hi + 2)}
    rank_dn = rank(tgt.d(w.lo))  # rank of the target's d_n
    per, dims = {}, {}
    for n in w.degrees():
        h_src = len(cycles[n]) - (src.dim(n + 1) - len(cycles[n + 1]))
        fn, dn = f.f(n), tgt.d(n)
        image = Echelon(tgt.field)
        b_tgt = sum(image.add(c) for c in tgt.d(n + 1).columns)
        h_tgt = tgt.dim(n) - rank_dn - b_tgt
        rank_hf = 0
        for z in cycles[n]:
            y = fn.image(z)
            if dn.image(y):
                err = ValueError(f"f_{n} maps a cycle to a non-cycle")
                err.witness = tuple(z.get(j, src.field.zero) for j in range(src.dim(n)))
                raise err
            rank_hf += image.add(y)
        dims[n] = (h_src, h_tgt)
        per[n] = h_src == h_tgt == rank_hf
        rank_dn = b_tgt
    return QuasiIsoReport(per, all(per.values()), dims)
