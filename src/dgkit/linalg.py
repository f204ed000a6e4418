"""Exact linear algebra: dense immutable matrices and one sparse echelon engine.

Matrices are immutable, stored row-major as tuples of tuples of scalars of a
single ambient :class:`~dgkit.field.Field`; they carry differentials and
chain maps.  Every elimination goes through :class:`Echelon`, the reduced
echelon basis of a subspace held as sparse dict rows.  A row's pivot is the
least index of its support and every row is zero on every other pivot, so the
rows are the unique reduced row-echelon form of the span: rank, kernel bases,
solutions and normal forms depend only on the input and its order, never on
the elimination path.
"""

from __future__ import annotations

from .field import Field


class DimensionMismatch(ValueError):
    pass


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries, cols: int | None = None):
        self.field = field
        self.entries = tuple(tuple(field.of(x) for x in row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else (cols or 0)
        if any(len(r) != self.cols for r in self.entries):
            raise DimensionMismatch("ragged rows")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return Matrix(field, [[z] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(
            field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_columns(field: Field, cols, rows: int | None = None) -> "Matrix":
        cols = list(cols)
        if not cols:
            if rows is None:
                raise DimensionMismatch("row count needed for empty column list")
            return Matrix(field, [[] for _ in range(rows)], cols=0)
        if len(cols[0]) == 0:
            return Matrix(field, [], cols=len(cols))
        n = len(cols[0])
        return Matrix(field, [[c[i] for c in cols] for i in range(n)])

    # -- access --------------------------------------------------------------

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.entries == self.entries
            and other.rows == self.rows
            and other.cols == self.cols
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        F = self.field
        return Matrix(
            F,
            [
                [F.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, c) -> "Matrix":
        F = self.field
        c = F.of(c)
        return Matrix(F, [[F.mul(c, x) for x in row] for row in self.entries], cols=self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(self.field.neg(self.field.one))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        F = self.field
        out = []
        ocols = other.entries
        for r in self.entries:
            row = []
            for j in range(other.cols):
                s = F.zero
                for k, a in enumerate(r):
                    if a != 0:
                        s = F.add(s, F.mul(a, ocols[k][j]))
                row.append(s)
            out.append(row)
        return Matrix(F, out, cols=other.cols)

    def apply(self, vec):
        """Multiply by a column vector given as a sequence; returns a tuple."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        F = self.field
        out = []
        for r in self.entries:
            s = F.zero
            for a, v in zip(r, vec):
                if a != 0 and v != 0:
                    s = F.add(s, F.mul(a, v))
            out.append(s)
        return tuple(out)


def _sub_scaled(p: int, v: dict, c, row: dict):
    """v -= c·row in place, dropping zeros; p is the characteristic."""
    if p:
        for j, x in row.items():
            s = (v.get(j, 0) - c * x) % p
            if s:
                v[j] = s
            else:
                v.pop(j, None)
    else:
        for j, x in row.items():
            s = v.get(j, 0) - c * x
            if s:
                v[j] = s
            else:
                v.pop(j, None)


def _scaled(p: int, c, v: dict) -> dict:
    return {j: c * x % p for j, x in v.items()} if p else {j: c * x for j, x in v.items()}


class Echelon:
    """Reduced echelon basis of a growing subspace, over sparse dict vectors.

    Vectors are dicts {index: scalar} (a sequence is read as one over
    0..n-1); indices only need to be comparable.  ``rows[p]`` is 1 at its
    pivot p = min(support) and 0 at every other pivot.  With ``certify`` each
    row also keeps its expression in the vectors passed to :meth:`add`,
    numbered in call order, which :meth:`coords` uses.
    """

    def __init__(self, field: Field, certify: bool = False):
        self.field = field
        self.rows: dict = {}
        self._certs: dict | None = {} if certify else None
        self._added = 0

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, v, cert: dict | None):
        items = v.items() if isinstance(v, dict) else enumerate(v)
        v = {j: c for j, c in items if c != 0}
        rows, p = self.rows, self.field.characteristic
        # subtracting a row changes v only off the pivots, so one pass suffices
        for piv in [j for j in v if j in rows]:
            c = v[piv]
            _sub_scaled(p, v, c, rows[piv])
            if cert is not None:
                _sub_scaled(p, cert, c, self._certs[piv])
        return v, cert

    def reduce(self, v) -> dict:
        """Normal form of v modulo the span: zero on every pivot, and unique."""
        return self._reduce(v, None)[0]

    def add(self, v) -> bool:
        """Insert v; True iff it was independent of the span so far."""
        F, p = self.field, self.field.characteristic
        cert = None if self._certs is None else {self._added: F.one}
        self._added += 1
        v, cert = self._reduce(v, cert)
        if not v:
            return False
        piv = min(v)
        inv = F.inv(v[piv])
        row = _scaled(p, inv, v)
        if cert is not None:
            cert = _scaled(p, inv, cert)
        for q, r in self.rows.items():
            c = r.get(piv)
            if c is not None:
                _sub_scaled(p, r, c, row)
                if cert is not None:
                    _sub_scaled(p, self._certs[q], c, cert)
        self.rows[piv] = row
        if cert is not None:
            self._certs[piv] = cert
        return True

    def coords(self, v) -> dict | None:
        """{i: c} with v = Σ c·(i-th added vector), or None outside the span.

        Needs ``certify``; unique when the added vectors are independent.
        """
        rest, cert = self._reduce(v, {})
        if rest:
            return None
        neg = self.field.neg
        return {i: neg(c) for i, c in cert.items() if c != 0}

    def kernel(self, columns) -> list[dict]:
        """Basis of the vectors x over ``columns`` with row·x = 0 for every row.

        One vector per non-pivot column j, in the order of ``columns``: 1 at
        j, 0 at the other non-pivots.  Entries are in index order.
        """
        F = self.field
        ker = {j: {j: F.one} for j in columns if j not in self.rows}
        for piv, row in self.rows.items():
            for j, c in row.items():
                if j != piv:
                    ker[j][piv] = F.neg(c)
        return [dict(sorted(v.items())) for v in ker.values()]


def _row_echelon(A: Matrix) -> Echelon:
    E = Echelon(A.field)
    for r in A.entries:
        E.add(r)
    return E


def rank(A: Matrix) -> int:
    return len(_row_echelon(A))


def kernel_basis(A: Matrix):
    """Basis of the right null space, as a list of column-vector tuples.

    Canonical: one vector per non-pivot column j of the reduced row-echelon
    form, with 1 at j and 0 at the other non-pivot columns.
    """
    z = A.field.zero
    return [
        tuple(v.get(j, z) for j in range(A.cols))
        for v in _row_echelon(A).kernel(range(A.cols))
    ]


def solve(A: Matrix, b):
    """One exact solution of A x = b, or None if b is not in the column space.

    The solution is the one that vanishes on the non-pivot columns.
    """
    if len(b) != A.rows:
        raise DimensionMismatch("rhs length mismatch")
    F, n = A.field, A.cols
    E = Echelon(F)
    for r, x in zip(A.entries, b):
        E.add(r + (F.of(x),))
    if n in E.rows:
        return None
    x = [F.zero] * n
    for piv, row in E.rows.items():
        x[piv] = row.get(n, F.zero)
    return tuple(x)
