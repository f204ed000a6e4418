"""Exact linear algebra: sparse vectors, sparse-column matrices, one echelon engine.

A sparse vector is a dict ``{index: nonzero field element}``.
:func:`vec_iadd` (acc += c·b in place) and :func:`vec_scale` are the one
sparse-vector arithmetic: the matrices, the echelon engine and every other
module add and scale vectors through them.  Signs are ``Field.sign``.

A :class:`Matrix` over a :class:`~dgkit.field.Field` is a tuple of sparse
columns, each a dict ``{row: nonzero field element}``; matrices carry
differentials and chain maps.  ``Matrix(F, rows)`` is the one constructor
that coerces its entries into the field, for input from outside; every other
constructor takes field elements as they are.  ``entries`` is a dense
row-major view, for tests and printing only.

Every elimination goes through :class:`Echelon`, the reduced echelon basis of
a subspace held as sparse dict rows.  A row's pivot is the least index of its
support and every row is zero on every other pivot, so the rows are the
unique reduced row-echelon form of the span: rank, kernel bases and normal
forms depend only on the input and its order, never on the elimination path.
Coordinates need no elimination: every basis solved in is in lead form, and
:func:`lead_coords` reads a vector's coordinates at the leads.
"""

from __future__ import annotations

from .field import Field


class DimensionMismatch(ValueError):
    pass


class Matrix:
    __slots__ = ("field", "rows", "cols", "columns")

    def __init__(self, field: Field, entries, cols: int | None = None):
        """The matrix with these rows (``cols`` sets the width of an empty list);
        the one constructor that coerces its entries into the field."""
        entries = [tuple(field.of(x) for x in row) for row in entries]
        cols = len(entries[0]) if entries else (cols or 0)
        if any(len(r) != cols for r in entries):
            raise DimensionMismatch("ragged rows")
        columns = [{} for _ in range(cols)]
        for i, row in enumerate(entries):
            for j, x in enumerate(row):
                if x != 0:
                    columns[j][i] = x
        self.field, self.rows, self.cols, self.columns = field, len(entries), cols, tuple(columns)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_columns(field: Field, cols, rows: int) -> "Matrix":
        """The matrix with these columns, each a dict {row: field element}.
        Entries are not coerced; zeros are dropped."""
        m = object.__new__(Matrix)
        m.field, m.rows = field, rows
        m.columns = tuple({i: x for i, x in c.items() if x != 0} for c in cols)
        m.cols = len(m.columns)
        if any(i >= rows for c in m.columns for i in c):
            raise DimensionMismatch(f"column entry beyond row {rows - 1}")
        return m

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        m = object.__new__(Matrix)
        m.field, m.rows, m.cols, m.columns = field, rows, cols, tuple({} for _ in range(cols))
        return m

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix.from_columns(field, [{i: field.one} for i in range(n)], n)

    # -- access --------------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """Dense row-major view, for tests and printing."""
        return tuple(tuple(self[i, j] for j in range(self.cols)) for i in range(self.rows))

    def __getitem__(self, ij):
        return self.columns[ij[1]].get(ij[0], self.field.zero)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
            and other.columns == self.columns
        )

    def __hash__(self):
        return hash((self.field, self.rows, tuple(frozenset(c.items()) for c in self.columns)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, None)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, self.field.sign(1))

    def _combine(self, other: "Matrix", c) -> "Matrix":
        """self + c·other (other itself when c is None)."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        F = self.field
        cols = [vec_iadd(F, dict(a), b, c) for a, b in zip(self.columns, other.columns)]
        return Matrix.from_columns(F, cols, self.rows)

    def scale(self, c) -> "Matrix":
        F, c = self.field, self.field.of(c)
        return Matrix.from_columns(F, [vec_scale(F, c, a) for a in self.columns], self.rows)

    def __neg__(self) -> "Matrix":
        return self.scale(self.field.sign(1))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} * {other.rows}x{other.cols}")
        return Matrix.from_columns(self.field, [self.image(b) for b in other.columns], self.rows)

    def image(self, v: dict) -> dict:
        """The image of a sparse vector {column: scalar}, as a sparse vector."""
        F, out = self.field, {}
        for j, x in v.items():
            vec_iadd(F, out, self.columns[j], x)
        return out


# -- sparse vectors ------------------------------------------------------------


def vec_iadd(F: Field, acc: dict, b: dict, c=None) -> dict:
    """acc += c·b in place (b itself when c is omitted), dropping zeros; returns acc.

    The one sparse-vector kernel.  When acc and b hold field elements, so does
    acc afterwards: 0..p-1 over F_p, whatever integer stands for c; over Q an
    int for every integral entry (1/2 + 1/2 is stored as 1), whatever rational
    stands for c, and a fraction only for the others.  Over F_p each entry
    is one integer multiply-add mod p; over Q integral entries and
    coefficients are int operations, and a coefficient of ±1 adds or
    subtracts instead of multiplying.
    """
    p, get = F.characteristic, acc.get
    if p:
        c = 1 if c is None else c % p
        for k, x in b.items():
            s = (get(k, 0) + c * x) % p
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        return acc
    # a missing entry reads as None, not 0: int 0 + a fraction is a slow round trip;
    # an integral sum is stored as its int (int.denominator is 1)
    if c is None or c == 1:
        for k, x in b.items():
            s = get(k)
            s = x if s is None else s + x
            if s:
                acc[k] = s.numerator if s.__class__ is not int and s.denominator == 1 else s
            else:
                acc.pop(k, None)
    elif c == -1:
        for k, x in b.items():
            s = get(k)
            s = -x if s is None else s - x
            if s:
                acc[k] = s.numerator if s.__class__ is not int and s.denominator == 1 else s
            else:
                acc.pop(k, None)
    else:
        for k, x in b.items():
            s = get(k)
            s = c * x if s is None else s + c * x
            if s:
                acc[k] = s.numerator if s.__class__ is not int and s.denominator == 1 else s
            else:
                acc.pop(k, None)
    return acc


def vec_scale(F: Field, c, a: dict) -> dict:
    """c·a as a new vector: a copy for c = 1, negated entries for c = -1 over Q.

    Over Q an integral product is stored as its int, as in :func:`vec_iadd`.
    """
    p = F.characteristic
    if c == 0:
        return {}
    if c == 1:
        return dict(a)
    if p:
        return {k: c * x % p for k, x in a.items()}
    if c == -1:
        return {k: -x for k, x in a.items()}
    out = {}
    for k, x in a.items():
        s = c * x
        out[k] = s.numerator if s.__class__ is not int and s.denominator == 1 else s
    return out


class Echelon:
    """Reduced echelon basis of a growing subspace, over sparse dict vectors.

    Vectors are dicts {index: scalar} (a sequence is read as one over
    0..n-1); indices only need to be comparable.  ``rows[p]`` is 1 at its
    pivot p = min(support) and 0 at every other pivot.  Input is copied in
    normal form, so over Q every row and result stores each integral entry
    as an int, even one handed in as a fraction over 1.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, v) -> dict:
        """Normal form of v modulo the span: zero on every pivot, and unique."""
        v = _normal_copy(v.items() if isinstance(v, dict) else enumerate(v))
        F, rows = self.field, self.rows
        # subtracting a row changes v only off the pivots, so one pass suffices
        for piv in [j for j in v if j in rows]:
            vec_iadd(F, v, rows[piv], -v[piv])
        return v

    def add(self, v) -> bool:
        """Insert v; True iff it was independent of the span so far."""
        F = self.field
        v = self.reduce(v)
        if not v:
            return False
        piv = min(v)
        # v is the fresh dict reduce built: already normalised when its pivot is 1
        if v[piv] != 1:
            v = vec_scale(F, F.inv(v[piv]), v)
        for r in self.rows.values():
            c = r.get(piv)
            if c is not None:
                vec_iadd(F, r, v, -c)
        self.rows[piv] = v
        return True

    def kernel(self, columns) -> list[dict]:
        """Basis of the vectors x over ``columns`` with row·x = 0 for every row.

        One vector per non-pivot column j, in the order of ``columns``: 1 at
        j, 0 at the other non-pivots.  Entries are in index order.
        """
        F = self.field
        ker = {j: {j: F.one} for j in columns if j not in self.rows}
        for piv, row in self.rows.items():
            for j, c in vec_scale(F, F.sign(1), row).items():
                if j != piv:
                    ker[j][piv] = c
        return [dict(sorted(v.items())) for v in ker.values()]


def rank(A: Matrix) -> int:
    E = Echelon(A.field)
    for c in A.columns:
        E.add(c)
    return len(E)


def kernel_basis(A: Matrix) -> list[dict]:
    """Basis of the right null space, as sparse vectors {column: scalar}.

    Canonical: one vector per non-pivot column j of the reduced row-echelon
    form, with 1 at j and 0 at the other non-pivot columns.
    """
    rows: list[dict] = [{} for _ in range(A.rows)]
    for j, c in enumerate(A.columns):
        for i, x in c.items():
            rows[i][j] = x
    E = Echelon(A.field)
    for r in rows:
        E.add(r)
    return E.kernel(range(A.cols))


def lead_coords(F: Field, basis, leads: dict, v: dict) -> dict | None:
    """{i: c} with v = Σ c·basis[i], or None when v is outside their span.

    The basis is in lead form: ``leads`` maps each lead to its basis vector,
    ``basis[i]`` is 1 at its own lead and 0 at every other lead, as the
    vector of :meth:`Echelon.kernel` for non-pivot column j is at j, its
    largest index.  So the coordinates of v are its values at the leads,
    read off the entries of v that are leads, and v is in the span exactly
    when it equals their combination; no elimination is needed.  Over Q
    every coordinate is in normal form.
    """
    rest = _normal_copy(v.items())
    x = sorted((leads[j], c) for j, c in rest.items() if j in leads)
    for i, c in x:
        vec_iadd(F, rest, basis[i], -c)
    return None if rest else dict(x)


def _normal_copy(items) -> dict:
    """The nonzero entries, copied in normal form: an integral one as its int."""
    return {j: c.numerator if c.__class__ is not int and c.denominator == 1 else c for j, c in items if c}
