import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dgkit.complexes import ChainMap, Complex, GradedSpace, Window, quasi_iso
from dgkit.field import GF, QQ
from dgkit.linalg import Echelon, Matrix, kernel_basis, lead_coords, rank, vec_iadd, vec_scale

FIELDS = (QQ, GF(2), GF(101))


def rand_matrix(field, rows, cols, rng):
    return Matrix(
        field, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def echelon_of(A: Matrix) -> Echelon:
    E = Echelon(A.field)
    for r in A.entries:
        E.add(r)
    return E


def dense_rref(F, rows, ncols):
    """Dense Gauss–Jordan oracle: (reduced nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        r = next((i for i in range(k, len(m)) if m[i][c] != 0), None)
        if r is None:
            continue
        m[k], m[r] = m[r], m[k]
        inv = F.inv(m[k][c])
        m[k] = [F.mul(inv, x) for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][c] != 0:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[k])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def oracle_kernel(F, R, pivots, ncols):
    """Canonical sparse kernel from a reduced row-echelon form: 1 at each non-pivot j."""
    ker = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [F.zero] * ncols
        v[j] = F.one
        for row, p in zip(R, pivots):
            v[p] = F.neg(row[j])
        ker.append({i: x for i, x in enumerate(v) if x != 0})
    return ker


def leads_of(ker):
    """The lead of each kernel vector, its non-pivot column and largest index,
    as the index {lead: position} that lead_coords reads."""
    return {max(v): i for i, v in enumerate(ker)}


def kernel_solution(A: Matrix, v):
    """The coordinates of v in A's kernel basis, read at its leads by
    lead_coords, as a dense tuple, or None if v is not in the kernel."""
    F, ker = A.field, kernel_basis(A)
    x = lead_coords(F, ker, leads_of(ker), {j: c for j, c in enumerate(v) if c})
    if x is not None:
        assert_reduced(F, x)
    return None if x is None else tuple(x.get(i, F.zero) for i in range(len(ker)))


def kernel_oracle_solution(F, R, pivots, ncols, v):
    """oracle_solve of K x = v, K the columns of oracle_kernel."""
    ker = oracle_kernel(F, R, pivots, ncols)
    rows = [[k.get(j, F.zero) for k in ker] for j in range(ncols)]
    return oracle_solve(F, rows, v, len(ker))


def oracle_solve(F, rows, b, ncols):
    """The solution of A x = b vanishing on the non-pivot columns, or None."""
    Rb, pb = dense_rref(F, [list(row) + [x] for row, x in zip(rows, b)], ncols + 1)
    if ncols in pb:
        return None
    x = [F.zero] * ncols
    for row, p in zip(Rb, pb):
        x[p] = row[ncols]
    return tuple(x)


# -- row reduction --------------------------------------------------------------


def test_row_reduce_identity():
    I = Matrix.identity(QQ, 2)
    assert echelon_of(I).rows == {0: {0: 1}, 1: {1: 1}}
    assert rank(I) == 2 and kernel_basis(I) == []


def test_row_reduce_rank_one():
    A = Matrix(QQ, [[1, 2], [2, 4]])
    assert echelon_of(A).rows == {0: {0: 1, 1: 2}}
    assert rank(A) == 1
    assert kernel_basis(A) == [{0: Fraction(-2), 1: Fraction(1)}]


def test_row_reduce_mod2():
    A = Matrix(GF(2), [[1, 1], [1, 1]])
    assert rank(A) == 1
    assert kernel_basis(A) == [{0: 1, 1: 1}]


def test_row_reduce_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        A = rand_matrix(QQ, rng.randint(0, 4), rng.randint(0, 4), rng)
        E = echelon_of(A)
        again = Echelon(QQ)
        for row in E.rows.values():
            again.add(row)
        assert again.rows == E.rows
        assert rank(A) == len(E)


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_zero_matrix():
    ker = kernel_basis(Matrix.zero(QQ, 2, 3))
    assert len(ker) == 3


def test_kernel_rank_one():
    ker = kernel_basis(Matrix(QQ, [[1, 2], [2, 4]]))
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * 1 + v[1] * 2 == 0


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(30):
        A = rand_matrix(QQ, rng.randint(0, 5), rng.randint(0, 5), rng)
        assert rank(A) + len(kernel_basis(A)) == A.cols


# -- the map induced on homology ---------------------------------------------------


def two_step(field, d1_column):
    """C_1 = k --d_1--> C_0 = k², with d_1 sending the generator to d1_column."""
    return Complex(
        field,
        GradedSpace({0: 2, 1: 1}),
        {1: Matrix(field, [[x] for x in d1_column], cols=1)},
    )


def test_induced_map_identity():
    C = two_step(QQ, (1, 0))  # H_0 spanned by e1
    report = quasi_iso(ChainMap.identity(C), Window(0, 1))
    assert report.ok and report.dims == {0: (1, 1), 1: (0, 0)}


def test_induced_map_zero():
    C = Complex(QQ, GradedSpace({0: 2}), {})
    report = quasi_iso(ChainMap.zero(C, C), Window(0, 0))
    assert not report.ok and report.dims[0] == (2, 2)


def test_induced_map_cycle_to_boundary():
    # f_0 sends the homology class e0 onto the boundary e1: H_0(f) = 0
    C = two_step(QQ, (0, 1))
    f = ChainMap(C, C, {0: Matrix(QQ, [[0, 0], [1, 0]])})
    assert f.validate() is True
    report = quasi_iso(f, Window(0, 0))
    assert report.per_degree == {0: False} and report.dims[0] == (1, 1)


def test_induced_map_precondition_violation():
    # d_0 = (0 1): e0 is a cycle, and f_0 sends it to e1, which is not
    C = Complex(QQ, GradedSpace({-1: 1, 0: 2}), {0: Matrix(QQ, [[0, 1]])})
    f = ChainMap(C, C, {0: Matrix(QQ, [[0, 0], [1, 0]])})
    with pytest.raises(ValueError) as err:
        quasi_iso(f, Window(0, 0))
    assert err.value.witness == (Fraction(1), Fraction(0))


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4), st.integers())
def test_rank_nullity_property(r, c, seed):
    rng = random.Random(seed)
    A = rand_matrix(QQ, r, c, rng)
    assert rank(A) + len(kernel_basis(A)) == c


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_field_zero_and_one_stored_once(F):
    # integral scalars are ints over every field; over F_p they lie in 0..p-1
    assert type(F.zero) is int and type(F.one) is int
    assert (F.zero, F.one) == (0, 1)
    assert F.zero is F.zero and F.one is F.one
    assert F.sign(0) == F.one and F.add(F.sign(1), F.one) == F.zero
    assert is_scalar(F, F.sign(0)) and is_scalar(F, F.sign(1))
    assert F.sign(1) == (-1 if F.is_rational else F.characteristic - 1)


# -- the echelon engine against the dense oracle ------------------------------------

entries = st.sampled_from((0, 0, 0, 1, -1, 2, 3))


@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(0, 5), st.data())
def test_engine_matches_dense_oracle(F, r, c, data):
    rows = st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
    A = Matrix(F, data.draw(rows), cols=c)
    R, pivots = dense_rref(F, A.entries, c)
    E = echelon_of(A)
    assert E.rows == {p: {j: x for j, x in enumerate(row) if x != 0} for row, p in zip(R, pivots)}
    assert rank(A) == len(pivots)
    assert kernel_basis(A) == oracle_kernel(F, R, pivots, c)

    # the kernel basis is in lead form: 1 at its own non-pivot column, its
    # largest index, and 0 at every other vector's
    ker = kernel_basis(A)
    leads = leads_of(ker)
    assert list(leads) == [j for j in range(c) if j not in pivots]
    for i, v in enumerate(ker):
        assert [v.get(lead) for lead in leads] == [F.one if k == i else None for k in range(len(ker))]

    # normal form modulo the row space, as the tensor product reduces ground vectors
    v = [F.of(x) for x in data.draw(st.lists(entries, min_size=c, max_size=c))]
    w = list(v)
    for row, p in zip(R, pivots):
        w = [F.sub(x, F.mul(w[p], y)) for x, y in zip(w, row)]
    assert E.reduce(v) == {j: x for j, x in enumerate(w) if x != 0}

    # lead coordinates: a combination of the kernel vectors comes back with
    # its coefficients, as the dense oracle solves for them
    x0 = [F.of(x) for x in data.draw(st.lists(entries, min_size=len(ker), max_size=len(ker)))]
    comb: dict = {}
    for x, k in zip(x0, ker):
        vec_iadd(F, comb, k, x)
    dense = tuple(comb.get(j, F.zero) for j in range(c))
    assert kernel_solution(A, dense) == tuple(x0) == kernel_oracle_solution(F, R, pivots, c, dense)
    # perturbed off a lead the vector leaves the span and is refused
    for p in pivots:
        assert lead_coords(F, ker, leads, vec_iadd(F, dict(comb), {p: F.one})) is None


# -- the sparse-column Matrix against a dense list-of-lists oracle ------------------


def oracle_sum(F, xs):
    total = F.zero
    for x in xs:
        total = F.add(total, x)
    return total


def grid(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@given(st.sampled_from(FIELDS), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matrix_matches_dense_oracle(F, r, c, k, data):
    a, b = ([[F.of(x) for x in row] for row in data.draw(grid(r, c))] for _ in range(2))
    e = [[F.of(x) for x in row] for row in data.draw(grid(c, k))]
    A, B, E = Matrix(F, a, cols=c), Matrix(F, b, cols=c), Matrix(F, e, cols=k)

    # the same columns with their explicit zeros give the same matrix, stored without them
    A2 = Matrix.from_columns(F, [{i: a[i][j] for i in range(r)} for j in range(c)], r)
    assert A2 == A and hash(A2) == hash(A)
    assert all(x != 0 for col in A.columns + A2.columns for x in col.values())
    assert (A.rows, A.cols) == (r, c)

    assert A.entries == tuple(map(tuple, a))
    assert A.columns == tuple({i: row[j] for i, row in enumerate(a) if row[j]} for j in range(c))
    assert A.is_zero() == all(x == 0 for row in a for x in row)

    def dense(rows, cols):
        return Matrix(F, rows, cols=cols)

    product = [
        [oracle_sum(F, (F.mul(x, e[q][j]) for q, x in enumerate(row))) for j in range(k)]
        for row in a
    ]
    assert A * E == dense(product, k)
    assert A + B == dense([[F.add(x, y) for x, y in zip(p, q)] for p, q in zip(a, b)], c)
    assert A - B == dense([[F.sub(x, y) for x, y in zip(p, q)] for p, q in zip(a, b)], c)
    assert (A - A).is_zero() and A - A == Matrix.zero(F, r, c)
    s = F.of(data.draw(entries))
    assert A.scale(s) == dense([[F.mul(s, x) for x in row] for row in a], c)

    v = [F.of(x) for x in data.draw(st.lists(entries, min_size=c, max_size=c))]
    Av = A.image({j: x for j, x in enumerate(v) if x})
    assert tuple(Av.get(i, F.zero) for i in range(r)) == tuple(
        oracle_sum(F, (F.mul(x, y) for x, y in zip(row, v))) for row in a
    )

    R, pivots = dense_rref(F, a, c)
    assert rank(A) == len(pivots)
    assert kernel_basis(A) == oracle_kernel(F, R, pivots, c)
    v = tuple(F.of(x) for x in data.draw(st.lists(entries, min_size=c, max_size=c)))
    assert kernel_solution(A, v) == kernel_oracle_solution(F, R, pivots, c, v)


# -- the sparse-vector kernel against the Field-based oracle ------------------------


def oracle_iadd(F, acc, b, c=None):
    """acc += c·b through Field.add and Field.mul, entry by entry."""
    for k, v in b.items():
        s = F.add(acc.get(k, F.zero), v if c is None else F.mul(c, v))
        if s == 0:
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def oracle_scale(F, c, a):
    if c == 0:
        return {}
    return {k: F.mul(c, v) for k, v in a.items()}


def scalars(F):
    if F.is_rational:
        return st.fractions(min_value=-4, max_value=4, max_denominator=3).map(F.of)
    return st.integers(0, F.characteristic - 1)


def sparse_vectors(F):
    return st.dictionaries(st.integers(0, 7), scalars(F).filter(lambda x: x != 0), max_size=6)


def is_scalar(F, x) -> bool:
    """x is a field element in normal form: over Q an int iff integral, else a
    Fraction with denominator other than 1; over F_p an int in 0..p-1."""
    if F.is_rational:
        return type(x) is int or (type(x) is Fraction and x.denominator != 1)
    return type(x) is int and 0 <= x < F.characteristic


def assert_reduced(F, v):
    """No stored zeros, and every entry in normal form (``is_scalar``)."""
    assert all(x != 0 for x in v.values())
    assert all(is_scalar(F, x) for x in v.values())


@given(st.sampled_from(FIELDS), st.data())
def test_vector_kernel_matches_field_oracle(F, data):
    acc, b = data.draw(sparse_vectors(F)), data.draw(sparse_vectors(F))
    c = data.draw(
        st.one_of(
            st.none(),
            st.just(F.one),
            st.just(F.of(-1)),
            st.integers(-3, 3).map(F.sign),
            scalars(F),
        )
    )
    out = dict(acc)
    assert vec_iadd(F, out, b, c) is out
    assert out == oracle_iadd(F, dict(acc), b, c)
    assert_reduced(F, out)
    if not F.is_rational:
        # any integer may stand for c over F_p, as −c does in the echelon engine
        n = data.draw(st.integers(-250, 250))
        out = vec_iadd(F, dict(acc), b, n)
        assert out == oracle_iadd(F, dict(acc), b, F.of(n))
        assert_reduced(F, out)

    # b − b and −b + b cancel to nothing
    assert vec_iadd(F, dict(b), b, F.sign(1)) == {}
    assert vec_iadd(F, vec_scale(F, F.sign(1), b), b) == {}

    k = 1 if c is None else c
    scaled = vec_scale(F, k, b)
    assert scaled == oracle_scale(F, k, b)
    assert_reduced(F, scaled)


# -- the normal form against the all-Fraction path ---------------------------------


def fractions_only(v: dict) -> dict:
    """The same vector with every entry a Fraction, integral ones included."""
    return {k: Fraction(x) for k, x in v.items()}


# denominators up to 2 make 1/2 + 1/2 and 2·(1/2) common
q_scalars = st.fractions(min_value=-3, max_value=3, max_denominator=2).map(QQ.of)


@given(q_scalars, q_scalars.filter(bool))
def test_field_results_in_normal_form(a, b):
    F, fa, fb = QQ, Fraction(a), Fraction(b)
    results = [F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a), F.inv(b), F.div(a, b)]
    assert results == [fa + fb, fa - fb, fa * fb, -fa, 1 / fb, fa / fb]
    results += [F.of(fa), F.of(str(fa)), F.of(f"{2 * fa.numerator}/{2 * fa.denominator}")]
    assert results[-3:] == [a, a, a]
    assert all(is_scalar(F, x) for x in results)
    # ±1 is its own inverse, as an int and without a Fraction round trip
    assert [(F.inv(u), type(F.inv(u))) for u in (1, -1)] == [(1, int), (-1, int)]


def q_vectors(n):
    return st.dictionaries(st.integers(0, n - 1), q_scalars.filter(bool), max_size=n)


def kernel_results(vs, u, c):
    """vec_iadd, vec_scale, Echelon, kernel_basis and lead_coords on the
    vectors vs, u and c."""
    F = QQ
    added = Echelon(F)
    independent = [added.add(v) for v in vs]
    cols = Matrix.from_columns(F, vs, 5)
    ker = added.kernel(range(5))
    leads = leads_of(ker)
    comb: dict = {}  # Σ u_i·ker_i, in the span by construction
    for i, k in enumerate(ker):
        if u.get(i):
            vec_iadd(F, comb, k, u[i])
    return {
        "iadd": [vec_iadd(F, dict(vs[0]), u, k) for k in (None, 1, -1, c)],
        "scale": [vec_scale(F, k, u) for k in (1, -1, c)],
        "independent": independent,
        "rows": added.rows,
        "reduce": added.reduce(u),
        "coords": [lead_coords(F, ker, leads, comb), lead_coords(F, ker, leads, u)],
        "kernel": ker,
        "kernel_basis": kernel_basis(cols),
    }


@given(st.lists(q_vectors(5), min_size=1, max_size=5), q_vectors(5), st.data())
def test_normal_form_matches_all_fraction_path(vs, u, data):
    c = data.draw(q_scalars)
    normal = kernel_results(vs, u, c)
    fraction = kernel_results([fractions_only(v) for v in vs], fractions_only(u), Fraction(c))
    assert normal == fraction
    assert normal["coords"][0] == {i: x for i, x in sorted(u.items()) if i < len(normal["kernel"])}

    def echelon_out(r):
        return [*r["rows"].values(), r["reduce"], *(x or {} for x in r["coords"]), *r["kernel"], *r["kernel_basis"]]

    # input in normal form comes out in normal form; the echelon engine copies
    # any input in normal form, and vec_iadd writes every entry it computes so
    for v in normal["iadd"] + normal["scale"] + echelon_out(normal) + echelon_out(fraction):
        assert_reduced(QQ, v)
    for v in fraction["iadd"]:
        assert_reduced(QQ, {k: x for k, x in v.items() if k in u})


def quasi_iso_outcome(r0, r1, d, f0, f1, wrap):
    """quasi_iso of f = (f0, f1) on the complex k^r1 --d--> k^r0, or the
    witness it raises; every matrix column is fractions_only first if wrap."""

    def mat(m, rows):
        return Matrix.from_columns(QQ, [fractions_only(c) if wrap else c for c in m.columns], rows)

    C = Complex(QQ, GradedSpace({0: r0, 1: r1}), {1: mat(d, r0)})
    f = ChainMap(C, C, {0: mat(f0, r0), 1: mat(f1, r1)})
    try:
        return quasi_iso(f, Window(0, 1))
    except ValueError as err:
        return err.witness


@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
def test_quasi_iso_matches_all_fraction_path(r0, r1, perturb, data):
    def matrix(rows, cols):
        row = st.lists(q_scalars, min_size=cols, max_size=cols)
        return Matrix(QQ, data.draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)

    # f = λ·id + (dh + hd) is a chain map, quasi-iso iff λ ≠ 0 or H = 0;
    # a perturbation of f_1 may send a cycle to a non-cycle
    d, h = matrix(r0, r1), matrix(r1, r0)
    lam = data.draw(q_scalars)
    f0 = Matrix.identity(QQ, r0).scale(lam) + d * h
    f1 = Matrix.identity(QQ, r1).scale(lam) + h * d
    if perturb:
        f1 = f1 + matrix(r1, r1)
    normal = quasi_iso_outcome(r0, r1, d, f0, f1, wrap=False)
    assert normal == quasi_iso_outcome(r0, r1, d, f0, f1, wrap=True)
    if isinstance(normal, tuple):
        assert all(is_scalar(QQ, x) for x in normal)
    for m in (d, h, f0, f1):
        assert all(is_scalar(QQ, x) for col in m.columns for x in col.values())
