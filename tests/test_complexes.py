import random

from dgkit.field import QQ
from dgkit.linalg import Matrix
from dgkit.complexes import (
    ChainMap,
    Complex,
    GradedSpace,
    Violation,
    Window,
    check_homotopy,
    homology_dims,
    quasi_iso,
)

from oracles import cone, direct_sum, shift, single, validate_complex, zero_complex


def random_complex(rng, max_deg=5, max_dim=4, field=QQ):
    """Seeded bounded complex: random components, d built to satisfy d*d=0.

    d_n is chosen as a random matrix composed with projection onto the kernel
    of d_{n-1}, from the top degree down.
    """
    dims = {n: rng.randint(0, max_dim) for n in range(0, max_deg + 1)}
    space = GradedSpace(dims)
    diffs = {}
    from dgkit.linalg import kernel_basis

    prev_kernel = None  # kernel of d_{n-1} inside component n-1
    for n in sorted(space.dims):
        rows, cols = space.dim(n - 1), space.dim(n)
        if rows == 0 or cols == 0:
            prev_kernel = None
            continue
        raw = Matrix(
            QQ, [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        d = raw
        if n - 1 in diffs:
            ker = kernel_basis(diffs[n - 1])
            if not ker:
                d = Matrix.zero(QQ, rows, cols)
            else:
                K = Matrix.from_columns(QQ, ker, rows=rows)
                coeff = Matrix(
                    QQ,
                    [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(K.cols)],
                    cols=cols,
                )
                d = K * coeff
        if not d.is_zero():
            diffs[n] = d
    return Complex(QQ, space, diffs)


def test_zero_complex_valid():
    assert validate_complex(zero_complex(QQ)) is True


def test_broken_square_detected():
    space = GradedSpace({0: 1, 1: 1, 2: 1})
    C = Complex(QQ, space, {1: Matrix(QQ, [[1]]), 2: Matrix(QQ, [[1]])})
    v = validate_complex(C)
    assert isinstance(v, Violation) and v.degree == 2


def test_single_homology():
    C = single(QQ, 0)
    dims = homology_dims(C, Window(-1, 1))
    assert dims == {-1: 0, 0: 1, 1: 0}


def test_two_step_homology():
    # 0 -> k^2 -> k^2 -> 0 with d = diag(1, 0)
    C = Complex(QQ, GradedSpace({0: 2, 1: 2}), {1: Matrix(QQ, [[1, 0], [0, 0]])})
    dims = homology_dims(C, Window(0, 1))
    assert dims == {0: 1, 1: 1}


def test_shift_degree_and_sign():
    C = single(QQ, 0)
    S = shift(C, 1)
    assert S.dim(1) == 1 and S.dim(0) == 0
    assert homology_dims(S, Window(0, 2)) == {0: 0, 1: 1, 2: 0}


def test_shift_involution():
    rng = random.Random(5)
    C = random_complex(rng)
    assert shift(shift(C, 1), -1) == C
    assert shift(C, 0) == C


def test_shift_exactness():
    rng = random.Random(9)
    C = random_complex(rng)
    h0 = homology_dims(C, Window(0, 6))
    h1 = homology_dims(shift(C, 2), Window(2, 8))
    assert all(h1[n + 2] == h0[n] for n in range(0, 7))


def test_cone_identity_acyclic():
    rng = random.Random(1)
    for seed in range(5):
        C = random_complex(random.Random(seed))
        Cn, incl, proj = cone(ChainMap.identity(C))
        assert validate_complex(Cn) is True
        assert incl.validate() is True
        assert proj.validate() is True
        dims = homology_dims(Cn, Window(-1, 8))
        assert all(d == 0 for d in dims.values())


def test_cone_zero_map():
    k0 = single(QQ, 0)
    Cn, _, _ = cone(ChainMap.zero(k0, k0))
    assert homology_dims(Cn, Window(0, 1)) == {0: 1, 1: 1}


def test_direct_sum():
    rng = random.Random(2)
    C1, C2 = random_complex(rng), random_complex(rng)
    S = direct_sum([C1, C2])
    assert validate_complex(S) is True
    for n in range(0, 6):
        assert S.dim(n) == C1.dim(n) + C2.dim(n)
    h = homology_dims(S, Window(0, 6))
    h1 = homology_dims(C1, Window(0, 6))
    h2 = homology_dims(C2, Window(0, 6))
    assert all(h[n] == h1[n] + h2[n] for n in range(0, 7))
    assert direct_sum([], QQ).is_zero()
    assert direct_sum([C1, zero_complex(QQ)]).space.dims == C1.space.dims


def test_check_homotopy_trivial():
    C = random_complex(random.Random(4))
    f = ChainMap.identity(C)
    assert check_homotopy(f, f, {}) is True


def test_check_homotopy_contraction_of_cone():
    # cone(id_k): standard contraction maps the target copy to the shifted one.
    k0 = single(QQ, 0)
    Cn, _, _ = cone(ChainMap.identity(k0))
    h = {0: Matrix(QQ, [[1]])}
    assert check_homotopy(ChainMap.identity(Cn), ChainMap.zero(Cn, Cn), h) is True


def test_check_homotopy_obstructed():
    # id − 0 on k in degree 0 is not dh + hd for h = 0: the failure names degree 0
    C = single(QQ, 0)
    v = check_homotopy(ChainMap.identity(C), ChainMap.zero(C, C), {})
    assert isinstance(v, Violation) and v.degree == 0


def test_check_homotopy_mis_shaped_is_a_violation():
    # cone(id_k) has dimension 1 in degrees 0 and 1, so h_0 is 1x1; a 2x1 h_0
    # is reported at its degree, not raised
    Cn, _, _ = cone(ChainMap.identity(single(QQ, 0)))
    v = check_homotopy(ChainMap.identity(Cn), ChainMap.zero(Cn, Cn), {0: Matrix.zero(QQ, 2, 1)})
    assert isinstance(v, Violation)
    assert (v.degree, v.reason) == (0, "h_0 shape 2x1 inconsistent")


def test_quasi_iso_identity_and_zero():
    C = random_complex(random.Random(8))
    assert quasi_iso(ChainMap.identity(C), Window(-1, 7)).ok
    k0 = single(QQ, 0)
    rep = quasi_iso(ChainMap.zero(k0, k0), Window(0, 0))
    assert not rep.ok and rep.per_degree[0] is False


def test_cone_long_exact_consequence():
    # H(cone(f)) = 0 on w  iff  f is a quasi-iso on the shrunk window.
    for seed in range(10):
        rng = random.Random(seed)
        C = random_complex(rng, max_deg=3, max_dim=3)
        D = random_complex(rng, max_deg=3, max_dim=3)
        # arbitrary chain map: scalar multiples of identity won't exist between
        # different complexes, so use the zero map plus identity cases
        for f in (ChainMap.zero(C, D), ChainMap.identity(C)):
            Cn, _, _ = cone(f)
            w = Window(-1, 5)
            cone_zero = all(d == 0 for d in homology_dims(Cn, w).values())
            qi = quasi_iso(f, Window(w.lo + 1, w.hi - 1)).ok
            assert cone_zero == qi


def test_homotopic_maps_same_quasi_iso_verdict():
    k0 = single(QQ, 0)
    Cn, _, _ = cone(ChainMap.identity(k0))
    f = ChainMap.identity(Cn)
    g = ChainMap.zero(Cn, Cn)
    h = {0: Matrix(QQ, [[1]])}
    assert check_homotopy(f, g, h)
    w = Window(-1, 2)
    assert quasi_iso(f, w).per_degree == quasi_iso(g, w).per_degree


def test_validate_and_check_homotopy_name_the_lowest_failing_degree():
    # k in each degree -3..2, with d_{-2} and d_2 the identity; f is the
    # identity but 0 in degrees -3 and 1, so exactly the squares at -2 and 2
    # fail.  Walked as a set, the degrees come 0, 1, 2, -1, -3, -2, and 2
    # was reported.
    C = Complex(
        QQ, GradedSpace({n: 1 for n in range(-3, 3)}), {-2: Matrix(QQ, [[1]]), 2: Matrix(QQ, [[1]])}
    )
    f = ChainMap(C, C, {n: Matrix(QQ, [[1]]) for n in (-2, -1, 0, 2)})
    v = f.validate()
    assert isinstance(v, Violation) and v.degree == -2
    # with h = 0, id − 0 = dh + hd fails in every degree: the lowest, -3,
    # is named
    v = check_homotopy(ChainMap.identity(C), ChainMap.zero(C, C), {})
    assert isinstance(v, Violation) and v.degree == -3
