import random

import pytest

from dgkit.field import GF, QQ
from dgkit.complexes import Window, homology_dims, quasi_iso
from dgkit.dga import (
    DgModule,
    bimodule_from_morphism,
    left_regular,
    matrices_from_images,
    restrict_scalars,
    validate_module,
    vec_iadd,
)
from dgkit.derived import dualize
from dgkit.homtensor import HomComplex, hom_over
from dgkit.linalg import Matrix
from dgkit.modops import (
    DgModuleMap,
    FreeModule,
    Generator,
    module_cone,
    module_direct_sum,
    module_shift,
)
from dgkit.resolutions import resolution_scope
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    identity_morphism,
    product_to_ground,
    triangular_to_product,
    truncated_polynomial,
    truncated_to_ground,
    upper_triangular,
)
from oracles import action_matrix, augmentation, cone, plain, truncate_below, validate_linear_products


def zero_module(A, side="left"):
    """The zero module over A."""
    return DgModule(A, side, [], {}, {}, name="0")


def identity_map(M):
    return DgModuleMap(M, M, {n: Matrix.identity(M.field, len(M.component(n))) for n in M.degrees()})


def simple_module(A):
    """k as a left A-module via the standard augmentation-style action."""
    return left_regular(A)


def test_module_shift_valid_and_involutive():
    for A in (truncated_polynomial(2), exterior_algebra(), upper_triangular()):
        M = left_regular(A)
        for t in (-2, -1, 1, 2, 3):
            S = module_shift(M, t)
            assert validate_module(S) == []
            assert [d + t for _, d in M.basis] == [d for _, d in S.basis]


def test_module_shift_right_untwisted():
    from dgkit.dga import right_regular

    A = exterior_algebra()
    M = right_regular(A)
    S = module_shift(M, 1)
    assert validate_module(S) == []
    assert S.act == M.act  # right actions carry no suspension twist


def test_module_direct_sum_valid():
    A = exterior_algebra()
    M = left_regular(A)
    S = module_direct_sum([M, module_shift(M, 1)])
    assert validate_module(S) == []
    assert S.total_dim == 2 * M.total_dim


def test_zero_module_and_zero_map():
    A = truncated_polynomial(3)
    Z = zero_module(A)
    assert validate_module(Z) == []
    f = DgModuleMap(Z, left_regular(A), {})
    assert f.validate() is True


def test_identity_and_composition():
    A = upper_triangular()
    M = left_regular(A)
    i = identity_map(M)
    assert i.validate() is True
    assert i.compose(i).mats == i.mats


def test_module_cone_of_identity_acyclic():
    for A in (truncated_polynomial(2), exterior_algebra()):
        M = left_regular(A)
        C = module_cone(identity_map(M))
        assert validate_module(C) == []
        U = C.underlying()
        w = Window(U.min_degree() - 1, U.max_degree() + 1)
        assert all(d == 0 for d in homology_dims(U, w).values())


def test_module_cone_nonlinear_map_rejected():
    # a degree-0 chain map that is not A-linear fails validation
    from dgkit.linalg import Matrix

    A = truncated_polynomial(2)
    M = left_regular(A)
    f = DgModuleMap(M, M, {0: Matrix(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]])})
    assert f.validate() is not True


@pytest.mark.parametrize("F", [QQ, GF(2), GF(101)], ids=repr)
def test_linearity_check_matches_the_product_oracle(F):
    # degree-0 maps between modules with d = 0 are chain maps, so random ones
    # reach the A-linearity check; validate compares f(a·m) with a·f(m) column
    # by column and must name the Violation the action-matrix products name
    rng = random.Random(33)
    outcomes = set()
    for A in (truncated_polynomial(3, F), exterior_algebra(F), upper_triangular(F)):
        R = left_regular(A)
        for M, N in ((R, R), (R, module_direct_sum([R, module_shift(R, 1)])), (module_shift(R, -1), R)):
            for _ in range(8):
                mats = {
                    n: Matrix.from_columns(
                        F,
                        [{i: F.of(rng.randint(-1, 1)) for i in range(len(N.component(n)))} for _ in M.component(n)],
                        len(N.component(n)),
                    )
                    for n in M.degrees()
                }
                f = DgModuleMap(M, N, mats)
                assert f.validate() == validate_linear_products(f)
                outcomes.add(f.validate() is True)
            assert identity_map(M).validate() is True
    assert outcomes == {True, False}


def test_free_module_on_one_generator_is_regular():
    for A in (truncated_polynomial(3), exterior_algebra(), upper_triangular()):
        M = FreeModule(A, [Generator("g", 0)])
        assert validate_module(M) == []
        R = left_regular(A)
        assert [d for _, d in M.basis] == [d for _, d in R.basis]
        assert M.act == R.act
        assert M.diff == R.diff


def test_free_module_shifted_generator():
    A = exterior_algebra()
    F = FreeModule(A, [Generator("g", 2)])
    assert validate_module(F) == []
    assert sorted(d for _, d in F.basis) == [2, 3]


def test_free_module_with_differential():
    # Koszul-style two-generator module over k[x]/(x^2): d g1 = x·g0.
    A = truncated_polynomial(2)
    g0 = Generator("g0", 0)
    F0 = FreeModule(A, [g0])
    x_g0 = F0.act_elem({1: QQ.one}, {F0.index(0, 0): QQ.one})
    g1 = Generator("g1", 1, d_elem=x_g0)
    M = FreeModule(A, [g0, g1])
    assert validate_module(M) == []
    # homology: k in degree 0 (g0 mod x g0), k in degree 1 (x g1)
    dims = homology_dims(M.underlying(), Window(-1, 3))
    assert dims == {-1: 0, 0: 1, 1: 1, 2: 0, 3: 0}


def test_free_module_tables_grow_with_each_add():
    # the Koszul resolution of k over k[x]/(x²), d(g_n) = x·g_{n-1}, grown one
    # generator at a time: the free module is its own module, so after each
    # add its complex, action matrices, coords and name see the new
    # generator, also when they were read before the add
    A = truncated_polynomial(2)
    F = FreeModule(A, [Generator("g0", 0)])
    for n in range(1, 5):
        read_before = F.underlying(), [action_matrix(F, 1, k) for k in range(n + 1)]
        F.add(Generator(f"g{n}", n, d_elem=F.act_elem({1: QQ.one}, {F.index(n - 1, 0): QQ.one})))
        assert read_before[0] is not F.underlying()
        assert validate_module(F) == []
        assert F.name == f"free({','.join(f'g{k}' for k in range(n + 1))})"
        reference = plain(F)  # a module built afresh on the same tables
        assert F.underlying() == reference.underlying()
        assert F.underlying().dim(n) == 2
        for k in range(n + 2):
            assert action_matrix(F, 1, k) == action_matrix(reference, 1, k)
        x = F.index(n, 0)
        assert F.coords({x: QQ.one}, n) == {F.component(n).index(x): QQ.one}
    assert homology_dims(F.underlying(), Window(0, 3)) == {0: 1, 1: 0, 2: 0, 3: 0}


def test_modules_keep_the_entries_but_not_the_tables_they_are_given():
    # a constructor copies the outer dicts, so a caller that changes its own
    # table afterwards leaves the module's unchanged; the entries are shared
    A = truncated_polynomial(2)
    R = left_regular(A)
    basis, act, diff = list(R.basis), dict(R.act), {0: {}, **R.diff}
    M = DgModule(A, "left", basis, act, diff)
    assert M.act == R.act and M.diff == R.diff and 0 not in M.diff
    assert all(M.act[k] is e for k, e in R.act.items())
    basis.append(("y", 1))
    act[1, 1] = {0: QQ.one}
    del act[0, 0]
    diff[1] = {0: QQ.one}
    assert M.basis == R.basis and M.act == R.act and M.diff == R.diff
    assert validate_module(M) == []


def test_augmentation_is_module_map_and_surjective_on_h0():
    # resolution start for k over k[x]/(x^2): free(g0) -> k, g0 -> 1
    A = truncated_polynomial(2)
    k = restrict_scalars(left_regular(ground_algebra()), truncated_to_ground(2))
    g0 = Generator("g0", 0, eps={0: QQ.one})
    F = FreeModule(A, [g0])
    eps = augmentation(F, k)
    assert eps.validate() is True
    # H_0 of the free module is A itself, so ε is onto but not injective on H_0
    assert quasi_iso(eps, Window(0, 0)).dims[0] == (2, 1)
    # onto: the cone has no H_0, since H_-1 of the free module vanishes
    Cn, _, _ = cone(eps)
    assert homology_dims(Cn, Window(0, 0)) == {0: 0}


def test_augmentation_respects_differential_of_generators():
    # d g1 = x g0, eps(g1) = 0: eps remains a chain map
    A = truncated_polynomial(2)
    k = restrict_scalars(left_regular(ground_algebra()), truncated_to_ground(2))
    g0 = Generator("g0", 0, eps={0: QQ.one})
    F0 = FreeModule(A, [g0])
    x_g0 = F0.act_elem({1: QQ.one}, {F0.index(0, 0): QQ.one})
    g1 = Generator("g1", 1, d_elem=x_g0)
    F = FreeModule(A, [g0, g1])
    eps = augmentation(F, k)
    assert eps.validate() is True


def test_matrices_from_images_with_degree_offset():
    # multiplication by x on Λ(x) as a degree +1 assignment: 1 ↦ x, x ↦ 0
    A = exterior_algebra()
    M = left_regular(A)
    mats = matrices_from_images(M, M, lambda i, n: M.act_elem({1: QQ.one}, {i: QQ.one}), 1)
    assert mats[0] == Matrix(QQ, [[1]])
    assert (mats[1].rows, mats[1].cols) == (0, 1)


def test_matrices_from_images_rejects_image_in_wrong_degree():
    A = exterior_algebra()
    M = left_regular(A)
    with pytest.raises(ValueError):
        matrices_from_images(M, M, lambda i, n: {1: QQ.one})


# -- the dual Z cut at c, against the good truncation of the whole Z ----------

DUAL_MORPHISMS = {
    "x→0 on k[x]/(x²)": lambda F: truncated_to_ground(2, F),
    "x→0 on k[x]/(x³)": lambda F: truncated_to_ground(3, F),
    "id on k[x]/(x²)": lambda F: identity_morphism(truncated_polynomial(2, F)),
    "id on Λ(x)": lambda F: identity_morphism(exterior_algebra(F)),
    "k×k→k": product_to_ground,
    "T₂→k×k": triangular_to_product,
}
BELOW_ANY_DUAL = -1000  # a cut below every degree of every Z here keeps it whole


# T₂ → k×k at D = 5 alone would take longer than the rest together
DUAL_DEPTHS = [(m, D) for m in sorted(DUAL_MORPHISMS) for D in (2, 3, 5) if (m, D) != ("T₂→k×k", 5)]


@pytest.mark.parametrize("F", [QQ, GF(2), GF(101)], ids=["Q", "F2", "F101"])
@pytest.mark.parametrize("morphism, D", DUAL_DEPTHS)
def test_cut_dual_is_the_good_truncation(morphism, F, D):
    M = bimodule_from_morphism(DUAL_MORPHISMS[morphism](F))
    with resolution_scope():  # one resolution of M for every cut
        Z, HZ, _ = dualize(M, D, BELOW_ANY_DUAL)
        lo, hi = Z.min_degree(), Z.max_degree()
        assert lo > BELOW_ANY_DUAL
        hz = homology_dims(Z.underlying(), Window(lo - 3, hi + 3))
        cuts_homology = False
        for c in range(lo - 2, hi + 3):
            Zt, H, _ = dualize(M, D, c)
            Zo, carriers = truncate_below(Z, c)
            # the oracle: valid, each carrier has Zo's differential and both
            # actions, read through the carriers, and Z's homology from c up
            assert validate_module(Zo) == []
            assert len(carriers) == Zo.total_dim

            def lift(e):
                out = {}
                for j, x in e.items():
                    vec_iadd(F, out, carriers[j], x)
                return out

            for i, carrier in enumerate(carriers):
                assert Z.elem_degree(carrier) == Zo.deg(i)
                assert Z.d_elem(carrier) == lift(Zo.d_elem({i: F.one}))
                for r in range(Z.left_algebra.total_dim):
                    er = {r: F.one}
                    assert Z.act_left_elem(er, carrier) == lift(Zo.act_left_elem(er, {i: F.one}))
                for s in range(Z.right_algebra.total_dim):
                    es = {s: F.one}
                    assert Z.act_right_elem(es, carrier) == lift(Zo.act_right_elem(es, {i: F.one}))
            ht = homology_dims(Zo.underlying(), Window(lo - 3, hi + 3))
            assert ht == {n: hz[n] if n >= c else 0 for n in range(lo - 3, hi + 4)}
            cuts_homology |= any(hz[n] for n in range(lo, c))

            # the cut Hom is the oracle's truncation: its degrees, tables and
            # the map of each basis element, the oracle's carrier lifted to Z's maps
            assert [n for _, n in Zt.basis] == [n for _, n in Zo.basis]
            assert (Zt.act_left, Zt.act_right, Zt.diff) == (Zo.act_left, Zo.act_right, Zo.diff)
            assert len(H.reps) == len(carriers)
            for rep, carrier in zip(H.reps, carriers):
                ground = {}
                for zi, cz in carrier.items():
                    vec_iadd(F, ground, HZ.reps[zi], cz)
                assert rep == ground
            if c <= lo:
                assert Zt.basis == Z.basis
        assert cuts_homology


def test_cut_on_a_free_source_is_rejected():
    A = exterior_algebra()
    free = FreeModule(A, [Generator("g", 0)])
    hom_over(A, free, left_regular(A))  # uncut, the free path
    with pytest.raises(ValueError, match="cut"):
        HomComplex(A, free, left_regular(A), cut=0)
