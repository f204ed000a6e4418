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
from dgkit.linalg import Matrix
from dgkit.modops import (
    DgModuleMap,
    FreeModule,
    Generator,
    module_cone,
    module_direct_sum,
    module_shift,
    truncate_below,
)
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    identity_morphism,
    product_to_ground,
    truncated_polynomial,
    truncated_to_ground,
    upper_triangular,
)
from oracles import augmentation, cone, plain


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
        read_before = F.underlying(), [F.action_matrix(1, k) for k in range(n + 1)]
        F.add(Generator(f"g{n}", n, d_elem=F.act_elem({1: QQ.one}, {F.index(n - 1, 0): QQ.one})))
        assert read_before[0] is not F.underlying()
        assert validate_module(F) == []
        assert F.name == f"free({','.join(f'g{k}' for k in range(n + 1))})"
        reference = plain(F)  # a module built afresh on the same tables
        assert F.underlying() == reference.underlying()
        assert F.underlying().dim(n) == 2
        for k in range(n + 2):
            assert F.action_matrix(1, k) == reference.action_matrix(1, k)
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


# -- good truncation of the dual Z ---------------------------------------------

DUAL_MORPHISMS = {
    "x→0 on k[x]/(x²)": lambda F: truncated_to_ground(2, F),
    "id on Λ(x)": lambda F: identity_morphism(exterior_algebra(F)),
    "k×k→k": product_to_ground,
}


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=["Q", "F101"])
@pytest.mark.parametrize("morphism", sorted(DUAL_MORPHISMS))
def test_truncate_below_dual(morphism, F):
    # Z = RHom_{S^op}(M, S) reaches below every cut c tried here
    Z = dualize(bimodule_from_morphism(DUAL_MORPHISMS[morphism](F)), 3)[0]
    lo, hi = Z.min_degree() - 1, Z.max_degree() + 1
    hz = homology_dims(Z.underlying(), Window(lo, hi))
    for c in (-3, -2, -1):
        Zt, carriers = truncate_below(Z, c)
        assert validate_module(Zt) == []
        assert len(carriers) == Zt.total_dim

        def lift(e):
            out = {}
            for j, x in e.items():
                vec_iadd(F, out, carriers[j], x)
            return out

        # each carrier has Zt's differential and both actions, read through the carriers
        for i, carrier in enumerate(carriers):
            assert Z.elem_degree(carrier) == Zt.deg(i)
            assert Z.d_elem(carrier) == lift(Zt.d_elem({i: F.one}))
            for r in range(Z.left_algebra.total_dim):
                er = {r: F.one}
                assert Z.act_left_elem(er, carrier) == lift(Zt.act_left_elem(er, {i: F.one}))
            for s in range(Z.right_algebra.total_dim):
                es = {s: F.one}
                assert Z.act_right_elem(es, carrier) == lift(Zt.act_right_elem(es, {i: F.one}))
        ht = homology_dims(Zt.underlying(), Window(lo, hi))
        assert ht == {n: hz[n] if n >= c else 0 for n in range(lo, hi + 1)}
        assert Zt.min_degree() >= c and any(hz[n] for n in range(lo, c))
