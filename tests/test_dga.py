import pytest

from dgkit.field import GF, QQ
from dgkit.dga import (
    DgAlgebra,
    DgModule,
    bimodule_from_morphism,
    bimodule_to_env_module,
    enveloping,
    env_module_to_bimodule,
    left_regular,
    opposite,
    regular_bimodule,
    restrict_scalars,
    right_regular,
    right_to_left_op,
    sr_bimodule_from_morphism,
    swap_sides,
    tensor_algebra,
    validate_dga,
    validate_module,
    validate_morphism,
    vec_iadd,
)
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    identity_morphism,
    product_kk,
    product_to_ground,
    triangular_to_product,
    truncated_polynomial,
    truncated_to_ground,
    upper_triangular,
)

from oracles import dy_equals_x, validate_complex


def test_standard_algebras_valid():
    for A in (
        ground_algebra(),
        truncated_polynomial(2),
        truncated_polynomial(3),
        product_kk(),
        upper_triangular(),
        exterior_algebra(),
    ):
        assert validate_dga(A) == []
        assert validate_complex(A.underlying()) is True


def test_standard_morphisms_valid():
    for phi in (
        identity_morphism(truncated_polynomial(2)),
        truncated_to_ground(2),
        truncated_to_ground(3),
        product_to_ground(),
        triangular_to_product(),
        identity_morphism(exterior_algebra()),
    ):
        assert validate_morphism(phi) == []


def test_corrupted_mul_detected():
    # k[x]/(x^3) with x·x² = x injected: breaks associativity of (x x) x.
    A = truncated_polynomial(3)
    mul = dict(A.mul)
    mul[(1, 2)] = {1: QQ.one}
    bad = DgAlgebra(QQ, A.basis, 0, mul, {}, name="bad")
    violations = validate_dga(bad)
    assert any(v.axiom == "associativity" for v in violations)


def test_exterior_leibniz_with_differential():
    # Λ(x), |x|=1, with d x = 0 is valid; making d x = 1 breaks d(x·x) = 0?
    # d(x²)=d(0)=0 but Leibniz gives dx·x - x·dx = x - x = 0: still fine, so
    # break instead via d x = x (wrong degree) -> grading violation.
    A = exterior_algebra()
    bad = DgAlgebra(QQ, A.basis, 0, A.mul, {1: {1: QQ.one}}, name="bad")
    assert any(v.axiom == "grading" for v in validate_dga(bad))


def test_opposite_valid_and_involution():
    for A in (truncated_polynomial(3), exterior_algebra(), upper_triangular()):
        Aop = opposite(A)
        assert validate_dga(Aop) == []
        back = opposite(Aop)
        assert back.mul == A.mul


def test_opposite_exterior_sign():
    A = exterior_algebra()
    Aop = opposite(A)
    # x *op x = -x·x = 0
    assert Aop.mul.get((1, 1), {}) == {}


def test_regular_modules_valid():
    for A in (truncated_polynomial(2), upper_triangular(), exterior_algebra()):
        assert validate_module(left_regular(A)) == []
        assert validate_module(right_regular(A)) == []
        assert validate_module(regular_bimodule(A)) == []


def test_module_via_morphism():
    phi = truncated_to_ground(2)
    k = left_regular(ground_algebra())
    M = restrict_scalars(k, phi)
    assert validate_module(M) == []
    # x acts as zero
    assert M.act_elem({1: QQ.one}, {0: QQ.one}) == {}


def test_bad_action_detected():
    # x acting as identity on k over k[x]/(x^2): x^2 = 0 must act as 0.
    A = truncated_polynomial(2)
    M = DgModule(A, "left", [("m", 0)], {(0, 0): {0: QQ.one}, (1, 0): {0: QQ.one}}, {})
    violations = validate_module(M)
    assert any(v.axiom == "associativity-left-action" for v in violations)


def test_bimodule_from_morphism():
    for phi in (truncated_to_ground(2), product_to_ground(), triangular_to_product()):
        M = bimodule_from_morphism(phi)
        assert validate_module(M) == []


def test_restriction_functorial():
    phi = triangular_to_product()
    psi = product_to_ground()
    k = left_regular(ground_algebra())
    via_composite_images = {}
    # composite morphism psi∘phi
    from dgkit.dga import DgaMorphism

    comp = DgaMorphism(
        phi.source,
        psi.target,
        {i: psi.apply(phi.images.get(i, {})) for i in range(phi.source.total_dim)},
    )
    assert validate_morphism(comp) == []
    M1 = restrict_scalars(restrict_scalars(k, psi), phi)
    M2 = restrict_scalars(k, comp)
    assert M1.act == M2.act


def test_tensor_algebra_and_enveloping():
    R = truncated_polynomial(2)
    S = exterior_algebra()
    E = enveloping(R, S)
    assert validate_dga(E) == []
    assert E.total_dim == R.total_dim * S.total_dim
    k = ground_algebra()
    assert enveloping(k, k).total_dim == 1
    # dims multiply degreewise (graded convolution)
    T = tensor_algebra(S, S)
    assert [T.underlying().dim(n) for n in (0, 1, 2)] == [1, 2, 1]
    assert validate_dga(T) == []


def test_right_left_op_round_trip():
    A = exterior_algebra()
    M = right_regular(A)
    L = right_to_left_op(M)
    assert validate_module(L) == []
    from dgkit.dga import left_op_to_right

    back = left_op_to_right(L, A)
    assert back.act == M.act


def test_bimodule_env_round_trip():
    for phi in (truncated_to_ground(2), triangular_to_product()):
        M = bimodule_from_morphism(phi)
        X = bimodule_to_env_module(M)
        assert validate_module(X) == []
        back = env_module_to_bimodule(X, M.left_algebra, M.right_algebra)
        assert back.act_left == M.act_left
        assert back.act_right == M.act_right
        assert validate_module(back) == []


def test_env_round_trip_with_graded_bimodule():
    A = exterior_algebra()
    M = regular_bimodule(A)
    X = bimodule_to_env_module(M)
    assert validate_module(X) == []
    back = env_module_to_bimodule(X, A, A)
    assert back.act_left == M.act_left and back.act_right == M.act_right


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_enveloping_algebra_with_a_differential(F):
    # dy = x: the enveloping algebra carries d(r⊗s) = dr⊗s ± r⊗ds, and the
    # regular bimodule comes back from its enveloping module unchanged
    A = dy_equals_x(F)
    assert validate_dga(enveloping(A, A)) == []
    M = regular_bimodule(A)
    back = env_module_to_bimodule(bimodule_to_env_module(M), A, A)
    assert validate_module(back) == []
    assert (back.basis, back.act_left, back.act_right, back.diff) == (M.basis, M.act_left, M.act_right, M.diff)


def test_vec_iadd_accumulates_in_place_and_drops_zeros():
    acc = {0: QQ.one, 1: QQ.of(2)}
    out = vec_iadd(QQ, acc, {1: QQ.of(-1), 2: QQ.of(3)}, QQ.of(2))
    assert out is acc
    assert acc == {0: 1, 2: 6}
    assert vec_iadd(QQ, acc, {0: QQ.of(-1)}) == {2: 6}


def test_degree_bounds():
    A = exterior_algebra(gen_degree=3)
    assert (A.min_degree(), A.max_degree()) == (0, 3)
    M = DgModule(A, "left", [("m", -2), ("n", 1)], {}, {})
    assert (M.min_degree(), M.max_degree()) == (-2, 1)
    empty = DgModule(A, "left", [], {}, {})
    assert (empty.min_degree(), empty.max_degree()) == (0, 0)


def test_swap_sides_is_an_involution_with_koszul_signs():
    from dgkit.resolutions import semifree_resolution_bimodule

    # the enveloping resolution of Λ(x) has odd generators with x acting on
    # both sides, so the Koszul signs are exercised
    S = exterior_algebra()
    Q = semifree_resolution_bimodule(regular_bimodule(S), 3).free.bimodule
    Sop = opposite(S)
    Qp = swap_sides(Q, Sop, Sop, name="Q'")
    assert Qp.name == "Q'"
    assert validate_module(Qp) == []
    assert any(c == -1 for e in Qp.act_left.values() for c in e.values())
    back = swap_sides(Qp, S, S)
    assert (back.act_left, back.act_right, back.name) == (Q.act_left, Q.act_right, "Q'")


def test_sr_bimodule_from_morphism():
    phi = truncated_to_ground(2)
    B = sr_bimodule_from_morphism(phi)
    assert (B.left_algebra, B.right_algebra) == (phi.target, phi.source)
    assert validate_module(B) == []
    assert B.act_right[(0, 0)] == {0: QQ.one} and (1, 0) not in B.act_right
