from fractions import Fraction

import pytest

from dgkit.field import QQ
from dgkit.complexes import Window, homology_dims, quasi_iso
from dgkit.dga import (
    DgModule,
    bimodule_from_morphism,
    left_regular,
    regular_bimodule,
    restrict_scalars,
    right_regular,
    validate_module,
)
from dgkit.derived import (
    counit_map,
    derived_tensor,
    dualize,
    duality_map,
    ext_table,
    is_derived_iso,
    multiplication_map,
    rhom,
    tor_table,
    unit_map,
)
from dgkit.resolutions import BuildTreeWitness, Leaf, SumNode
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    identity_morphism,
    product_kk,
    product_to_ground,
    truncated_polynomial,
    truncated_to_ground,
    upper_triangular,
)


def k_left(phi):
    return restrict_scalars(left_regular(phi.target), phi)


def k_right(phi):
    return restrict_scalars(right_regular(phi.target), phi)


# -- independent classical oracles (periodic resolutions, by hand) ------------


def oracle_tor_truncated(n, D):
    # k over k[x]/(x^n): Tor_i(k, k) = k for all i >= 0
    return {i: 1 for i in range(D + 1)}


def oracle_tor_product(D):
    # k over k×k (projective): Tor_0 = k, higher vanish
    return {0: 1, **{i: 0 for i in range(1, D + 1)}}


def test_tor_truncated_square_matches_oracle():
    phi = truncated_to_ground(2)
    A = phi.source
    assert tor_table(A, k_right(phi), k_left(phi), 8) == oracle_tor_truncated(2, 8)


def test_tor_truncated_cube_matches_oracle():
    phi = truncated_to_ground(3)
    A = phi.source
    assert tor_table(A, k_right(phi), k_left(phi), 8) == oracle_tor_truncated(3, 8)


def test_tor_product_matches_oracle():
    phi = product_to_ground()
    A = phi.source
    assert tor_table(A, k_right(phi), k_left(phi), 8) == oracle_tor_product(8)


def test_ext_truncated_square_matches_oracle():
    phi = truncated_to_ground(2)
    A = phi.source
    assert ext_table(A, k_left(phi), k_left(phi), 8) == {i: 1 for i in range(9)}


def test_ext_truncated_cube_matches_oracle():
    phi = truncated_to_ground(3)
    A = phi.source
    assert ext_table(A, k_left(phi), k_left(phi), 8) == {i: 1 for i in range(9)}


def test_ext_product_matches_oracle():
    phi = product_to_ground()
    A = phi.source
    assert ext_table(A, k_left(phi), k_left(phi), 8) == oracle_tor_product(8)


def test_derived_tensor_with_free_is_underived():
    # A ⊗^L_A N ≃ N
    for A in (truncated_polynomial(2), exterior_algebra()):
        N = left_regular(A)
        dc = derived_tensor(A, right_regular(A), N, 6)
        w = Window(-1, 6)
        assert homology_dims(dc.value, w) == homology_dims(N.underlying(), w)


def test_rhom_from_free_is_underived():
    for A in (truncated_polynomial(2), product_kk()):
        N = left_regular(A)
        dc = rhom(A, left_regular(A), N, 6)
        w = Window(-3, 3)
        assert homology_dims(dc.value, w) == homology_dims(N.underlying(), w)


def test_balancing_on_corpus():
    # resolving the other side gives the same homology
    from dgkit.homtensor import tensor_over
    from dgkit.resolutions import resolve_right_module

    for phi in (truncated_to_ground(2), product_to_ground()):
        A = phi.source
        M, N = k_right(phi), k_left(phi)
        via_N = derived_tensor(A, M, N, 6)
        res, right_free = resolve_right_module(M, 7)
        T = tensor_over(A, right_free, N)
        w = Window(0, 6)
        assert homology_dims(via_N.value, w) == homology_dims(T.complex, w)


def test_associativity_on_corpus():
    # H((X ⊗^L Y) ⊗^L Z) == H(X ⊗^L (Y ⊗^L Z)) for bimodule-friendly corpus
    from dgkit.homtensor import tensor_over
    from dgkit.resolutions import semifree_resolution_bimodule

    phi = truncated_to_ground(2)
    R, S = phi.source, phi.target
    B = bimodule_from_morphism(phi)  # R-S bimodule S
    # X = S (right R via phi as S-R?), simplest associativity probe:
    # (k ⊗^L_R S) ⊗^L_S k vs k ⊗^L_R (S ⊗^L_S k) with all k one-dimensional
    kR_right = k_right(phi)
    kS_left = left_regular(S)
    P = semifree_resolution_bimodule(B, 8).free.bimodule  # R-S semifree
    T1 = tensor_over(R, kR_right, P.left_module())
    # T1 retains no action; redo with bimodule to keep right S
    T1 = tensor_over(R, kR_right, P)
    M1 = T1.structure()  # right S-module
    left = tensor_over(S, M1, kS_left)
    # other association: S ⊗^L_S k ≃ k, then k ⊗^L_R k
    right_h = tor_table(R, kR_right, restrict_scalars(kS_left, phi), 6)
    w = Window(0, 6)
    assert homology_dims(left.complex, w) == right_h


def test_dualize_of_s_along_morphism():
    # Z = RHom_{S^op}(S, S) ≃ S for M = S via phi
    for phi in (truncated_to_ground(2), product_to_ground(), identity_morphism(exterior_algebra())):
        M = bimodule_from_morphism(phi)
        Z = dualize(M, 4, -5)[0]  # cut below the window -4..4
        assert validate_module(Z) == []
        S = phi.target
        w = Window(-4, 4)
        assert homology_dims(Z.underlying(), w) == homology_dims(
            S.underlying(), w
        )


def test_dualize_trivial_ground():
    phi = identity_morphism(ground_algebra())
    M = bimodule_from_morphism(phi)
    Z = dualize(M, 3, -4)[0]  # cut below the window -3..3
    assert homology_dims(Z.underlying(), Window(-3, 3)) == {
        **{i: 0 for i in range(-3, 0)},
        0: 1,
        **{i: 0 for i in range(1, 4)},
    }


def test_unit_map_identity_case():
    # M = S = R: unit is a quasi-isomorphism
    for phi in (identity_morphism(truncated_polynomial(2)), identity_morphism(exterior_algebra())):
        M = bimodule_from_morphism(phi)
        N = left_regular(phi.target)
        u = unit_map(M, N, 3)
        assert u.validate() is True
        assert is_derived_iso(u, Window(-2, 3)).ok


def test_unit_map_truncated_fails_at_degree_one():
    # R = k[x]/(x²) → k: target has extra homology from Ext¹
    phi = truncated_to_ground(2)
    M = bimodule_from_morphism(phi)
    N = left_regular(phi.target)
    u = unit_map(M, N, 3)
    assert u.validate() is True
    r = is_derived_iso(u, Window(-1, 2))
    assert not r.ok
    assert r.per_degree[-1] is False or r.per_degree[1] is False


def test_unit_map_product_is_quasi_iso():
    phi = product_to_ground()
    M = bimodule_from_morphism(phi)
    N = left_regular(phi.target)
    u = unit_map(M, N, 4)
    assert u.validate() is True
    assert is_derived_iso(u, Window(-3, 4)).ok


def test_counit_map_identity_case():
    for phi in (identity_morphism(truncated_polynomial(2)), identity_morphism(exterior_algebra())):
        M = bimodule_from_morphism(phi)
        N = left_regular(phi.target)
        c = counit_map(M, N, 3)
        assert c.validate() is True
        assert is_derived_iso(c, Window(-2, 3)).ok


def test_counit_map_product_is_quasi_iso():
    phi = product_to_ground()
    M = bimodule_from_morphism(phi)
    N = left_regular(phi.target)
    c = counit_map(M, N, 4)
    assert c.validate() is True
    assert is_derived_iso(c, Window(-3, 4)).ok


def test_multiplication_map_identity():
    phi = identity_morphism(truncated_polynomial(2))
    m = multiplication_map(phi, 4)
    assert m.validate() is True
    assert is_derived_iso(m, Window(-2, 4)).ok


def test_multiplication_map_truncated_fails_h1():
    phi = truncated_to_ground(2)
    m = multiplication_map(phi, 4)
    assert m.validate() is True
    r = is_derived_iso(m, Window(0, 4))
    assert r.per_degree[0] is True
    assert r.per_degree[1] is False
    assert r.dims[1] == (1, 0)


def test_multiplication_map_product_is_quasi_iso():
    phi = product_to_ground()
    m = multiplication_map(phi, 4)
    assert m.validate() is True
    assert is_derived_iso(m, Window(-2, 4)).ok


def test_duality_map_m_equals_s():
    # witness: M = S over S^op is the leaf S^op
    for phi in (truncated_to_ground(2), product_to_ground()):
        M = bimodule_from_morphism(phi)
        N = left_regular(phi.target)
        w = BuildTreeWitness(Leaf(0))
        d = duality_map(M, N, w, 3)
        assert d.validate() is True
        assert is_derived_iso(d, Window(-2, 3)).ok


def test_duality_map_requires_witness():
    phi = truncated_to_ground(2)
    M = bimodule_from_morphism(phi)
    N = left_regular(phi.target)
    with pytest.raises(ValueError):
        duality_map(M, N, None, 3)


def test_duality_map_rejects_bad_witness():
    phi = truncated_to_ground(2)
    M = bimodule_from_morphism(phi)
    N = left_regular(phi.target)
    with pytest.raises(ValueError):
        duality_map(M, N, BuildTreeWitness(Leaf(1)), 3)


@pytest.mark.parametrize(
    "S",
    [truncated_polynomial(2), truncated_polynomial(3), product_kk(), exterior_algebra()],
    ids=["k[x]/x2", "k[x]/x3", "kxk", "exterior"],
)
def test_unit_map_quasi_iso_on_family_of_size_three(S):
    # the size-3 family adds a member with top degree 1 (cone0); the unit's
    # resolution depth must grow with top(N), or junk reaches degree -D
    from dgkit.epicheck import generate_test_family

    for desc, N in generate_test_family(S, 0, 3).left:
        u = unit_map(regular_bimodule(S), N, 2)
        assert is_derived_iso(u, Window(-2, 2)).ok, desc
