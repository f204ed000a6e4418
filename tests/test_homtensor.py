import pytest

from dgkit.field import QQ
from dgkit.complexes import Window, homology_dims, quasi_iso
from dgkit.dga import (
    DgBimodule,
    bimodule_from_morphism,
    left_regular,
    regular_bimodule,
    restrict_scalars,
    right_regular,
    validate_dga,
    validate_module,
)
from dgkit.homtensor import (
    SideMismatch,
    _over,
    endomorphism_dga,
    hom_over,
    tensor_over,
)
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    product_kk,
    product_to_ground,
    truncated_polynomial,
    truncated_to_ground,
    upper_triangular,
)

from oracles import plain, tensor_unit_iso, validate_complex


def ground_as_module(phi):
    """The target of phi restricted along phi, as a left source-module."""
    return restrict_scalars(left_regular(phi.target), phi)


def test_tensor_regular_is_regular():
    # A ⊗_A A ≅ A as a complex, for several algebras
    for A in (truncated_polynomial(3), exterior_algebra(), upper_triangular()):
        T = tensor_over(A, right_regular(A), left_regular(A))
        assert validate_complex(T.complex) is True
        assert T.complex.space.dims == A.underlying().space.dims
        assert homology_dims(T.complex, Window(-1, 3)) == homology_dims(
            A.underlying(), Window(-1, 3)
        )


def test_tensor_unit_iso_is_iso():
    for A in (truncated_polynomial(2), exterior_algebra(), product_kk()):
        for N in (left_regular(A), regular_bimodule(A)):
            u = tensor_unit_iso(A, N)
            assert u.validate() is True
            lo = N.underlying().min_degree() - 1
            hi = N.underlying().max_degree() + 1
            r = quasi_iso(u, Window(lo, hi))
            assert r.ok
            # and in fact an isomorphism of graded spaces
            assert u.source.space.dims == u.target.space.dims


def test_tensor_k_with_k_over_truncated():
    # k ⊗_{k[x]/(x^2)} k: one dimensional in degree 0 (underived!)
    phi = truncated_to_ground(2)
    k_right = restrict_scalars(right_regular(ground_algebra()), phi)
    k_left = ground_as_module(phi)
    T = tensor_over(phi.source, k_right, k_left)
    assert T.complex.space.dims == {0: 1}


def test_tensor_structure_bimodule_valid():
    # S ⊗_R S for phi: R -> S keeps an S-S-bimodule structure
    for phi in (truncated_to_ground(2), product_to_ground()):
        B = bimodule_from_morphism(phi)  # R-S-bimodule S
        # flip to an S-R-bimodule for the left factor: use S as S-R via phi
        S = phi.target
        SR = DgBimodule(
            S,
            phi.source,
            S.basis,
            dict(S.mul),
            {
                (j, m): e
                for (j, m), e in bimodule_from_morphism(phi).act_left.items()
            },
            S.diff,
            name="S",
        )
        # right R-action on S via phi: m·r = m phi(r)
        act_right = {}
        F = S.field
        for j in range(phi.source.total_dim):
            img = phi.apply({j: F.one})
            for m in range(S.total_dim):
                e = S.mul_elem({m: F.one}, img)
                if e:
                    act_right[(j, m)] = e
        SR = DgBimodule(S, phi.source, S.basis, dict(S.mul), act_right, S.diff, "S")
        assert validate_module(SR) == []
        T = tensor_over(phi.source, SR, B)
        M = T.structure()
        assert isinstance(M, DgBimodule)
        assert validate_module(M) == []


def test_tensor_outer_action_one_sided():
    A = exterior_algebra()
    T = tensor_over(A, regular_bimodule(A), left_regular(A))
    M = T.structure()
    assert M.side == "left"
    assert validate_module(M) == []


def test_hom_regular_to_module_is_module():
    # Hom_A(A, N) ≅ N as complexes
    for A in (truncated_polynomial(2), exterior_algebra(), upper_triangular()):
        N = left_regular(A)
        H = hom_over(A, left_regular(A), N)
        assert validate_complex(H.complex) is True
        assert H.complex.space.dims == N.underlying().space.dims


def test_hom_outer_structures_valid():
    # Hom_A(A, A) with A the regular bimodule: outer S = A, outer T = A
    for Aname, A in (("ext", exterior_algebra()), ("tri", upper_triangular())):
        B = regular_bimodule(A)
        H = hom_over(A, B, B)
        M = H.structure()
        assert isinstance(M, DgBimodule)
        assert validate_module(M) == []


def test_carrier_numbering_is_the_structure_numbering():
    # basis[g] and reps[g] number structure(); its differential and outer
    # actions equal the ground operations read element by element
    for A in (exterior_algebra(), upper_triangular()):
        B = regular_bimodule(A)
        one = A.field.one
        for X, ground in (
            (tensor_over(A, B, B), lambda rep: {rep: one}),
            (hom_over(A, B, B), lambda rep: rep),
        ):
            M = X.structure()
            assert M.basis == X.basis and len(X.reps) == M.total_dim
            for g, (rep, (_, n)) in enumerate(zip(X.reps, X.basis)):
                assert rep in X.component(n)
                assert X.element(ground(rep), n) == {g: one}
                assert M.diff.get(g, {}) == X.element(X.ground_differential(rep, n), n - 1)
                for a in range(A.total_dim):
                    p = n + A.deg(a)
                    left = X.element(X._left_act_ground(a, rep, n), p)
                    right = X.element(X._right_act_ground(a, rep, n), p)
                    assert M.act_left.get((a, g), {}) == left
                    assert M.act_right.get((a, g), {}) == right


def test_hom_differential_squares_to_zero_with_nontrivial_diff():
    # module with differential: cone-style module over Λ(x)
    from dgkit.modops import FreeModule, Generator

    A = exterior_algebra()
    g0 = Generator("g0", 0)
    F0 = FreeModule(A, [g0])
    x_g0 = F0.act_elem({1: QQ.one}, {F0.index(0, 0): QQ.one})
    F = FreeModule(A, [g0, Generator("g1", 2, d_elem=x_g0)])
    M = plain(F)
    assert validate_module(M) == []
    H = hom_over(A, M, M)
    assert validate_complex(H.complex) is True


def test_endomorphism_dga_of_regular_is_opposite():
    # End_A(A) ≅ A^op; check it is a valid DGA of the right size
    for A in (truncated_polynomial(2), exterior_algebra(), product_kk()):
        E, bimod = endomorphism_dga(left_regular(A))
        assert validate_dga(E) == []
        assert E.total_dim == A.total_dim
        assert validate_module(bimod) == []


def test_endomorphism_dga_identity_is_unit():
    A = truncated_polynomial(3)
    E, _ = endomorphism_dga(left_regular(A))
    assert E.deg(E.unit) == 0
    # unit really is the identity: E.mul(unit, i) == e_i for all i
    for i in range(E.total_dim):
        assert E.mul_elem(E.one(), {i: QQ.one}) == {i: QQ.one}


def test_endomorphism_dga_of_two_generator_free():
    from dgkit.modops import FreeModule, Generator

    A = exterior_algebra()
    g0 = Generator("g0", 0)
    F0 = FreeModule(A, [g0])
    x_g0 = F0.act_elem({1: QQ.one}, {F0.index(0, 0): QQ.one})
    F = FreeModule(A, [g0, Generator("g1", 2, d_elem=x_g0)])
    E, bimod = endomorphism_dga(plain(F))
    assert validate_dga(E) == []
    assert validate_module(bimod) == []


def test_over_reads_either_side_and_refuses_with_side_mismatch():
    phi = truncated_to_ground(2)
    R, S = phi.source, phi.target
    X = bimodule_from_morphism(phi)  # an R-S-bimodule
    assert _over(X, R, "left") == (X.act_left, S, X.act_right)
    assert _over(X, S, "right") == (X.act_right, R, X.act_left)
    M = left_regular(R)
    assert _over(M, R, "left") == (M.act, None, None)
    refused = [
        # a module on the wrong side, and over another algebra
        (M, R, "right", f"{M!r} is not a right {R.name}-module"),
        (M, S, "left", f"{M!r} is not a left {S.name}-module"),
        # a bimodule over the wrong algebra on either side
        (X, S, "left", f"{X!r} is not a left {S.name}-module"),
        (X, R, "right", f"{X!r} is not a right {R.name}-module"),
        # an operand that is no module
        (R.underlying(), R, "left", f"unsupported operand {R.underlying()!r}"),
    ]
    for Y, A, side, text in refused:
        with pytest.raises(SideMismatch) as e:
            _over(Y, A, side)
        assert str(e.value) == text
