import pytest

import dgkit.resolutions
from dgkit.field import GF, QQ
from dgkit.complexes import Violation, Window, homology_dims, quasi_iso
from dgkit.dga import (
    DgModule,
    bimodule_from_morphism,
    bimodule_to_env_module,
    left_regular,
    matrices_from_images,
    restrict_scalars,
    right_to_left_op,
    validate_module,
)
from dgkit.derived import derived_tensor
from dgkit.epicheck import generate_test_family
from dgkit.homtensor import tensor_over
from dgkit.linalg import Matrix
from dgkit.modops import (
    DgModuleMap,
    FreeModule,
    Generator,
    idempotents,
    module_direct_sum,
    module_shift,
)
from dgkit.resolutions import (
    BuildTreeWitness,
    ConeNode,
    Leaf,
    ResourceBoundExceeded,
    SumNode,
    evaluate_build_tree,
    resolution_scope,
    semifree_resolution,
    semifree_resolution_bimodule,
    verify_build_tree,
)
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    product_kk,
    product_to_ground,
    triangular_to_product,
    truncated_polynomial,
    truncated_to_ground,
    upper_triangular,
)
from oracles import augmentation, dy_equals_x, rebuild_resolution


def eps_map(res):
    """ε as a module map, built from the resolution's table."""
    P = res.free
    return DgModuleMap(P, res.target, matrices_from_images(P, res.target, lambda x, n: res.eps[x]))


def verify_resolution(res):
    """Independent re-check: filtration, A-linearity, quasi-iso on window, and
    ε equal to the A-linear extension of the generators' ε."""
    for g, gen in enumerate(res.free.gens):
        for idx in gen.d_elem:
            if res.free.split(idx)[0] >= g:
                return Violation(
                    gen.degree,
                    f"generator {gen.label}: differential hits a non-earlier generator",
                )
    bad = validate_module(res.free)
    if bad:
        return Violation(0, f"free module invalid: {bad[0]}")
    eps = eps_map(res)
    ok = eps.validate()
    if ok is not True:
        return ok
    r = quasi_iso(eps, res.validity)
    if not r.ok:
        n = min(k for k, good in r.per_degree.items() if not good)
        return Violation(n, "ε is not a quasi-isomorphism on the claimed window")
    oracle = augmentation(res.free, res.target)
    for n in res.free.degrees():
        if eps.f(n) != oracle.f(n):
            return Violation(n, "ε(a·g) is not a·ε(g)")
    return True


def ground_left_module(phi):
    return restrict_scalars(left_regular(phi.target), phi)


def test_free_module_resolves_to_itself():
    # A = ⊕ A e over its idempotents: one generator each, spanning A e
    for A in (truncated_polynomial(2), exterior_algebra(), upper_triangular()):
        M = left_regular(A)
        res = semifree_resolution(M, 6)
        assert verify_resolution(res) is True
        assert [g.idempotent for g in res.generators] == idempotents(A)
        assert len(res.generators) == (2 if A.name == "T2(k)" else 1)
        assert res.free.underlying().space.dims == M.underlying().space.dims


def test_shifted_free_resolves_to_itself():
    A = exterior_algebra()
    M = module_shift(left_regular(A), 3)
    res = semifree_resolution(M, 8)
    assert verify_resolution(res) is True
    assert len(res.generators) == 1
    assert res.generators[0].degree == 3


def test_resolution_of_k_over_truncated_square_matches_periodic_oracle():
    # oracle: ... -> A -> A -> A -> k with d = multiplication by x, one
    # generator per homological degree
    A = truncated_polynomial(2)
    k = ground_left_module(truncated_to_ground(2))
    D = 6
    res = semifree_resolution(k, D)
    assert verify_resolution(res) is True
    degs = sorted(g.degree for g in res.generators)
    assert degs == list(range(D + 2))
    r = quasi_iso(eps_map(res), Window(-1, D))
    assert r.ok


def test_resolution_of_k_over_truncated_cube():
    # k over k[x]/(x^3): periodic resolution alternating x and x^2
    A = truncated_polynomial(3)
    k = ground_left_module(truncated_to_ground(3))
    res = semifree_resolution(k, 5)
    assert verify_resolution(res) is True
    assert sorted(g.degree for g in res.generators) == list(range(7))


def test_resolution_of_projective_over_product():
    # k over k×k via first projection is already projective: e1·A ≅ k
    k = ground_left_module(product_to_ground())
    res = semifree_resolution(k, 8)
    assert verify_resolution(res) is True
    # no homology above degree 0 in the resolution
    dims = homology_dims(res.free.underlying(), Window(0, 8))
    assert dims == {0: 1, **{i: 0 for i in range(1, 9)}}


def test_resolution_over_exterior_algebra():
    # k over Λ(x), |x| = 1: semifree resolution with generators in all degrees
    phi = ground_algebra()
    A = exterior_algebra()
    from dgkit.dga import DgModule

    k = DgModule(A, "left", [("m", 0)], {(0, 0): {0: QQ.one}}, {}, name="k")
    assert validate_module(k) == []
    res = semifree_resolution(k, 6)
    assert verify_resolution(res) is True
    r = quasi_iso(eps_map(res), Window(-1, 6))
    assert r.ok


def test_resolution_determinism():
    k = ground_left_module(truncated_to_ground(2))
    r1 = semifree_resolution(k, 5)
    r2 = semifree_resolution(k, 5)
    assert [(g.label, g.degree, g.d_elem, g.eps) for g in r1.generators] == [
        (g.label, g.degree, g.d_elem, g.eps) for g in r2.generators
    ]


def test_generator_cap():
    k = ground_left_module(truncated_to_ground(2))
    with pytest.raises(ResourceBoundExceeded) as e:
        semifree_resolution(k, 8, max_generators=3)
    partial = e.value.partial
    assert len(partial.generators) >= 3
    assert verify_resolution(partial) is True


def test_verify_rejects_perturbed_differential():
    k = ground_left_module(truncated_to_ground(2))
    res = semifree_resolution(k, 4)
    g = res.generators[2]
    # point the differential at a later generator: filtration failure
    bad = Generator(g.label, g.degree, {len(res.generators) * 2 - 1: QQ.one}, g.eps)
    from dgkit.resolutions import SemifreeResolution

    gens = list(res.free.gens)
    gens[2] = bad
    broken = SemifreeResolution(
        res.algebra, res.target, FreeModule(res.algebra, gens), res.eps, res.validity
    )
    assert verify_resolution(broken) is not True


def test_verify_rejects_zero_augmentation():
    k = ground_left_module(truncated_to_ground(2))
    res = semifree_resolution(k, 4)
    from dgkit.resolutions import SemifreeResolution

    zero = [{} for _ in res.eps]
    broken = SemifreeResolution(res.algebra, k, res.free, zero, res.validity)
    assert verify_resolution(broken) is not True


def test_bimodule_resolution():
    for phi in (truncated_to_ground(2), product_to_ground()):
        from dgkit.dga import bimodule_from_morphism

        M = bimodule_from_morphism(phi)
        res = semifree_resolution(bimodule_to_env_module(M), 5)
        assert verify_resolution(res) is True
        assert validate_module(semifree_resolution_bimodule(M, 5).free.bimodule) == []
        r = quasi_iso(eps_map(res), Window(-1, 5))
        assert r.ok


def test_build_tree_leaf():
    A = exterior_algebra()
    M = left_regular(A)
    assert verify_build_tree(BuildTreeWitness(Leaf()), M) is True


def test_build_tree_sum_and_order_insensitivity():
    from dgkit.modops import module_direct_sum

    A = truncated_polynomial(2)
    M = module_direct_sum([left_regular(A), module_shift(left_regular(A), 1)])
    assert verify_build_tree(BuildTreeWitness(SumNode([Leaf(0), Leaf(1)])), M) is True
    assert verify_build_tree(BuildTreeWitness(SumNode([Leaf(1), Leaf(0)])), M) is True


def test_build_tree_cone():
    from dgkit.modops import module_cone

    A = exterior_algebra()
    M = left_regular(A)
    mats = {n: Matrix.identity(QQ, len(M.component(n))) for n in M.degrees()}
    C = module_cone(DgModuleMap(M, M, mats))
    node = ConeNode(Leaf(0), Leaf(0), mats)
    assert verify_build_tree(BuildTreeWitness(node), C) is True


def test_build_tree_retract_bad_homotopy_rejected():
    A = truncated_polynomial(2)
    M = left_regular(A)
    X = M
    ident = {n: Matrix.identity(QQ, len(M.component(n))) for n in M.degrees()}
    # claim p∘i - id = 0 homotopy but corrupt p so p∘i != id and h = 0
    bad_p = {0: Matrix(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]])}
    w = BuildTreeWitness(Leaf(0), incl=ident, proj=bad_p, homotopy={})
    v = verify_build_tree(w, M)
    assert v is not True


@pytest.mark.parametrize("bad", [0, 1])
def test_build_tree_retract_rejected_at_the_degree_its_homotopy_fails(bad):
    # M = A ⊕ ΣA is the tree's own value; i = id and p = id except 0 in degree
    # `bad` are A-linear chain maps, and with h = 0, p∘i − id = ∂h + h∂ fails
    # in degree `bad` alone
    A = truncated_polynomial(2)
    M = module_direct_sum([left_regular(A), module_shift(left_regular(A), 1)])
    ident = {n: Matrix.identity(QQ, len(M.component(n))) for n in M.degrees()}
    proj = {n: m for n, m in ident.items() if n != bad}
    w = BuildTreeWitness(SumNode([Leaf(0), Leaf(1)]), incl=ident, proj=proj, homotopy={})
    v = verify_build_tree(w, M)
    assert isinstance(v, Violation)
    assert (v.degree, v.reason) == (bad, "p∘i − id is not ∂h + h∂")
    # with p = id the same witness is accepted
    assert verify_build_tree(BuildTreeWitness(w.tree, ident, ident, {}), M) is True


@pytest.mark.parametrize("case", ["homotopy", "inclusion"])
def test_build_tree_retract_mis_shaped_map_is_a_violation(case):
    # R = Λ(x) is the leaf's value and i = p = id; a 2x1 h_0 or a 2x2 f_1, the
    # shapes of maps on M2 = R ⊕ ΣR, is a rejected witness and not an error
    M = left_regular(exterior_algebra())
    ident = {n: Matrix.identity(QQ, len(M.component(n))) for n in M.degrees()}
    if case == "homotopy":
        w = BuildTreeWitness(Leaf(0), ident, ident, {0: Matrix.zero(QQ, 2, 1)})
        reason = "h_0 shape 2x1 inconsistent"
    else:
        w = BuildTreeWitness(Leaf(0), {**ident, 1: Matrix.identity(QQ, 2)}, ident, {})
        reason = "f_1 shape 2x2 inconsistent"
    v = verify_build_tree(w, M)
    assert isinstance(v, Violation)
    assert (v.degree, v.reason) == (0, f"retract map shapes: {reason}")


def test_build_tree_unknown_node_is_a_violation():
    A = exterior_algebra()
    with pytest.raises(ValueError, match="^unknown build-tree node 'leaf'$"):
        evaluate_build_tree(A, "leaf")
    v = verify_build_tree(BuildTreeWitness(SumNode([Leaf(0), "leaf"])), left_regular(A))
    assert (v.degree, v.reason) == (0, "unknown build-tree node 'leaf'")


@pytest.mark.parametrize("given", ["inclusion", "projection"])
def test_build_tree_retract_needs_both_maps(given):
    M = left_regular(exterior_algebra())
    ident = {n: Matrix.identity(QQ, len(M.component(n))) for n in M.degrees()}
    incl, proj = (ident, None) if given == "inclusion" else (None, ident)
    v = verify_build_tree(BuildTreeWitness(Leaf(0), incl, proj, {}), M)
    assert isinstance(v, Violation)
    assert (v.degree, v.reason) == (0, "retract needs both inclusion and projection")


def test_build_tree_wrong_module_rejected():
    A = truncated_polynomial(2)
    M = ground_left_module(truncated_to_ground(2))
    assert verify_build_tree(BuildTreeWitness(Leaf(0)), M) is not True


# -- differential test: the incremental builder against the rebuild loop -------


def _gen_data(gens):
    return [(g.label, g.degree, g.d_elem, g.eps, g.idempotent) for g in gens]


def _same_free_module_and_eps(res, M):
    """The builder's grown free module and ε equal those built in one go from
    its generators, ε by the oracle's A-linear extension."""
    P = FreeModule(M.algebra, res.generators)
    for table in ("basis", "act", "diff"):
        if getattr(res.free, table) != getattr(P, table):
            return table
    return None if eps_map(res).mats == augmentation(P, M).mats else "eps"


def _ground(A, side="left"):
    """k as an A-module: every basis element but the unit acts by zero."""
    F = A.field
    return DgModule(A, side, [("m", 0)], {(A.unit, 0): {0: F.one}}, {}, name="k")


def _two_cell(A):
    """k ⊕ Σk with d(n) = m and A⁺ acting by zero: acyclic, with a differential."""
    F = A.field
    act = {(A.unit, 0): {0: F.one}, (A.unit, 1): {1: F.one}}
    return DgModule(A, "left", [("m", 0), ("n", 1)], act, {1: {0: F.one}}, name="two-cell")


def _dgas(field):
    return exterior_algebra(field), dy_equals_x(field)


def _family_members(A):
    """A's seed-1 family of five: S, ΣS, cones and semifree modules, each free
    as a module; the right members as left modules over the opposite algebra."""
    family = generate_test_family(A, 1, 5)
    return [(f"{d} over {A.name}", m, 4) for d, m in family.left] + [
        (f"{d} over {A.name}", right_to_left_op(m), 4) for d, m in family.right
    ]


def _corpus(field):
    out = []
    for phi in (
        truncated_to_ground(2, field),
        truncated_to_ground(3, field),
        product_to_ground(field),
        triangular_to_product(field),
    ):
        out.append((f"{phi.name} over {phi.source.name}", ground_left_module(phi), 5))
        bimodule = bimodule_from_morphism(phi)
        out.append((f"{phi.name} bimodule", bimodule_to_env_module(bimodule), 3))
    T2 = upper_triangular(field)
    out.append(("k over T2(k)", _ground(T2), 5))
    for A in _dgas(field):
        out.append((f"k over {A.name}", _ground(A), 5))
        out.append((f"two-cell over {A.name}", _two_cell(A), 4))
        members = _family_members(A)
        out += members
        # k ⊕ (left member): a summand that is not free next to the member's
        # differential
        out += [(f"k ⊕ {name}", module_direct_sum([_ground(A), m]), 3) for name, m, _ in members[2:5]]
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101)], ids=["QQ", "GF2", "GF101"])
def test_incremental_builder_matches_rebuild_loop(field):
    for name, M, D in _corpus(field):
        assert validate_module(M) == [], name
        gens, window, capped = rebuild_resolution(M, D, types=idempotents(M.algebra))
        assert not capped
        res = semifree_resolution(M, D)
        assert _gen_data(res.generators) == _gen_data(gens), name
        assert res.validity == window, name
        assert verify_resolution(res) is True, name
        assert _same_free_module_and_eps(res, M) is None, name


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
def test_free_modules_resolve_like_every_module(field):
    # the family members are free as modules, so K-projective: Tor against k
    # through their resolution must equal the homology of the plain tensor
    for A in _dgas(field):
        for name, M, D in _family_members(A):
            res = semifree_resolution(M, D)
            assert verify_resolution(res) is True, name
            assert res.validity == Window(M.min_degree() - 1, D), name
            B, k = M.algebra, _ground(M.algebra, "right")
            derived = derived_tensor(B, k, M, D)
            plain = tensor_over(B, k, M).complex
            w = derived.validity
            assert homology_dims(derived.value, w) == homology_dims(plain, w), name


def test_generator_cap_holds_for_free_modules():
    # S ⊕ ΣS over Λ(x) is free on two generators: a cap of one stops it
    A = exterior_algebra()
    M = module_direct_sum([left_regular(A), module_shift(left_regular(A), 1)])
    with pytest.raises(ResourceBoundExceeded) as e:
        semifree_resolution(M, 4, max_generators=1)
    partial = e.value.partial
    assert len(partial.generators) == 2
    assert partial.validity == Window(-1, 0)
    assert verify_resolution(partial) is True


def test_incremental_builder_cap_partial_matches_rebuild_loop():
    for field in (QQ, GF(2), GF(101)):
        for name, M, _ in _corpus(field)[:6]:
            gens, window, capped = rebuild_resolution(M, 6, 3, idempotents(M.algebra))
            if not capped:
                continue
            with pytest.raises(ResourceBoundExceeded) as e:
                semifree_resolution(M, 6, max_generators=3)
            partial = e.value.partial
            assert _gen_data(partial.generators) == _gen_data(gens), name
            assert partial.validity == window, name
            assert verify_resolution(partial) is True, name
            assert _same_free_module_and_eps(partial, M) is None, name


# -- a finished resolution stops growing -----------------------------------------


def _finishing_modules():
    """(name, module, finishes): k over k and S over S finish, with cone(ε)
    zero above the top of M and F, and so does k over k × k, which is
    projective: one generator spanning A(1 − e).  k over k[x]/(x²) does not:
    no idempotent but 1, and its minimal resolution has a generator in every
    degree."""
    out = [("k over k", left_regular(ground_algebra()), True)]
    for S in (exterior_algebra(), truncated_polynomial(2), product_kk()):
        out.append((f"S over S, S = {S.name}", left_regular(S), True))
    phi = product_to_ground()
    out.append(("k over k × k", restrict_scalars(left_regular(phi.target), phi), True))
    phi = truncated_to_ground(2)
    out.append(("k over k[x]/(x²)", restrict_scalars(left_regular(phi.target), phi), False))
    return out


@pytest.mark.parametrize("D", [0, 2])
def test_finished_resolution_is_read_at_any_depth(monkeypatch, D):
    Build = dgkit.resolutions._ResolutionBuild
    eliminate, eliminated = Build._eliminate, []

    def logged(self):
        eliminated.append(self.n)
        eliminate(self)

    monkeypatch.setattr(Build, "_eliminate", logged)
    for name, M, finishes in _finishing_modules():
        eliminated.clear()
        with resolution_scope():
            shallow = semifree_resolution(M, D)
            deep = semifree_resolution(M, D + 5)
        for res, depth in ((shallow, D), (deep, D + 5)):
            gens, window, _ = rebuild_resolution(M, depth, types=idempotents(M.algebra))
            assert _gen_data(res.generators) == _gen_data(gens), name
            assert res.validity == window == Window(M.min_degree() - 1, depth), name
            assert verify_resolution(res) is True, name
        top = max(M.max_degree(), deep.free.max_degree() + 1)
        assert eliminated == list(range(M.min_degree(), M.min_degree() + len(eliminated))), name
        if finishes:
            assert _gen_data(deep.generators) == _gen_data(shallow.generators), name
            assert eliminated[-1] <= top, name
        else:
            assert len(deep.generators) > len(shallow.generators), name
            assert eliminated[-1] == D + 6, name
