"""The R-free views of a bimodule resolution Q and of Q ⊗_S P, and the four
canonical maps that read them, against the generic builds.

A bimodule resolution Q of M is free over R ⊗ S^op on generators V, so as a
left R-module it is free on the (1⊗s)·g, and Q ⊗_S P, with P free over S on
W, is R-free on the pairs of those and W.  A bimodule resolution's ``free`` and
``tensor_over(S, Q's view, res.free).structure()`` record this on the
numbering that Q and the tensor product already have.  A view must present
the generic module of that numbering: every basis element is one r·u of a
generator u, once, and the degrees, the left action and the differential are
those the free-module rules give on the layout.  The unit map, the counit,
(3) and (5) then build a Hom or a tensor product on a view's free path; each
must be its generic complex up to a change of basis B, with the map's
matrices the generic ones times B.
"""

import gc
import weakref

import pytest

from dgkit import derived
from dgkit.complexes import Window, homology_dims, quasi_iso
from dgkit.dga import (
    DgBimodule,
    bimodule_from_morphism,
    bimodule_to_env_module,
    left_regular,
    matrices_from_images,
    regular_bimodule,
    right_regular,
    validate_module,
)
from dgkit.derived import _condition3_map, _condition5_map, counit_map, derived_tensor, rhom, truncated_dual, unit_map
from dgkit.epicheck import generate_test_family
from dgkit.field import GF, QQ
from dgkit.homtensor import hom_over, tensor_over
from dgkit.linalg import rank, vec_iadd
from dgkit.modops import DgModuleMap, FreeModule
from dgkit.resolutions import (
    SemifreeResolution,
    required_depth,
    resolution_scope,
    semifree_resolution,
    semifree_resolution_bimodule,
)
from dgkit.standard import exterior_algebra, identity_morphism, truncated_polynomial, truncated_to_ground

from test_free_hom import _assert_change_of_basis
from test_free_tensor import _change_of_basis as _tensor_change_of_basis

FIELDS = [QQ, GF(2), GF(101)]
CAP = 10000
DEPTH = 3


def _morphism_bimodules(F):
    """S along x ↦ 0 on k[x]/(x²) and along the identity of Λ(x): the
    digest families of the counit, (3) and (5)."""
    morphisms = (truncated_to_ground(2, F), identity_morphism(exterior_algebra(F)))
    return [bimodule_from_morphism(phi) for phi in morphisms]


def _bimodules(F):
    """The digest families' bimodules: the regular bimodules of k[x]/(x²) and
    Λ(x), the unit map's, and the morphism bimodules."""
    regular = [regular_bimodule(S) for S in (truncated_polynomial(2, F), exterior_algebra(F))]
    return regular + _morphism_bimodules(F)


def _assert_presents(X: FreeModule, G):
    """X's generators and layout present G, a left module or a bimodule's
    left module on X's numbering: each basis element is one a·g, and G's
    degrees, action and differential are those of the free module there."""
    A, F = X.algebra, X.algebra.field
    act = G.act_left if isinstance(G, DgBimodule) else G.act
    layout = [(g, a) for g in range(len(X.gens)) for a in range(A.total_dim)]
    assert sorted(X.index(g, a) for g, a in layout) == list(range(G.total_dim))

    def times(a: int, e: dict) -> dict:
        """a·e on the layout: a·(a'·h) = (aa')·h."""
        out: dict = {}
        for y, c in e.items():
            h, a1 = X.split(y)
            vec_iadd(F, out, {X.index(h, a2): c2 for a2, c2 in A.mul.get((a, a1), {}).items()}, c)
        return out

    for g, a in layout:
        x, gen = X.index(g, a), X.gens[g]
        assert X.split(x) == (g, a)
        assert G.deg(x) == A.deg(a) + gen.degree
        for b in range(A.total_dim):
            assert act.get((b, x), {}) == times(b, {x: F.one})
        # d(a·g) = d(a)·g + (-1)^{|a|} a·d(g)
        d = {X.index(g, a2): c for a2, c in A.diff.get(a, {}).items()}
        vec_iadd(F, d, times(a, gen.d_elem), F.sign(A.deg(a)))
        assert G.diff.get(x, {}) == d


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_bimodule_resolution_view_presents_its_left_module(F):
    for M in _bimodules(F):
        view = semifree_resolution_bimodule(M, DEPTH).free
        Q = view.bimodule
        assert view.algebra is Q.left_algebra
        # the generic left module of the same numbering
        _assert_presents(view, Q.left_module())
        env = semifree_resolution(bimodule_to_env_module(M), DEPTH)
        assert len(view.gens) == len(env.generators) * M.right_algebra.total_dim


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_bimodule_view_keeps_the_bimodule_and_its_action(F):
    # the view is a left R-module whose act entries are Q's own; a tensor
    # product or Hom on it reads Q's right S-action through it
    for M in _bimodules(F):
        view = semifree_resolution_bimodule(M, DEPTH).free
        Q = view.bimodule
        assert view.name == Q.name
        assert view.act == Q.act_left and all(view.act[k] is e for k, e in Q.act_left.items())
        assert view.diff == Q.diff
        P = semifree_resolution(left_regular(M.right_algebra), DEPTH).free
        assert tensor_over(M.right_algebra, view, P)._act_rA is Q.act_right
        H = hom_over(M.left_algebra, view, left_regular(M.left_algebra))
        assert H.outer_left is M.right_algebra and H._act_outer_l is Q.act_right


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_tensor_view_is_the_generic_structure(F):
    checked = 0
    for M in _bimodules(F):
        R, S = M.left_algebra, M.right_algebra
        bres = semifree_resolution_bimodule(M, DEPTH)
        for _, N in generate_test_family(S, 0, 3).left:
            res = semifree_resolution(N, DEPTH)
            T = tensor_over(S, bres.free, res.free)
            view = T.structure()
            # the generic structure, read off matrices_from_images on the same basis
            generic = tensor_over(S, bres.free.bimodule, res.free).structure()
            assert isinstance(view, FreeModule) and view.algebra is R
            assert view.basis == generic.basis
            assert view.act == generic.act
            assert view.diff == generic.diff
            _assert_presents(view, generic)
            assert len(view.gens) == len(bres.free.gens) * len(res.generators)
            checked += 1
    assert checked


def _spy(monkeypatch, generic: bool) -> dict:
    """Record the Homs and tensor products derived builds; with generic, a
    bimodule resolution's R-free view goes in as its bimodule, so the complexes
    built on it take the generic paths, and every other argument is kept."""
    built = {"hom": [], "tensor": []}

    def hom(A, M, N, name=None, *, degrees=None):
        if generic and isinstance(M, FreeModule) and M.bimodule is not None:
            M = M.bimodule
        built["hom"].append(hom_over(A, M, N, name, degrees=degrees))
        return built["hom"][-1]

    def tensor(A, M, N, name=None, *, degrees=None):
        if generic and isinstance(M, FreeModule):
            M = M.bimodule
        built["tensor"].append(tensor_over(A, M, N, name, degrees=degrees))
        return built["tensor"][-1]

    monkeypatch.setattr(derived, "hom_over", hom)
    monkeypatch.setattr(derived, "tensor_over", tensor)
    return built


def _both_paths(monkeypatch, build):
    """build() on the free paths and on the generic ones, with what each built."""
    free = _spy(monkeypatch, generic=False)
    cm_free = build()
    generic = _spy(monkeypatch, generic=True)
    cm_generic = build()
    monkeypatch.undo()
    return cm_free, cm_generic, free, generic


def _assert_tensor_change_of_basis(free, generic) -> dict:
    """Equal dimensions, B of full rank and D·B = B·D for two builds of one
    tensor product; returns B."""
    assert free._relations is None and generic._relations is not None
    degrees = free.complex.degrees() + generic.complex.degrees()
    lo, hi = min(degrees, default=0), max(degrees, default=0)
    B = {n: _tensor_change_of_basis(free, generic, n) for n in range(lo - 1, hi + 2)}
    for n in range(lo, hi + 1):
        assert free.complex.dim(n) == generic.complex.dim(n)
        assert rank(B[n]) == free.complex.dim(n)
        assert generic.complex.d(n) * B[n] == B[n - 1] * free.complex.d(n)
    return B


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_unit_map_changes_basis_on_its_target(monkeypatch, F):
    # N → Hom_R(Q, M ⊗_S P): the Hom over Q's view is the generic one up to B
    for S in (truncated_polynomial(2, F), exterior_algebra(F)):
        M = regular_bimodule(S)
        for _, N in generate_test_family(S, 0, 3).left:
            cm_free, cm_generic, free, generic = _both_paths(monkeypatch, lambda: unit_map(M, N, 2))
            (H,), (G,) = free["hom"], generic["hom"]
            assert H._free is not None and G._free is None
            B = _assert_change_of_basis(H, G)
            for n in cm_free.source.degrees():
                assert cm_generic.f(n) == B[n] * cm_free.f(n)


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_counit_map_changes_basis_on_its_source(monkeypatch, F):
    # Zt ⊗_R (Q ⊗_S P) → N: T1 over the R-free Q ⊗_S P is the generic one up to B
    for M in _morphism_bimodules(F):
        for _, N in generate_test_family(M.right_algebra, 0, 3).left:
            cm_free, cm_generic, free, generic = _both_paths(
                monkeypatch, lambda: counit_map(M, N, 1)
            )
            B = _assert_tensor_change_of_basis(free["tensor"][-1], generic["tensor"][-1])
            for n in cm_free.source.degrees():
                assert cm_free.f(n) == cm_generic.f(n) * B[n]


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_condition3_map_changes_basis_on_its_source(monkeypatch, F):
    # (Pr ⊗_S Zt) ⊗_R (Q ⊗_S P) → Pr ⊗_S P: Tab is the generic one up to B
    for M in _morphism_bimodules(F):
        fam = generate_test_family(M.right_algebra, 0, 3)
        for (_, Nr), (_, Nl) in zip(fam.right, fam.left):
            cm_free, cm_generic, free, generic = _both_paths(
                monkeypatch, lambda: _condition3_map(M, Nr, Nl, 1, CAP)
            )
            _, _, Tab, _ = free["tensor"]
            _, _, generic_Tab, _ = generic["tensor"]
            B = _assert_tensor_change_of_basis(Tab, generic_Tab)
            for n in cm_free.source.degrees():
                assert cm_free.f(n) == cm_generic.f(n) * B[n]


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_condition5_map_changes_basis_on_its_target(monkeypatch, F):
    # RHom_S(N, N) → Hom_R(Qs ⊗_S Pn, Qt ⊗_S N): the target over the R-free
    # Qs ⊗_S Pn is the generic one up to B; the source is built alike twice
    for M in _morphism_bimodules(F):
        for _, N in generate_test_family(M.right_algebra, 0, 3).left:
            cm_free, cm_generic, free, generic = _both_paths(
                monkeypatch, lambda: _condition5_map(M, N, 1, CAP)
            )
            (src, tgt), (generic_src, generic_tgt) = free["hom"], generic["hom"]
            assert src.complex == generic_src.complex
            assert tgt._free is not None and generic_tgt._free is None
            B = _assert_change_of_basis(tgt, generic_tgt)
            for n in cm_free.source.degrees():
                assert cm_generic.f(n) == B[n] * cm_free.f(n)


# -- one resolution record ----------------------------------------------------
# A bimodule's resolution is a SemifreeResolution over R, read the way a
# module's is: ``free`` is Q's R-free view, Q is ``free.bimodule``, and
# ``eps`` and ``validity`` are the enveloping resolution's.


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_equal_bimodule_requests_in_a_scope_share_one_record(F):
    for M, again in zip(_bimodules(F), _bimodules(F)):
        with resolution_scope():
            res = semifree_resolution_bimodule(M, DEPTH)
            assert isinstance(res, SemifreeResolution)
            assert isinstance(res.free, FreeModule) and res.free.algebra is M.left_algebra
            assert res.algebra is M.left_algebra and res.target is M
            assert again is not M and semifree_resolution_bimodule(again, DEPTH) is res
    # outside a scope every request is built
    M = _bimodules(F)[0]
    assert semifree_resolution_bimodule(M, DEPTH) is not semifree_resolution_bimodule(M, DEPTH)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_bimodule_record_is_the_enveloping_resolution_read_over_r(F):
    for M in _bimodules(F):
        with resolution_scope():
            env = semifree_resolution(bimodule_to_env_module(M), DEPTH)
            res = semifree_resolution_bimodule(M, DEPTH)
            assert res.eps is env.eps and res.validity == env.validity
        assert validate_module(res.free.bimodule) == []
        assert validate_module(res.free) == []
        # ε as a map to M's left module: R-linear and a quasi-isomorphism on the window
        target = M.left_module()
        eps = DgModuleMap(res.free, target, matrices_from_images(res.free, target, lambda x, n: res.eps[x]))
        assert eps.validate() is True
        assert quasi_iso(eps, res.validity).ok


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_derived_tensor_and_rhom_of_a_bimodule_take_the_free_paths(monkeypatch, F):
    D, w = 2, Window(-2, 2)
    built = _spy(monkeypatch, generic=False)
    for M in _bimodules(F):
        R = M.left_algebra
        for _, X in generate_test_family(R, 0, 3).right + [("R_r", right_regular(R))]:
            dc = derived_tensor(R, X, M, D)
            assert built["tensor"].pop()._relations is None  # the free path
            res = semifree_resolution_bimodule(M, required_depth(D, -X.min_degree()))
            generic = tensor_over(R, X, res.free.bimodule)
            assert generic._relations is not None
            assert homology_dims(dc.value, w) == homology_dims(generic.complex, w)
        for _, N in generate_test_family(R, 0, 3).left:
            dc = rhom(R, M, N, D)
            assert built["hom"].pop()._free is not None  # the free path
            res = semifree_resolution_bimodule(M, required_depth(D, N.max_degree()))
            generic = hom_over(R, res.free.bimodule, N)
            assert generic._free is None
            assert homology_dims(dc.value, w) == homology_dims(generic.complex, w)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_bimodule_record_and_its_reading_are_freed_without_gc(F):
    # what the scope keeps (the enveloping module and record, the reading,
    # the dual) points back at nothing that holds it, so once the scope
    # closes reference counting alone frees them and M
    gc.collect()
    gc.disable()
    try:
        for i in range(len(_bimodules(F))):
            M = _bimodules(F)[i]  # held by no list, so it can go
            with resolution_scope():
                env = semifree_resolution(bimodule_to_env_module(M), DEPTH)
                res = semifree_resolution_bimodule(M, DEPTH)
                truncated_dual(M, 1)
                refs = [weakref.ref(x) for x in (env, res, res.free, res.free.bimodule, M)]
            del env, res, M
            assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
