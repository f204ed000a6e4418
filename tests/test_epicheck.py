import contextlib
import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import traceback
import weakref
from concurrent.futures.process import BrokenProcessPool, _RemoteTraceback
from pathlib import Path

import pytest

import dgkit.derived
import dgkit.epicheck
import dgkit.resolutions
from dgkit.complexes import Window
from dgkit.field import GF, QQ
from dgkit.dga import (
    DgModule,
    DgaMorphism,
    bimodule_from_morphism,
    left_regular,
    regular_bimodule,
    restrict_scalars,
    right_regular,
    validate_dga,
    validate_module,
    validate_morphism,
)
from dgkit.derived import (
    _condition3_map,
    _condition5_map,
    counit_map,
    duality_map,
    is_derived_iso,
    multiplication_map,
    tor_table,
    truncated_dual,
)
from dgkit.epicheck import (
    _endpoint_map,
    _fold,
    _reports,
    check_bimodule_conditions,
    check_dga_epi,
    check_dwyer_greenlees,
    check_ring_epi,
    consistency_run,
    generate_test_family,
)
from dgkit.homtensor import endomorphism_dga, hom_over, identity_ground, tensor_over
from dgkit.modops import FreeModule, module_direct_sum, module_shift
from dgkit.resolutions import (
    BuildTreeWitness,
    Leaf,
    ResourceBoundExceeded,
    SumNode,
    _request_key,
    require_witness,
    resolution_scope,
    semifree_resolution,
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

from oracles import dy_equals_x, plain
from test_tables import _corpus as ring_corpus


# -- test families -------------------------------------------------------------


def test_family_size_two_is_regular_and_shift():
    S = truncated_polynomial(2)
    fam = generate_test_family(S, 0, 2)
    assert [d for d, _ in fam.left] == ["S", "S[1]"]
    assert fam.left[0][1].basis == left_regular(S).basis
    assert len(fam.right) == 2


def test_family_deterministic():
    S = product_kk()
    a = generate_test_family(S, 7, 6)
    b = generate_test_family(S, 7, 6)
    for (da, ma), (db, mb) in zip(a.left + a.right, b.left + b.right):
        assert da == db
        assert ma.basis == mb.basis and ma.act == mb.act and ma.diff == mb.diff


def test_family_members_all_valid():
    for S in (truncated_polynomial(3), exterior_algebra()):
        fam = generate_test_family(S, 3, 6)
        for _, m in fam.left + fam.right:
            assert validate_module(m) == []


def test_family_different_seeds_differ():
    S = truncated_polynomial(2)
    a = generate_test_family(S, 0, 6)
    b = generate_test_family(S, 1, 6)
    assert any(
        ma.diff != mb.diff or ma.basis != mb.basis
        for (_, ma), (_, mb) in zip(a.left[2:], b.left[2:])
    )


@pytest.mark.parametrize("F", [QQ, GF(2), GF(101)], ids=repr)
@pytest.mark.parametrize(
    "make", [lambda F: identity_morphism(exterior_algebra(F)), lambda F: truncated_to_ground(2, F)], ids=["idE", "x2"]
)
def test_semifree_members_are_free_modules_and_condition5_reads_them_alike(monkeypatch, F, make):
    # (5)'s Qt ⊗_S N takes the free tensor path at a semifree member, and its
    # report is the one at a plain module on the member's tables
    phi = make(F)
    M, D = bimodule_from_morphism(phi), 2
    members = [m for desc, m in generate_test_family(phi.target, 0, 6).left if desc.startswith("semifree")]
    assert members and all(isinstance(m, FreeModule) for m in members)
    built = []

    def tensor(*args, **kwargs):
        built.append(tensor_over(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dgkit.derived, "tensor_over", tensor)
    for N in members:
        reports = []
        for X in (N, plain(N)):
            built.clear()
            reports.append(is_derived_iso(_condition5_map(M, X, D, 10000), Window(-D, D)))
            (T2,) = [T for T in built if T.N is X]
            assert (T2._relations is None) == (X is N)
        assert reports[0] == reports[1]


# -- ring mode -----------------------------------------------------------------


def _ring(phi, D=8, size=6, seed=0):
    fam = generate_test_family(phi.target, seed, size)
    return check_ring_epi(phi, D, fam)


def test_ring_identity_is_epi():
    rep = _ring(identity_morphism(ground_algebra()))
    assert rep.agreement and rep.is_epi
    assert all(v.holds for v in rep.verdicts if v.checkable)


def test_ring_product_projection_is_epi():
    # S = k is projective over k×k, so Tor and Ext vanish above degree 0
    rep = _ring(product_to_ground())
    assert rep.agreement and rep.is_epi


def test_ring_truncated_is_not_epi_tor1():
    # periodic-resolution oracle: Tor_1(k, k) over k[x]/(x²) is 1-dimensional
    rep = _ring(truncated_to_ground(2))
    assert rep.agreement and not rep.is_epi
    v1 = rep.verdict(1)
    assert v1.status == "fails" and v1.degree == 1 and v1.dims == (1, 0)
    vt = rep.verdict("translation")
    assert vt.status == "fails" and vt.degree == 1


def test_ring_triangular_agreement_with_oracle():
    # oracle by explicit projective resolutions over T₂(k): the simples have
    # covers P₁ (dim 1) and P₂ (dim 2) with 0 → P₁ → P₂ → S₂ → 0, giving
    # Tor_0(k×k, k×k) = 2, Tor_1 = 1, higher zero — so not an epimorphism
    rep = _ring(triangular_to_product())
    assert rep.agreement and not rep.is_epi
    v1 = rep.verdict(1)
    assert v1.status == "fails" and v1.degree == 1 and v1.dims == (1, 0)


def test_ring_mode_rejects_graded_algebra():
    phi = identity_morphism(exterior_algebra())
    fam = generate_test_family(phi.target, 0, 2)
    with pytest.raises(ValueError):
        check_ring_epi(phi, 2, fam)


def test_ring_mode_honours_generator_cap():
    # the Tor and Ext tables of conditions (3), (5) and the translation test
    # resolve with the caller's cap: one Ext resolution here needs 14 generators
    phi = truncated_to_ground(2)
    fam = generate_test_family(phi.target, 0, 3)
    with pytest.raises(ResourceBoundExceeded) as e:
        check_ring_epi(phi, 3, fam, max_generators=12)
    # the cap is hit in (5): the exception carries the verdicts before it
    assert [v.condition for v in e.value.verdicts] == [1, "translation", 2, 3, 4]


# -- DGA mode ------------------------------------------------------------------


def test_dga_mode_routes_degree_zero_to_ring_mode():
    for phi in (identity_morphism(ground_algebra()), truncated_to_ground(2)):
        fam = generate_test_family(phi.target, 0, 4)
        a = check_ring_epi(phi, 4, fam)
        b = check_dga_epi(phi, 4, fam)
        assert a.agreement == b.agreement and a.is_epi == b.is_epi
        for va, vb in zip(a.verdicts, b.verdicts):
            assert (va.condition, va.status, va.degree, va.dims) == (
                vb.condition,
                vb.status,
                vb.degree,
                vb.dims,
            )


def test_dga_exterior_identity_is_epi():
    phi = identity_morphism(exterior_algebra())
    fam = generate_test_family(phi.target, 0, 2)
    rep = check_dga_epi(phi, 2, fam)
    assert rep.agreement and rep.is_epi
    assert all(v.holds for v in rep.verdicts if v.checkable)


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_dga_mode_over_an_algebra_with_a_differential(F):
    # A = k[x]/(x²) ⊗ Λ(y) with dy = x: the identity is an epimorphism; the
    # augmentation is not, since z ↦ x⊗y is a quasi-isomorphism Λ(z) → A with
    # |z| = 1, so Tor^A_2(k, k) = k
    A = dy_equals_x(F)
    rep = check_dga_epi(identity_morphism(A), 3, generate_test_family(A, 0, 3))
    assert rep.agreement and rep.is_epi
    assert all(v.holds for v in rep.verdicts if v.checkable)
    k = ground_algebra(F)
    aug = DgaMorphism(A, k, {A.unit: {k.unit: F.one}}, name="aug")
    assert validate_morphism(aug) == []
    rep = check_dga_epi(aug, 3, generate_test_family(k, 0, 3))
    assert rep.agreement and not rep.is_epi
    failing = [(v.condition, v.degree) for v in rep.verdicts if v.checkable and not v.holds]
    assert failing == [(1, 2), (2, 2), (3, 2), (4, -2), (5, -2)]


# -- bimodule conditions directly ---------------------------------------------


STOCK_DGAS = [
    ground_algebra,
    lambda: truncated_polynomial(2),
    lambda: truncated_polynomial(3),
    product_kk,
    upper_triangular,
    exterior_algebra,
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "make", STOCK_DGAS, ids=["k", "k[x]/(x2)", "k[x]/(x3)", "kxk", "T2", "Lambda(x)"]
)
def test_identity_is_epi_at_family_size_three(make, seed):
    # family size 3 adds a random cone to {S, ΣS}; truncation junk of a
    # too-shallow resolution shows up there as a wrong NO
    A = make()
    rep = check_dga_epi(identity_morphism(A), 4, generate_test_family(A, seed, 3))
    assert rep.agreement, rep.disagreement
    assert rep.is_epi


def test_bimodule_identity_all_hold():
    phi = identity_morphism(truncated_polynomial(2))
    M = bimodule_from_morphism(phi)
    fam = generate_test_family(phi.target, 0, 2)
    rep = check_bimodule_conditions(M, BuildTreeWitness(Leaf(0)), fam, 2)
    assert rep.agreement and rep.is_epi


def test_bimodule_truncated_all_fail_agreement():
    # all checkable conditions fail together, so the theorem is respected
    phi = truncated_to_ground(2)
    M = bimodule_from_morphism(phi)
    fam = generate_test_family(phi.target, 0, 2)
    rep = check_bimodule_conditions(M, BuildTreeWitness(Leaf(0)), fam, 2)
    assert rep.agreement and not rep.is_epi
    for c in (1, 2, 3, 4, 5):
        assert rep.verdict(c).status == "fails"
    assert rep.verdict(1).degree == 1 and rep.verdict(1).dims == (1, 0)


def test_bimodule_product_all_hold():
    phi = product_to_ground()
    M = bimodule_from_morphism(phi)
    fam = generate_test_family(phi.target, 0, 2)
    rep = check_bimodule_conditions(M, BuildTreeWitness(Leaf(0)), fam, 2)
    assert rep.agreement and rep.is_epi


def test_bimodule_without_witness_groups():
    phi = identity_morphism(truncated_polynomial(2))
    M = bimodule_from_morphism(phi)
    fam = generate_test_family(phi.target, 0, 2)
    rep = check_bimodule_conditions(M, None, fam, 2)
    assert rep.note  # the two condition groups are compared separately
    assert rep.agreement


def test_bimodule_bad_witness_rejected():
    phi = identity_morphism(truncated_polynomial(2))
    M = bimodule_from_morphism(phi)
    fam = generate_test_family(phi.target, 0, 2)
    with pytest.raises(ValueError):
        check_bimodule_conditions(M, BuildTreeWitness(Leaf(1)), fam, 2)


# -- compact endpoint and Dwyer-Greenlees -------------------------------------


def check_compact_endpoint(R, S, M, witness_R, window):
    """Verdict on S → RHom_R(M, M) when M is finitely built from R on the left.

    The witness makes M K-projective over R, so the underived Hom complex
    computes RHom and no resolution of M is needed.
    """
    require_witness(witness_R, M.left_module())
    H = hom_over(R, M.left_module(), M.left_module())
    reports = _reports(window, "endpoint map S → Hom_R(M, M)", lambda: _endpoint_map(S, M, H))
    return _fold("compact-endpoint", window, reports)


def test_endpoint_regular_bimodule_holds():
    for R in (ground_algebra(), truncated_polynomial(2), exterior_algebra()):
        M = regular_bimodule(R)
        v = check_compact_endpoint(R, R, M, BuildTreeWitness(Leaf(0)), Window(-2, 4))
        assert v.holds


def test_endpoint_wrong_witness_rejected():
    R = truncated_polynomial(2)
    M = regular_bimodule(R)
    with pytest.raises(ValueError):
        check_compact_endpoint(R, R, M, BuildTreeWitness(Leaf(1)), Window(-2, 4))


def test_dwyer_greenlees_three_algebras():
    for R in (ground_algebra(), truncated_polynomial(2), exterior_algebra()):
        M = module_direct_sum([left_regular(R), module_shift(left_regular(R), 1)])
        w = BuildTreeWitness(SumNode([Leaf(0), Leaf(1)]))
        rep = check_dwyer_greenlees(R, M, w, Window(-2, 8))
        assert rep.degreewise_iso
        assert rep.endpoint.holds


def two_summand_modules(F):
    """Λ(x) ⊕ Λ(x), Λ(x) ⊕ ΣΛ(x) and T ⊕ T for T = k[x]/(x³), each with the
    shifts of its witness's leaves: modules whose identity has two
    coordinates in Hom(M, M), where regular modules give it one."""
    L, T = left_regular(exterior_algebra(F)), left_regular(truncated_polynomial(3, F))
    return [
        (module_direct_sum([L, L]), (0, 0)),
        (module_direct_sum([L, module_shift(L, 1)]), (0, 1)),
        (module_direct_sum([T, T]), (0, 0)),
    ]


@pytest.mark.parametrize("F", [QQ, GF(2)], ids=repr)
def test_endomorphism_dga_unit_is_identity_of_several_coordinates(F):
    for M, _ in two_summand_modules(F):
        H = hom_over(M.algebra, M, M)
        assert len(H.coords(identity_ground(M), 0)) >= 2
        E, bimod = endomorphism_dga(M)
        assert validate_dga(E) == [] and validate_module(bimod) == []
        assert E.deg(E.unit) == 0 and E.total_dim == len(H.basis)
        for i in range(E.total_dim):
            assert E.mul_elem(E.one(), {i: F.one}) == {i: F.one}
            assert E.mul_elem({i: F.one}, E.one()) == {i: F.one}
        # the unit acts on M as the identity
        for m in range(M.total_dim):
            assert bimod.act_right[E.unit, m] == {m: F.one}


def test_endomorphism_dga_of_zero_module_refused():
    # the zero module's identity has no coordinate to seat as a unit
    Z = DgModule(exterior_algebra(), "left", [], {}, {}, name="Z")
    with pytest.raises(ValueError, match="is zero"):
        endomorphism_dga(Z)


@pytest.mark.parametrize("F", [QQ, GF(2)], ids=repr)
def test_dwyer_greenlees_identity_of_several_coordinates(F):
    # the identity has two coordinates in Hom_R(M, M), so F's basis is not
    # H's: the degreewise comparison maps F's identity to H's combination
    for M, shifts in two_summand_modules(F):
        w = BuildTreeWitness(SumNode([Leaf(t) for t in shifts]))
        rep = check_dwyer_greenlees(M.algebra, M, w, Window(-2, 8))
        assert rep.degreewise_iso
        assert rep.endpoint.holds


def test_dwyer_greenlees_regular_module():
    R = truncated_polynomial(2)
    rep = check_dwyer_greenlees(R, left_regular(R), BuildTreeWitness(Leaf(0)), Window(-2, 4))
    assert rep.degreewise_iso and rep.endpoint.holds


def test_dwyer_greenlees_broken_witness_refused():
    R = truncated_polynomial(2)
    M = module_direct_sum([left_regular(R), module_shift(left_regular(R), 1)])
    with pytest.raises(ValueError):
        check_dwyer_greenlees(R, M, BuildTreeWitness(Leaf(0)), Window(-2, 4))


def test_dwyer_greenlees_builds_and_checks_the_endpoint_map_once(monkeypatch):
    # the degreewise comparison and the endpoint verdict read one endpoint map
    import dgkit.epicheck as epicheck

    built, checked = [], []
    build, validate = epicheck._endpoint_map, epicheck.ChainMap.validate

    def counted_build(*args):
        built.append(build(*args))
        return built[-1]

    def counted_validate(f):
        checked.extend(g for g in built if g is f)
        return validate(f)

    monkeypatch.setattr(epicheck, "_endpoint_map", counted_build)
    monkeypatch.setattr(epicheck.ChainMap, "validate", counted_validate)
    R = exterior_algebra()
    M = module_direct_sum([left_regular(R), module_shift(left_regular(R), 1)])
    rep = check_dwyer_greenlees(R, M, BuildTreeWitness(SumNode([Leaf(0), Leaf(1)])), Window(-2, 8))
    assert rep.degreewise_iso and rep.endpoint.holds
    assert len(built) == 1 and len(checked) == 1


def test_dwyer_greenlees_builds_the_endomorphism_hom_once(monkeypatch):
    # one Hom_R(M, M) serves the endomorphism DGA, the comparison and the endpoint
    from dgkit.homtensor import HomComplex, endomorphism_dga

    built = []
    init = HomComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HomComplex, "__init__", counted)
    R = exterior_algebra()
    M = module_direct_sum([left_regular(R), module_shift(left_regular(R), 1)])
    w = BuildTreeWitness(SumNode([Leaf(0), Leaf(1)]))
    rep = check_dwyer_greenlees(R, M, w, Window(-2, 8))
    assert len(built) == 1
    # the same DGA as the public endomorphism_dga, and the endpoint verdict is
    # the public one, which builds its own Hom
    E, bimod = endomorphism_dga(M)
    F = rep.endomorphism_algebra
    assert (F.basis, F.unit, F.mul, F.diff) == (E.basis, E.unit, E.mul, E.diff)
    assert rep.endpoint == check_compact_endpoint(R, rep.acting_algebra, bimod, w, Window(-2, 8))


# -- one build per check ---------------------------------------------------------


def _counting(monkeypatch, name, *modules):
    """Count the calls of ``name``, wherever one of ``modules`` binds it."""
    calls = []
    build = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("size", [3, 6])
def test_dga_check_dualizes_once(monkeypatch, size):
    # (1), (2) and (3) share one truncated dual: 1 + 2·size builds before
    calls = _counting(monkeypatch, "dualize", dgkit.derived, dgkit.epicheck)
    phi = identity_morphism(exterior_algebra())
    assert check_dga_epi(phi, 2, generate_test_family(phi.target, 0, size)).is_epi
    assert len(calls) == 1


def test_counit_and_duality_map_share_one_dual(monkeypatch):
    # the counit, the duality map and (3) pair with one dual inside a scope;
    # outside a scope nothing is kept, so each builds its own
    calls = _counting(monkeypatch, "dualize", dgkit.derived)
    phi = truncated_to_ground(2)
    M, N, Nr = bimodule_from_morphism(phi), left_regular(phi.target), right_regular(phi.target)
    maps = [
        lambda: counit_map(M, N, 2),
        lambda: duality_map(M, N, BuildTreeWitness(Leaf(0)), 2),
        lambda: _condition3_map(M, Nr, N, 2, 10000),
    ]
    with resolution_scope():
        for build in maps:
            build()
    assert len(calls) == 1
    for build in maps:
        build()
    assert len(calls) == 1 + len(maps)


def test_condition_two_reads_condition_one_at_S(monkeypatch):
    # (2) builds the counit only at the members after S: size builds in all
    calls = _counting(monkeypatch, "counit_map", dgkit.epicheck)
    phi = identity_morphism(exterior_algebra())
    rep = check_dga_epi(phi, 2, generate_test_family(phi.target, 0, 3))
    assert len(calls) == 3
    assert rep.verdict(2).members[0] == ("S", "holds")


def test_truncated_dual_lives_as_long_as_its_scope():
    M = bimodule_from_morphism(identity_morphism(exterior_algebra()))
    with resolution_scope():
        first = truncated_dual(M, 2)
        assert truncated_dual(M, 2) is first
        assert truncated_dual(M, 3) is not first
        assert truncated_dual(M, 2, max_generators=50) is not first
    # the scope closed: a request builds afresh, every time
    again = truncated_dual(M, 2)
    assert again is not first and truncated_dual(M, 2) is not again
    # and nothing outside a scope keeps M
    ref = weakref.ref(M)
    del M, first, again
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("check", [check_dga_epi, check_ring_epi])
def test_family_not_starting_at_S_is_refused(check):
    phi = identity_morphism(truncated_polynomial(2))
    fam = generate_test_family(phi.target, 0, 3)
    shifted_first = dgkit.epicheck.TestFamily(fam.seed, fam.left[1:] + fam.left[:1], fam.right)
    with pytest.raises(ValueError, match="is not S"):
        check(phi, 2, shifted_first)


@pytest.mark.parametrize(
    "phi",
    [truncated_to_ground(2), truncated_to_ground(3), product_to_ground(), triangular_to_product()],
    ids=["x2", "x3", "kxk", "T2"],
)
def test_translation_tor_is_tor_table(phi):
    # Translation reads Tor_i(S, S) off (1)'s source instead of a Tor table
    R, S = phi.source, phi.target
    Sr, Sl = (restrict_scalars(X(S), phi) for X in (right_regular, left_regular))
    rep = is_derived_iso(multiplication_map(phi, 4), Window(0, 4))
    assert {i: h for i, (h, _) in rep.dims.items()} == tor_table(R, Sr, Sl, 4)


# -- one resolution per request per check ----------------------------------------


def _lambda_augmentation():
    E, k = exterior_algebra(), ground_algebra()
    return DgaMorphism(E, k, {0: {0: k.field.one}}, name="aug")


# the ring-consistency corpus at window 0..4 and family size 6, then Λ(x)
CACHE_CASES = [
    (lambda: identity_morphism(ground_algebra()), 4, 6),
    (lambda: identity_morphism(truncated_polynomial(2)), 4, 6),
    (product_to_ground, 4, 6),
    (lambda: truncated_to_ground(2), 4, 6),
    (lambda: truncated_to_ground(3), 4, 6),
    (triangular_to_product, 4, 6),
    (lambda: identity_morphism(exterior_algebra()), 2, 2),
    (lambda: identity_morphism(exterior_algebra()), 2, 3),
    (_lambda_augmentation, 2, 2),
    (_lambda_augmentation, 2, 3),
]
CACHE_IDS = ["idk", "idD", "prk", "dual2", "dual3", "tri", "idE-2", "idE-3", "aug-2", "aug-3"]


def _builds(monkeypatch):
    """Log the key of every build the builder starts, and (key, degree) for
    every degree it eliminates; a key is a request's content and cap."""
    started, eliminated = [], []
    Build = dgkit.resolutions._ResolutionBuild
    init, eliminate = Build.__init__, Build._eliminate

    def counted_init(self, M, max_generators, types):
        init(self, M, max_generators, types)
        started.append(_request_key(M, max_generators, types))

    def counted_eliminate(self):
        eliminated.append((_request_key(self.M, self.cap, self.types), self.n))
        eliminate(self)

    monkeypatch.setattr(Build, "__init__", counted_init)
    monkeypatch.setattr(Build, "_eliminate", counted_eliminate)
    return started, eliminated


def _requests(monkeypatch):
    """Log (key, depth) for every call of the public semifree_resolution."""
    keys = []
    request = dgkit.resolutions.semifree_resolution

    def logged(M, D, max_generators=10000, types=None):
        keys.append((_request_key(M, max_generators, types), D))
        return request(M, D, max_generators, types=types)

    for module in (dgkit.resolutions, dgkit.derived):
        monkeypatch.setattr(module, "semifree_resolution", logged)
    return keys


@pytest.mark.parametrize("make, D, size", CACHE_CASES, ids=CACHE_IDS)
def test_resolution_cache_changes_no_report(monkeypatch, make, D, size):
    phi = make()
    cached = check_dga_epi(phi, D, generate_test_family(phi.target, 0, size))
    monkeypatch.setattr(dgkit.epicheck, "resolution_scope", contextlib.nullcontext)
    (started, _), requests = _builds(monkeypatch), _requests(monkeypatch)
    uncached = check_dga_epi(phi, D, generate_test_family(phi.target, 0, size))
    assert len(started) == len(requests)  # the no-op scope really builds each time
    assert cached == uncached


@pytest.mark.parametrize("make, D, size", CACHE_CASES, ids=CACHE_IDS)
def test_one_build_per_distinct_request_in_a_check(monkeypatch, make, D, size):
    # one build per module content and cap, whatever depths it is asked at,
    # and each of its degrees eliminated once, bottom up, no deeper than the
    # deepest request needs
    (started, eliminated), requests = _builds(monkeypatch), _requests(monkeypatch)
    phi = make()
    check_dga_epi(phi, D, generate_test_family(phi.target, 0, size))
    assert len(set(started)) == len(started)
    assert set(started) == {key for key, _ in requests}
    assert len(set(eliminated)) == len(eliminated)
    for key in started:
        degrees = [n for k, n in eliminated if k == key]
        assert degrees == list(range(degrees[0], degrees[0] + len(degrees)))
        assert degrees[-1] <= max(d for k, d in requests if k == key) + 1
    assert len(started) < len(set(requests))


def test_scope_closes_when_a_check_returns_or_raises(monkeypatch):
    started, eliminated = _builds(monkeypatch)
    phi = truncated_to_ground(2)

    def twice(run):
        """Run a check twice; the second must build exactly what the first did."""
        logs = []
        for _ in range(2):
            run()
            assert dgkit.resolutions._BUILT.get() is None
            logs.append((list(started), list(eliminated)))
            started.clear()
            eliminated.clear()
        assert logs[0] == logs[1] and logs[0][0]

    twice(lambda: check_ring_epi(phi, 3, generate_test_family(phi.target, 0, 3)))

    def capped():
        with pytest.raises(ResourceBoundExceeded):
            check_ring_epi(phi, 3, generate_test_family(phi.target, 0, 3), max_generators=12)

    twice(capped)


def _k_over_dual_numbers():
    """k as a left k[x]/(x²)-module: one generator per degree."""
    phi = truncated_to_ground(2)
    return restrict_scalars(left_regular(phi.target), phi)


def _kept_builds():
    """The number of builds the open scope keeps, one per module content and cap."""
    kept = dgkit.resolutions._BUILT.get().values()
    return sum(isinstance(v, dgkit.resolutions._ResolutionBuild) for v in kept)


def _record_data(res):
    return (
        [(g.label, g.degree, g.d_elem, g.eps) for g in res.generators],
        res.free.basis,
        res.eps,
        res.validity,
    )


@pytest.mark.parametrize("shallow_first", [False, True], ids=["deep-first", "shallow-first"])
def test_capped_request_raises_again_at_its_depth_and_deeper(monkeypatch, shallow_first):
    # k over k[x]/(x²) has one generator per degree: a cap of 3 is hit by the
    # fourth, in degree 3, so depth 2 is capped and depth 1 is not
    M = _k_over_dual_numbers()
    with pytest.raises(ResourceBoundExceeded) as fresh:
        semifree_resolution(M, 5, max_generators=3)
    assert str(fresh.value) == "generator cap 3 exceeded at degree 3"
    assert fresh.value.partial.validity == Window(-1, 2)
    assert len(fresh.value.partial.generators) == 4
    shallow = semifree_resolution(M, 1, max_generators=3)
    started, eliminated = _builds(monkeypatch)
    with resolution_scope():
        if shallow_first:
            assert _record_data(semifree_resolution(M, 1, max_generators=3)) == _record_data(shallow)
        for D in (5, 5, 2, 8):
            with pytest.raises(ResourceBoundExceeded) as e:
                semifree_resolution(_k_over_dual_numbers(), D, max_generators=3)
            assert str(e.value) == str(fresh.value)
            assert _record_data(e.value.partial) == _record_data(fresh.value.partial)
        # degrees 0..2 finished before the cap: depth 1 is served from them
        assert _record_data(semifree_resolution(M, 1, max_generators=3)) == _record_data(shallow)
        assert _kept_builds() == 1
    # one build, its degrees 0..3 eliminated once, the last one up to the cap
    assert len(started) == 1 and [n for _, n in eliminated] == [0, 1, 2, 3]


def test_cap_is_a_separate_entry_and_depth_is_not(monkeypatch):
    started, eliminated = _builds(monkeypatch)
    with resolution_scope():
        first = semifree_resolution(_k_over_dual_numbers(), 3)
        kept = _record_data(first)
        # an equal module built afresh, and a nested scope, reuse the entry
        with resolution_scope():
            assert semifree_resolution(_k_over_dual_numbers(), 3) is first
        # a deeper request grows the same build and leaves the first record as it was
        deeper = semifree_resolution(_k_over_dual_numbers(), 4)
        assert deeper is not first and deeper.free is not first.free
        assert len(deeper.generators) == 6 and _record_data(first) == kept
        assert semifree_resolution(_k_over_dual_numbers(), 3) is first
        assert semifree_resolution(_k_over_dual_numbers(), 3, max_generators=50) is not first
        assert _kept_builds() == 2
    assert len(started) == 2
    assert [n for _, n in eliminated] == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4]
    # outside a scope nothing is kept
    again = semifree_resolution(_k_over_dual_numbers(), 3)
    assert again is not first and _record_data(again) == kept
    assert semifree_resolution(_k_over_dual_numbers(), 3) is not again
    assert len(started) == 4 and dgkit.resolutions._BUILT.get() is None


# -- aggregate runs ------------------------------------------------------------


def test_consistency_run_identity_corpus():
    corpus = [
        ("id k", identity_morphism(ground_algebra())),
        ("id k[x]/(x²)", identity_morphism(truncated_polynomial(2))),
    ]
    rep = consistency_run(corpus, seed=0, D=4, family_size=4)
    assert rep.agreement and rep.first_disagreement is None
    assert all(r.is_epi for _, r in rep.instances)


def test_consistency_run_empty_corpus():
    rep = consistency_run([], seed=0, D=4)
    assert rep.instances == [] and rep.agreement


# -- aggregate runs on forked workers ----------------------------------------------


def _ring_corpus():
    """The six morphisms of the ring-consistency benchmark over Q, named."""
    return list(zip(("idk", "idD", "prk", "dual2", "dual3", "tri"), ring_corpus(QQ)))


def _run(monkeypatch, cpus, *args, **kwargs):
    """consistency_run on ``cpus`` CPUs: (its report or exception, processes
    forked); no worker may be left once it returns or raises."""
    forks = []
    fork = dgkit.epicheck.os.fork

    def counted():
        forks.append(1)
        return fork()

    with monkeypatch.context() as m:
        m.setattr(dgkit.epicheck.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(dgkit.epicheck.os, "fork", counted)
        try:
            out = consistency_run(*args, **kwargs)
        except Exception as e:  # compared with the serial run's by the caller
            out = e
    assert multiprocessing.active_children() == []
    return out, len(forks)


def test_workers_give_the_serial_reports(monkeypatch):
    # slowest first: a worker that finished later instances first must not
    # change which report belongs to which instance
    corpus = _ring_corpus()[::-1]
    serial, forked = _run(monkeypatch, 1, corpus, seed=0, D=4, family_size=6)
    assert forked == 0
    parallel, forked = _run(monkeypatch, 2, corpus, seed=0, D=4, family_size=6)
    assert forked == 2
    assert [d for d, _ in parallel.instances] == [d for d, _ in corpus]
    for (_, a), (_, b) in zip(parallel.instances, serial.instances):
        assert a.verdicts == b.verdicts
        assert (a.agreement, a.disagreement, a.note) == (b.agreement, b.disagreement, b.note)
    assert (parallel.agreement, parallel.first_disagreement) == (
        serial.agreement,
        serial.first_disagreement,
    )
    assert parallel == serial


def test_a_capped_instance_raises_as_in_the_serial_run(monkeypatch):
    # idk finishes under a cap of 8 generators and dual2 hits it after (1)
    # and Translation; idD, after it, finishes but must not be reported
    ring = dict(_ring_corpus())
    corpus = [(n, ring[n]) for n in ("idk", "dual2", "idD")]
    args = dict(seed=0, D=4, family_size=3, max_generators=8)
    serial, _ = _run(monkeypatch, 1, corpus, **args)
    parallel, forked = _run(monkeypatch, 3, corpus, **args)
    assert forked == 3
    for e in (serial, parallel):
        assert type(e) is ResourceBoundExceeded
        assert [d for d, _ in e.instances] == ["idk"]
        assert len(e.verdicts) == 2
    assert str(parallel) == str(serial) == "generator cap 8 exceeded at degree 5"
    assert parallel.verdicts == serial.verdicts
    assert parallel.instances == serial.instances
    assert len(parallel.partial.generators) == len(serial.partial.generators)


def test_an_instance_error_arrives_with_its_witness(monkeypatch):
    corpus = _ring_corpus()[:3]
    check = dgkit.epicheck.check_dga_epi

    def failing(phi, D, family, max_generators):
        if phi is corpus[1][1]:
            err = ValueError("f_2 maps a cycle to a non-cycle")
            err.witness = (0, 1, -1)
            raise err
        return check(phi, D, family, max_generators)

    monkeypatch.setattr(dgkit.epicheck, "check_dga_epi", failing)
    for cpus, forks in ((1, 0), (3, 3)):
        e, forked = _run(monkeypatch, cpus, corpus, seed=0, D=2, family_size=2)
        assert forked == forks
        assert type(e) is ValueError and str(e) == "f_2 maps a cycle to a non-cycle"
        assert e.witness == (0, 1, -1)
        if forked:  # the worker's traceback, as text
            assert isinstance(e.__cause__, _RemoteTraceback) and "in failing" in str(e.__cause__)
        else:  # the exception itself
            assert "failing" in [f.name for f in traceback.extract_tb(e.__traceback__)]


@pytest.mark.parametrize("size", [0, 1])
def test_a_corpus_of_at_most_one_instance_starts_no_process(monkeypatch, size):
    corpus = _ring_corpus()[:size]
    rep, forked = _run(monkeypatch, 2, corpus, seed=0, D=2, family_size=2)
    assert forked == 0 and len(rep.instances) == size and rep.agreement


def test_a_process_with_other_threads_checks_in_process(monkeypatch):
    corpus = _ring_corpus()[:2]
    serial, _ = _run(monkeypatch, 1, corpus, seed=0, D=2, family_size=2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        rep, forked = _run(monkeypatch, 2, corpus, seed=0, D=2, family_size=2)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forked == 0 and rep == serial


def test_two_threads_check_their_own_corpora_at_once(monkeypatch):
    # each thread waits for the other before every instance, so the two runs
    # interleave; each must report its own instances
    ring = dict(_ring_corpus())
    corpora = [[(n, ring[n]) for n in names] for names in (("idk", "prk"), ("idD", "dual2"))]
    serial = [_run(monkeypatch, 1, c, seed=0, D=2, family_size=2)[0] for c in corpora]
    both = threading.Barrier(2, timeout=30)
    family = dgkit.epicheck.generate_test_family

    def in_step(S, seed, size):
        both.wait()
        return family(S, seed, size)

    monkeypatch.setattr(dgkit.epicheck, "generate_test_family", in_step)
    out = [None, None]

    def check(k):
        try:
            out[k] = consistency_run(corpora[k], seed=0, D=2, family_size=2)
        except Exception as e:
            out[k] = e
            both.abort()

    threads = [threading.Thread(target=check, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert out == serial
    assert multiprocessing.active_children() == []


def test_each_worker_runs_on_a_cpu_of_its_own(monkeypatch):
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) < 2:
        pytest.skip("needs two CPUs")
    corpus = _ring_corpus()[:4]
    check, affinity = dgkit.epicheck.check_dga_epi, os.sched_getaffinity

    def placed(phi, D, family, max_generators):
        rep = check(phi, D, family, max_generators)
        rep.note = (os.getpid(), sorted(affinity(0)))  # read back by the test
        return rep

    monkeypatch.setattr(dgkit.epicheck, "check_dga_epi", placed)
    monkeypatch.setattr(dgkit.epicheck.os, "sched_getaffinity", lambda pid: set(cpus))
    rep = consistency_run(corpus, seed=0, D=2, family_size=2)
    assert multiprocessing.active_children() == []
    workers = dict(r.note for _, r in rep.instances)  # usually two, one if the other starts late
    assert os.getpid() not in workers
    pinned = [tuple(a) for a in workers.values()]
    assert len(set(pinned)) == len(pinned) and all(len(a) == 1 and a[0] in cpus for a in pinned)


# pins itself to one CPU before it imports dgkit, runs the CLI and names the
# pool's modules it loaded on stderr
_ONE_CPU = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from dgkit.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(code, [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules], file=sys.stderr)
"""


def test_a_one_cpu_run_loads_no_pool_modules():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no affinity mask on this platform")
    src = Path(dgkit.epicheck.__file__).resolve().parent.parent
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "product.dg"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["consistency", str(fixture)]
    pinned = subprocess.run([sys.executable, "-c", _ONE_CPU, *argv], capture_output=True, env=env, timeout=120)
    unpinned = subprocess.run([sys.executable, "-m", "dgkit.cli", *argv], capture_output=True, env=env, timeout=120)
    assert pinned.stderr.decode() == "0 []\n"
    assert unpinned.returncode == 0 and pinned.stdout == unpinned.stdout != b""


def test_a_worker_that_dies_fails_the_run(monkeypatch):
    corpus = _ring_corpus()[:3]
    check, parent = dgkit.epicheck.check_dga_epi, os.getpid()

    def dying(phi, D, family, max_generators):
        if phi is corpus[1][1] and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return check(phi, D, family, max_generators)

    def timeout(signum, frame):
        raise TimeoutError("consistency_run still waits for a dead worker")

    monkeypatch.setattr(dgkit.epicheck, "check_dga_epi", dying)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        e, forked = _run(monkeypatch, 3, corpus, seed=0, D=2, family_size=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert forked == 3 and type(e) is BrokenProcessPool
