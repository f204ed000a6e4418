"""Projective generators: resolutions over algebras with idempotents finish.

The builder splits each cycle z into its parts e·z over the algebra's
orthogonal idempotents (``modops.idempotents``) and gives each generator
the summand A e of its part, so a module with a finite projective
resolution gets one.  Its verdicts must be those of the free builder, the
oracle ``oracles.rebuild_resolution``, whose resolutions of the same
modules never finish: every Tor and Ext table, every iso report and every
verdict of the six-morphism ring corpus, the path-algebra pair and the
``test_digests.py`` families, over Q, F_2 and F_101.  Every resolution the
projective runs read is re-checked on its own: ε is an A-linear
quasi-isomorphism through the depth that was asked for.
"""

import json
import random
from pathlib import Path

import pytest

import dgkit.cli
import dgkit.derived
import dgkit.epicheck
import dgkit.resolutions
from dgkit.cli import main
from dgkit.complexes import Window, quasi_iso
from dgkit.derived import ext_table, tor_table
from dgkit.dga import (
    DgAlgebra,
    DgaMorphism,
    DgModule,
    bimodule_from_morphism,
    enveloping,
    left_regular,
    regular_bimodule,
    restrict_scalars,
    right_regular,
    tensor_algebra,
    validate_module,
)
from dgkit.epicheck import check_dga_epi, generate_test_family
from dgkit.field import GF, QQ
from dgkit.homtensor import hom_over, tensor_over
from dgkit.linalg import rank
from dgkit.modops import FreeModule, Generator, idempotents
from dgkit.parser import parse
from dgkit.resolutions import _request_key, semifree_resolution, semifree_resolution_bimodule
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    identity_morphism,
    product_kk,
    product_to_ground,
    triangular_to_product,
    truncated_polynomial,
    upper_triangular,
)

from oracles import dy_equals_x, plain, rebuild_resolution, rebuilt_record
from test_digests import BUILDERS
from test_free_hom import _assert_change_of_basis
from test_free_tensor import _change_of_basis as _tensor_change_of_basis
from test_free_views import _assert_presents
from test_resolutions import eps_map, verify_resolution
from test_tables import _corpus, _deep_resolve_algebra

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIELDS = [QQ, GF(2), GF(101)]
RESOLVING_MODULES = (dgkit.resolutions, dgkit.derived, dgkit.epicheck, dgkit.cli)


def _path_pair(F):
    """q2 and q1 of fixtures/path.dg over F: A = k(1 ⇄ 2)/(ab) → k."""
    text = (FIXTURES / "path.dg").read_text()
    if F.characteristic:
        text = text.replace("field Q", f"field Fp {F.characteristic}")
    pf = parse(text)
    return pf.morphisms["q2"], pf.morphisms["q1"]


def _ground(phi):
    """k, or S, as a left R-module through phi: R → S."""
    return restrict_scalars(left_regular(phi.target), phi)


def _rescaled(A: DgAlgebra, s: list) -> DgAlgebra:
    """A on the basis s_i·b_i: the isomorphic presentation a seeded benchmark
    input writes."""
    F = A.field

    def table(t, key_scale):
        return {k: {j: F.div(F.mul(c, key_scale(k)), s[j]) for j, c in e.items()} for k, e in t.items()}

    mul = table(A.mul, lambda ij: F.mul(s[ij[0]], s[ij[1]]))
    return DgAlgebra(F, A.basis, A.unit, mul, table(A.diff, lambda i: s[i]), name=A.name)


def _scales(F, A, seed):
    """λ = −1 on every basis element but 1 over Q, a random unit over F_p."""
    rng = random.Random(seed)
    if F.characteristic:
        s = [rng.randrange(1, F.characteristic) for _ in range(A.total_dim)]
    else:
        s = [F.sign(1)] * A.total_dim
    s[A.unit] = F.one
    return s


def _rescaled_morphism(phi, seed):
    s = _scales(phi.source.field, phi.source, seed)
    t = _scales(phi.target.field, phi.target, seed + 1)
    F = phi.source.field
    R, S = _rescaled(phi.source, s), _rescaled(phi.target, t)
    images = {i: {j: F.div(F.mul(c, s[i]), t[j]) for j, c in e.items()} for i, e in phi.images.items()}
    return DgaMorphism(R, S, images, name=phi.name)


# -- the idempotents --------------------------------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_idempotents_of_the_stock_algebras(F):
    one, minus = F.one, F.sign(1)
    split = [{1: one}, {0: one, 1: minus}]  # e (or u = e11, or f = e2) and its complement
    assert idempotents(product_kk(F)) == split
    assert idempotents(upper_triangular(F)) == split
    q2, _ = _path_pair(F)
    assert idempotents(q2.source) == split
    B, _, _ = _deep_resolve_algebra(F)
    E, k = exterior_algebra(F), ground_algebra(F)
    # Λ(x), k[x]/(xⁿ), k[x,y]/(x², y²), k and dga-epi's enveloping algebras
    algebras = (E, truncated_polynomial(2, F), truncated_polynomial(3, F), B, k)
    for A in algebras + (enveloping(E, E), enveloping(E, k)):
        assert idempotents(A) == [A.one()], A.name


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_seeded_presentations_find_the_same_idempotents(F, seed):
    # b_i ↦ s_i·b_i turns b·b = b into b'·b' = s_b·b': e = s_b⁻¹·b' is the same
    # element, so the idempotents read back in the stock basis are the stock ones
    for A in (product_kk(F), upper_triangular(F), _path_pair(F)[0].source):
        s = _scales(F, A, seed)
        B = _rescaled(A, s)
        back = [{i: F.mul(c, s[i]) for i, c in e.items()} for e in idempotents(B)]
        assert back == idempotents(A), A.name
    if not F.characteristic:
        # the seed-0 benchmark input: mul e e = -1*e, and e = −b is found
        B = _rescaled(product_kk(F), [F.one, F.sign(1)])
        assert B.mul[1, 1] == {1: F.sign(1)}
        assert idempotents(B) == [{1: F.sign(1)}, {0: F.one, 1: F.one}]


# -- builds that finish ---------------------------------------------------------------


def _direction_9_table(F, seed=None):
    """(name, module, projective generators, free generators at D = 4)."""
    prk, tri = product_to_ground(F), triangular_to_product(F)
    q2, q1 = _path_pair(F)
    rows = [
        ("k over k × k", prk, 1, 6),
        ("k × k over T₂(k)", tri, 3, 6),
        ("q2's k", q2, 2, 11),
        ("q1's k", q1, 3, 15),
    ]
    for name, phi, projective, free in rows:
        if seed is not None:
            phi = _rescaled_morphism(phi, seed)
        yield name, _ground(phi), projective, free


@pytest.mark.parametrize("seed", [None, 0, 7], ids=["stock", "seed0", "seed7"])
@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_builds_over_idempotents_finish(F, seed):
    for name, M, projective, free in _direction_9_table(F, seed):
        res = semifree_resolution(M, 4)
        assert len(res.generators) == projective, name
        assert verify_resolution(res) is True, name
        # complete: a far deeper request reads the same generators
        assert [g.degree for g in semifree_resolution(M, 40).generators] == [g.degree for g in res.generators]
        gens, window, _ = rebuild_resolution(M, 4, types=idempotents(M.algebra))
        assert [(g.degree, g.d_elem, g.eps, g.idempotent) for g in gens] == [
            (g.degree, g.d_elem, g.eps, g.idempotent) for g in res.generators
        ], name
        # the free builder grows a generator or more in every degree
        assert len(rebuild_resolution(M, 4)[0]) == free, name


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_summands_over_an_algebra_with_a_differential(F, monkeypatch):
    # P = (k × k) ⊗ A with dy = x: a summand P e carries d((1⊗y)·e) = (1⊗x)·e
    P = tensor_algebra(product_kk(F), dy_equals_x(F), name="(k×k)⊗A")
    types = idempotents(P)
    ((e, _),) = types[0].items()
    assert P.label(e) == "e⊗1⊗1" and types[0] == {e: F.one}
    regular = semifree_resolution(left_regular(P), 4)
    assert [g.idempotent for g in regular.generators] == types  # P = P e ⊕ P(1 − e)
    assert verify_resolution(regular) is True
    assert len(semifree_resolution(left_regular(P), 40).generators) == 2
    # k_e: e acts as 1; 1 − e, x and y act as 0
    acts = {(P.unit, 0): {0: F.one}, (e, 0): {0: F.one}}
    L = DgModule(P, "left", [("m", 0)], acts, {}, name="k_e")
    Rt = DgModule(P, "right", [("m", 0)], acts, {}, name="k_e")
    res = semifree_resolution(L, 4)
    assert res.free.projective and verify_resolution(res) is True
    gens, _, _ = rebuild_resolution(L, 4, types=types)
    assert [(g.degree, g.d_elem, g.eps, g.idempotent) for g in gens] == [
        (g.degree, g.d_elem, g.eps, g.idempotent) for g in res.generators
    ]
    tables = [tor_table(P, Rt, L, 4), ext_table(P, L, L, 4)]
    # k_e is k over e·P·e = A, and z ↦ x⊗y is a quasi-isomorphism Λ(z) → A
    # with |z| = 1: k in every even degree
    assert tables == [{0: 1, 1: 0, 2: 1, 3: 0, 4: 1}] * 2
    free = []

    def free_record(M, D, max_generators=10000):
        free.append(M.name)
        return rebuilt_record(M, D, max_generators)

    monkeypatch.setattr(dgkit.derived, "semifree_resolution", free_record)
    assert [tor_table(P, Rt, L, 4), ext_table(P, L, L, 4)] == tables
    assert free == ["k_e", "k_e"]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_path_algebra_pair(F, capsys, tmp_path):
    path = tmp_path / "path.dg"
    text = (FIXTURES / "path.dg").read_text()
    path.write_text(text.replace("field Q", f"field Fp {F.characteristic}") if F.characteristic else text)

    def run(*argv):
        code = main([*map(str, argv), "--format", "json"])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    opts = ("--window", "0..4", "--family-size", "3")
    yes = run("check-epi", path, "q2", *opts)
    assert yes["is_epi"] is True and yes["agreement"] is True
    no = run("check-epi", path, "q1", *opts)
    assert no["is_epi"] is False and no["agreement"] is True
    failing = {str(v["condition"]): v["degree"] for v in no["verdicts"] if v["status"] == "fails"}
    assert failing == {"1": 2, "translation": 2, "2": 2, "3": 2, "4": -2, "5": 2}
    for module, n in (("Kq2", 2), ("Kq1", 3)):
        report = run("resolve", path, module, "--window", "0..4")
        assert sum(report["generators"].values()) == n


# -- the free builder as the oracle ---------------------------------------------------


@pytest.fixture
def reads(monkeypatch):
    """Every iso report, Tor and Ext table the checks read, in order, and
    every resolution record with the depth it was asked for.  With
    ``reads["free"]`` set, each request is answered by the free oracle's
    record, one per request content and depth, kept in ``reads["kept"]``,
    but a bimodule's resolution, which is free in both runs."""
    log = {"free": False, "kept": {}, "reports": [], "tables": [], "records": []}

    def logged(fn, key):
        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            log[key].append(out)
            return out

        return wrapper

    def resolution(M, D, max_generators=10000, types=None):
        # a bimodule's resolution asks for free generators (types [1]) in
        # both runs, and gets the library's
        if log["free"] and types is None:
            key = _request_key(M, max_generators, [M.algebra.one()]), D
            if key not in log["kept"]:
                log["kept"][key] = rebuilt_record(M, D, max_generators)
            res = log["kept"][key]
        else:
            res = semifree_resolution(M, D, max_generators, types=types)
        log["records"].append((res, D))
        return res

    monkeypatch.setattr(dgkit.epicheck, "is_derived_iso", logged(dgkit.epicheck.is_derived_iso, "reports"))
    for name in ("tor_table", "ext_table"):
        monkeypatch.setattr(dgkit.epicheck, name, logged(getattr(dgkit.epicheck, name), "tables"))
    for mod in RESOLVING_MODULES:
        if hasattr(mod, "semifree_resolution"):
            monkeypatch.setattr(mod, "semifree_resolution", resolution)
    return log


def _run(reads, free: bool, make) -> list:
    """``make()`` with projective or free builds, on a fresh log."""
    reads["free"] = free
    for key in ("reports", "tables", "records"):
        reads[key].clear()
    return make()


def _summary(report) -> list:
    return [(v.condition, v.status, v.window, v.degree, v.dims, v.members) for v in report.verdicts]


def _report_data(rep) -> tuple:
    return rep.per_degree, rep.dims


def _assert_records_resolve(records):
    """ε of every record read is an A-linear quasi-isomorphism through the
    depth it was asked for; a record with idempotents passes every check of
    ``verify_resolution``."""
    seen = set()
    for res, depth in records:
        if id(res) not in seen:
            seen.add(id(res))
            assert res.validity.hi >= depth
            if res.free.projective:
                assert verify_resolution(res) is True, res.target.name
            else:
                eps = eps_map(res)
                assert eps.validate() is True and quasi_iso(eps, res.validity).ok, res.target.name


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_ring_verdicts_equal_the_free_builder(F, reads):
    D, size = 4, 3
    corpus = list(_corpus(F)) + list(_path_pair(F))
    runs = {}
    for free in (False, True):
        check = lambda phi: check_dga_epi(phi, D, generate_test_family(phi.target, 0, size))  # noqa: E731
        reports = _run(reads, free, lambda: [check(phi) for phi in corpus])
        runs[free] = (
            [(_summary(r), r.agreement, r.disagreement) for r in reports],
            [_report_data(rep) for rep in reads["reports"]],
            list(reads["tables"]),
        )
        if not free:
            _assert_records_resolve(reads["records"])
            assert [r.is_epi for r in reports] == [True, True, True, False, False, False, True, False]
    assert runs[False] == runs[True]
    assert runs[False][1] and runs[False][2]


def test_prk_and_tri_build_fewer_generators(monkeypatch, reads):
    # generators built per check at the benchmark's window 0..8 and family
    # size 6: the free oracle builds what the free builder built, 93 and 91
    builds = []
    init = dgkit.resolutions._ResolutionBuild.__init__

    def counted(self, *args):
        init(self, *args)
        builds.append(self)

    monkeypatch.setattr(dgkit.resolutions._ResolutionBuild, "__init__", counted)
    for phi, projective, free in ((product_to_ground(QQ), 14, 93), (triangular_to_product(QQ), 35, 91)):
        builds.clear()
        reads["kept"].clear()
        check = lambda: check_dga_epi(phi, 8, generate_test_family(phi.target, 0, 6))  # noqa: E731
        _run(reads, False, check)
        assert sum(len(b.free.gens) for b in builds) == projective
        _run(reads, True, check)
        deepest = {}
        for (key, D), res in reads["kept"].items():
            deepest[key] = max(deepest.get(key, 0), len(res.generators))
        assert sum(deepest.values()) == free


DIGEST_DEPTHS = {
    "unit_map": 2,
    "counit_map": 1,
    "duality_map": 2,
    "multiplication_map": 3,
    "_condition3_map": 1,
    "_condition5_map": 1,
    "_ring_condition2_map": 3,
    "_ring_condition4_map": 3,
}


@pytest.mark.parametrize("name", sorted(DIGEST_DEPTHS))
@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_digest_family_reports_equal_the_free_builder(F, name, reads):
    # the window each family's maps are built for; tensor_unit_iso resolves nothing
    w = Window(-DIGEST_DEPTHS[name], DIGEST_DEPTHS[name])
    reports = {}
    for free in (False, True):
        maps = _run(reads, free, lambda: BUILDERS[name](F))
        assert all(cm.validate() is True for cm in maps)
        reports[free] = [_report_data(quasi_iso(cm, w)) for cm in maps]
        if not free:
            _assert_records_resolve(reads["records"])
    assert reports[False] == reports[True]


def test_dga_verdicts_over_idempotents_equal_the_free_builder(reads):
    # DGA mode over S = (k × k) ⊗ Λ(x): the test family's resolutions over S
    # take both idempotents, the bimodule's stays free, and Q ⊗_S P is read
    # R-free on the pairs (1·u, e·v) in its basis
    E = exterior_algebra(QQ)
    S = tensor_algebra(product_kk(QQ), E, name="(k×k)⊗Λ(x)")
    inclusion = DgaMorphism(E, S, {0: {0: QQ.one}, 1: {1: QQ.one}}, name="1⊗-")
    for phi, D, is_epi in ((identity_morphism(S), 1, True), (inclusion, 2, False)):
        runs = {}
        for free in (False, True):
            report = _run(reads, free, lambda: check_dga_epi(phi, D, generate_test_family(S, 0, 2)))
            runs[free] = _summary(report), report.agreement, [_report_data(rep) for rep in reads["reports"]]
            if not free:
                _assert_records_resolve(reads["records"])
                assert any(res.free.projective for res, _ in reads["records"])
                assert report.is_epi is is_epi
        assert runs[False] == runs[True]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_tensor_view_over_idempotents_is_the_generic_structure(F):
    # Q ⊗_S P for P on generators of S e is R-free on the pairs (1·u, e·v) in
    # its basis: the view presents the generic module of the same numbering
    checked = 0
    S2 = tensor_algebra(product_kk(F), exterior_algebra(F), name="(k×k)⊗Λ(x)")
    tri = bimodule_from_morphism(triangular_to_product(F))
    for M in (regular_bimodule(product_kk(F)), tri, regular_bimodule(S2)):
        R, S = M.left_algebra, M.right_algebra
        bres = semifree_resolution_bimodule(M, 2)
        for _, N in generate_test_family(S, 0, 3).left:
            P = semifree_resolution(N, 2).free
            view = tensor_over(S, bres.free, P).structure()
            generic = tensor_over(S, bres.free.bimodule, P).structure()
            assert isinstance(view, FreeModule) and view.algebra is R
            assert (view.basis, view.act, view.diff) == (generic.basis, generic.act, generic.diff)
            _assert_presents(view, generic)
            checked += P.projective
    assert checked


def _projective_cases(F):
    """(A, resolved modules, left modules, right modules) over k × k, T₂(k)
    and the path algebra: A itself, on which the radical acts, and the
    quotients k (k × k over T₂(k)) through the morphisms, on each side.
    Over k × k also a module on the basis x = e, y = 1, where e·y = x is
    not a basis element's multiple, on each side, and a cone on A(1 − e)
    whose differential hits its first generator itself; over T₂(k) the
    regular module on a basis adapted to neither idempotent, and a source
    whose differential is a·g for a ≠ 1."""
    prk, tri = product_to_ground(F), triangular_to_product(F)
    q2, q1 = _path_pair(F)
    for phis in ((prk,), (tri,), (q2, q1)):
        A = phis[0].source
        lefts = [left_regular(A)] + [_ground(phi) for phi in phis]
        rights = [right_regular(A)] + [restrict_scalars(right_regular(phi.target), phi) for phi in phis]
        resolved = [semifree_resolution(M, 3).free for M in lefts]
        if phis == (prk,):
            one, c = F.one, {A.unit: F.one, 1: F.sign(1)}
            act = {(A.unit, 0): {0: one}, (A.unit, 1): {1: one}, (1, 0): {0: one}, (1, 1): {0: one}}
            lefts.append(DgModule(A, "left", [("x", 0), ("y", 0)], act, {}, name="e,1"))
            rights.append(DgModule(A, "right", [("x", 0), ("y", 0)], act, {}, name="e,1"))
            cone = FreeModule(A, [Generator("g", 0, idempotent=c)])
            cone.add(Generator("h", 1, {cone.index(0, A.unit): one}, idempotent=c))
            resolved.append(cone)
        if phis == (tri,):
            one, minus = F.one, F.sign(1)
            # T₂(k) on the basis −1, 1 + w, −1 − u + w, adapted to neither
            # idempotent, and a source whose differential is w·g, a ≠ 1
            table = {
                (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                (1, 0): {0: -2, 1: -1, 2: 1}, (1, 1): {0: 3, 1: 2, 2: -1}, (1, 2): {0: -3, 1: -1, 2: 2},
                (2, 0): {0: -1, 1: -1}, (2, 1): {0: 1, 1: 1}, (2, 2): {0: -1, 1: -1},
            }
            act = {k: {j: F.of(c) for j, c in e.items() if F.of(c)} for k, e in table.items()}
            lefts.append(DgModule(A, "left", [("y0", 0), ("y1", 0), ("y2", 0)], act, {}, name="T2(k)'"))
            source = FreeModule(A, [Generator("g", 0, idempotent={A.unit: one, 1: minus})])
            source.add(Generator("h", 1, {source.index(0, 2): one}, idempotent={1: one}))
            resolved.append(source)
        assert all(validate_module(M) == [] for M in lefts + rights + resolved)
        yield A, resolved, lefts, rights


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_free_paths_over_idempotents_are_the_generic_paths(F):
    # Hom_A(A e ⊗ V, N) ≅ Hom_k(V, eN) and M ⊗_A (A e ⊗ V) ≅ Me ⊗ V against
    # the constraint kernel and the relation quotient on the same module
    typed = 0
    for A, resolved, lefts, rights in _projective_cases(F):
        for P in resolved:
            typed += P.projective
            for N in lefts:
                free, generic = hom_over(A, P, N), hom_over(A, plain(P), N)
                _assert_change_of_basis(free, generic)
                for n in free.degrees():
                    d = free.complex.d(n)
                    for i, rep in enumerate(free.component(n)):
                        assert free.coords(rep, n) == {i: F.one}
                        assert d.columns[i] == free.coords(free.ground_differential(rep, n), n - 1)
            for Mr in rights:
                free, generic = tensor_over(A, Mr, P), tensor_over(A, Mr, plain(P))
                for n in range(-1, 6):
                    B, below = (_tensor_change_of_basis(free, generic, k) for k in (n, n - 1))
                    assert free.complex.dim(n) == generic.complex.dim(n) == rank(B)
                    assert generic.complex.d(n) * B == below * free.complex.d(n)
    assert typed
