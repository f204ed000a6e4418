"""Tor and Ext tables off range-built complexes, and free Hom reps built at
their first read.

``tor_table`` and ``ext_table`` build their tensor or Hom only on the
degrees their homology reads (``complexes.read_range`` of 0..D and −D..0);
every table must be the homology of the full ``derived_tensor`` or ``rhom``
on the same resolution depth.  A free-path Hom builds its reps, the A-linear
extensions of the generator values, only when one is first read, all of
them at once; the tables read none, and a Hom read through ``component``,
``coords``, ``reps`` or ``structure()`` must be the eager build.
"""

import pytest

from dgkit.complexes import Window, homology_dims
from dgkit.dga import DgAlgebra, DgModule, regular_bimodule, restrict_scalars
from dgkit.derived import derived_tensor, ext_table, rhom, tor_table
from dgkit.epicheck import generate_test_family
from dgkit.field import GF, QQ
from dgkit.homtensor import HomComplex, hom_over
from dgkit.resolutions import semifree_resolution_bimodule
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    identity_morphism,
    product_to_ground,
    triangular_to_product,
    truncated_polynomial,
    truncated_to_ground,
)

from test_free_hom import _dg_cases, _ring_cases

D_RING = 4


def _corpus(F):
    """The six morphisms of the ring-consistency benchmark."""
    return (
        identity_morphism(ground_algebra(F)),
        identity_morphism(truncated_polynomial(2, F)),
        product_to_ground(F),
        truncated_to_ground(2, F),
        truncated_to_ground(3, F),
        triangular_to_product(F),
    )


def _full_tor(A, M, N, D):
    return homology_dims(derived_tensor(A, M, N, D).value, Window(0, D))


def _full_ext(A, M, N, D):
    dims = homology_dims(rhom(A, M, N, D).value, Window(-D, 0))
    return {i: dims[-i] for i in range(D + 1)}


def _ring_tables(F):
    """(table function, algebra, M, N) for every Tor and Ext pair that ring
    mode compares on the corpus, over S and over R."""
    for phi in _corpus(F):
        R, S = phi.source, phi.target
        family = generate_test_family(S, 0, 3)
        for _, (Mr, Nl) in family.pairs():
            yield tor_table, S, Mr, Nl
            yield tor_table, R, restrict_scalars(Mr, phi), restrict_scalars(Nl, phi)
        for _, (N,) in family.diagonal():
            NR = restrict_scalars(N, phi)
            yield ext_table, S, N, N
            yield ext_table, R, NR, NR


def _deep_resolve_algebra(F):
    """k over B = k[x,y]/(x², y²), left and right: Tor_i = Ext^i = i + 1."""
    one = F.one
    mul = {(0, i): {i: one} for i in range(4)}
    mul.update({(i, 0): {i: one} for i in range(1, 4)})
    mul.update({(1, 2): {3: one}, (2, 1): {3: one}})
    B = DgAlgebra(F, [("1", 0), ("x", 0), ("y", 0), ("xy", 0)], 0, mul, {}, name="B")
    K = DgModule(B, "left", [("m", 0)], {(0, 0): {0: one}}, {})
    Kr = DgModule(B, "right", [("m", 0)], {(0, 0): {0: one}}, {})
    return B, K, Kr


@pytest.fixture
def extensions(monkeypatch):
    """A counter of HomComplex._extension calls: one per free rep built."""
    calls = [0]
    extension = HomComplex._extension

    def counted(self, *args):
        calls[0] += 1
        return extension(self, *args)

    monkeypatch.setattr(HomComplex, "_extension", counted)
    return calls


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_ring_tables_are_the_full_homology(F, extensions):
    kinds = set()
    for table, A, M, N in _ring_tables(F):
        full = (_full_tor if table is tor_table else _full_ext)(A, M, N, D_RING)
        before = extensions[0]
        assert table(A, M, N, D_RING) == full
        if table is ext_table:
            assert extensions[0] == before
        kinds.add(table)
    assert kinds == {tor_table, ext_table}


def test_deep_resolve_tables_are_the_full_homology(extensions):
    B, K, Kr = _deep_resolve_algebra(GF(101))
    expected = {i: i + 1 for i in range(11)}
    assert tor_table(B, Kr, K, 10) == _full_tor(B, Kr, K, 10) == expected
    assert ext_table(B, K, K, 10) == expected
    assert extensions[0] == 0
    assert _full_ext(B, K, K, 10) == expected


def test_the_extension_counter_sees_a_read_rep(extensions):
    B, K, _ = _deep_resolve_algebra(GF(101))
    H = hom_over(B, semifree_resolution_bimodule(regular_bimodule(B), 1).free, K)
    assert extensions[0] == 0
    H.component(0)
    assert extensions[0] == len(H.reps) > 0


def _cases(F):
    """Free-path Homs: resolutions of modules against modules, and a
    bimodule resolution's R-free view against the regular bimodule, whose
    structure() keeps both outer actions."""
    yield from ((A, res.free, N) for A, res, N in list(_dg_cases(F))[:8] + list(_ring_cases(F))[:8])
    for A in (exterior_algebra(F), truncated_polynomial(2, F)):
        B = regular_bimodule(A)
        yield A, semifree_resolution_bimodule(B, 3).free, B


def _tables(X) -> tuple:
    """The tables of a module or bimodule, or the matrices of a complex."""
    if hasattr(X, "act_left"):
        return X.basis, X.act_left, X.act_right, X.diff
    if hasattr(X, "act"):
        return X.basis, X.act, X.diff
    return tuple(sorted((n, X.dim(n), X.d(n).columns) for n in X.degrees()))


@pytest.mark.parametrize("F", [QQ, GF(2), GF(101)], ids=repr)
def test_reps_at_first_read_are_the_eager_build(F, monkeypatch):
    generator_pairs = HomComplex._generator_pairs

    def eager(self):
        generator_pairs(self)
        self.component(0)  # every rep and lead, before the differential

    for A, P, N in _cases(F):
        lazy = {how: hom_over(A, P, N) for how in ("component", "coords", "reps", "structure")}
        with monkeypatch.context() as m:
            m.setattr(HomComplex, "_generator_pairs", eager)
            E = hom_over(A, P, N)
        assert all(H._components is None for H in lazy.values())
        # the first read, each by its own route
        lazy["component"].component(E.degrees()[0] if E.degrees() else 0)
        for n in E.degrees():
            for i, rep in enumerate(E.component(n)):
                assert lazy["coords"].coords(rep, n) == {i: F.one}
                break
        lazy["reps"].reps
        lazy["structure"].structure()
        for H in lazy.values():
            assert H.reps == E.reps and H.basis == E.basis
            assert H.complex == E.complex
            for n in E.degrees():
                for i, rep in enumerate(E.component(n)):
                    assert H.coords(rep, n) == E.coords(rep, n) == {i: F.one}
            assert _tables(H.structure()) == _tables(E.structure())
