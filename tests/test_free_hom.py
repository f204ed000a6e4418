"""The free Hom path against the generic one, on the same resolutions.

``hom_over(A, res.free, N)`` builds Hom_A(P, N) from the generators of P;
``hom_over(A, plain(res.free), N)`` builds it as the kernel of the A-linearity
constraints.  They must be the same complex up to a change of basis B (the
free basis in generic coordinates): equal dimensions, every free rep in the
generic span, D_generic·B = B·D_free, and equal coordinates of the vectors
the canonical maps send into or out of them.
"""

import pytest

from dgkit import derived
from dgkit.dga import bimodule_from_morphism, left_regular, restrict_scalars
from dgkit.derived import _condition5_map, _ring_condition4_map
from dgkit.epicheck import generate_test_family
from dgkit.field import GF, QQ
from dgkit.homtensor import hom_over
from dgkit.linalg import Matrix, rank
from dgkit.modops import FreeModule
from dgkit.resolutions import semifree_resolution
from dgkit.standard import (
    exterior_algebra,
    identity_morphism,
    product_to_ground,
    triangular_to_product,
    truncated_polynomial,
    truncated_to_ground,
)

from oracles import plain

FIELDS = [QQ, GF(2), GF(101)]
CAP = 10000


def _dg_cases(F):
    """(A, resolution, target): family members of Λ(x) and k[x]/(x²), each
    resolved through degree 4, against the first three members."""
    for A in (exterior_algebra(F), truncated_polynomial(2, F)):
        members = [N for _, N in generate_test_family(A, 0, 4).left]
        for src in members:
            res = semifree_resolution(src, 4)
            for N in members[:3]:
                yield A, res, N


def _ring_cases(F):
    """(R, resolution, target) over the ring corpus: S restricted to R and
    resolved over R, against the family of S restricted to R."""
    for phi in (
        truncated_to_ground(2, F),
        truncated_to_ground(3, F),
        product_to_ground(F),
        triangular_to_product(F),
    ):
        res = semifree_resolution(restrict_scalars(left_regular(phi.target), phi), 4)
        for _, N in generate_test_family(phi.target, 0, 3).left:
            yield phi.source, res, restrict_scalars(N, phi)


def _change_of_basis(free, generic, n) -> Matrix:
    """B_n: the degree-n free basis in generic coordinates.  generic.coords
    raises ValueError for a free rep outside the generic span."""
    cols = [generic.coords(rep, n) for rep in free.component(n)]
    return Matrix.from_columns(free.field, cols, len(generic.component(n)))


def _assert_change_of_basis(free, generic):
    lo = min(free.complex.degrees() + generic.complex.degrees(), default=0)
    hi = max(free.complex.degrees() + generic.complex.degrees(), default=0)
    B = {n: _change_of_basis(free, generic, n) for n in range(lo - 1, hi + 2)}
    for n in range(lo, hi + 1):
        assert free.complex.dim(n) == generic.complex.dim(n)
        assert rank(B[n]) == free.complex.dim(n)
        assert generic.complex.d(n) * B[n] == B[n - 1] * free.complex.d(n)
    return B


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_free_hom_is_generic_hom_up_to_basis(F):
    for A, res, N in list(_dg_cases(F)) + list(_ring_cases(F)):
        free = hom_over(A, res.free, N)
        generic = hom_over(A, plain(res.free), N)
        _assert_change_of_basis(free, generic)
        for n in free.degrees():
            d = free.complex.d(n)
            for i, rep in enumerate(free.component(n)):
                # a rep's coordinates are itself; the generator-level
                # differential is the ground differential read back
                assert free.coords(rep, n) == {i: F.one}
                assert d.columns[i] == free.coords(free.ground_differential(rep, n), n - 1)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_free_coords_refuse_a_perturbed_vector(F):
    perturbed_entries = 0
    for A, res, N in list(_dg_cases(F))[:6] + list(_ring_cases(F))[:6]:
        free = hom_over(A, res.free, N)
        for n in free.degrees():
            for rep in free.component(n):
                for (m, w), c in rep.items():
                    if m % A.total_dim == A.unit:
                        continue
                    perturbed = dict(rep)
                    perturbed[m, w] = F.add(c, F.one)
                    perturbed_entries += 1
                    with pytest.raises(ValueError):
                        free.coords(perturbed, n)
    # the corpus has reps with values off the generator rows to perturb
    assert perturbed_entries


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_generic_coords_refuse_perturbed_and_misplaced_vectors(F):
    # a generic rep is in lead form at its largest ground pair; a change at
    # any other pair leaves the span, and so does a change of degree
    perturbed_entries = 0
    for A, res, N in list(_dg_cases(F))[:6] + list(_ring_cases(F))[:6]:
        generic = hom_over(A, plain(res.free), N)
        for n in generic.degrees():
            for rep in generic.component(n):
                with pytest.raises(ValueError):
                    generic.coords(rep, n + 1)
                for pair, c in rep.items():
                    if pair == max(rep):
                        continue
                    perturbed = dict(rep)
                    perturbed[pair] = F.add(c, F.one)
                    perturbed_entries += 1
                    with pytest.raises(ValueError):
                        generic.coords(perturbed, n)
    assert perturbed_entries


def _spy_homs(monkeypatch, generic: bool) -> list:
    """Record the Hom complexes derived builds; with generic, every free
    source is handed to hom_over as a plain module on its tables instead."""
    built = []

    def spy(A, M, N, name=None, *, degrees=None):
        if generic and isinstance(M, FreeModule):
            M = plain(M)
        H = hom_over(A, M, N, name, degrees=degrees)
        built.append(H)
        return H

    monkeypatch.setattr(derived, "hom_over", spy)
    return built


def _both_paths(monkeypatch, build):
    """build() on the free path and on the generic path, with the Homs each built."""
    free_homs = _spy_homs(monkeypatch, generic=False)
    cm_free = build()
    generic_homs = _spy_homs(monkeypatch, generic=True)
    cm_generic = build()
    monkeypatch.undo()
    return cm_free, cm_generic, free_homs, generic_homs


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_ring_condition4_images_change_basis(monkeypatch, F):
    # N → Hom_R(Q_S, N): generic.coords(v) == B·free.coords(v) on every image
    for phi in (truncated_to_ground(3, F), triangular_to_product(F)):
        for _, N in generate_test_family(phi.target, 0, 3).left:
            cm_free, cm_generic, (free,), (generic,) = _both_paths(
                monkeypatch, lambda: _ring_condition4_map(phi, N, 3, CAP)
            )
            assert free._free is not None and generic._free is None
            B = _assert_change_of_basis(free, generic)
            for n in cm_free.source.degrees():
                assert cm_generic.f(n) == B[n] * cm_free.f(n)


@pytest.mark.parametrize("F", [QQ, GF(101)], ids=repr)
def test_condition5_map_changes_basis_on_its_source(monkeypatch, F):
    # RHom_S(N, N) → RHom_R(M⊗N, M⊗N): the free source basis is B in the
    # generic one, and the target over the R-free Qs ⊗_S Pn is C in its
    # generic one, so the map's matrices times B are C times the free ones
    for phi in (truncated_to_ground(2, F), identity_morphism(exterior_algebra(F))):
        M = bimodule_from_morphism(phi)
        for _, N in generate_test_family(phi.target, 0, 3).left:
            cm_free, cm_generic, homs, generic_homs = _both_paths(
                monkeypatch, lambda: _condition5_map(M, N, 1, CAP)
            )
            (free, tgt), (generic, generic_tgt) = homs, generic_homs
            B = _assert_change_of_basis(free, generic)
            C = _assert_change_of_basis(tgt, generic_tgt)
            for n in cm_free.source.degrees():
                assert cm_generic.f(n) * B[n] == C[n] * cm_free.f(n)
