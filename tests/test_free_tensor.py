"""The free tensor path against the generic one, on the same resolutions.

``tensor_over(A, M, res.free)`` builds M ⊗_A P on the pairs (m, 1·g) of M's
basis and P's free generators, and on the pairs (m, e·g) for m off the
pivots of M(1 − e) for a generator of A e; ``tensor_over(A, M,
plain(res.free))`` builds it as the quotient of the ground tensor product
by the relations.  They must be the
same complex up to a change of basis B (the free basis in generic
coordinates): equal dimensions, B invertible, D_generic·B = B·D_free, the
outer left action carried by B, and generic coordinates equal to B times the
free ones on every ground vector.
"""

import random

import pytest

from dgkit.dga import DgBimodule, regular_bimodule, right_regular
from dgkit.epicheck import generate_test_family
from dgkit.field import GF, QQ
from dgkit.homtensor import tensor_over
from dgkit.linalg import Matrix, rank
from dgkit.modops import FreeModule
from dgkit.resolutions import semifree_resolution, semifree_resolution_bimodule
from dgkit.standard import exterior_algebra, product_kk, truncated_polynomial, upper_triangular

from oracles import action_matrix, plain

FIELDS = [QQ, GF(2), GF(101)]
DEPTH = 4


def _resolutions(A, size):
    """The free modules of the resolutions of the left members of A's test
    family through DEPTH."""
    return [semifree_resolution(N, DEPTH).free for _, N in generate_test_family(A, 0, size).left]


def _cases(F):
    """(A, left factor, a FreeModule right factor) over Λ(x), k[x]/(x²),
    k×k and T₂(k)."""
    for A in (exterior_algebra(F), truncated_polynomial(2, F)):
        family = generate_test_family(A, 0, 3)
        lefts = [M for _, M in family.right]
        lefts.append(semifree_resolution_bimodule(regular_bimodule(A), 3).free.bimodule)
        for M in lefts:
            for P in _resolutions(A, 3):
                yield A, M, P
    for A in (product_kk(F), upper_triangular(F)):
        # resolutions on generators of A e and A(1 − e), and the family's
        # members free on generators of A, where the generic path keeps
        # (m, u·g) for the idempotent u ≠ 1
        free = [N for _, N in generate_test_family(A, 0, 4).left if isinstance(N, FreeModule)]
        for P in _resolutions(A, 3) + free:
            yield A, right_regular(A), P


def _change_of_basis(free, generic, n) -> Matrix:
    """B_n: the degree-n free basis in generic coordinates."""
    cols = [generic.coords({rep: free.field.one}, n) for rep in free.component(n)]
    return Matrix.from_columns(free.field, cols, len(generic.component(n)))


def _random_ground(rng, T, n) -> dict:
    """A random ground vector of degree n: every ground pair of that degree,
    units of A included or not, with a random coefficient."""
    F, M, N = T.field, T.M, T.N
    pairs = [(m, x) for m in range(M.total_dim) for x in range(N.total_dim) if M.deg(m) + N.deg(x) == n]
    return {pair: F.of(rng.randrange(-3, 4)) for pair in pairs}


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_free_tensor_is_generic_tensor_up_to_basis(F):
    rng = random.Random(0)
    moved = actions = 0
    for A, M, P in _cases(F):
        free = tensor_over(A, M, P)
        generic = tensor_over(A, M, plain(P))
        degrees = sorted(set(free.complex.degrees()) | set(generic.complex.degrees()))
        lo, hi = min(degrees, default=0), max(degrees, default=0)
        B = {n: _change_of_basis(free, generic, n) for n in range(lo - 1, hi + 2)}
        for n in range(lo, hi + 1):
            assert free.complex.dim(n) == generic.complex.dim(n)
            assert rank(B[n]) == free.complex.dim(n)
            assert generic.complex.d(n) * B[n] == B[n - 1] * free.complex.d(n)
            for _ in range(3):
                v = _random_ground(rng, free, n)
                x, y = free.coords(v, n), generic.coords(v, n)
                assert y == B[n].image(x)
        moved += free.reps != generic.reps
        if free.outer_left is not None:
            # the outer left action, on each structure's numbering of the basis
            Sf, Sg, L = free.structure(), generic.structure(), free.outer_left
            for a in range(L.total_dim):
                p = L.deg(a)
                for n in range(lo, hi + 1):
                    if n + p <= hi:
                        actions += 1
                        assert action_matrix(Sg, a, n) * B[n] == B[n + p] * action_matrix(Sf, a, n)
    # the corpus has left factors with an outer action, and bases that differ
    assert actions and moved


def _dim_times(M, e) -> int:
    """dim M·e: the rank of m ↦ m·e on M's basis."""
    F = M.field
    times = M.act_right_elem if isinstance(M, DgBimodule) else M.act_elem
    cols = [times(e, {m: F.one}) for m in range(M.total_dim)]
    return rank(Matrix.from_columns(F, cols, M.total_dim))


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_free_tensor_basis_is_unit_pairs_in_order(F):
    typed = 0
    for A, M, P in _cases(F):
        free = tensor_over(A, M, P)
        heads = {P.index(g, A.unit) for g in range(len(P.gens))}
        for n in free.degrees():
            pairs = free.component(n)
            assert pairs == sorted(pairs)
            assert all(x in heads and M.deg(m) + free.N.deg(x) == n for m, x in pairs)
            # a rep's coordinates are itself
            for i, pair in enumerate(pairs):
                assert free.coords({pair: F.one}, n) == {i: F.one}
        # one pair per generator g of A e and basis element of M·e (of M, for e = 1)
        es = [P.gens[g].idempotent or A.one() for g in range(len(P.gens))]
        assert len(free.reps) == sum(_dim_times(M, e) for e in es)
        typed += P.projective
    assert typed
