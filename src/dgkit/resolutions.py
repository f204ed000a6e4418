"""Semifree resolutions and finitely-built witnesses.

A semifree resolution of a bounded-below module M over a nonnegatively
graded DGA is a module F on generators filtered by stages, each generator's
differential landing in the span of earlier generators, with an A-linear
quasi-isomorphism ε: F → M on the stated validity window.  Each generator g
spans A e for one of the algebra's orthogonal idempotents e
(``modops.idempotents``): degree-0 cycles with d e = 0 that sum to 1.  An
algebra with none but 1 gets free generators A ⊗ V, and F is semifree; with
some, F is a sum of the projectives A e ⊗ V.

The builder kills the lowest-degree homology of cone(ε) bottom-up; since
new generators only change the cone in strictly higher degrees, each degree
is handled exactly once and the window is honest by construction.  It is the
only builder: a module that is already free goes through it too, so every
finished resolution is exact on (bottom − 1)..D and every request obeys the
generator cap.

Within degree n it needs one cycle basis and one boundary echelon.  Because
cone(ε)_n = M_n ⊕ F_{n-1} and A is nonnegatively graded, generators of
degree n change F only in degrees ≥ n: d_n of the cone, and with it the
canonical kernel basis Z_n, stay fixed for the whole degree.  A generator g
killing the cycle v adds the boundaries d(a·g) = a·d(g) for the degree-0
basis elements a·g of A e·g, which span exactly A_0·v.  So Z_n is walked once
in kernel-basis order against one growing echelon of boundaries, each cycle
z split into its parts e·z, which sum to z since the e sum to 1, and a part
e·z gets a generator of A e iff it is not yet a boundary: z is a boundary
exactly when every part is.  The builder grows one ``FreeModule``, which is
the resolving module itself (``res.free``, a ``DgModule``): adding a
generator g computes d(a·g) and ε(a·g) = a·ε(g) once for each of its basis
elements, and the cone's columns read those tables.  The resolution keeps ε as the builder's table: ``eps[x]`` is ε(x),
an element of M, for each basis element x.  Each column is built once: the
boundary columns of degree n, d_{n+1} with the new A_0·g columns appended
(they come last in its column order, and its rows M_n ⊕ F_{n-1},
positioned once per degree, do not move), are the d_{n+1} whose cycles
degree n + 1 walks.

A build (``_ResolutionBuild``) keeps ``free``, ``eps``, the last cone
differential and the next degree between requests, so it grows as requests
deepen.  Generators are added in degree order, so the resolution exact
through D is the prefix on the generators of degree ≤ D + 1, which a build
that stops at D makes identically; a shallower request reads that prefix
(``FreeModule.prefix``).  Once the next degree n lies above M and n − 1 above
F, cone(ε) is zero from n on and the build is complete: it serves any depth
with no further elimination.  A record handed out never changes: growth
after a record holds the build's ``free`` goes on in a copy.

A build completes exactly when it reaches a finite resolution by the
summands A e.  Over a finite-dimensional algebra A in degree 0, a bounded
complex of finitely generated free modules has a class in K₀ that is a
multiple of [A], and a resolution of M has M's class: its dimension vector,
the multiplicities of the simple modules.  k over k × k has (1, 0), but
[k × k] = (1, 1); k × k over T₂(k) has [S₁] + [S₂] = (1, 1), but
[T₂(k)] = 2[S₁] + [S₂] = (2, 1).  So neither has a finite free resolution,
and free generators alone add generators in every degree.  Generators of
A e complete both: k over k × k is A(1 − e) itself, one generator, and
k × k over T₂(k) is P₁ ⊕ P₂ ← P₁, three.  A module of infinite projective
dimension, such as k over k[x]/(x²), still adds generators in every degree.
A bimodule is resolved on free generators over its enveloping algebra, since
its reading as a free left R-module (``modops.left_free``) takes the free
layout.

``scoped(key, make)`` is the one memo of a check: inside a
``resolution_scope`` (each epimorphism check opens one) it returns what
``make()`` returned the first time for ``key``; outside one it calls
``make()`` afresh, and nothing is kept.  ``semifree_resolution`` keeps there
one build per module and algebra content, generator cap and idempotents,
but not depth, and one record per build and depth.  The checks restrict,
regularize and envelop afresh for every condition and member, so the key is
the content, not the object.  A build that hits the cap raises again for
every request that reaches the capped degree, and serves shallower ones.

``semifree_resolution_bimodule`` resolves a bimodule M over the enveloping
algebra and reads that resolution as a ``SemifreeResolution`` of M over the
left algebra R: its ``free`` is the bimodule Q as a free left R-module, with
Q itself as ``free.bimodule``, and its ``eps`` and ``validity`` are the
enveloping resolution's, on Q's own numbering.
"""

from __future__ import annotations

import bisect
import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .linalg import Echelon, Matrix, kernel_basis
from .complexes import ChainMap, Violation, Window, check_homotopy
from .dga import (
    DgAlgebra,
    DgBimodule,
    DgModule,
    bimodule_to_env_module,
    env_module_to_bimodule,
    left_op_to_right,
    left_regular,
    right_to_left_op,
    vec_scale,
)
from .modops import (
    DgModuleMap,
    FreeModule,
    Generator,
    idempotents,
    left_free,
    module_cone,
    module_direct_sum,
    module_shift,
)


class ResourceBoundExceeded(RuntimeError):
    """Generator cap hit; carries the partial resolution built so far, the
    verdicts finished before it when raised inside an epimorphism check, and
    the instances finished before it when raised inside a consistency run."""

    def __init__(self, partial, message: str):
        super().__init__(message)
        self.partial = partial
        self.verdicts: list = []
        self.instances: list = []

    def __reduce__(self):  # pickled from a worker: __init__ does not take its args
        return type(self), (self.partial, str(self)), vars(self)


@dataclass(eq=False)  # compared and hashed by identity, so a scope can key on a record
class SemifreeResolution:
    algebra: DgAlgebra
    target: DgModule
    free: FreeModule
    eps: list[dict]  # ε(x), an element of the target, for each basis element x
    validity: Window

    @property
    def generators(self) -> list[Generator]:
        return self.free.gens


def _positions(M: DgModule, free: FreeModule, n: int) -> tuple[dict, dict]:
    """Positions in cone(ε)_n = M_n ⊕ F_{n-1}: the M part first, each part in index order."""
    m_pos = {m: p for p, m in enumerate(M.component(n))}
    off = len(m_pos)
    f_pos = {x: off + p for p, x in enumerate(free.component(n - 1))}
    return m_pos, f_pos


def _free_column(free: FreeModule, eps: list, x: int, rows) -> dict:
    """Cone column of the free basis element x = a·g: ε(a·g) ⊕ −d(a·g)."""
    F = free.algebra.field
    m_pos, f_pos = rows
    col = {m_pos[t]: c for t, c in eps[x].items()}
    col.update(vec_scale(F, F.sign(1), {f_pos[y]: c for y, c in free.diff.get(x, {}).items()}))
    return col


def _cone_differential(M: DgModule, free: FreeModule, eps: list, n: int, rows) -> Matrix:
    """d_n of cone(ε: F → M), built column by column; ``rows`` are the
    positions in cone(ε)_{n-1}."""
    m_pos = rows[0]
    cols = [{m_pos[t]: c for t, c in M.diff.get(m, {}).items()} for m in M.component(n)]
    cols += [_free_column(free, eps, x, rows) for x in free.component(n - 1)]
    return Matrix.from_columns(M.field, cols, len(m_pos) + len(rows[1]))


def required_depth(D: int, *reaches: int) -> int:
    """Depth E through which to resolve for a verdict on the window -D..D.

    A resolution exact through E has ε a quasi-isomorphism through E, so its
    truncation junk (the homology of cone(ε)) lives in degrees ≥ E + 1.
    Tensoring with X moves that junk down by at most -bottom(X); a resolved
    Hom source puts it at Hom degree ≤ top(target) - E - 1.  With
    E = D + 1 + reach, where reach is -bottom(X) or top(target) and counts
    only when positive, the junk stays above D + 1 or below -D - 1: out of
    the window and out of the boundary degree next to it, which the
    homology at the window's edge reads.

    A composite map adds the reaches of its factors.  The dual truncated
    below -D - 1 (`derived.truncated_dual`) has reach D + 1.  A second
    resolution staggered against a first one takes the first one's depth as
    its reach, so that their junk cannot pair into the window.
    """
    return D + 1 + sum(max(0, r) for r in reaches)


# what the open scope keeps, by key (see ``scoped``); None outside a scope
_BUILT: ContextVar[dict | None] = ContextVar("dgkit_resolutions_built", default=None)


@contextmanager
def resolution_scope():
    """Keep what ``scoped`` makes until the outermost scope closes."""
    if _BUILT.get() is not None:
        yield
        return
    token = _BUILT.set({})
    try:
        yield
    finally:
        _BUILT.reset(token)


def scoped(key, make):
    """What ``make()`` returned the first time for ``key`` inside the open
    scope; outside a scope, ``make()`` afresh.  The one memo of a check."""
    kept = _BUILT.get()
    if kept is None:
        return make()
    if key not in kept:
        kept[key] = make()
    return kept[key]


def _table_key(table: dict) -> frozenset:
    return frozenset((k, frozenset(e.items())) for k, e in table.items())


def _request_key(M: DgModule, max_generators: int, types: list | None = None) -> tuple:
    """Everything the builder reads of a request but its depth, as a hashable
    value; ``types`` count only when they are not the algebra's idempotents,
    which its content fixes."""
    A = M.algebra
    p = A.field.characteristic
    algebra = (p, tuple(A.basis), A.unit, _table_key(A.mul), _table_key(A.diff))
    module = (M.side, tuple(M.basis), _table_key(M.act), _table_key(M.diff))
    if types is None or types == idempotents(A):
        return module, algebra, max_generators, None
    return module, algebra, max_generators, tuple(tuple(sorted(e.items())) for e in types)


def semifree_resolution(
    M: DgModule, D: int, max_generators: int = 10000, *, types: list | None = None
) -> SemifreeResolution:
    """Semifree resolution of a bounded-below left module, exact through D.

    Its generators span the A e for the idempotents e of ``types``, by
    default ``modops.idempotents(A)``; a bimodule's resolution passes [1].
    Inside a ``resolution_scope`` every request for an equal module, cap and
    types reads one build, grown to the deepest request so far, and an equal
    request gets the same object back.
    """
    key = _request_key(M, max_generators, types)
    build = scoped(key, lambda: _ResolutionBuild(M, max_generators, types))
    return scoped((key, D), lambda: build._upto(D))


class _ResolutionBuild:
    """The resolution of one module, grown degree by degree as requests deepen.

    ``free`` and ``eps`` hold every generator made so far, and ``d_n`` is the
    differential of cone(ε) whose cycles degree ``n``, the next one, walks.
    ``types`` are the orthogonal idempotents, summing to 1, that the
    generators span A e for: the algebra's unless others are given.
    """

    def __init__(self, M: DgModule, max_generators: int, types: list | None):
        A = M.algebra
        if M.side != "left":
            raise ValueError("resolve left modules; convert right modules first")
        if A.min_degree() < 0:
            raise ValueError("algebra must be nonnegatively graded")
        self.M, self.cap, self.bottom = M, max_generators, M.min_degree()
        self.types = idempotents(A) if types is None else types
        self.free = FreeModule(A)
        self.eps: list[dict] = []  # ε(x) over M's indices, for each free basis element x
        self.n = self.bottom
        self.d_n = _cone_differential(M, self.free, self.eps, self.n, _positions(M, self.free, self.n - 1))
        self.capped: tuple | None = None  # (degree, partial, message) once the cap is hit
        self.shared = False  # a handed-out record holds free and eps

    def _upto(self, D: int) -> SemifreeResolution:
        """A new record exact through D, grown to degree D + 1 first if need be."""
        if self.capped and D + 1 >= self.capped[0]:
            raise ResourceBoundExceeded(*self.capped[1:])
        while self.n <= D + 1 and not self._complete():
            self._eliminate()
        k = bisect.bisect_right(self.free.gens, D + 1, key=lambda g: g.degree)
        if k == len(self.free.gens):
            free, eps, self.shared = self.free, self.eps, True
        else:
            free = self.free.prefix(k)
            eps = self.eps[: free.total_dim]
        return SemifreeResolution(self.M.algebra, self.M, free, eps, Window(self.bottom - 1, D))

    def _complete(self) -> bool:
        """Whether cone(ε) = M ⊕ ΣF is zero from degree n on: no generator
        can appear there, so every depth reads the generators made so far."""
        return self.n > self.M.max_degree() and self.n - 1 > self.free.max_degree()

    def _times(self, e: dict, z: dict, rows, m_of: list, x_of: list) -> dict:
        """e·z for a vector z of cone(ε)_n = M_n ⊕ F_{n-1} on the positions
        ``rows``, whose parts are indexed by ``m_of`` and ``x_of``."""
        m_pos, f_pos = rows
        dimM = len(m_pos)
        m = self.M.act_elem(e, {m_of[p]: c for p, c in z.items() if p < dimM})
        x = self.free.act_elem(e, {x_of[p - dimM]: c for p, c in z.items() if p >= dimM})
        return {**{m_pos[k]: c for k, c in m.items()}, **{f_pos[k]: c for k, c in x.items()}}

    def _eliminate(self):
        """Kill the homology of cone(ε) in degree n, then step to n + 1."""
        M, n = self.M, self.n
        A, F = M.algebra, M.field
        if self.shared:  # a record holds free and eps: grow copies
            self.free, self.eps = self.free.prefix(len(self.free.gens)), list(self.eps)
            self.shared = False
        free, eps = self.free, self.eps
        rows = _positions(M, free, n)
        dimM = len(rows[0])
        m_of = M.component(n)
        x_of = free.component(n - 1)
        # d_{n+1} of the generators so far; the new generators' A_0·g
        # columns are appended, which makes it d_{n+1} for degree n + 1
        d_next = _cone_differential(M, free, eps, n + 1, rows)
        cols = list(d_next.columns)
        boundaries = Echelon(F)
        for col in cols:
            boundaries.add(col)
        # the cycles not yet bounded, in kernel-basis order, each split into
        # its parts e·z over the idempotents, which sum to 1
        for z in kernel_basis(self.d_n):
            for e in self.types:
                ez = z if len(self.types) == 1 else self._times(e, z, rows, m_of, x_of)
                if not boundaries.add(ez):
                    continue
                m_part = {m_of[p]: c for p, c in ez.items() if p < dimM}
                x_part = {x_of[p - dimM]: c for p, c in ez.items() if p >= dimM}
                # one generator per class: dependent classes then die for free,
                # keeping the resolution close to minimal
                g = len(free.gens)
                gen = Generator(f"g{n}.{g}", n, x_part, vec_scale(F, F.sign(1), m_part), e)
                free.add(gen)
                eps += [M.act_elem({a: F.one}, gen.eps) for a in free.row(g)]
                if len(free.gens) > self.cap:
                    partial = SemifreeResolution(A, M, free, eps, Window(self.bottom - 1, n - 1))
                    self.capped = n, partial, f"generator cap {self.cap} exceeded at degree {n}"
                    raise ResourceBoundExceeded(partial, self.capped[2])
                # d(a·g) = a·d(g) for |a| = 0: the boundaries grow by A_0·e·z
                row = free.row(g)
                for a in A.component(0):
                    if a in row:
                        cols.append(_free_column(free, eps, row[a], rows))
                        boundaries.add(cols[-1])
        self.d_n = Matrix.from_columns(F, cols, d_next.rows)
        self.n = n + 1


def resolve_right_module(M: DgModule, D: int, max_generators: int = 10000):
    """Resolution of a right A-module via the left A^op picture.

    Returns (resolution over A^op, free module as a right A-module).
    """
    res = semifree_resolution(right_to_left_op(M), D, max_generators)
    return res, left_op_to_right(res.free, M.algebra)


def semifree_resolution_bimodule(
    M: DgBimodule, D: int, max_generators: int = 10000
) -> SemifreeResolution:
    """An R-S-bimodule's resolution over enveloping(R, S), read over R.

    ``free`` is the resolution Q as a left R-module, free on the (1⊗s)·g,
    and ``free.bimodule`` is Q.  A scope keeps M's enveloping module and
    each enveloping record's reading, so a request that gets a resolution
    back from the scope gets its reading back too.
    """
    env = scoped(("env", M), lambda: bimodule_to_env_module(M))
    # free generators only: the R-free reading ``left_free`` takes a free layout
    res = semifree_resolution(env, D, max_generators, types=[env.algebra.one()])

    def read():
        Q = env_module_to_bimodule(res.free, M.left_algebra, M.right_algebra)
        return SemifreeResolution(M.left_algebra, M, left_free(Q, res.free), res.eps, res.validity)

    return scoped(res, read)


# -- finitely-built witnesses -------------------------------------------------


@dataclass
class Leaf:
    shift: int = 0


@dataclass
class SumNode:
    children: list


@dataclass
class ShiftNode:
    t: int
    child: object


@dataclass
class ConeNode:
    source: object
    target: object
    mats: dict  # degree -> Matrix of the connecting A-linear chain map


@dataclass
class BuildTreeWitness:
    tree: object
    # optional retract data exhibiting M as a homotopy summand of the tree
    incl: dict | None = None  # degree -> Matrix, M -> X
    proj: dict | None = None  # degree -> Matrix, X -> M
    homotopy: dict | None = None  # degree -> Matrix on M, degree +1


def _module_data(M: DgModule):
    return (tuple(d for _, d in M.basis), M.act, M.diff)


def evaluate_build_tree(A: DgAlgebra, node) -> DgModule:
    if isinstance(node, Leaf):
        return module_shift(left_regular(A), node.shift)
    if isinstance(node, SumNode):
        return module_direct_sum([evaluate_build_tree(A, c) for c in node.children])
    if isinstance(node, ShiftNode):
        return module_shift(evaluate_build_tree(A, node.child), node.t)
    if isinstance(node, ConeNode):
        src = evaluate_build_tree(A, node.source)
        tgt = evaluate_build_tree(A, node.target)
        f = DgModuleMap(src, tgt, node.mats)
        ok = f.validate()
        if ok is not True:
            raise ValueError(f"cone node map invalid: {ok.reason} in degree {ok.degree}")
        return module_cone(f)
    raise ValueError(f"unknown build-tree node {node!r}")


def verify_build_tree(w: BuildTreeWitness, M: DgModule):
    """Accept iff the tree evaluates to a module exhibiting M as stated."""
    A = M.algebra
    try:
        X = evaluate_build_tree(A, w.tree)
    except ValueError as e:
        return Violation(0, str(e))
    if w.incl is None and w.proj is None:
        data = _module_data(M)
        if data == _module_data(X):
            return True
        # a finite sum is order-insensitive: retry child permutations
        if isinstance(w.tree, SumNode) and len(w.tree.children) <= 6:
            perms = itertools.permutations(w.tree.children)
            if any(data == _module_data(evaluate_build_tree(A, SumNode(list(q)))) for q in perms):
                return True
        return Violation(0, "tree value does not match the module and no retract given")
    if w.incl is None or w.proj is None:
        return Violation(0, "retract needs both inclusion and projection")
    try:
        i = DgModuleMap(M, X, w.incl)
        p = DgModuleMap(X, M, w.proj)
    except ValueError as e:
        return Violation(0, f"retract map shapes: {e}")
    for name, f in (("inclusion", i), ("projection", p)):
        ok = f.validate()
        if ok is not True:
            return Violation(ok.degree, f"retract {name}: {ok.reason}")
    ok = check_homotopy(p.compose(i), ChainMap.identity(i.source), w.homotopy or {})
    if ok is not True and ok.reason.startswith("h_"):  # a mis-shaped h_n
        return Violation(ok.degree, f"retract map shapes: {ok.reason}")
    if ok is not True:
        return Violation(ok.degree, "p∘i − id is not ∂h + h∂")
    return True


def require_witness(w: BuildTreeWitness, M: DgModule) -> None:
    """The witness gate: raise ValueError unless verify_build_tree accepts w for M."""
    ok = verify_build_tree(w, M)
    if ok is not True:
        raise ValueError(f"witness rejected: {ok.reason} (degree {ok.degree})")
