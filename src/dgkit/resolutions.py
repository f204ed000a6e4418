"""Semifree resolutions and finitely-built witnesses.

A semifree resolution of a bounded-below module M over a nonnegatively
graded DGA is a free module F on generators filtered by stages, each
generator's differential landing in the span of earlier generators, with an
A-linear quasi-isomorphism ε: F → M on the stated validity window.

The builder kills the lowest-degree homology of cone(ε) bottom-up; since
new generators only change the cone in strictly higher degrees, each degree
is handled exactly once and the window is honest by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Echelon, kernel_basis, rank, solve
from .complexes import (
    ChainMap,
    Homotopy,
    Violation,
    Window,
    check_homotopy,
    cone,
    quasi_iso,
)
from .dga import (
    DgAlgebra,
    DgBimodule,
    DgModule,
    bimodule_to_env_module,
    enveloping,
    env_module_to_bimodule,
    left_op_to_right,
    right_to_left_op,
    vec_scale,
)
from .modops import DgModuleMap, FreeModule, Generator, module_shift


class ResourceBoundExceeded(RuntimeError):
    """Generator cap hit; carries the partial resolution built so far."""

    def __init__(self, partial, message: str):
        super().__init__(message)
        self.partial = partial


@dataclass
class SemifreeResolution:
    algebra: DgAlgebra
    target: DgModule
    free: FreeModule
    eps: DgModuleMap
    validity: Window

    @property
    def module(self) -> DgModule:
        return self.free.module

    @property
    def generators(self) -> list[Generator]:
        return self.free.gens


def _bottom(M) -> int:
    degs = [d for _, d in M.basis]
    return min(degs) if degs else 0


def _try_free_presentation(M: DgModule, D: int) -> SemifreeResolution | None:
    """If M is visibly free on a generating set, return it as its own
    resolution (no spurious generators)."""
    A, F = M.algebra, M.field
    # candidate generators: basis vectors completing span(A⁺·M) degreewise
    by_degree: dict[int, list[int]] = {}
    for n in M.degrees():
        span = Echelon(F)
        for a in range(A.total_dim):
            if a == A.unit:
                continue
            for m in M.component(n - A.deg(a)):
                e = M.act.get((a, m), {})
                if e:
                    span.add(M.component_vector(e, n))
        comp = M.component(n)
        by_degree[n] = [g for i, g in enumerate(comp) if span.add({i: F.one})]
    gens: list[Generator] = []
    free = FreeModule(A, [])
    for n in sorted(by_degree):
        for m_idx in by_degree[n]:
            # need x in F_{n-1} with ε(x) = d_M(m); solvable iff ε is onto there
            dm = M.diff.get(m_idx, {})
            eps = free.augmentation(M)
            if dm:
                x = solve(eps.f(n - 1), M.component_vector(dm, n - 1))
                if x is None:
                    return None
                comp = free.module.component(n - 1)
                d_elem = {comp[i]: c for i, c in enumerate(x) if c != 0}
            else:
                d_elem = {}
            gens.append(Generator(M.label(m_idx), n, d_elem, {m_idx: F.one}, 0))
            free = FreeModule(A, gens)
    eps = free.augmentation(M)
    FM = free.module
    if FM.underlying().space.dims != M.underlying().space.dims:
        return None
    for n in FM.degrees():
        f = eps.f(n)
        if f.rows != f.cols or rank(f) != f.rows:
            return None
    if eps.validate() is not True:
        return None
    lo = min(_bottom(M) - 1, -abs(D) - 1)
    return SemifreeResolution(A, M, free, eps, Window(lo, max(D, lo)))


def semifree_resolution(
    M: DgModule, D: int, max_generators: int = 10000
) -> SemifreeResolution:
    """Semifree resolution of a bounded-below left module, exact through D."""
    A, F = M.algebra, M.field
    if M.side != "left":
        raise ValueError("resolve left modules; convert right modules first")
    if A.basis and min(d for _, d in A.basis) < 0:
        raise ValueError("algebra must be nonnegatively graded")
    bottom = _bottom(M)
    fast = _try_free_presentation(M, D)
    if fast is not None:
        return fast
    gens: list[Generator] = []
    free = FreeModule(A, gens)
    stage = 0
    for n in range(bottom, D + 2):
        while True:
            eps = free.augmentation(M)
            Cn, _, _ = cone(eps.chain_map())
            # the first cycle (in kernel-basis order) that is not a boundary
            boundaries = Echelon(F)
            dn1 = Cn.d(n + 1)
            for j in range(dn1.cols):
                boundaries.add(dn1.column(j))
            v = next((z for z in kernel_basis(Cn.d(n)) if boundaries.add(z)), None)
            if v is None:
                break
            # one generator per pass: dependent classes then die for free,
            # keeping the resolution close to minimal
            dimM = len(M.component(n))
            comp_free = free.module.component(n - 1)
            m_part = M.elem_from_component(v[:dimM], n)
            x_part = {comp_free[i]: c for i, c in enumerate(v[dimM:]) if c != 0}
            gens.append(
                Generator(
                    f"g{n}.{len(gens)}",
                    n,
                    x_part,
                    vec_scale(F, F.neg(F.one), m_part),
                    stage,
                )
            )
            if len(gens) > max_generators:
                free = FreeModule(A, gens)
                partial = SemifreeResolution(
                    A, M, free, free.augmentation(M), Window(bottom - 1, n - 1)
                )
                raise ResourceBoundExceeded(
                    partial, f"generator cap {max_generators} exceeded at degree {n}"
                )
            free = FreeModule(A, gens)
            stage += 1
    eps = free.augmentation(M)
    return SemifreeResolution(A, M, free, eps, Window(bottom - 1, D))


def verify_resolution(res: SemifreeResolution):
    """Independent re-check: filtration, A-linearity, quasi-iso on window."""
    A = res.algebra
    dimA = A.total_dim
    for g, gen in enumerate(res.free.gens):
        for idx in gen.d_elem:
            if idx >= g * dimA:
                return Violation(
                    gen.degree,
                    f"generator {gen.label}: differential hits a non-earlier generator",
                )
    v = res.free.module
    from .dga import validate_module

    bad = validate_module(v)
    if bad:
        return Violation(0, f"free module invalid: {bad[0]}")
    ok = res.eps.validate()
    if ok is not True:
        return ok
    r = quasi_iso(res.eps.chain_map(), res.validity)
    if not r.ok:
        n = min(k for k, good in r.per_degree.items() if not good)
        return Violation(n, "ε is not a quasi-isomorphism on the claimed window")
    return True


def resolve_right_module(M: DgModule, D: int, max_generators: int = 10000):
    """Resolution of a right A-module via the left A^op picture.

    Returns (resolution over A^op, free module as a right A-module,
    ε as a chain map of underlying complexes).
    """
    A = M.algebra
    L = right_to_left_op(M)
    res = semifree_resolution(L, D, max_generators)
    right_free = left_op_to_right(res.module, A)
    return res, right_free, res.eps.chain_map()


@dataclass
class BimoduleResolution:
    env_resolution: SemifreeResolution
    bimodule: DgBimodule
    eps_chain: ChainMap
    validity: Window


def semifree_resolution_bimodule(
    M: DgBimodule, D: int, max_generators: int = 10000
) -> BimoduleResolution:
    """Resolve an R-S-bimodule as a left module over enveloping(R, S)."""
    R, S = M.left_algebra, M.right_algebra
    E = enveloping(R, S)
    X = bimodule_to_env_module(M, E)
    res = semifree_resolution(X, D, max_generators)
    B = env_module_to_bimodule(res.module, R, S)
    return BimoduleResolution(res, B, res.eps.chain_map(), res.validity)


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
    from .dga import left_regular
    from .modops import module_cone, module_direct_sum

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
        C, _, _ = module_cone(f)
        return C
    raise ValueError(f"unknown build-tree node {node!r}")


def _structurally_equal(M: DgModule, X: DgModule) -> bool:
    return _module_data(M) == _module_data(X)


def verify_build_tree(w: BuildTreeWitness, M: DgModule, window: Window | None = None):
    """Accept iff the tree evaluates to a module exhibiting M as stated."""
    A = M.algebra
    try:
        X = evaluate_build_tree(A, w.tree)
    except ValueError as e:
        return Violation(0, str(e))
    if w.incl is None and w.proj is None:
        if _structurally_equal(M, X):
            return True
        # a finite sum is order-insensitive: retry child permutations
        if isinstance(w.tree, SumNode) and len(w.tree.children) <= 6:
            import itertools

            for perm in itertools.permutations(w.tree.children):
                Xp = evaluate_build_tree(A, SumNode(list(perm)))
                if _structurally_equal(M, Xp):
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
    MU = M.underlying()
    h = Homotopy(MU, MU, w.homotopy or {})
    pi = p.compose(i).chain_map()
    if not check_homotopy(pi, ChainMap.identity(MU), h):
        bad = next(
            n
            for n in set(MU.space.dims)
            if pi.f(n) - ChainMap.identity(MU).f(n)
            != MU.d(n + 1) * h.h(n) + h.h(n - 1) * MU.d(n)
        )
        return Violation(bad, "p∘i − id is not ∂h + h∂")
    return True
