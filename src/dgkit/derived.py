"""Derived tensor, RHom, Tor/Ext tables, and chain-level canonical maps.

Conventions (fixed for determinism; balancing is a test, not an assumption):
  * derived_tensor resolves its second argument;
  * rhom resolves its first argument;
  * bimodule-structured results use resolutions over the enveloping algebra.

Canonical maps are realized by explicit Koszul-signed formulas and certified
by chain-map validation; with these conventions the evaluation pairing
Hom_{S^op}(Q, S) ⊗ Q → S is sign-free: (z·r)(q) = z(rq) and z(qs) = z(q)s.
The counit and epicheck's two-sided map (3) pair Q with one truncated dual,
truncated_dual's, which owns its depth and cut and is built once per
bimodule and window; duality_map pairs Q with a shallower dual of its own.
Whether a canonical map is an isomorphism on its window is is_derived_iso,
whose report is complexes.quasi_iso's: the one iso verdict of the library.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .complexes import ChainMap, Complex, QuasiIsoReport, Window, homology_dims, quasi_iso
from .dga import (
    DgAlgebra,
    DgBimodule,
    DgModule,
    koszul_signed,
    left_regular,
    opposite,
    restrict_scalars,
    right_to_left_op,
    sr_bimodule_from_morphism,
    swap_sides,
    vec_iadd,
)
from .homtensor import HomComplex, _pointwise, hom_over, tensor_over
from .modops import matrices_from_images, truncate_below
from .resolutions import (
    BimoduleResolution,
    require_witness,
    required_depth,
    semifree_resolution,
    semifree_resolution_bimodule,
)


@dataclass
class DerivedComplex:
    value: Complex
    validity: Window
    provenance: str


def _resolve(X, depth: int, max_generators: int):
    """A semifree resolution of X, over the enveloping algebra when X is a
    bimodule, and its provenance."""
    if isinstance(X, DgBimodule):
        P = semifree_resolution_bimodule(X, depth, max_generators).bimodule
        return P, f"resolved {X.name} over enveloping through {depth}"
    P = semifree_resolution(X, depth, max_generators).module
    return P, f"resolved {X.name} through {depth}"


def derived_tensor(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> DerivedComplex:
    """M ⊗^L_A N via a semifree resolution of N (outer actions retained).

    M: right A-module or R-A-bimodule; N: left A-module or A-T-bimodule.
    """
    P, prov = _resolve(N, required_depth(D, -M.min_degree()), max_generators)
    T = tensor_over(A, M, P)
    lo = min(M.min_degree() + P.min_degree() - 1, -D)
    return DerivedComplex(T.complex, Window(lo, D), prov)


def rhom(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> DerivedComplex:
    """RHom_A(M, N) via a semifree resolution of M (outer actions retained)."""
    Q, prov = _resolve(M, required_depth(D, N.max_degree()), max_generators)
    H = hom_over(A, Q, N)
    return DerivedComplex(H.complex, Window(-D, D), prov)


def tor_table(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> dict[int, int]:
    """Tor^A_i(M, N) dimensions for 0 ≤ i ≤ D (H_i of the derived tensor)."""
    dc = derived_tensor(A, M, N, D, max_generators)
    return homology_dims(dc.value, Window(0, D))


def ext_table(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> dict[int, int]:
    """Ext_A^i(M, N) dimensions for 0 ≤ i ≤ D (H_{-i} of RHom)."""
    dc = rhom(A, M, N, D, max_generators)
    dims = homology_dims(dc.value, Window(-D, 0))
    return {i: dims[-i] for i in range(D + 1)}


def is_derived_iso(f: ChainMap, w: Window) -> QuasiIsoReport:
    """Whether f is a quasi-isomorphism on w: the one iso verdict, with
    ``dims[n] = (dim H_n(source), dim H_n(target))`` for each n in w."""
    return quasi_iso(f, w)


# -- dualized bimodule Z = RHom_{S^op}(M, S) ----------------------------------


@dataclass
class DualizedBimodule:
    Z: DgBimodule  # left S, right R
    hom: HomComplex  # Hom over S^op; Z's basis element g is hom.reps[g]
    Q: DgBimodule  # the R-S bimodule resolution of M: hom's source, sides swapped


def dualize(M: DgBimodule, D: int, max_generators: int = 10000) -> DualizedBimodule:
    """Z = RHom_{S^op}(M, S) with its left-S and right-R structure."""
    R, S = M.left_algebra, M.right_algebra
    F = M.field
    Q = semifree_resolution_bimodule(M, required_depth(D, S.max_degree()), max_generators).bimodule
    Sop, Rop = opposite(S), opposite(R)
    Qp = swap_sides(Q, Sop, Rop, name=f"{Q.name}'")
    # S as an S^op-S^op-bimodule: s̄·x = (-1)^{|s||x|} xs, x·s̄ = (-1)^{|s||x|} sx,
    # one table for both sides
    act = koszul_signed(F, {(j, i): e for (i, j), e in S.mul.items()}, S.deg, S.deg)
    Sp = DgBimodule(Sop, Sop, S.basis, act, act, S.diff, name="S'")
    H = hom_over(Sop, Qp, Sp, name=f"Z({M.name})")
    Zb = H.structure()  # left R^op, right S^op
    return DualizedBimodule(swap_sides(Zb, S, R), H, Q)


# -- canonical maps ------------------------------------------------------------


def _truncated_dual(dual: "DualizedBimodule", c: int):
    """τ_{≥c}Z, the good truncation of the dual (``modops.truncate_below``),
    and the evaluation z(q) of its basis elements, read through their
    carriers in Z.  Every canonical map that pairs Z with Q uses it.

    The truncation removes resolution junk below the window so it cannot
    pair with top-degree junk of the other tensor factor and contaminate the
    window (the junk degrees are opposite, their sum lands in the middle).
    """
    F, H = dual.Z.field, dual.hom
    Zt, carriers = truncate_below(dual.Z, c)

    def ev(zt_idx: int, q_elem: dict) -> dict:
        out: dict = {}
        for zi, cz in carriers[zt_idx].items():
            vec_iadd(F, out, H.evaluate(H.reps[zi], q_elem), cz)
        return out

    return Zt, ev


# the truncated duals of each live bimodule, keyed on (D, max_generators)
_TRUNCATED_DUALS = weakref.WeakKeyDictionary()


def truncated_dual(M: DgBimodule, D: int, max_generators: int = 10000):
    """The dual that the canonical maps on the window -D..D tensor with.

    Returns (depth, Q, Zt, ev): the depth through which the dual and the
    other factors are resolved, the bimodule resolution Q of M behind the
    dual, τ_{≥-D-1}Z and its evaluation z(q).  Built once and kept for the
    life of M, so the counit and the two-sided map of one check share it.
    """
    duals = _TRUNCATED_DUALS.setdefault(M, {})
    if (D, max_generators) not in duals:
        depth = required_depth(D, D + 1, M.max_degree(), -M.min_degree())  # D + 1: Zt's reach
        dual = dualize(M, depth, max_generators)
        duals[D, max_generators] = (depth, dual.Q, *_truncated_dual(dual, -D - 1))
    return duals[D, max_generators]


@dataclass
class CanonicalMap:
    chain_map: ChainMap
    validity: Window
    provenance: str


def unit_map(M: DgBimodule, N: DgModule, D: int, max_generators: int = 10000) -> CanonicalMap:
    """N → RHom_R(M, M⊗^L_S N) at chain level.

    Realized as P → Hom_R(Q, M⊗_S P), p ↦ (q ↦ (-1)^{|p||q|} ε(q) ⊗ p),
    with P → N the resolution over S and Q → M the enveloping resolution.
    """
    R, S = M.left_algebra, M.right_algebra
    D2q = required_depth(D, M.max_degree(), -M.min_degree(), N.max_degree())
    # stagger: the Hom target's resolution is deeper than the Hom source's
    D2p = required_depth(D, D2q)
    P = semifree_resolution(N, D2p, max_generators).module
    bres = semifree_resolution_bimodule(M, D2q, max_generators)
    Q = bres.bimodule
    eps_gr = _eps_ground(bres)  # Q basis idx -> element of M
    T = tensor_over(S, M, P)
    H = hom_over(R, Q, T.structure())  # T as a left R-module

    def image(p_idx, n):
        def value(q_idx):
            eq = eps_gr.get(q_idx)  # ε(q) ∈ M, absent when zero
            return T.element({(m, p_idx): c for m, c in eq.items()}, Q.deg(q_idx) + n) if eq else {}

        return _pointwise(Q, n, value)

    cm = ChainMap(P.underlying(), H.complex, matrices_from_images(P, H, image))
    return CanonicalMap(cm, Window(-D, D), f"unit for {M.name} on {N.name}")


def _eps_ground(bres: BimoduleResolution) -> dict[int, dict]:
    """ε on basis elements of the enveloping resolution, as elements of M."""
    res = bres.env_resolution
    out = {}
    for q_idx in range(res.module.total_dim):
        e = res.eps.apply_elem({q_idx: res.algebra.field.one})
        if e:
            out[q_idx] = e
    return out


def counit_map(M: DgBimodule, N: DgModule, D: int, max_generators: int = 10000) -> CanonicalMap:
    """Z ⊗^L_R (M ⊗^L_S N) → N at chain level: z⊗q⊗p ↦ z(q)·p.

    With this library's sign conventions the evaluation pairing is sign-free.
    """
    R, S = M.left_algebra, M.right_algebra
    F = M.field
    D2, Q, Zt, ev = truncated_dual(M, D, max_generators)
    res_N = semifree_resolution(N, D2, max_generators)
    P = res_N.module
    T2 = tensor_over(S, Q, P)  # Q right-S ⊗ P; outer left R retained
    T1 = tensor_over(R, Zt, T2.structure())  # outer left S retained

    def image(pair, d):
        z_idx, t_idx = pair
        q_idx, p_idx = T2.reps[t_idx]
        zq = ev(z_idx, {q_idx: F.one})  # element of S
        return res_N.eps.apply_elem(P.act_elem(zq, {p_idx: F.one}))  # z(q)·p, in N

    cm = ChainMap(T1.complex, N.underlying(), matrices_from_images(T1, N, image))
    return CanonicalMap(cm, Window(-D, D), f"counit for {M.name} on {N.name}")


def duality_map(
    M: DgBimodule,
    N: DgModule,
    witness,
    D: int,
    max_generators: int = 10000,
) -> CanonicalMap:
    """M ⊗^L_S N → RHom_S(Z, N): q⊗p ↦ (z ↦ (-1)^{|z||q|} z(q)·p).

    Requires an accepted finitely-built witness for M over S^op.
    """
    S, F = M.right_algebra, M.field
    if witness is None:
        raise ValueError("duality_map requires a finitely-built witness for M")
    require_witness(witness, right_to_left_op(M.right_module()))
    D2 = required_depth(D, M.max_degree(), -M.min_degree())
    dual = dualize(M, D, max_generators)
    P = semifree_resolution(N, D2, max_generators).module
    T2 = tensor_over(S, dual.Q, P)
    Zt, ev = _truncated_dual(dual, -D - 1)
    H2 = hom_over(S, Zt, P)  # Z is left S with outer right R

    def image(pair, d):
        # the sign (-1)^{|z|(|q|+|p|)} is forced by graded S-linearity of the
        # resulting Hom element under this library's conventions
        q_idx, p_idx = pair
        return _pointwise(Zt, d, lambda z: P.act_elem(ev(z, {q_idx: F.one}), {p_idx: F.one}))

    cm = ChainMap(T2.complex, H2.complex, matrices_from_images(T2, H2, image))
    return CanonicalMap(cm, Window(-D, D), f"duality for {M.name} on {N.name}")


def _induction_counit(phi, N: DgModule, D: int, max_generators: int) -> ChainMap:
    """S ⊗_R P_N → N, s⊗p ↦ s·ε(p), with P_N → N a resolution over R."""
    R, S = phi.source, phi.target
    F = S.field
    res = semifree_resolution(
        restrict_scalars(N, phi), required_depth(D, -S.min_degree()), max_generators
    )
    T = tensor_over(R, sr_bimodule_from_morphism(phi), res.module)

    def image(pair, d):
        s_idx, p_idx = pair
        return N.act_elem({s_idx: F.one}, res.eps.apply_elem({p_idx: F.one}))

    return ChainMap(T.complex, N.underlying(), matrices_from_images(T, N, image))


def multiplication_map(phi, D: int, max_generators: int = 10000) -> CanonicalMap:
    """S ⊗^L_R S → S: the induction counit at N = S, where N's action is S's
    multiplication."""
    cm = _induction_counit(phi, left_regular(phi.target), D, max_generators)
    return CanonicalMap(cm, Window(-D, D), f"multiplication for {phi.name}")
