"""Derived tensor, RHom, Tor/Ext tables, and chain-level canonical maps.

Conventions (fixed for determinism; balancing is a test, not an assumption):
  * derived_tensor resolves its second argument;
  * rhom resolves its first argument;
  * bimodule-structured results use resolutions over the enveloping algebra.

Canonical maps are realized by explicit Koszul-signed formulas and certified
by chain-map validation; with these conventions the evaluation pairing
Hom_{S^op}(Q, S) ⊗ Q → S is sign-free: (z·r)(q) = z(rq) and z(qs) = z(q)s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix
from .complexes import ChainMap, Complex, Window, homology_dims, quasi_iso
from .dga import (
    DgAlgebra,
    DgBimodule,
    DgModule,
    opposite,
    vec_add,
    vec_scale,
)
from .homtensor import HomComplex, hom_over, tensor_over
from .resolutions import BimoduleResolution, semifree_resolution, semifree_resolution_bimodule


@dataclass
class DerivedComplex:
    value: Complex
    validity: Window
    provenance: str
    carrier: object = None  # the TensorProduct/HomComplex behind value


def _bot(M) -> int:
    degs = [d for _, d in M.basis]
    return min(degs) if degs else 0


def _top(M) -> int:
    degs = [d for _, d in M.basis]
    return max(degs) if degs else 0


def derived_tensor(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> DerivedComplex:
    """M ⊗^L_A N via a semifree resolution of N (outer actions retained).

    M: right A-module or R-A-bimodule; N: left A-module or A-T-bimodule.
    """
    D2 = D + 1 + max(0, -_bot(M))
    if isinstance(N, DgBimodule):
        bres = semifree_resolution_bimodule(N, D2, max_generators)
        P = bres.bimodule
        prov = f"resolved {N.name} over enveloping through {D2}"
    else:
        res = semifree_resolution(N, D2, max_generators)
        P = res.module
        prov = f"resolved {N.name} through {D2}"
    T = tensor_over(A, M, P)
    lo = min(_bot(M) + _bot(P) - 1, -D)
    return DerivedComplex(T.complex, Window(lo, D), prov, T)


def rhom(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> DerivedComplex:
    """RHom_A(M, N) via a semifree resolution of M (outer actions retained)."""
    D2 = D + 1 + max(0, _top(N))
    if isinstance(M, DgBimodule):
        bres = semifree_resolution_bimodule(M, D2, max_generators)
        Q = bres.bimodule
        prov = f"resolved {M.name} over enveloping through {D2}"
    else:
        res = semifree_resolution(M, D2, max_generators)
        Q = res.module
        prov = f"resolved {M.name} through {D2}"
    H = hom_over(A, Q, N)
    return DerivedComplex(H.complex, Window(-D, D), prov, H)


def tor_table(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> dict[int, int]:
    """Tor^A_i(M, N) dimensions for 0 ≤ i ≤ D (H_i of the derived tensor)."""
    dc = derived_tensor(A, M, N, D, max_generators)
    return homology_dims(dc.value, Window(0, D))


def ext_table(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> dict[int, int]:
    """Ext_A^i(M, N) dimensions for 0 ≤ i ≤ D (H_{-i} of RHom)."""
    dc = rhom(A, M, N, D, max_generators)
    dims = homology_dims(dc.value, Window(-D, 0))
    return {i: dims[-i] for i in range(D + 1)}


@dataclass
class DerivedIsoReport:
    ok: bool
    per_degree: dict[int, bool]
    source_h: dict[int, int]
    target_h: dict[int, int]

    def __bool__(self):
        return self.ok


def is_derived_iso(f: ChainMap, w: Window) -> DerivedIsoReport:
    r = quasi_iso(f, w)
    return DerivedIsoReport(
        r.ok,
        r.per_degree,
        homology_dims(f.source, w),
        homology_dims(f.target, w),
    )


# -- dualized bimodule Z = RHom_{S^op}(M, S) ----------------------------------


def _as_left_op_bimodule(Q: DgBimodule, Rop: DgAlgebra, Sop: DgAlgebra) -> DgBimodule:
    """R-S-bimodule as an S^op-R^op-bimodule (Koszul signs on both sides)."""
    R, S, F = Q.left_algebra, Q.right_algebra, Q.field
    act_l = {
        (s, q): vec_scale(F, F.of((-1) ** (S.deg(s) * Q.deg(q))), e)
        for (s, q), e in Q.act_right.items()
    }
    act_r = {
        (r, q): vec_scale(F, F.of((-1) ** (R.deg(r) * Q.deg(q))), e)
        for (r, q), e in Q.act_left.items()
    }
    return DgBimodule(Sop, Rop, Q.basis, act_l, act_r, Q.diff, name=f"{Q.name}'")


def _op_swap_bimodule(Zb: DgBimodule, R: DgAlgebra, S: DgAlgebra) -> DgBimodule:
    """Left R^op / right S^op bimodule back to a left S / right R one."""
    F = Zb.field
    act_left = {
        (s, z): vec_scale(F, F.of((-1) ** (S.deg(s) * Zb.deg(z))), e)
        for (s, z), e in Zb.act_right.items()
    }
    act_right = {
        (r, z): vec_scale(F, F.of((-1) ** (R.deg(r) * Zb.deg(z))), e)
        for (r, z), e in Zb.act_left.items()
    }
    return DgBimodule(S, R, Zb.basis, act_left, act_right, Zb.diff, name=Zb.name)


@dataclass
class DualizedBimodule:
    Z: DgBimodule  # left S, right R
    hom: HomComplex  # Hom over S^op, basis aligned with Z via struct_index
    resolution: BimoduleResolution
    validity: Window
    provenance: str

    def evaluate(self, z_idx: int, q_elem: dict) -> dict:
        """z(q) ∈ S for a basis element z of Z and an element q of Q."""
        n, pos = self.hom.struct_pair(z_idx)
        return self.hom.evaluate(self.hom.basis_vectors[n][pos], q_elem)

    @property
    def Q(self) -> DgBimodule:
        return self.resolution.bimodule


def dualize(M: DgBimodule, D: int, max_generators: int = 10000) -> DualizedBimodule:
    """Z = RHom_{S^op}(M, S) with its left-S and right-R structure."""
    R, S = M.left_algebra, M.right_algebra
    F = M.field
    D2 = D + 1 + max(0, _top(S))
    bres = semifree_resolution_bimodule(M, D2, max_generators)
    Q = bres.bimodule
    Sop, Rop = opposite(S), opposite(R)
    Qp = _as_left_op_bimodule(Q, Rop, Sop)
    # S as an S^op-S^op-bimodule: s̄·x = (-1)^{|s||x|} xs, x·s̄ = (-1)^{|s||x|} sx
    act_l = {}
    act_r = {}
    for (i, j), e in S.mul.items():
        sgn = F.of((-1) ** (S.deg(i) * S.deg(j)))
        act_l[(j, i)] = vec_scale(F, sgn, e)
        act_r[(j, i)] = vec_scale(F, sgn, e)
    Sp = DgBimodule(Sop, Sop, S.basis, act_l, act_r, S.diff, name="S'")
    H = hom_over(Sop, Qp, Sp, name=f"Z({M.name})")
    Zb = H.structure()  # left R^op, right S^op
    Z = _op_swap_bimodule(Zb, R, S)
    return DualizedBimodule(
        Z,
        H,
        bres,
        Window(-D, D),
        f"dual of {M.name} via enveloping resolution through {D2}",
    )


# -- canonical maps ------------------------------------------------------------


def _truncated_dual(dual: "DualizedBimodule", c: int):
    """Z soft-truncated below c, with evaluation lifted through the carriers.

    The truncation removes resolution junk below the window so it cannot
    pair with top-degree junk of the other tensor factor and contaminate the
    window (the junk degrees are opposite, their sum lands in the middle).
    """
    from .modops import truncate_below

    F = dual.Z.field
    Zt, carriers = truncate_below(dual.Z, c)

    def ev(zt_idx: int, q_elem: dict) -> dict:
        out: dict = {}
        for zi, cz in carriers[zt_idx].items():
            out = vec_add(F, out, vec_scale(F, cz, dual.evaluate(zi, q_elem)))
        return out

    return Zt, ev


@dataclass
class CanonicalMap:
    chain_map: ChainMap
    validity: Window
    provenance: str
    source_carrier: object = None
    target_carrier: object = None

    def report(self) -> DerivedIsoReport:
        return is_derived_iso(self.chain_map, self.validity)


def unit_map(M: DgBimodule, N: DgModule, D: int, max_generators: int = 10000) -> CanonicalMap:
    """N → RHom_R(M, M⊗^L_S N) at chain level.

    Realized as P → Hom_R(Q, M⊗_S P), p ↦ (q ↦ (-1)^{|p||q|} ε(q) ⊗ p),
    with P → N the resolution over S and Q → M the enveloping resolution.
    """
    R, S = M.left_algebra, M.right_algebra
    F = M.field
    # truncation junk of Q lands at Hom degree top(N) − D2q − 1, so a module
    # N reaching above degree 0 needs Q that much deeper
    D2q = D + 1 + max(0, _top(M)) + max(0, -_bot(M)) + max(0, _top(N))
    # stagger: the Hom target is resolved deeper so that truncation junk of
    # source and target cannot pair into the window (their degree difference
    # exceeds D)
    D2p = D2q + D + 1
    res_N = semifree_resolution(N, D2p, max_generators)
    P = res_N.module
    bres = semifree_resolution_bimodule(M, D2q, max_generators)
    Q = bres.bimodule
    eps_gr = _eps_ground(bres)  # Q basis idx -> element of M
    T = tensor_over(S, M, P)
    Tmod = T.structure()  # left R-module
    H = hom_over(R, Q, Tmod)
    PC = P.underlying()
    mats = {}
    for n in PC.degrees():
        cols = []
        for p_idx in P.component(n):
            ground: dict = {}
            for q_idx in range(Q.total_dim):
                dq = Q.deg(q_idx)
                sgn = F.of((-1) ** (n * dq))
                eq = eps_gr.get(q_idx, {})
                if not eq:
                    continue
                tg = {(m_idx, p_idx): F.mul(sgn, c) for m_idx, c in eq.items()}
                td = dq + n
                for pos, c in T.project_elem(tg, td).items():
                    key = (q_idx, T.struct_index(td, pos))
                    s = F.add(ground.get(key, F.zero), c)
                    if s == 0:
                        ground.pop(key, None)
                    else:
                        ground[key] = s
            cols.append(H.coords(ground, n))
        mats[n] = Matrix.from_columns(F, cols, rows=H.complex.dim(n))
    cm = ChainMap(PC, H.complex, mats)
    return CanonicalMap(
        cm,
        Window(-D, D),
        f"unit for {M.name} on {N.name}",
        source_carrier=res_N,
        target_carrier=H,
    )


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
    # resolutions go well past the window: top-degree junk of Q and P then
    # cannot pair with the low true classes of Zt (which reach -D-1) and
    # land inside the window
    D2 = 2 * D + 2 + max(0, _top(M)) + max(0, -_bot(M))
    dual = dualize(M, D2, max_generators)
    Q = dual.Q  # R-S bimodule resolution of M
    res_N = semifree_resolution(N, D2, max_generators)
    P = res_N.module
    T2 = tensor_over(S, Q, P)  # Q right-S ⊗ P; outer left R retained
    T2mod = T2.structure()
    Zt, ev = _truncated_dual(dual, -D - 1)
    T1 = tensor_over(R, Zt, T2mod)  # outer left S retained
    NC = N.underlying()
    mats = {}
    for d in T1.complex.degrees():
        cols = []
        for pos in range(T1.complex.dim(d)):
            z_idx, t_idx = T1.section(d, pos)
            td, tq = T2.struct_pair(t_idx)
            q_idx, p_idx = T2.section(td, tq)
            zq = ev(z_idx, {q_idx: F.one})  # element of S
            val = P.act_elem(zq, {p_idx: F.one})  # z(q)·p in P
            img = res_N.eps.apply_elem(val)  # land in N
            cols.append(
                N.component_vector(img, d) if img else tuple([F.zero] * NC.dim(d))
            )
        mats[d] = Matrix.from_columns(F, cols, rows=NC.dim(d))
    cm = ChainMap(T1.complex, NC, mats)
    return CanonicalMap(
        cm,
        Window(-D, D),
        f"counit for {M.name} on {N.name}",
        source_carrier=T1,
        target_carrier=N,
    )


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
    from .dga import right_to_left_op
    from .resolutions import verify_build_tree

    R, S = M.left_algebra, M.right_algebra
    F = M.field
    if witness is None:
        raise ValueError("duality_map requires a finitely-built witness for M")
    M_op = right_to_left_op(M.right_module())
    ok = verify_build_tree(witness, M_op)
    if ok is not True:
        raise ValueError(f"witness rejected: {ok.reason} (degree {ok.degree})")
    D2 = D + 1 + max(0, _top(M)) + max(0, -_bot(M))
    dual = dualize(M, D, max_generators)
    Q = dual.Q
    res_N = semifree_resolution(N, D2, max_generators)
    P = res_N.module
    T2 = tensor_over(S, Q, P)
    Zt, ev = _truncated_dual(dual, -D - 1)
    H2 = hom_over(S, Zt, P)  # Z is left S with outer right R
    mats = {}
    for d in T2.complex.degrees():
        cols = []
        for pos in range(T2.complex.dim(d)):
            q_idx, p_idx = T2.section(d, pos)
            dq = Q.deg(q_idx)
            ground: dict = {}
            for z_idx in range(Zt.total_dim):
                dz = Zt.deg(z_idx)
                # sign (-1)^{|z|(|q|+|p|)}: forced by graded S-linearity of
                # the resulting Hom element under this library's conventions
                sgn = F.of((-1) ** (dz * d))
                zq = ev(z_idx, {q_idx: F.one})
                val = P.act_elem(zq, {p_idx: F.one})
                for k, c in val.items():
                    key = (z_idx, k)
                    s = F.add(ground.get(key, F.zero), F.mul(sgn, c))
                    if s == 0:
                        ground.pop(key, None)
                    else:
                        ground[key] = s
            cols.append(H2.coords(ground, d))
        mats[d] = Matrix.from_columns(F, cols, rows=H2.complex.dim(d))
    cm = ChainMap(T2.complex, H2.complex, mats)
    return CanonicalMap(
        cm,
        Window(-D, D),
        f"duality for {M.name} on {N.name}",
        source_carrier=T2,
        target_carrier=H2,
    )


def multiplication_map(phi, D: int, max_generators: int = 10000) -> CanonicalMap:
    """S ⊗^L_R S → S realized as S ⊗_R P → S, s⊗p ↦ s·ε(p)."""
    from .dga import restrict_scalars, left_regular

    R, S = phi.source, phi.target
    F = S.field
    # S as an S-R-bimodule (left mult, right through phi)
    act_right = {}
    for j in range(R.total_dim):
        img = phi.apply({j: F.one})
        for m in range(S.total_dim):
            e = S.mul_elem({m: F.one}, img)
            if e:
                act_right[(j, m)] = e
    SR = DgBimodule(S, R, S.basis, dict(S.mul), act_right, S.diff, name=S.name)
    # S as a left R-module through phi
    S_left = restrict_scalars(left_regular(S), phi)
    D2 = D + 1
    res = semifree_resolution(S_left, D2, max_generators)
    P = res.module
    T = tensor_over(R, SR, P)
    SC = S.underlying()
    mats = {}
    for d in T.complex.degrees():
        cols = []
        for pos in range(T.complex.dim(d)):
            s_idx, p_idx = T.section(d, pos)
            ep = res.eps.apply_elem({p_idx: F.one})  # element of S
            val = S.mul_elem({s_idx: F.one}, ep)
            cols.append(
                S.component_vector(val, d) if val else tuple([F.zero] * SC.dim(d))
            )
        mats[d] = Matrix.from_columns(F, cols, rows=SC.dim(d))
    cm = ChainMap(T.complex, SC, mats)
    return CanonicalMap(
        cm, Window(-D, D), f"multiplication for {phi.name}", source_carrier=T
    )
