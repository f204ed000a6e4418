"""Derived tensor, RHom, Tor/Ext tables, and chain-level canonical maps.

Conventions (fixed for determinism; balancing is a test, not an assumption):
  * derived_tensor resolves its second argument;
  * rhom resolves its first argument;
  * a bimodule is resolved over the enveloping algebra and read, as a module
    is, through its resolution's ``free`` (Q as a free left module, with Q
    itself as ``free.bimodule``) and ``eps``, so derived_tensor and rhom of a
    bimodule take the free tensor and Hom paths.

Canonical maps are realized by explicit Koszul-signed formulas and certified
by chain-map validation; with these conventions the evaluation pairing
Hom_{S^op}(Q, S) ⊗ Q → S is sign-free: (z·r)(q) = z(rq) and z(qs) = z(q)s.
Every chain map the checks compare is built here with its own resolution
depths and returned as its ``ChainMap``: the unit, counit, duality and
multiplication maps, and epicheck's (3), (5) and ring (2) and (4).  The
counit, duality map and (3) pair Q with one truncated dual,
truncated_dual's, which owns its depth and its cut -D-1, is a Hom cut
there and is built once per check (``resolutions.scoped``).  Ring (2)-(5)
read a module over R through phi: R → S only by ``_over_R``, once per check,
S's regular modules are ``_regular``'s, so S is read over R once per side,
and ring (2) reads S as a right R-module, the only action S ⊗_R P uses.
Whether a canonical map is an isomorphism on its window is is_derived_iso,
whose report is complexes.quasi_iso's: the one iso verdict of the library.

quasi_iso on -D..D reads degrees -D-1..D+1 of both complexes, the
window's ``complexes.read_range``, and every map builds what it compares on
that range alone: the unit's Hom, the counit's T1, the duality map's T2
and H2, (3)'s Tab and Tc, (5)'s source and target, ring (2)'s tensor and
ring (4)'s Hom take it as ``degrees``, the map's matrices are built there
(``matrices_from_images``) and a module on the other side is cut to it
(``Complex.restrict``).  On the range each matrix is the full build's.
A range-built complex has no ``structure()``: its actions and differential
would lack the terms that leave the range.  So every factor whose
structure another complex reads (the M ⊗_S P factors, Ta, Tn and T2) is
built in every degree, and the dual in every degree from its cut up.
``tor_table`` and ``ext_table`` build their tensor or Hom on ``read_range``
of 0..D or -D..0, the degrees their homology reads; ``derived_tensor`` and
``rhom`` return full builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainMap, Complex, QuasiIsoReport, Window, homology_dims, quasi_iso, read_range
from .dga import (
    DgAlgebra,
    DgBimodule,
    DgModule,
    koszul_signed,
    left_regular,
    linear,
    matrices_from_images,
    opposite,
    restrict_scalars,
    right_regular,
    right_to_left_op,
    swap_sides,
    vec_iadd,
)
from .homtensor import HomComplex, _as_map, _pointwise, hom_over, tensor_over
from .resolutions import (
    require_witness,
    required_depth,
    resolve_right_module,
    scoped,
    semifree_resolution,
    semifree_resolution_bimodule,
)


@dataclass
class DerivedComplex:
    value: Complex
    validity: Window
    provenance: str


def _resolve(X, depth: int, max_generators: int):
    """The free module of a semifree resolution of X, which hom_over and
    tensor_over read on its generators, and its provenance; a bimodule is
    resolved over the enveloping algebra and read as a free left module."""
    two_sided = isinstance(X, DgBimodule)
    res = (semifree_resolution_bimodule if two_sided else semifree_resolution)(X, depth, max_generators)
    return res.free, f"resolved {X.name}{' over enveloping' if two_sided else ''} through {depth}"


def _tensor(A: DgAlgebra, M, N, D: int, max_generators: int, degrees: Window | None = None):
    """(M ⊗_A P, provenance) for P the resolution of N that the window
    -D..D needs, built on ``degrees`` when given."""
    P, prov = _resolve(N, required_depth(D, -M.min_degree()), max_generators)
    return tensor_over(A, M, P, degrees=degrees), prov


def _hom(A: DgAlgebra, M, N, D: int, max_generators: int, degrees: Window | None = None):
    """(Hom_A(Q, N), provenance) for Q the resolution of M that the window
    -D..D needs, built on ``degrees`` when given."""
    Q, prov = _resolve(M, required_depth(D, N.max_degree()), max_generators)
    return hom_over(A, Q, N, degrees=degrees), prov


def derived_tensor(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> DerivedComplex:
    """M ⊗^L_A N via a semifree resolution of N (outer actions retained).

    M: right A-module or R-A-bimodule; N: left A-module or A-T-bimodule.
    """
    T, prov = _tensor(A, M, N, D, max_generators)
    lo = min(M.min_degree() + T.N.min_degree() - 1, -D)
    return DerivedComplex(T.complex, Window(lo, D), prov)


def rhom(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> DerivedComplex:
    """RHom_A(M, N) via a semifree resolution of M (outer actions retained)."""
    H, prov = _hom(A, M, N, D, max_generators)
    return DerivedComplex(H.complex, Window(-D, D), prov)


def tor_table(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> dict[int, int]:
    """Tor^A_i(M, N) dimensions for 0 ≤ i ≤ D (H_i of the derived tensor),
    off the tensor built on the degrees their homology reads."""
    w = Window(0, D)
    T, _ = _tensor(A, M, N, D, max_generators, read_range(w))
    return homology_dims(T.complex, w)


def ext_table(A: DgAlgebra, M, N, D: int, max_generators: int = 10000) -> dict[int, int]:
    """Ext_A^i(M, N) dimensions for 0 ≤ i ≤ D (H_{-i} of RHom), off the
    Hom built on the degrees their homology reads."""
    w = Window(-D, 0)
    H, _ = _hom(A, M, N, D, max_generators, read_range(w))
    dims = homology_dims(H.complex, w)
    return {i: dims[-i] for i in range(D + 1)}


def is_derived_iso(f: ChainMap, w: Window) -> QuasiIsoReport:
    """Whether f is a quasi-isomorphism on w: the one iso verdict, with
    ``dims[n] = (dim H_n(source), dim H_n(target))`` for each n in w."""
    return quasi_iso(f, w)


# -- dualized bimodule Z = RHom_{S^op}(M, S) ----------------------------------


def dualize(M: DgBimodule, D: int, cut: int, max_generators: int = 10000) -> tuple:
    """(Zt, H, Q): Zt = τ_{≥cut} RHom_{S^op}(M, S), left S and right R; H,
    the Hom over S^op cut there, whose ``reps[g]`` is Zt's basis element g;
    and Q, M's resolution as a free left R-module, whose ``bimodule``,
    sides swapped, is H's source.  A cut below the bottom degree keeps the
    whole dual."""
    R, S = M.left_algebra, M.right_algebra
    F = M.field
    free = semifree_resolution_bimodule(M, required_depth(D, S.max_degree()), max_generators).free
    Q = free.bimodule
    Sop, Rop = opposite(S), opposite(R)
    Qp = swap_sides(Q, Sop, Rop, name=f"{Q.name}'")
    # S as an S^op-S^op-bimodule: s̄·x = (-1)^{|s||x|} xs, x·s̄ = (-1)^{|s||x|} sx,
    # one table for both sides
    act = koszul_signed(F, {(j, i): e for (i, j), e in S.mul.items()}, S.deg, S.deg)
    Sp = DgBimodule(Sop, Sop, S.basis, act, act, S.diff, name="S'")
    H = HomComplex(Sop, Qp, Sp, name=f"Z({M.name})", cut=cut)  # left R^op, right S^op
    return swap_sides(H.structure(), S, R), H, free


# -- canonical maps ------------------------------------------------------------


def truncated_dual(M: DgBimodule, D: int, max_generators: int = 10000):
    """The dual that the canonical maps on the window -D..D tensor with.

    Returns (depth, Q, Zt, ev): the depth through which the dual and the
    other factors are resolved, the bimodule resolution of M behind the
    dual as Q, the left R-module free on the (1⊗s)·g, the good truncation
    Zt = τ_{≥-D-1}Z, built by a Hom cut there, and the evaluation z(q) of
    its basis elements, each the map of the Hom's rep.  The cut keeps
    resolution junk below the window from pairing with top-degree junk of
    the other tensor factor, whose sum lands in the window.  Built once per
    check (``resolutions.scoped``), so the maps of one check share it.
    """

    def make():
        depth = required_depth(D, D + 1, M.max_degree(), -M.min_degree())  # D + 1: Zt's reach
        Zt, H, Q = dualize(M, depth, -D - 1, max_generators)
        maps = [_as_map(f) for f in H.reps]
        return depth, Q, Zt, lambda zt_idx, q_elem: H.evaluate(maps[zt_idx], q_elem)

    return scoped((M, D, max_generators), make)


def unit_map(M: DgBimodule, N: DgModule, D: int, max_generators: int = 10000) -> ChainMap:
    """N → RHom_R(M, M⊗^L_S N) at chain level.

    Realized as P → Hom_R(Q, M⊗_S P), p ↦ (q ↦ (-1)^{|p||q|} ε(q) ⊗ p),
    with P → N the resolution over S and Q → M the enveloping resolution.
    """
    R, S = M.left_algebra, M.right_algebra
    D2q = required_depth(D, M.max_degree(), -M.min_degree(), N.max_degree())
    # stagger: the Hom target's resolution is deeper than the Hom source's
    D2p = required_depth(D, D2q)
    res_N = semifree_resolution(N, D2p, max_generators)
    P = res_N.free
    res_M = semifree_resolution_bimodule(M, D2q, max_generators)
    Q, eps = res_M.free, res_M.eps  # ε(q) ∈ M for each basis element q of Q
    rr = read_range(Window(-D, D))
    T = tensor_over(S, M, P)
    H = hom_over(R, Q, T.structure(), degrees=rr)  # T as a left R-module

    def image(p_idx, n):
        def value(q_idx):
            eq = eps[q_idx]
            return T.element({(m, p_idx): c for m, c in eq.items()}, Q.deg(q_idx) + n) if eq else {}

        return _pointwise(Q, n, value)

    return ChainMap(P.underlying().restrict(rr), H.complex, matrices_from_images(P, H, image, degrees=rr))


def counit_map(M: DgBimodule, N: DgModule, D: int, max_generators: int = 10000) -> ChainMap:
    """Z ⊗^L_R (M ⊗^L_S N) → N at chain level: z⊗q⊗p ↦ z(q)·p.

    With this library's sign conventions the evaluation pairing is sign-free.
    """
    R, S = M.left_algebra, M.right_algebra
    F = M.field
    D2, Q, Zt, ev = truncated_dual(M, D, max_generators)
    res_N = semifree_resolution(N, D2, max_generators)
    P, eps = res_N.free, res_N.eps
    rr = read_range(Window(-D, D))
    T2 = tensor_over(S, Q, P)  # Q right-S ⊗ P: R-free
    T1 = tensor_over(R, Zt, T2.structure(), degrees=rr)

    def image(pair, d):
        z_idx, t_idx = pair
        q_idx, p_idx = T2.reps[t_idx]
        zq = ev(z_idx, {q_idx: F.one})  # element of S
        return linear(F, eps.__getitem__, P.act_elem(zq, {p_idx: F.one}))  # ε(z(q)·p), in N

    return ChainMap(T1.complex, N.underlying().restrict(rr), matrices_from_images(T1, N, image, degrees=rr))


def duality_map(
    M: DgBimodule,
    N: DgModule,
    witness,
    D: int,
    max_generators: int = 10000,
) -> ChainMap:
    """M ⊗^L_S N → RHom_S(Z, N): q⊗p ↦ (z ↦ (-1)^{|z||q|} z(q)·p).

    Requires an accepted finitely-built witness for M over S^op.
    """
    S, F = M.right_algebra, M.field
    if witness is None:
        raise ValueError("duality_map requires a finitely-built witness for M")
    require_witness(witness, right_to_left_op(M.right_module()))
    D2 = required_depth(D, M.max_degree(), -M.min_degree())
    _, Q, Zt, ev = truncated_dual(M, D, max_generators)
    res_N = semifree_resolution(N, D2, max_generators)
    P = res_N.free
    rr = read_range(Window(-D, D))
    T2 = tensor_over(S, Q, P, degrees=rr)
    H2 = hom_over(S, Zt, P, degrees=rr)  # Z is left S with outer right R

    def image(pair, d):
        # the sign (-1)^{|z|(|q|+|p|)} is forced by graded S-linearity of the
        # resulting Hom element under this library's conventions
        q_idx, p_idx = pair
        return _pointwise(Zt, d, lambda z: P.act_elem(ev(z, {q_idx: F.one}), {p_idx: F.one}))

    return ChainMap(T2.complex, H2.complex, matrices_from_images(T2, H2, image, degrees=rr))


def _over_R(N: DgModule, phi) -> DgModule:
    """N read over R through phi: R → S, once per check (``scoped``)."""
    return scoped(("over R", N, phi), lambda: restrict_scalars(N, phi))


def _regular(S: DgAlgebra, side: str) -> DgModule:
    """S as a left or right module over itself, once per check (``scoped``),
    so that ``_over_R`` reads each side of S over R once."""
    return scoped(("regular", S, side), lambda: left_regular(S) if side == "left" else right_regular(S))


def _induction_counit(phi, N: DgModule, D: int, max_generators: int) -> ChainMap:
    """S ⊗_R P_N → N, s⊗p ↦ s·ε(p), with P_N → N a resolution over R."""
    R, S = phi.source, phi.target
    F = S.field
    res = semifree_resolution(_over_R(N, phi), required_depth(D, -S.min_degree()), max_generators)
    rr = read_range(Window(-D, D))
    T = tensor_over(R, _over_R(_regular(S, "right"), phi), res.free, degrees=rr)  # S as a right R-module

    def image(pair, d):
        s_idx, p_idx = pair
        return N.act_elem({s_idx: F.one}, res.eps[p_idx])

    return ChainMap(T.complex, N.underlying().restrict(rr), matrices_from_images(T, N, image, degrees=rr))


def _ring_condition4_map(phi, N: DgModule, D: int, max_generators: int) -> ChainMap:
    """N → Hom_R(Q_S, N), n ↦ (q ↦ (-1)^{|n||q|} ε(q)·n), with Q_S → S a
    resolution over R."""
    R, S = phi.source, phi.target
    F = S.field
    S_left = _over_R(_regular(S, "left"), phi)
    res = semifree_resolution(S_left, required_depth(D, N.max_degree()), max_generators)
    Q, eps = res.free, res.eps  # ε(q) in S
    rr = read_range(Window(-D, D))
    H = hom_over(R, Q, _over_R(N, phi), degrees=rr)

    def image(n_idx, n):
        return _pointwise(Q, n, lambda q_idx: N.act_elem(eps[q_idx], {n_idx: F.one}))

    return ChainMap(N.underlying().restrict(rr), H.complex, matrices_from_images(N, H, image, degrees=rr))


def _condition3_map(M: DgBimodule, Nr, Nl, D: int, max_generators: int) -> ChainMap:
    """(N_r ⊗^L_S Z) ⊗^L_R (M ⊗^L_S N') → N_r ⊗^L_S N' at chain level.

    On representatives: pr ⊗ z ⊗ q ⊗ p ↦ pr ⊗ z(q)·p; the evaluation
    pairing is sign-free under this library's conventions and no basis
    elements change order, so no Koszul sign appears.
    """
    R, S, F = M.left_algebra, M.right_algebra, M.field
    Ddeep, Q, Zt, ev = truncated_dual(M, D, max_generators)
    res_l = semifree_resolution(Nl, Ddeep, max_generators)
    P = res_l.free
    _, Pr = resolve_right_module(Nr, Ddeep, max_generators)
    Ta = tensor_over(S, Pr, Zt)  # outer right R retained
    T2 = tensor_over(S, Q, P)  # R-free
    rr = read_range(Window(-D, D))
    Tab = tensor_over(R, Ta.structure(), T2.structure(), degrees=rr)
    Tc = tensor_over(S, Pr, P, degrees=rr)

    def image(pair, d):
        a_idx, t_idx = pair
        pr_idx, z_idx = Ta.reps[a_idx]
        q_idx, p_idx = T2.reps[t_idx]
        zq = ev(z_idx, {q_idx: F.one})  # element of S
        return {(pr_idx, k): c for k, c in P.act_elem(zq, {p_idx: F.one}).items()}

    return ChainMap(Tab.complex, Tc.complex, matrices_from_images(Tab, Tc, image, degrees=rr))


def _condition5_map(M: DgBimodule, N: DgModule, D: int, max_generators: int) -> ChainMap:
    """RHom_S(N, N) → RHom_R(M ⊗^L_S N, M ⊗^L_S N) at chain level.

    Source model Hom_S(P_N, N); target model Hom_R(Qs⊗P_N, Qt⊗N); the map
    is f ↦ id_Q ⊗ f with the Koszul sign for moving f past q.
    """
    R, S, F = M.left_algebra, M.right_algebra, M.field
    # two bimodule resolutions at staggered depths: were the same Q used on
    # both sides of the Hom, its top junk would pair with itself at Hom
    # degree 0, inside the window.  Both are read off one build, the shallow
    # one as the prefix of the deep one on the generators it needs, so the
    # inclusion is the identity on common indices by construction; the
    # assertion below keeps that promise checked.
    # `span`, the depth a window of width 0 needs against M and S, is how far
    # Q ⊗_S X reaches above its generators: Qs goes one span and one degree
    # past the window, Qt one span past the top of the Hom source Qs ⊗_S Pn
    span = required_depth(0, M.max_degree(), -M.min_degree(), S.max_degree())
    Dn = required_depth(D, N.max_degree())
    Dqs = required_depth(D, span, 1)
    Dqt = required_depth(D, max(Dqs, Dn), span)
    res_n = semifree_resolution(N, Dn, max_generators)
    Qs = semifree_resolution_bimodule(M, Dqs, max_generators).free
    Qt = semifree_resolution_bimodule(M, Dqt, max_generators).free
    if Qs.basis != Qt.basis[: len(Qs.basis)]:
        raise AssertionError("staggered resolutions are not prefix-compatible")
    rr = read_range(Window(-D, D))
    Hsrc = hom_over(S, res_n.free, N, degrees=rr)
    Tn = tensor_over(S, Qs, res_n.free)  # R-free
    T2 = tensor_over(S, Qt, N)
    Htgt = hom_over(R, Tn.structure(), T2.structure(), degrees=rr)

    def image(f, n):
        f, ground = _as_map(f), {}
        for t_idx, (q_idx, p_idx) in enumerate(Tn.reps):
            fp = f.get(p_idx)
            if fp:
                t = T2.element({(q_idx, k): c for k, c in fp.items()}, Tn.basis[t_idx][1] + n)
                sgn = F.sign(n * Qs.deg(q_idx))
                vec_iadd(F, ground, {(t_idx, g): c for g, c in t.items()}, sgn)
        return ground

    return ChainMap(Hsrc.complex, Htgt.complex, matrices_from_images(Hsrc, Htgt, image, degrees=rr))


def multiplication_map(phi, D: int, max_generators: int = 10000) -> ChainMap:
    """S ⊗^L_R S → S: the induction counit at N = S, where N's action is S's
    multiplication."""
    return _induction_counit(phi, _regular(phi.target, "left"), D, max_generators)
