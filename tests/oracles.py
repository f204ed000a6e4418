"""Test oracles shared by several test files: independent re-checks of what
the library builds (among them the kernel-based quasi_iso and the
product-matrix chain-map check that the library's rank readings replaced,
and a module's action matrices, which it no longer builds),
the chain-complex constructions (shift, sum, cone) that only tests
build, the free resolution builder, kept out of the library itself, and
``dy_equals_x``, the DGA with a differential that several files resolve
and check over."""

from dgkit.complexes import ChainMap, Complex, GradedSpace, QuasiIsoReport, Violation, Window
from dgkit.dga import (
    DgAlgebra,
    DgBimodule,
    DgModule,
    matrices_from_images,
    regular_bimodule,
    tensor_algebra,
    validate_dga,
)
from dgkit.field import Field
from dgkit.homtensor import tensor_over
from dgkit.linalg import Echelon, Matrix, kernel_basis, lead_coords, rank, vec_scale
from dgkit.modops import DgModuleMap, FreeModule, Generator
from dgkit.resolutions import ResourceBoundExceeded, SemifreeResolution
from dgkit.standard import exterior_algebra, truncated_polynomial


def dy_equals_x(field: Field) -> DgAlgebra:
    """k[x]/(x²) ⊗ Λ(y) with |x| = 0, |y| = 1 and dy = x."""
    T = tensor_algebra(truncated_polynomial(2, field), exterior_algebra(field))
    # basis 1⊗1, 1⊗y, x⊗1, x⊗y
    A = DgAlgebra(field, T.basis, T.unit, T.mul, {1: {2: field.one}}, name="k[x]/(x²)⊗Λ(y)")
    assert validate_dga(A) == []
    return A


def validate_complex(C: Complex):
    """Check d*d = 0 everywhere; returns True or a Violation whose witness is
    (column, the dense column of d*d there)."""
    for n in list(C.diffs):
        prod = C.d(n - 1) * C.d(n)
        for j, col in enumerate(prod.columns):
            if col:
                dense = tuple(col.get(i, C.field.zero) for i in range(prod.rows))
                return Violation(n, "d ∘ d != 0", (j, dense))
    return True


def quasi_iso_kernels(f: ChainMap, w: Window) -> QuasiIsoReport:
    """The reference for ``complexes.quasi_iso``: rank H_n(f) =
    rank[B_n(tgt) | f(Z_n(src))] − dim B_n(tgt), with Z_n(src) a kernel basis
    of each source differential and one boundary echelon of the target per
    degree.  Raises ValueError, with the first cycle of the lowest degree
    whose image is not a cycle as ``witness``, when f does not map cycles
    to cycles."""
    src, tgt = f.source, f.target
    cycles = {n: kernel_basis(src.d(n)) for n in range(w.lo, w.hi + 2)}
    rank_dn = rank(tgt.d(w.lo))
    per, dims = {}, {}
    for n in w.degrees():
        h_src = len(cycles[n]) - (src.dim(n + 1) - len(cycles[n + 1]))
        fn, dn = f.f(n), tgt.d(n)
        image = Echelon(tgt.field)
        b_tgt = sum(image.add(c) for c in tgt.d(n + 1).columns)
        h_tgt = tgt.dim(n) - rank_dn - b_tgt
        rank_hf = 0
        for z in cycles[n]:
            y = fn.image(z)
            if dn.image(y):
                err = ValueError(f"f_{n} maps a cycle to a non-cycle")
                err.witness = tuple(z.get(j, src.field.zero) for j in range(src.dim(n)))
                raise err
            rank_hf += image.add(y)
        dims[n] = (h_src, h_tgt)
        per[n] = h_src == h_tgt == rank_hf
        rank_dn = b_tgt
    return QuasiIsoReport(per, all(per.values()), dims)


def validate_products(f: ChainMap):
    """The reference for ``ChainMap.validate``: the matrices d∘f and f∘d of
    each square, compared in increasing degree."""
    S, T = f.source, f.target
    for n in sorted(set(S.space.dims) | set(T.space.dims)):
        if T.d(n) * f.f(n) != f.f(n - 1) * S.d(n):
            return Violation(n, "chain-map square does not commute")
    return True


def validate_linear_products(f: DgModuleMap):
    """The reference for ``DgModuleMap.validate``: the chain-map check, then
    f∘a = a∘f as products of action matrices, for each basis element a of A
    and each degree in increasing order."""
    cm = ChainMap.validate(f)
    if cm is not True:
        return cm
    M, N = f.modules
    A = M.algebra
    for a in range(A.total_dim):
        for n in sorted(set(M.degrees()) | set(N.degrees())):
            if f.f(n + A.deg(a)) * action_matrix(M, a, n) != action_matrix(N, a, n) * f.f(n):
                return Violation(n, f"not linear over basis element {A.label(a)}")
    return True


def tensor_unit_iso(A: DgAlgebra, N) -> ChainMap:
    """The unit-law quasi-isomorphism A ⊗_A N -> N (it is an isomorphism)."""
    T = tensor_over(A, regular_bimodule(A), N)
    act = N.act_left if isinstance(N, DgBimodule) else N.act
    # the ground pair (a, n) maps to a·n
    mats = matrices_from_images(T, N, lambda pair, d: act.get(pair, {}))
    return ChainMap(T.complex, N.underlying(), mats)


def augmentation(free: FreeModule, target: DgModule) -> DgModuleMap:
    """ε: the generators' eps values extended A-linearly, a·g ↦ a·ε(g)."""
    one = free.algebra.field.one

    def image(idx, n):
        g, a = free.split(idx)
        return target.act_elem({a: one}, free.gens[g].eps)

    return DgModuleMap(free, target, matrices_from_images(free, target, image))


def plain(free: FreeModule) -> DgModule:
    """A plain module on a free module's tables: hom_over and tensor_over
    take their generic paths on it, so it is the reference of every
    free-path comparison."""
    return DgModule(free.algebra, "left", free.basis, free.act, free.diff, free.name)


def action_matrix(M: DgModule, a: int, n: int) -> Matrix:
    """The matrix of basis element a acting on M's degree-n component, into
    degree n + |a|: the tables read as matrices, which the library compares
    column by column instead."""
    p = M.algebra.deg(a)
    mats = matrices_from_images(M, M, lambda m, _: M.act.get((a, m), {}), p)
    return mats[n] if n in mats else Matrix.zero(M.field, len(M.component(n + p)), 0)


def truncate_below(Z: DgBimodule, c: int):
    """Good truncation τ_{≥c} of a bimodule: degrees > c kept, degree c
    replaced by its cycles.

    Over nonnegatively graded algebras this is a sub-bimodule: degree-0
    algebra elements are cycles, so they preserve kernels.  Returns (the
    truncation, its carriers: each new basis element as an element of Z).
    Homology agrees with Z in degrees ≥ c and vanishes below.  Elements of
    degree c are expressed in the cycle basis, a kernel basis, by their values
    at its leads.
    """
    F = Z.field
    cycles = kernel_basis(Z.underlying().d(c)) if Z.component(c) else []
    leads = {max(v): i for i, v in enumerate(cycles)}
    carriers = [Z.elem_from_component(v, c) for v in cycles]
    basis = [(f"z{c}_{i}", c) for i in range(len(cycles))]
    new_index = {}
    for n in Z.degrees():
        if n > c:
            for g in Z.component(n):
                new_index[g] = len(carriers)
                carriers.append({g: F.one})
                basis.append((Z.label(g), n))

    def express(e: dict, n: int) -> dict:
        """An element of Z of degree n ≥ c in the new basis."""
        if n > c:
            return {new_index[g]: x for g, x in e.items()}
        x = lead_coords(F, cycles, leads, Z.coords(e, c))
        if x is None:
            raise ValueError("truncation: element not a cycle in the cut degree")
        return x

    L, R = Z.left_algebra, Z.right_algebra
    diff, act_left, act_right = {}, {}, {}

    def put(table: dict, key, e: dict, n: int):
        """table[key] = e, an element of Z of degree n, unless it is zero or cut."""
        if e and n >= c:
            e = express(e, n)
            if e:
                table[key] = e

    for i, (carrier, (_, n)) in enumerate(zip(carriers, basis)):
        put(diff, i, Z.d_elem(carrier), n - 1)
        for a in range(L.total_dim):
            put(act_left, (a, i), Z.act_left_elem({a: F.one}, carrier), n + L.deg(a))
        for b in range(R.total_dim):
            put(act_right, (b, i), Z.act_right_elem({b: F.one}, carrier), n + R.deg(b))
    return DgBimodule(L, R, basis, act_left, act_right, diff, name=f"τ≥{c}{Z.name}"), carriers


# -- chain-complex constructions the tests build ------------------------------


def zero_complex(field: Field) -> Complex:
    return Complex(field, GradedSpace({}), {})


def single(field: Field, degree: int = 0, dim: int = 1) -> Complex:
    return Complex(field, GradedSpace({degree: dim}), {})


def shift(C: Complex, t: int) -> Complex:
    """Suspension power: shift(C, t)_n = C_{n-t}, differential times (-1)^t."""
    if t == 0:
        return C
    dims = {n + t: d for n, d in C.space.dims.items()}
    diffs = {n + t: m.scale(C.field.sign(t)) for n, m in C.diffs.items()}
    return Complex(C.field, GradedSpace(dims), diffs)


def direct_sum(summands: list[Complex], field: Field | None = None) -> Complex:
    """Componentwise direct sum with block-diagonal differential."""
    if not summands:
        if field is None:
            raise ValueError("field needed for an empty direct sum")
        return zero_complex(field)
    F = summands[0].field
    if any(c.field != F for c in summands):
        raise ValueError("mixed fields in direct_sum")
    degrees = sorted({n for c in summands for n in c.space.dims})
    dims = {n: sum(c.dim(n) for c in summands) for n in degrees}
    diffs = {}
    for n in degrees:
        cols, off = [], 0
        for c in summands:
            cols += [{i + off: x for i, x in col.items()} for col in c.d(n).columns]
            off += c.dim(n - 1)
        diffs[n] = Matrix.from_columns(F, cols, off)
    return Complex(F, GradedSpace(dims), diffs)


def cone(f: ChainMap):
    """Mapping cone with differential [[d_tgt, f], [0, -d_src]].

    Returns (cone complex, inclusion of the target, projection onto the
    suspended source).
    """
    M, N = f.source, f.target
    F = N.field
    degrees = sorted(set(N.space.dims) | {n + 1 for n in M.space.dims})
    dims = {n: N.dim(n) + M.dim(n - 1) for n in degrees}
    diffs = {}
    for n in degrees:
        off = N.dim(n - 1)
        shifted = [
            {**fc, **vec_scale(F, F.sign(1), {off + i: x for i, x in dc.items()})}
            for fc, dc in zip(f.f(n - 1).columns, M.d(n - 1).columns)
        ]
        diffs[n] = Matrix.from_columns(F, list(N.d(n).columns) + shifted, off + M.dim(n - 2))
    Cn = Complex(F, GradedSpace(dims), diffs)
    incl = ChainMap(
        N,
        Cn,
        {
            n: Matrix.from_columns(F, [{j: F.one} for j in range(N.dim(n))], Cn.dim(n))
            for n in N.degrees()
        },
    )
    SM = shift(M, 1)
    proj = ChainMap(
        Cn,
        SM,
        {
            n: Matrix.from_columns(
                F, [{}] * N.dim(n) + [{i: F.one} for i in range(SM.dim(n))], SM.dim(n)
            )
            for n in Cn.degrees()
        },
    )
    return Cn, incl, proj


def rebuild_resolution(M, D, max_generators=10000, types=None):
    """Generators and window of the rebuild-per-generator construction.

    Test oracle only: after every generator it rebuilds the free module, ε
    and the whole cone(ε), then eliminates again.  The generators span the
    A e for the idempotents e of ``types``: the first cycle of the kernel
    basis that is not a boundary, cut to its first part e·z that is not one.
    By default ``types`` is [1], so this is the free builder, which the
    library's projective builder replaced.  Returns (generators, window,
    capped).
    """
    A, F = M.algebra, M.field
    one = A.one()
    types = [one] if types is None else types
    gens = []
    free = FreeModule(A, gens)
    bottom = min((d for _, d in M.basis), default=0)
    for n in range(bottom, D + 2):
        while True:
            Cn, _, _ = cone(augmentation(free, M))
            boundaries = Echelon(F)
            for col in Cn.d(n + 1).columns:
                boundaries.add(col)
            v = next((z for z in kernel_basis(Cn.d(n)) if boundaries.reduce(z)), None)
            if v is None:
                break
            dimM = len(M.component(n))
            comp_free = free.component(n - 1)
            m_part = M.elem_from_component({p: c for p, c in v.items() if p < dimM}, n)
            x_part = {comp_free[p - dimM]: c for p, c in sorted(v.items()) if p >= dimM}
            for e in types:
                if e == one:
                    em, ex = m_part, x_part
                else:
                    em, ex = M.act_elem(e, m_part), free.act_elem(e, x_part)
                ez = dict(M.coords(em, n))
                ez.update({dimM + p: c for p, c in free.coords(ex, n - 1).items()})
                if boundaries.reduce(ez):
                    break
            eps = vec_scale(F, F.neg(F.one), em)
            gens.append(Generator(f"g{n}.{len(gens)}", n, ex, eps, e))
            if len(gens) > max_generators:
                return gens, Window(bottom - 1, n - 1), True
            free = FreeModule(A, gens)
    return gens, Window(bottom - 1, D), False


def rebuilt_record(M, D, max_generators=10000, types=None) -> SemifreeResolution:
    """:func:`rebuild_resolution` as a resolution record, with ε(a·g) =
    a·ε(g); raises ResourceBoundExceeded past the cap."""
    gens, window, capped = rebuild_resolution(M, D, max_generators, types)
    free, one = FreeModule(M.algebra, gens), M.field.one
    eps = []
    for x in range(free.total_dim):
        g, a = free.split(x)
        eps.append(M.act_elem({a: one}, gens[g].eps))
    res = SemifreeResolution(M.algebra, M, free, eps, window)
    if capped:
        raise ResourceBoundExceeded(res, f"generator cap {max_generators} exceeded at degree {window.hi + 1}")
    return res
