"""Tensor and Hom complexes over a DGA, with retained outer actions.

``tensor_over(A, M, N)`` is M ⊗_A N, the quotient of the ground-field tensor
product by the relations m·a ⊗ n − m ⊗ a·n; ``hom_over(A, M, N)`` is the
complex of graded A-linear maps with the Koszul linearity rule f(a m) =
(-1)^{|f||a|} a f(m) and differential D(f) = d∘f − (-1)^{|f|} f∘d.

A free module is a :class:`~dgkit.modops.FreeModule`, a ``DgModule`` that
numbers its basis through its layout: both free paths ask it for
``index(g, a)``, the basis element a·g, ``split`` and the generators, and
never compute an index themselves.  A generator g of a resolution spans
A e for an idempotent e of A (1 when A has no other), and the layout's a·g
run over a basis of A e.  Three kinds are passed here: a resolution's
``res.free``, a sum of A e ⊗ V, the resolving module itself; a bimodule
resolution Q over R ⊗ S^op, which as a left R-module is free on the
(1⊗s)·g (the resolution's ``free``, on Q's own numbering, keeping Q as
its ``bimodule``, whose right S-action ``_over`` reads); and Q ⊗_S P
for P = ``res.free`` over S, which is R-free on the pairs of those
generators and P's, the pairs with e·p in its basis for P's generators
of S e (``TensorProduct.structure()`` on the free path, when the left
factor is Q's view).

One class, :class:`TensorProduct`, builds every tensor product, and its
right factor picks the path.  A free right factor A ⊗ V has
M ⊗_A (A ⊗ V) ≅ M ⊗_k V: the basis is the pairs (m, 1·g), and no relation
echelon is built.  A generator of A e gives M ⊗_A (A e ⊗ V) ≅ Me ⊗ V ≅
M/M(1 − e) ⊗ V: the pairs (m, e·g) for the m off the pivots of M(1 − e),
read through one normal form per basis element of M.  It is ``res.free``
for ``derived_tensor`` of a module or a bimodule, so ``tor``, and for the
M ⊗_S P factors of the canonical maps, the R-free Q ⊗_S P for (3)'s
two-sided product ``Tab`` and the counit's Zt ⊗_R (Q ⊗_S P), and a test
family's semifree member N in (5)'s Qt ⊗_S N.
Every other right factor takes the generic path, the quotient by the
relations of each degree: a bimodule, the truncated dual in (3)'s
Pr ⊗_S Zt and the other members in (5)'s Qt ⊗_S N.

One class, :class:`HomComplex`, builds every Hom, and its source picks the
path.  A free source A ⊗ V has Hom_A(A ⊗ V, N) ≅ Hom_k(V, N): a map is its
values on the generators, its differential is twisted by each generator's
``d_elem``, and no A-linearity echelon is built (Félix–Halperin–Thomas,
*Rational Homotopy Theory*, §6, for both).  A generator of A e has
Hom_A(A e ⊗ V, N) ≅ Hom_k(V, eN): its values lie in eN, on the reduced
echelon basis of the e·w.  It is ``res.free`` for
``derived.rhom`` on modules and bimodules, ``ext``, ring condition (4) and
the source of (5); Q's R-free view for the unit map's Hom_R(Q, M ⊗_S P);
and the R-free Qs ⊗_S Pn for (5)'s target.  Every other source takes the
generic path, the kernel of the A-linearity constraints over the ground
pairs: the truncated
dual, the modules of ``endomorphism_dga`` and the endpoint verdict, and
``dualize``'s Q over S^op.  That one stays generic because Q is free as a
left S^op-module only up to the sign (-1)^{|r||s|} of ``swap_sides`` and the
enveloping product, so its layout would carry signs; it is 2 of a check's
Homs, each built with ``dualize``'s ``cut``: the generic path skips the
degrees below it and keeps only the cycles at it, so it builds the good
truncation of the dual and nothing below.  Both paths give a basis in lead
form, so a vector's coordinates are its values at the leads
(``linalg.lead_coords``, through an index of the leads of each degree),
with no echelon behind them.  When an argument is a
bimodule, the spare action descends to the result:

  * tensor: outer left action on M and outer right action on N pass through;
  * hom:    a right S-action on M gives (s·f)(m) = (-1)^{|s|(|f|+|m|)} f(m s),
            a right T-action on N gives (f·t)(m) = (-1)^{|t||m|} f(m)·t.

All descended structures are certified by the module validators in tests.

``tensor_over`` and ``hom_over`` take a keyword-only ``degrees`` window.
With one, both paths build only the ground pairs, generator pairs,
relation echelons and constraint kernels of the degrees inside it, and
d_n only where n and n - 1 both lie inside.  Each degree's basis,
coordinates and differential are the full build's, since none of them
reads another degree.  ``derived`` builds the complexes a canonical map
compares on the degrees ``quasi_iso`` reads.  ``structure()`` of a
range-built complex raises ValueError: its outer actions and differential
would lack the terms that leave the range, and a consumer reading them
would get a wrong module.
"""

from __future__ import annotations

from .linalg import Echelon, Matrix, lead_coords
from .complexes import Complex, GradedSpace, Window
from .dga import DgAlgebra, DgBimodule, DgModule, koszul_signed, linear, matrices_from_images, vec_iadd
from .modops import FreeModule, quotient_forms


class SideMismatch(ValueError):
    pass


def _over(X, A: DgAlgebra, side: str):
    """(``side`` A-action table, algebra of the other action or None, its
    table); a bimodule's free view is read as its bimodule."""
    X = getattr(X, "bimodule", None) or X
    if isinstance(X, DgBimodule):
        if side == "left":
            alg, acts = X.left_algebra, (X.act_left, X.right_algebra, X.act_right)
        else:
            alg, acts = X.right_algebra, (X.act_right, X.left_algebra, X.act_left)
    elif isinstance(X, DgModule):
        alg, acts = (X.algebra if X.side == side else None), (X.act, None, None)
    else:
        raise SideMismatch(f"unsupported operand {X!r}")
    if alg is None or alg.basis != A.basis:
        raise SideMismatch(f"{X!r} is not a {side} {A.name}-module")
    return acts


def _ground_pairs(M, N, sign: int, ns=None, degrees=None) -> dict[int, list[tuple[int, int]]]:
    """The ground pairs (m, n) by degree sign·|m| + |n|, each in lexicographic
    order; n runs over ``ns``, by default every basis element of N, and the
    degree over ``degrees``, by default every one."""
    pairs: dict[int, list[tuple[int, int]]] = {}
    for mi in range(M.total_dim):
        dm = sign * M.deg(mi)
        for nj in range(N.total_dim) if ns is None else ns:
            d = dm + N.deg(nj)
            if degrees is None or d in degrees:
                pairs.setdefault(d, []).append((mi, nj))
    return pairs


class GroundComplex:
    """A complex whose basis vectors are ground vectors over pairs (m, n).

    Shared by :class:`TensorProduct` and :class:`HomComplex`.  A subclass sets
    ``field``, ``name``, the outer algebras, ``degree_range`` (the window it
    is built on, or None for every degree) and ``_components`` (degree ->
    basis representatives), and provides ``coords`` (sparse coordinates of a
    ground vector), ``ground_differential`` and the outer actions on ground
    vectors.  Like a module, it numbers its basis once, in degree order:
    ``basis[g] = (label, degree)`` and ``reps[g]`` is the ground
    representative of basis element g (a ground pair, or a Hom ground
    vector), listed at its first read.  ``component(n)`` and ``coords``
    count positions within degree n, as ``matrices_from_images`` reads them;
    ``structure()`` is the bimodule, module or bare complex on the numbering
    of ``basis``: its differential is read off the complex's matrices, and
    each outer action off the ground action on reps[g], through ``element``.
    """

    def degrees(self):
        return list(self._dims)

    def component(self, n: int) -> list:
        """Degree-n basis representatives: ground pairs or Hom ground vectors."""
        return self._components.get(n, [])

    def element(self, ground: dict, n: int) -> dict:
        """The element of structure() represented by a ground vector of degree n."""
        return {self._start[n] + i: c for i, c in sorted(self.coords(ground, n).items())}

    def _build_complex(self, labels: dict):
        """Number the basis, one label per basis element of each degree, and
        build the differential."""
        self._dims = {n: len(labels[n]) for n in sorted(labels) if labels[n]}
        self.complex = Complex(self.field, GradedSpace(self._dims), self._differentials())
        self._module = None
        self._reps = None
        self.basis = [(label, n) for n in self._dims for label in labels[n]]
        self._start: dict[int, int] = {}  # degree -> index of its first basis element
        for g, (_, n) in enumerate(self.basis):
            self._start.setdefault(n, g)

    @property
    def reps(self) -> list:
        """reps[g]: the ground representative of basis element g."""
        if self._reps is None:
            self._reps = [rep for n in self._dims for rep in self.component(n)]
        return self._reps

    def _differentials(self) -> dict:
        """The matrices of the differential, each ground_differential image
        read back through coords."""
        return matrices_from_images(
            self, self, self.ground_differential, offset=-1, degrees=self.degree_range
        )

    def _table(self) -> dict:
        """The differential's table {g: d(basis element g)}, read off the
        complex's matrices, in the numbering of ``basis``."""
        start = self._start
        return {
            start[n] + q: {start[n - 1] + i: c for i, c in sorted(col.items())}
            for n, m in sorted(self.complex.diffs.items())
            for q, col in enumerate(m.columns)
            if col
        }

    def _act(self, alg: DgAlgebra, ground_act) -> dict:
        """The outer action table {(a, g): a acting on g}, each entry the
        ground action on reps[g] read back through ``element``."""
        return {
            (a, g): e
            for a in range(alg.total_dim)
            for g, (rep, (_, n)) in enumerate(zip(self.reps, self.basis))
            if (e := self.element(ground_act(a, rep, n), n + alg.deg(a)))
        }

    def structure(self):
        """The richest available structure: bimodule, module, or complex.

        Raises ValueError on a range-built complex, whose differential and
        actions lack the terms that leave its range."""
        if self.degree_range is not None:
            raise ValueError(f"{self.name} is built on degrees {self.degree_range} only: it has no structure")
        if self._module is not None:
            return self._module
        L, R = self.outer_left, self.outer_right
        if L is None and R is None:
            self._module = self.complex
            return self._module
        basis, diff = self.basis, self._table()
        act_l = self._act(L, self._left_act_ground) if L is not None else None
        act_r = self._act(R, self._right_act_ground) if R is not None else None
        if act_l is not None and act_r is not None:
            self._module = DgBimodule(L, R, basis, act_l, act_r, diff, self.name)
        elif act_l is not None:
            self._module = DgModule(L, "left", basis, act_l, diff, self.name)
        else:
            self._module = DgModule(R, "right", basis, act_r, diff, self.name)
        return self._module


class TensorProduct(GroundComplex):
    """M ⊗_A N on a basis of ground pairs (m, n), in (m, n) order per degree.

    The right factor decides the path.  A :class:`~dgkit.modops.FreeModule`
    A ⊗ V (a resolution's ``free``, or an R-free Q ⊗_S P) takes the free
    path: degree d has one basis element per pair (m, 1·g) with
    |m| + |g| = d.  A generator g of A e for an idempotent e ≠ 1 spans
    Me ⊗ g ≅ M/M(1 − e) ⊗ g: its pairs are the (m, e·g) for the m off the
    pivots of M(1 − e).  One reader, ``coords``, serves both: it reads a
    pair (m, a·g) as m·a through M's right A-action, in normal form modulo
    M(1 − e) when g spans A e, paired with g's head.  When the left factor
    is a ``FreeModule`` too (a bimodule resolution's R-free view, over the
    outer left algebra R), the product is R-free and ``structure()`` is
    that ``FreeModule``.  Every other right factor takes the generic path:
    the basis is the pairs off the pivots of each degree's echelon of
    relations m·a ⊗ n − m ⊗ a·n, and ``coords`` reduces modulo it.  With ``degrees``, only the pairs and
    relation echelons of those degrees are built.
    """

    def __init__(self, A: DgAlgebra, M, N, name: str | None = None, degrees: Window | None = None):
        # the factors as free modules, when they are: M over the outer left
        # algebra (a bimodule's view, whose right A-action is its
        # bimodule's), N over A
        self._free_left = M if isinstance(M, FreeModule) else None
        self._free = N if isinstance(N, FreeModule) else None
        self.A = A
        self.M = M
        self.N = N
        self.field = A.field
        self.name = name or f"{M.name}⊗{N.name}"
        self.degree_range = degrees
        self._act_rA, self.outer_left, self._act_outer_l = _over(M, A, "right")
        act_lA, self.outer_right, self._act_outer_r = _over(N, A, "left")
        if self._free is None:
            self._relation_echelons(act_lA)
        else:
            self._relations = None
            heads = [self._free.index(g, A.unit) for g in range(len(self._free.gens))]
            self._components = _ground_pairs(M, N, 1, heads, degrees)
            self._normal = self._normal_forms()
            if self._free.projective:  # e·g pairs with the m off the pivots of M(1 − e)
                off = {x: self._normal[g] for g, x in enumerate(heads)}
                self._components = {
                    d: [(m, x) for m, x in ps if off[x] is None or m in off[x][m]]
                    for d, ps in self._components.items()
                }
        self._pos = {d: {pair: i for i, pair in enumerate(ps)} for d, ps in self._components.items()}

        labels = {
            d: tuple(f"{M.label(mi)}⊗{N.label(nj)}" for mi, nj in fr)
            for d, fr in self._components.items()
        }
        self._build_complex(labels)

    def _relation_echelons(self, act_lA):
        """Generic path: the relations of each degree, as an echelon over
        ground pairs; the pairs off its pivots represent the quotient basis."""
        A, M, N, F, act_rA = self.A, self.M, self.N, self.field, self._act_rA
        self._relations: dict[int, Echelon] = {}
        self._components: dict[int, list[tuple[int, int]]] = {}
        ncomp = {n: N.component(n) for n in N.degrees()}
        for d, ps in _ground_pairs(M, N, 1, degrees=self.degree_range).items():
            relations = Echelon(F)
            for a in range(A.total_dim):
                if a == A.unit:
                    continue
                pa = A.deg(a)
                for mi in range(M.total_dim):
                    ma = act_rA.get((a, mi), {})
                    for nj in ncomp.get(d - M.deg(mi) - pa, []):
                        # the relation m·a ⊗ n − m ⊗ a·n
                        vec = {(k, nj): c for k, c in ma.items()}
                        an = {(mi, k): c for k, c in act_lA.get((a, nj), {}).items()}
                        relations.add(vec_iadd(F, vec, an, F.sign(1)))
            self._relations[d] = relations
            self._components[d] = [pair for pair in ps if pair not in relations.rows]

    def _normal_forms(self) -> list:
        """Per generator g of the free right factor, None when g is free, else
        the normal forms modulo M(1 − e) for g's idempotent e
        (:func:`~dgkit.modops.quotient_forms`): M ⊗_A (A e ⊗ V) ≅
        M/M(1 − e) ⊗ V ≅ Me ⊗ V, with m ⊗ a·e·g ↦ [m·a] ⊗ g."""
        F, M, unit, act = self.field, self.M, self.A.unit, self._act_rA

        def forms(e: dict) -> dict:
            def times_e(m: int) -> dict:  # m·e, the unit acting as 1
                return linear(F, lambda a: {m: F.one} if a == unit else act.get((a, m), {}), e)

            return quotient_forms(F, M.total_dim, times_e)

        return self._free.per_idempotent(forms)

    # -- ground-level helpers ------------------------------------------------

    def ground_differential(self, pair: tuple[int, int], d: int) -> dict:
        """d(m ⊗ n) = dm ⊗ n + (-1)^{|m|} m ⊗ dn on a ground pair."""
        mi, nj = pair
        out = {(k, nj): c for k, c in self.M.diff.get(mi, {}).items()}
        dn = {(mi, k): c for k, c in self.N.diff.get(nj, {}).items()}
        return vec_iadd(self.field, out, dn, self.field.sign(self.M.deg(mi)))

    def _left_act_ground(self, a: int, pair: tuple[int, int], d: int) -> dict:
        mi, nj = pair
        return {(k, nj): c for k, c in self._act_outer_l.get((a, mi), {}).items()}

    def _right_act_ground(self, a: int, pair: tuple[int, int], d: int) -> dict:
        mi, nj = pair
        return {(mi, k): c for k, c in self._act_outer_r.get((a, nj), {}).items()}

    def coords(self, ground: dict, d: int) -> dict:
        """Coordinates {position: c} of a ground vector of degree d in the
        quotient basis.  On the free path m ⊗ a·g is m·a ⊗ 1·g, and for a
        generator g of A e, e ≠ 1, [m·a] ⊗ e·g: the normal form of m·a
        modulo M(1 − e), paired with e·g."""
        pos = self._pos.get(d, {})
        if self._relations is not None:
            if not any(ground.values()):
                return {}
            return {pos[pair]: c for pair, c in self._relations[d].reduce(ground).items()}
        F, free, unit = self.field, self._free, self.A.unit
        out: dict = {}
        for (mi, x), c in ground.items():
            g, a = free.split(x)
            ma = {mi: F.one} if a == unit else self._act_rA.get((a, mi), {})
            if self._normal[g] is not None:
                ma = linear(F, self._normal[g].__getitem__, ma)
            head = free.index(g, unit)
            vec_iadd(F, out, {pos[k, head]: c2 for k, c2 in ma.items()}, c)
        return out

    def structure(self):
        """The R-``FreeModule`` of :meth:`_free_view` when both factors are
        free modules, no outer right action descends and every degree is
        built; else :meth:`GroundComplex.structure`."""
        if (
            self._module is None
            and self.degree_range is None
            and None not in (self._free_left, self._free)
            and self.outer_right is None
        ):
            self._module = self._free_view()
        return super().structure()

    def _free_view(self) -> FreeModule:
        """(R ⊗ U) ⊗_A (A ⊗ V) ≅ R ⊗ (U ⊗ V) on the numbering of ``basis``:
        free on the pairs (1·u, 1·v) of the factors' generators, with
        r·(q ⊗ p) = (r·q) ⊗ p, so r_i·(u ⊗ v) is the pair (r_i·u, 1·v), with
        no sign.  The action is R's multiplication on that layout.  For a
        generator e·v of A e the pairs are those (1·u, e·v) in the basis,
        each with every (r_i·u, e·v).  Only these rows are passed on:
        ``FreeModule.view`` makes each generator, free over R, with the
        label, degree and differential of its head (1·u, e·v).

        A left factor that is a ``FreeModule`` reaches here only as a
        bimodule resolution's R-free view (``_over`` reads it through its
        ``bimodule``), which :func:`~dgkit.modops.left_free` makes on free
        generators (1⊗s)·g of the enveloping resolution.  Its Q(1 − e) is
        R ⊗ S(1 − e) on each generator, so whether (r_i·u, e·v) is in the
        basis depends on u's S-part alone: a row is all in the basis or
        none of it is, and the rows cover the basis."""
        left, right, R = self._free_left, self._free, self.outer_left
        start = self._start
        at = {pair: start[d] + i for d, ps in self._pos.items() for pair, i in ps.items()}
        heads = [right.index(v, self.A.unit) for v in range(len(right.gens))]
        pairs = [(u, h) for u in range(len(left.gens)) for h in heads if (left.index(u, R.unit), h) in at]
        rows = [{i: at[left.index(u, i), h] for i in range(R.total_dim)} for u, h in pairs]  # u ⊗ e·v ≠ 0
        return FreeModule.view(R, rows, self.basis, self._table(), name=self.name)


def tensor_over(
    A: DgAlgebra, M, N, name: str | None = None, *, degrees: Window | None = None
) -> TensorProduct:
    return TensorProduct(A, M, N, name=name, degrees=degrees)


def _as_map(vec: dict) -> dict:
    """A ground Hom vector as the map m ↦ f(m)."""
    f: dict = {}
    for (mi, nj), c in vec.items():
        f.setdefault(mi, {})[nj] = c
    return f


class HomComplex(GroundComplex):
    """Hom_A(M, N): graded A-linear maps as explicit per-degree bases.

    The source decides the path.  A :class:`~dgkit.modops.FreeModule` A ⊗ V
    (a resolution's ``free``, a bimodule resolution's R-free view, or an
    R-free Q ⊗_S P) takes the free path: Hom_A(A ⊗ V, N) ≅ Hom_k(V, N), so
    degree n has one basis element per pair (generator g, basis element w of
    N) with |w| − |g| = n, in (g, w) order.  Its rep is the A-linear
    extension f(a·g) = (-1)^{n|a|} a·w, built at the first read of any rep
    (``component``, ``coords``, ``reps``, ``structure``), all of the Hom's
    at once; the differential is read off the generator values, so a Hom
    read only as a complex builds none.  A generator g of A e for an
    idempotent e ≠ 1 takes its values in eN, Hom_A(A e ⊗ g, N) ≅ eN: its
    pairs are (g, w) for the leads w of the reduced echelon basis u_w of the
    e·w, and its rep extends g ↦ u_w; the differential keeps each term at
    the pairs of degree n − 1, the leads of eN for such a g.  Every other
    source takes the generic path: the degree-n basis is the kernel of the
    A-linearity constraints over the ground pairs, and its differential
    reads the transpose of d_M, made at the first ``ground_differential``
    call.  Both bases are in lead form, so ``coords`` reads a vector's
    values at the leads (:func:`~dgkit.linalg.lead_coords`): the
    generator row (1·g, w) of a free basis element, the largest ground pair
    of a kernel vector.  With ``degrees``, only the pairs and constraint
    kernels of those degrees are built.  With a ``cut`` c, the generic path
    is the good truncation τ_{≥c}: no degree below c, and at c the cycles,
    the :meth:`~dgkit.linalg.Echelon.kernel` basis of x ↦ Σ x_i·D(v_i) over
    that degree's basis v, each in lead form at its own non-pivot v_j's
    lead.  Over a nonnegatively graded A it keeps both outer actions.
    """

    def __init__(
        self,
        A: DgAlgebra,
        M,
        N,
        name: str | None = None,
        degrees: Window | None = None,
        cut: int | None = None,
    ):
        self._free = M if isinstance(M, FreeModule) else None
        if self._free is not None and cut is not None:
            raise ValueError(f"a cut needs a generic source, not the free module {M.name}")
        self.A = A
        self.M = M
        self.N = N
        self.field = A.field
        self.name = name or f"Hom({M.name},{N.name})"
        self.degree_range = degrees
        act_M, self.outer_left, self._act_outer_l = _over(M, A, "left")
        self._act_N, self.outer_right, self._act_outer_r = _over(N, A, "left")
        self._dM_into: dict[int, dict] | None = None  # k ↦ {m: coefficient of k in d(m)}
        if self._free is None:
            self._constraint_kernels(act_M, cut)
        else:
            self._generator_pairs()
        sizes = self._components if self._free is None else self._pairs
        labels = {n: tuple(f"f{n}_{i}" for i in range(len(v))) for n, v in sizes.items()}
        self._build_complex(labels)

    def _constraint_kernels(self, act_M, cut: int | None):
        """Generic path: each Hom_n component is the kernel of the
        A-linearity constraints over the ground pairs of degree n, cut to its
        cycles at n = ``cut`` and skipped below, and each kernel vector's
        lead is its largest ground pair."""
        A, M, N, F, act_N = self.A, self.M, self.N, self.field, self._act_N
        self._components: dict[int, list[dict]] = {}
        self._leads: dict[int, dict] = {}  # n ↦ {lead: position}
        for n, ps in sorted(_ground_pairs(M, N, -1, degrees=self.degree_range).items()):
            if cut is not None and n < cut:
                continue
            in_ps = set(ps)
            # A-linearity constraints, one per (a, m, w): the Hom_n component
            # is their kernel over the ground pairs
            constraints = Echelon(F)
            for a in range(A.total_dim):
                if a == A.unit:
                    continue
                pa = A.deg(a)
                sgn = F.sign(n * pa + 1)
                for mi in range(M.total_dim):
                    tgt_deg = M.deg(mi) + pa + n
                    tgt = N.component(tgt_deg)
                    if not tgt:
                        # no target component: both sides of the constraint vanish
                        continue
                    am = act_M.get((a, mi), {})
                    for w in tgt:
                        # f(a·m) − (-1)^{n|a|} a·f(m), read at w
                        row = {(k, w): c for k, c in am.items() if (k, w) in in_ps}
                        an = {}
                        for nj in N.component(M.deg(mi) + n):
                            coef = act_N.get((a, nj), {}).get(w)
                            if coef:
                                an[(mi, nj)] = coef
                        constraints.add(vec_iadd(F, row, an, sgn))
            vecs = constraints.kernel(ps)
            if n == cut:
                vecs = self._cycles(vecs, n)
            if vecs:
                self._components[n] = vecs
                self._leads[n] = {max(v): i for i, v in enumerate(vecs)}

    def _cycles(self, vecs: list[dict], n: int) -> list[dict]:
        """The cycles among the combinations of the degree-n basis ``vecs``:
        one per non-pivot v_j of x ↦ Σ x_i·D(v_i), the vector Σ x_i·v_i."""
        F = self.field
        rows: dict = {}  # ground pair ↦ {i: its coefficient in D(v_i)}
        for i, v in enumerate(vecs):
            for pair, c in self.ground_differential(v, n).items():
                rows.setdefault(pair, {})[i] = c
        dv = Echelon(F)
        for row in rows.values():
            dv.add(row)
        return [linear(F, vecs.__getitem__, x) for x in dv.kernel(range(len(vecs)))]

    def _generator_pairs(self):
        """Free path: the pairs (g, w) of each degree |w| − |g|, in (g, w)
        order, and their positions; the reps wait for :meth:`component`.  A
        generator e·g of an idempotent e ≠ 1 pairs with the leads w of eN
        (:meth:`_corner`), a free one with every basis element w of N."""
        free, keep = self._free, self.degree_range
        self._values = free.per_idempotent(self._corner)  # g ↦ {w: u_w}, None for a free g
        self._pairs: dict[int, list[tuple[int, int]]] = {}
        for g, gen in enumerate(free.gens):
            values = self._values[g]
            for w in range(self.N.total_dim) if values is None else values:
                n = self.N.deg(w) - gen.degree
                if keep is None or n in keep:
                    self._pairs.setdefault(n, []).append((g, w))
        self._pos = {n: {pair: i for i, pair in enumerate(ps)} for n, ps in self._pairs.items()}
        self._components = None

    def _corner(self, e: dict) -> dict:
        """eN in lead form: {lead w: u_w}, the reduced echelon basis of the
        e·w, each 1 at its lead and 0 at the others.  Hom_A(A e ⊗ V, N) ≅
        Hom_k(V, eN), so a map is its values in eN at the generators, and
        they are read at the leads."""
        F, E = self.field, Echelon(self.field)
        for w in range(self.N.total_dim):
            E.add(linear(F, lambda a: self._a_times(a, {w: F.one}), e))
        return dict(sorted(E.rows.items()))

    def component(self, n: int) -> list:
        """Degree-n basis representatives.  On the free path the first call
        builds every degree's: the A-linear extensions of g ↦ u_w (w itself
        for a free g) and their leads, the ground pairs (1·g, w)."""
        if self._components is None:
            free, unit = self._free, self.A.unit
            self._leads = {
                d: {(free.index(g, unit), w): i for i, (g, w) in enumerate(ps)}
                for d, ps in self._pairs.items()
            }
            self._components = {
                d: [self._extension(g, self._value(g, w), d) for g, w in ps] for d, ps in self._pairs.items()
            }
        return self._components.get(n, [])

    def _value(self, g: int, w: int) -> dict:
        """u_w, the value at generator g of the pair (g, w): w itself for a free g."""
        values = self._values[g]
        return {w: self.field.one} if values is None else values[w]

    def _a_times(self, a: int, v: dict) -> dict:
        """a·v in N, for a basis element a of A and an element v of N."""
        return v if a == self.A.unit else linear(self.field, lambda w: self._act_N.get((a, w), {}), v)

    def _extension(self, g: int, value: dict, n: int) -> dict:
        """The degree-n ground Hom vector a·g ↦ (-1)^{n|a|} a·value on the
        basis elements a·g of g's row, zero on the other generators."""
        F, A = self.field, self.A
        ground: dict = {}
        for a, x in self._free.row(g).items():
            av = self._a_times(a, value)
            if av:
                vec_iadd(F, ground, {(x, k): c for k, c in av.items()}, F.sign(n * A.deg(a)))
        return ground

    def _differentials(self) -> dict:
        if self._free is None:
            return super()._differentials()
        # D(f)(h) = d_N(f(h)) − (-1)^n f(d h) on generator values: the pair
        # (g, w) gives d_N(u_w) at g and −(-1)^n (-1)^{n|a|} c·a·u_w at each
        # generator h whose d(h) has the term c·a·g, each kept at the pairs of
        # degree n − 1 (for a generator of A e, the leads of eN, where it lies)
        F, A, N = self.field, self.A, self.N
        # g ↦ {w: d_N(u_w)}: N's own table for a free g
        d_values = [N.diff if v is None else {w: N.d_elem(u) for w, u in v.items()} for v in self._values]
        into: dict[int, list] = {}  # g ↦ [(h, a, c)]: the terms c·a·g of each d(h)
        for h, gen in enumerate(self._free.gens):
            for x, c in gen.d_elem.items():
                g, a = self._free.split(x)
                into.setdefault(g, []).append((h, a, c))
        mats, keep = {}, self.degree_range
        for n in self.degrees():
            if keep is not None and n - 1 not in keep:
                continue
            pos = self._pos.get(n - 1, {})
            cols = []
            for g, w in self._pairs[n]:
                col = {pos[g, k]: c for k, c in d_values[g].get(w, {}).items() if (g, k) in pos}
                value = self._value(g, w)
                for h, a, c in into.get(g, ()):
                    aw = self._a_times(a, value)
                    sgn = F.sign(n * (A.deg(a) + 1) + 1)
                    vec_iadd(F, col, {pos[h, k]: c2 for k, c2 in aw.items() if (h, k) in pos}, sgn * c)
                cols.append(col)
            mats[n] = Matrix.from_columns(F, cols, len(pos))
        return mats

    # -- evaluation and differential on ground vectors -----------------------

    def evaluate(self, f: dict, elem: dict) -> dict:
        """Apply a Hom vector, as the map m ↦ f(m) of :func:`_as_map`, to an
        element of M; lands in N."""
        return linear(self.field, lambda m: f.get(m, {}), elem)

    def ground_differential(self, vec: dict, n: int) -> dict:
        """D(f) = d_N ∘ f − (-1)^n f ∘ d_M as a ground vector of degree n-1."""
        F = self.field
        f = _as_map(vec)
        out: dict = {}
        for mi, fm in f.items():
            vec_iadd(F, out, {(mi, k): c for k, c in self.N.d_elem(fm).items()})
        # (f ∘ d_M)(m) = Σ_k d(m)_k f(k), read off the transpose of d_M made at the first call
        if self._dM_into is None:
            self._dM_into = {}
            for mi, dm in self.M.diff.items():
                for k, c in dm.items():
                    self._dM_into.setdefault(k, {})[mi] = c
        sgn = F.sign(n + 1)
        for k, fk in f.items():
            for mi, c in self._dM_into.get(k, {}).items():
                vec_iadd(F, out, {(mi, nj): c2 for nj, c2 in fk.items()}, sgn * c)
        return out

    def coords(self, ground: dict, n: int) -> dict:
        """Coordinates {position: c} of an A-linear ground vector of degree n:
        its values at the leads.

        Raises ValueError for a vector that is not A-linear of degree n."""
        basis = self.component(n)  # on the free path, builds the leads too
        x = lead_coords(self.field, basis, self._leads.get(n, {}), ground)
        if x is None:
            raise ValueError(f"ground vector is not an A-linear map of degree {n} (outside the Hom span)")
        return x

    # -- outer actions on ground vectors -------------------------------------

    def _left_act_ground(self, s: int, f: dict, n: int) -> dict:
        """(s·f)(m) = (-1)^{|s|(|f|+|m|)} f(m·s) using the right action on M."""
        F = self.field
        ds = self.outer_left.deg(s)
        fmap = _as_map(f)
        out: dict = {}
        for mi in range(self.M.total_dim):
            ms = self._act_outer_l.get((s, mi), {})
            if ms:
                fms = linear(F, lambda k: fmap.get(k, {}), ms)
                sgn = F.sign(ds * (n + self.M.deg(mi)))
                vec_iadd(F, out, {(mi, nj): c for nj, c in fms.items()}, sgn)
        return out

    def _right_act_ground(self, t: int, f: dict, n: int) -> dict:
        """(f·t)(m) = (-1)^{|t||m|} f(m)·t using the right action on N."""
        F = self.field
        dt = self.outer_right.deg(t)
        out: dict = {}
        for (mi, nj), c in f.items():
            nt = {(mi, k): c2 for k, c2 in self._act_outer_r.get((t, nj), {}).items()}
            vec_iadd(F, out, nt, F.sign(dt * self.M.deg(mi)) * c)
        return out


def hom_over(
    A: DgAlgebra, M, N, name: str | None = None, *, degrees: Window | None = None
) -> HomComplex:
    return HomComplex(A, M, N, name=name, degrees=degrees)


def identity_ground(M) -> dict:
    """Ground vector of the identity of M, as an element of Hom(M, M)."""
    return {(i, i): M.field.one for i in range(M.total_dim)}


def _pointwise(X, n: int, value) -> dict:
    """The degree-n Hom ground vector x ↦ (-1)^{n|x|} value(x), defined on the
    basis elements x of X: the one sign rule of maps into Hom built pointwise."""
    F = X.field
    ground: dict = {}
    for x in range(X.total_dim):
        v = value(x)
        if v:
            vec_iadd(F, ground, {(x, k): c for k, c in v.items()}, F.sign(n * X.deg(x)))
    return ground


def endomorphism_dga(M: DgModule):
    """Endomorphism DGA of a left module, and M as an R-F^op-bimodule.

    Multiplication is composition; the unit is the identity map, which
    replaces the last degree-0 basis vector of Hom(M, M) that its
    coordinates use.  The right F^op-action on M is m·f = (-1)^{|f||m|} f(m).
    """
    return _endomorphism_dga(hom_over(M.algebra, M, M, name=f"End({M.name})"))


def _endomorphism_dga(H: HomComplex):
    """:func:`endomorphism_dga` on H = Hom(M, M).  F's basis is H's with the
    identity at F's unit, so elements of F are H's coordinates with those of
    degree 0 converted there."""
    from .dga import opposite

    M, A, F = H.M, H.A, H.field
    basis = H.basis
    # the identity's coordinates are its values at the leads, ground pairs,
    # so each is 1: h_unit = id − Σ_{i ≠ unit} h_i over the coordinates i
    ident = H.element(identity_ground(M), 0)
    if not ident:
        raise ValueError(f"{M.name} is zero: its endomorphism DGA has no unit")
    unit = max(ident)

    def seated(e: dict) -> dict:
        """An element in H's basis, rewritten in F's."""
        c = e.get(unit)
        if c:
            vec_iadd(F, e, ident, -c)
            e[unit] = c
        return dict(sorted(e.items()))

    fs = [_as_map(f) for f in H.reps]  # each basis element of F as the map m ↦ f(m)
    fs[unit] = _as_map(identity_ground(M))
    mul = {}
    for i1, f1 in enumerate(fs):
        for i2, f2 in enumerate(fs):
            comp: dict = {}
            for mi in range(M.total_dim):
                img = H.evaluate(f1, f2.get(mi, {}))
                vec_iadd(F, comp, {(mi, nj): c for nj, c in img.items()})
            if comp:
                nn = basis[i1][1] + basis[i2][1]
                if not H.component(nn):
                    raise ValueError("composition left the Hom complex")
                e = seated(H.element(comp, nn))
                if e:
                    mul[(i1, i2)] = e
    # D(id) = 0; every other differential is H's, seated
    diff = {g: seated(e) for g, e in H._table().items() if g != unit}
    Fdga = DgAlgebra(F, basis, unit, mul, diff, name=f"End({M.name})")
    S = opposite(Fdga)
    act_right = {(fi, mi): f[mi] for fi, f in enumerate(fs) for mi in range(M.total_dim) if mi in f}
    act_right = koszul_signed(F, act_right, lambda fi: basis[fi][1], M.deg)
    bimod = DgBimodule(A, S, M.basis, dict(M.act), act_right, M.diff, name=M.name)
    return Fdga, bimod
