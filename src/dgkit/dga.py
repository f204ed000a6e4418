"""DG algebras, DG (bi)modules, and DGA morphisms as basis-indexed data.

Elements are sparse dicts ``{global basis index: scalar}``; they are added
and scaled by the sparse-vector kernel of :mod:`dgkit.linalg` (re-exported
here as ``vec_iadd`` and ``vec_scale``), and every sign is ``Field.sign``.
Structure constants (multiplication, actions, differentials) are given on
basis elements and extended bilinearly.  Every constructor keeps the entries
it is given in tables of its own: new outer dicts without the empty entries,
sharing the entry dicts, which nothing changes in place.  A graded object's
differential is built by :func:`matrices_from_images`, as every map given on
basis elements is; no action matrix is built.  All axioms are verified
exactly on basis tuples by the ``validate_*`` functions.

Sign conventions (fixed once, certified by the validators):
  * left Leibniz   d(a m) = d(a) m + (-1)^{|a|} a d(m)
  * right Leibniz  d(m a) = d(m) a + (-1)^{|m|} m d(a)
  * opposite       a *op b = (-1)^{|a||b|} b a
  * graded tensor  (r⊗t)(r'⊗t') = (-1)^{|t||r'|} r r' ⊗ t t'
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Field
from .linalg import Matrix, vec_iadd, vec_scale
from .complexes import Complex, GradedSpace, Window


# -- sparse element helpers ---------------------------------------------------


def bilinear(F: Field, table, a: dict, b: dict) -> dict:
    """Extend a basis-level product (i, j) -> element to elements a, b."""
    out: dict = {}
    for i, ci in a.items():
        for j, cj in b.items():
            vec_iadd(F, out, table(i, j), ci * cj)
    return out


def linear(F: Field, table, a: dict) -> dict:
    out: dict = {}
    for i, ci in a.items():
        if ci != 0:
            vec_iadd(F, out, table(i), ci)
    return out


def koszul_signed(F: Field, table: dict, deg_a, deg_x) -> dict:
    """The action table {(a, x): (-1)^{deg_a(a)·deg_x(x)} e} of {(a, x): e}.

    The one Koszul rewrite behind opposites, side swaps and enveloping
    actions.
    """
    return {(a, x): vec_scale(F, F.sign(deg_a(a) * deg_x(x)), e) for (a, x), e in table.items()}


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    where: tuple
    detail: str = ""

    def __str__(self):
        loc = ", ".join(str(x) for x in self.where)
        extra = f": {self.detail}" if self.detail else ""
        return f"{self.axiom} fails at ({loc}){extra}"


def matrices_from_images(
    source, target, image, offset: int = 0, degrees: Window | None = None
) -> dict[int, Matrix]:
    """Matrices of the linear map b ↦ image(b, n), source_n → target_{n+offset}.

    ``source`` and ``target`` are graded carriers: DG algebras and
    (bi)modules, tensor products and Hom complexes.  Each has ``degrees()``,
    ``component(n)`` (its degree-n basis, as basis indices, ground pairs or
    Hom ground vectors) and ``coords(element, n)``, the sparse coordinates
    {position: c} of a degree-n element.  ``image`` receives a
    member of ``source.component(n)`` and its degree and returns an element
    of ``target`` of degree n + offset.  With a ``degrees`` window, f_n is
    built only where n and n + offset both lie in it, as on a range-built
    complex.
    """
    F = target.field
    return {
        n: Matrix.from_columns(
            F,
            [target.coords(image(b, n), n + offset) for b in source.component(n)],
            rows=len(target.component(n + offset)),
        )
        for n in source.degrees()
        if degrees is None or (n in degrees and n + offset in degrees)
    }


class _Graded:
    """Shared machinery: graded basis, differential, underlying complex."""

    def __init__(self, field: Field, basis: list[tuple[str, int]], diff: dict[int, dict]):
        self.field = field
        self.basis = list(basis)
        self.diff = {i: e for i, e in diff.items() if e}
        self._by_degree: dict[int, list[int]] = {}
        self._pos: list[int] = []  # position of each basis index in its component
        for i, (_, d) in enumerate(self.basis):
            comp = self._by_degree.setdefault(d, [])
            self._pos.append(len(comp))
            comp.append(i)
        self._complex = None

    def deg(self, i: int) -> int:
        return self.basis[i][1]

    def label(self, i: int) -> str:
        return self.basis[i][0]

    def component(self, n: int) -> list[int]:
        return self._by_degree.get(n, [])

    def degrees(self):
        return sorted(self._by_degree)

    def min_degree(self) -> int:
        return min(self._by_degree) if self._by_degree else 0

    def max_degree(self) -> int:
        return max(self._by_degree) if self._by_degree else 0

    def d_elem(self, a: dict) -> dict:
        return linear(self.field, lambda i: self.diff.get(i, {}), a)

    def elem_degree(self, a: dict):
        degs = {self.deg(i) for i, c in a.items() if c != 0}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element across degrees {sorted(degs)}")
        return degs.pop()

    def coords(self, a: dict, n: int) -> dict:
        """Coordinates {position: c} of a degree-n element in the component basis."""
        out = {}
        for g, c in a.items():
            if c != 0:
                if self.deg(g) != n:
                    raise ValueError("element not concentrated in requested degree")
                out[self._pos[g]] = c
        return out

    def elem_from_component(self, vec: dict, n: int) -> dict:
        """The element with coordinates {position: c} in the degree-n component."""
        idx = self.component(n)
        return {idx[p]: c for p, c in sorted(vec.items()) if c != 0}

    def underlying(self) -> Complex:
        if self._complex is None:
            dims = {n: len(ix) for n, ix in self._by_degree.items()}
            diffs = matrices_from_images(self, self, lambda g, n: self.diff.get(g, {}), -1)
            self._complex = Complex(self.field, GradedSpace(dims), diffs)
        return self._complex

    @property
    def total_dim(self) -> int:
        return len(self.basis)


class DgAlgebra(_Graded):
    """DGA presented by structure constants on a finite graded basis."""

    def __init__(self, field, basis, unit: int, mul: dict, diff: dict, name: str = "A"):
        super().__init__(field, basis, diff)
        self.unit = unit
        self.mul = {ij: e for ij, e in mul.items() if e}
        self.name = name

    def mul_elem(self, a: dict, b: dict) -> dict:
        return bilinear(self.field, lambda i, j: self.mul.get((i, j), {}), a, b)

    def one(self) -> dict:
        return {self.unit: self.field.one}

    def __repr__(self):
        return f"DgAlgebra({self.name}, dim={self.total_dim})"


class DgModule(_Graded):
    """One-sided DG module.  ``act[(a, m)]`` is a·m (left) or m·a (right)."""

    def __init__(self, algebra: DgAlgebra, side: str, basis, act: dict, diff: dict, name: str = "M"):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        super().__init__(algebra.field, basis, diff)
        self.algebra = algebra
        self.side = side
        self.act = {am: e for am, e in act.items() if e}
        self.name = name

    def act_elem(self, a: dict, m: dict) -> dict:
        """Apply an algebra element: a·m (left) or m·a (right)."""
        return bilinear(self.field, lambda i, j: self.act.get((i, j), {}), a, m)

    def __repr__(self):
        return f"DgModule({self.name}, {self.side} over {self.algebra.name}, dim={self.total_dim})"


class DgBimodule(_Graded):
    """DG R-S-bimodule: left R-action and right S-action, compatible."""

    def __init__(self, left_algebra, right_algebra, basis, act_left, act_right, diff, name="M"):
        if left_algebra.field != right_algebra.field:
            raise ValueError("bimodule algebras over different fields")
        super().__init__(left_algebra.field, basis, diff)
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.act_left = {am: e for am, e in act_left.items() if e}
        self.act_right = {am: e for am, e in act_right.items() if e}
        self.name = name

    def left_module(self) -> DgModule:
        return DgModule(
            self.left_algebra, "left", self.basis, self.act_left, self.diff, self.name
        )

    def right_module(self) -> DgModule:
        return DgModule(
            self.right_algebra, "right", self.basis, self.act_right, self.diff, self.name
        )

    def act_left_elem(self, r: dict, m: dict) -> dict:
        return bilinear(self.field, lambda i, j: self.act_left.get((i, j), {}), r, m)

    def act_right_elem(self, s: dict, m: dict) -> dict:
        return bilinear(self.field, lambda i, j: self.act_right.get((i, j), {}), s, m)

    def __repr__(self):
        return (
            f"DgBimodule({self.name}, {self.left_algebra.name}-"
            f"{self.right_algebra.name}, dim={self.total_dim})"
        )


class DgaMorphism:
    """Morphism of DGAs: degree-preserving images of source basis elements."""

    def __init__(self, source: DgAlgebra, target: DgAlgebra, images: dict[int, dict], name="phi"):
        self.source = source
        self.target = target
        self.images = {i: dict(e) for i, e in images.items()}
        self.name = name

    def apply(self, a: dict) -> dict:
        return linear(self.source.field, lambda i: self.images.get(i, {}), a)

    def __repr__(self):
        return f"DgaMorphism({self.name}: {self.source.name} -> {self.target.name})"


# -- validation ---------------------------------------------------------------


def _check_graded_table(obj, table, deg_of_result, kind, violations):
    for key, e in table.items():
        for tgt, c in e.items():
            if c != 0 and obj.deg(tgt) != deg_of_result(key):
                # differential tables are keyed by one basis index
                where = key if isinstance(key, tuple) else (key,)
                violations.append(
                    AxiomViolation("grading", where, f"{kind} output hits degree {obj.deg(tgt)}")
                )
                break


def validate_dga(A: DgAlgebra) -> list[AxiomViolation]:
    """All DGA axioms, checked exactly on basis tuples.  Empty list = valid."""
    F = A.field
    v: list[AxiomViolation] = []
    if A.deg(A.unit) != 0:
        v.append(AxiomViolation("unit-degree", (A.unit,)))
    _check_graded_table(A, A.mul, lambda ij: A.deg(ij[0]) + A.deg(ij[1]), "mul", v)
    _check_graded_table(A, A.diff, lambda i: A.deg(i) - 1, "d", v)
    if A.d_elem(A.one()):
        v.append(AxiomViolation("d-unit", (A.unit,), "d(1) != 0"))
    n_basis = range(A.total_dim)
    for i in n_basis:
        if A.mul_elem(A.one(), {i: F.one}) != {i: F.one}:
            v.append(AxiomViolation("unit-law", (A.unit, i), "1·a != a"))
        if A.mul_elem({i: F.one}, A.one()) != {i: F.one}:
            v.append(AxiomViolation("unit-law", (i, A.unit), "a·1 != a"))
        if A.d_elem(A.d_elem({i: F.one})):
            v.append(AxiomViolation("d-squared", (i,)))
    for i in n_basis:
        for j in n_basis:
            a, b = {i: F.one}, {j: F.one}
            lhs = A.d_elem(A.mul_elem(a, b))
            rhs = vec_iadd(
                F, A.mul_elem(A.d_elem(a), b), A.mul_elem(a, A.d_elem(b)), F.sign(A.deg(i))
            )
            if lhs != rhs:
                v.append(AxiomViolation("leibniz", (i, j)))
    for i in n_basis:
        for j in n_basis:
            ab = A.mul_elem({i: F.one}, {j: F.one})
            for k in n_basis:
                lhs = A.mul_elem(ab, {k: F.one})
                rhs = A.mul_elem({i: F.one}, A.mul_elem({j: F.one}, {k: F.one}))
                if lhs != rhs:
                    v.append(AxiomViolation("associativity", (i, j, k)))
    return v


def _validate_one_sided(M: DgModule, act_elem, side: str, v: list[AxiomViolation]):
    A, F = M.algebra, M.field
    _check_graded_table(
        M, M.act, lambda am: A.deg(am[0]) + M.deg(am[1]), f"{side}-action", v
    )
    _check_graded_table(M, M.diff, lambda i: M.deg(i) - 1, "d", v)
    for m in range(M.total_dim):
        e = {m: F.one}
        if act_elem(A.one(), e) != e:
            v.append(AxiomViolation("unit-action", (A.unit, m)))
        if M.d_elem(M.d_elem(e)):
            v.append(AxiomViolation("d-squared", (m,)))
    for i in range(A.total_dim):
        ai = {i: F.one}
        for m in range(M.total_dim):
            em = {m: F.one}
            lhs = M.d_elem(act_elem(ai, em))
            if side == "left":
                rhs = vec_iadd(
                    F, act_elem(A.d_elem(ai), em), act_elem(ai, M.d_elem(em)), F.sign(A.deg(i))
                )
            else:
                rhs = vec_iadd(
                    F, act_elem(ai, M.d_elem(em)), act_elem(A.d_elem(ai), em), F.sign(M.deg(m))
                )
            if lhs != rhs:
                v.append(AxiomViolation(f"leibniz-{side}", (i, m)))
    for i in range(A.total_dim):
        for j in range(A.total_dim):
            ai, aj = {i: F.one}, {j: F.one}
            prod = A.mul_elem(ai, aj)
            for m in range(M.total_dim):
                em = {m: F.one}
                lhs = act_elem(prod, em)
                if side == "left":
                    rhs = act_elem(ai, act_elem(aj, em))
                else:
                    # m·(ab) = (m·a)·b
                    rhs = act_elem(aj, act_elem(ai, em))
                if lhs != rhs:
                    v.append(AxiomViolation(f"associativity-{side}-action", (i, j, m)))


def validate_module(M) -> list[AxiomViolation]:
    """Axioms for DgModule or DgBimodule; empty list = valid."""
    v: list[AxiomViolation] = []
    if isinstance(M, DgBimodule):
        left = M.left_module()
        right = M.right_module()
        _validate_one_sided(left, left.act_elem, "left", v)
        _validate_one_sided(right, right.act_elem, "right", v)
        F = M.field
        for r in range(M.left_algebra.total_dim):
            for s in range(M.right_algebra.total_dim):
                er, es = {r: F.one}, {s: F.one}
                for m in range(M.total_dim):
                    em = {m: F.one}
                    lhs = M.act_left_elem(er, M.act_right_elem(es, em))
                    rhs = M.act_right_elem(es, M.act_left_elem(er, em))
                    if lhs != rhs:
                        v.append(AxiomViolation("bimodule-compatibility", (r, s, m)))
        return v
    _validate_one_sided(M, M.act_elem, M.side, v)
    return v


def validate_morphism(phi: DgaMorphism) -> list[AxiomViolation]:
    R, S, F = phi.source, phi.target, phi.source.field
    v: list[AxiomViolation] = []
    for i, e in phi.images.items():
        d = S.elem_degree(e)
        if d is not None and d != R.deg(i):
            v.append(AxiomViolation("degree-preservation", (i,)))
    if phi.apply(R.one()) != S.one():
        v.append(AxiomViolation("unit-preservation", (R.unit,)))
    for i in range(R.total_dim):
        ei = {i: F.one}
        if phi.apply(R.d_elem(ei)) != S.d_elem(phi.apply(ei)):
            v.append(AxiomViolation("d-commutation", (i,)))
        for j in range(R.total_dim):
            ej = {j: F.one}
            lhs = phi.apply(R.mul_elem(ei, ej))
            rhs = S.mul_elem(phi.apply(ei), phi.apply(ej))
            if lhs != rhs:
                v.append(AxiomViolation("multiplicativity", (i, j)))
    return v


# -- constructions ------------------------------------------------------------


def opposite(A: DgAlgebra) -> DgAlgebra:
    """Opposite DGA: a *op b = (-1)^{|a||b|} b a."""
    n = range(A.total_dim)
    swapped = {(i, j): A.mul[(j, i)] for i in n for j in n if (j, i) in A.mul}
    mul = koszul_signed(A.field, swapped, A.deg, A.deg)
    return DgAlgebra(A.field, A.basis, A.unit, mul, A.diff, name=f"{A.name}^op")


def tensor_algebra(R: DgAlgebra, T: DgAlgebra, name: str | None = None) -> DgAlgebra:
    """Graded tensor product DGA R ⊗ T over the ground field."""
    if R.field != T.field:
        raise ValueError("mixed fields")
    F = R.field
    pairs = [(i, j) for i in range(R.total_dim) for j in range(T.total_dim)]
    index = {p: n for n, p in enumerate(pairs)}
    basis = [
        (f"{R.label(i)}⊗{T.label(j)}", R.deg(i) + T.deg(j)) for (i, j) in pairs
    ]

    def emb(er: dict, et: dict) -> dict:
        return linear(F, lambda i: {index[(i, j)]: cj for j, cj in et.items()}, er)

    mul = {}
    for a, (i1, j1) in enumerate(pairs):
        for b, (i2, j2) in enumerate(pairs):
            e = emb(R.mul.get((i1, i2), {}), T.mul.get((j1, j2), {}))
            if e:
                mul[(a, b)] = vec_scale(F, F.sign(T.deg(j1) * R.deg(i2)), e)
    diff = {}
    for a, (i, j) in enumerate(pairs):
        e = emb(R.diff.get(i, {}), {j: F.one})
        vec_iadd(F, e, emb({i: F.one}, T.diff.get(j, {})), F.sign(R.deg(i)))
        if e:
            diff[a] = e
    unit = index[(R.unit, T.unit)]
    return DgAlgebra(F, basis, unit, mul, diff, name=name or f"{R.name}⊗{T.name}")


def enveloping(R: DgAlgebra, S: DgAlgebra) -> DgAlgebra:
    """R ⊗ S^op: left modules over it are exactly R-S-bimodules."""
    return tensor_algebra(R, opposite(S), name=f"{R.name}^e({S.name})")


def swap_sides(
    X: DgBimodule, left: DgAlgebra, right: DgAlgebra, name: str | None = None
) -> DgBimodule:
    """X's right action as a left action of ``left``, and its left action as a
    right action of ``right``, each with the Koszul sign (-1)^{|a||x|}.

    An R-S-bimodule becomes an S^op-R^op-bimodule, and back.
    """
    F = X.field
    act_left = koszul_signed(F, X.act_right, X.right_algebra.deg, X.deg)
    act_right = koszul_signed(F, X.act_left, X.left_algebra.deg, X.deg)
    return DgBimodule(left, right, X.basis, act_left, act_right, X.diff, name=name or X.name)


def right_to_left_op(M: DgModule) -> DgModule:
    """Right A-module as a left A^op-module: a·m := (-1)^{|a||m|} m a."""
    return _other_side(M, "right", opposite(M.algebra))


def left_op_to_right(M: DgModule, A: DgAlgebra) -> DgModule:
    """Inverse of :func:`right_to_left_op` (A is the original algebra)."""
    return _other_side(M, "left", A)


def _other_side(M: DgModule, side: str, B: DgAlgebra) -> DgModule:
    """A ``side`` module as a module over B (A or A^op) on the other side, with
    the Koszul sign (-1)^{|a||m|}."""
    if M.side != side:
        raise ValueError(f"expected a {side} module")
    act = koszul_signed(M.field, M.act, B.deg, M.deg)
    other = "left" if side == "right" else "right"
    return DgModule(B, other, M.basis, act, M.diff, name=M.name)


def bimodule_to_env_module(M: DgBimodule) -> DgModule:
    """R-S-bimodule as a left module over enveloping(R, S).

    (r⊗s)·m = (-1)^{|s||m|} r (m s).  Inverse: :func:`env_module_to_bimodule`.
    """
    R, S, F = M.left_algebra, M.right_algebra, M.field
    E = enveloping(R, S)
    nS = S.total_dim
    act = {}
    for a in range(E.total_dim):
        i, j = divmod(a, nS)
        for m in range(M.total_dim):
            e = M.act_left_elem({i: F.one}, M.act_right_elem({j: F.one}, {m: F.one}))
            if e:
                act[(a, m)] = e
    act = koszul_signed(F, act, lambda a: S.deg(a % nS), M.deg)
    return DgModule(E, "left", M.basis, act, M.diff, name=M.name)


def env_module_to_bimodule(X: DgModule, R: DgAlgebra, S: DgAlgebra) -> DgBimodule:
    """Left enveloping(R,S)-module back to an R-S-bimodule, read off X's
    action table: r_i acts as r_i⊗1 and s_j as 1⊗s_j, with the Koszul sign
    (-1)^{|s||m|} on the right action."""
    nS = S.total_dim
    act_left = {(a // nS, m): e for (a, m), e in X.act.items() if a % nS == S.unit}
    act_right = {(a % nS, m): e for (a, m), e in X.act.items() if a // nS == R.unit}
    act_right = koszul_signed(X.field, act_right, S.deg, X.deg)
    return DgBimodule(R, S, X.basis, act_left, act_right, X.diff, name=X.name)


def restrict_scalars(M: DgModule, phi: DgaMorphism) -> DgModule:
    """View a module over S as a module over R via phi: R -> S."""
    if M.algebra is not phi.target and M.algebra.basis != phi.target.basis:
        raise ValueError("module is not over the morphism target")
    F = M.field
    act = {}
    for i in range(phi.source.total_dim):
        img = phi.apply({i: F.one})
        for m in range(M.total_dim):
            e = M.act_elem(img, {m: F.one})
            if e:
                act[(i, m)] = e
    return DgModule(phi.source, M.side, M.basis, act, M.diff, name=M.name)


def left_regular(A: DgAlgebra) -> DgModule:
    act = {ij: e for ij, e in A.mul.items()}
    return DgModule(A, "left", A.basis, act, A.diff, name=A.name)


def right_regular(A: DgAlgebra) -> DgModule:
    # act[(a, m)] = m·a
    act = {}
    for (i, j), e in A.mul.items():
        act[(j, i)] = e
    return DgModule(A, "right", A.basis, act, A.diff, name=A.name)


def regular_bimodule(A: DgAlgebra) -> DgBimodule:
    act_left = dict(A.mul)
    act_right = {(j, i): e for (i, j), e in A.mul.items()}
    return DgBimodule(A, A, A.basis, act_left, act_right, A.diff, name=A.name)


def bimodule_from_morphism(phi: DgaMorphism) -> DgBimodule:
    """The R-S-bimodule S with left R-action through phi: R -> S."""
    S = phi.target
    act_left = restrict_scalars(left_regular(S), phi).act
    act_right = {(j, i): e for (i, j), e in S.mul.items()}
    return DgBimodule(phi.source, S, S.basis, act_left, act_right, S.diff, name=S.name)


def sr_bimodule_from_morphism(phi: DgaMorphism) -> DgBimodule:
    """The S-R-bimodule S with right R-action through phi: R -> S."""
    S = phi.target
    act_right = restrict_scalars(right_regular(S), phi).act
    return DgBimodule(S, phi.source, S.basis, dict(S.mul), act_right, S.diff, name=S.name)
