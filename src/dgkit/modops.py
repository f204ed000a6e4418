"""Operations on DG modules: A-linear chain maps, shifts, sums, cones, frees.

Every map given by the images of basis elements is assembled by
:func:`~dgkit.dga.matrices_from_images`.  A module map, ``DgModuleMap``, is the
``ChainMap`` of the underlying complexes plus its modules and A-linearity;
``module_cone`` builds the cone of one as a module.  A free module,
``FreeModule``, is a ``DgModule`` that grows its own tables: one record.
Its generators span A e for the orthogonal idempotents e of ``idempotents``
(1 alone for an algebra without others), so it is projective, and free when
every e is 1; ``quotient_forms`` gives the bases of the A e and of the Me
that the free tensor path reads.

Suspension convention for left modules: the action on shift(M, t) is twisted
by (-1)^{t|a|}; right actions are untwisted.  Both choices are forced by the
Leibniz rules once the shifted differential is (-1)^t d.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import Echelon, Matrix
from .complexes import ChainMap, Violation
from .dga import DgAlgebra, DgBimodule, DgModule, koszul_signed, linear, vec_iadd, vec_scale


class DgModuleMap(ChainMap):
    """A-linear degree-0 chain map between DG modules over one algebra: the
    ``ChainMap`` of their underlying complexes, with the two modules kept in
    ``modules`` for the side check and the A-linearity of ``validate``."""

    def __init__(self, source: DgModule, target: DgModule, mats: dict[int, Matrix]):
        if source.side != target.side:
            raise ValueError("side mismatch")
        super().__init__(source.underlying(), target.underlying(), mats)
        self.modules = source, target

    def validate(self):
        """Chain-map property plus A-linearity, f(a·m) = a·f(m) compared column
        by column with no action matrix; the Violation names the first basis
        element a of A, then the lowest degree, where it fails."""
        cm = super().validate()
        if cm is not True:
            return cm
        M, N = self.modules
        A = M.algebra
        for a in range(A.total_dim):
            p, one = A.deg(a), {a: A.field.one}
            for n in M.degrees():
                fn, f_up = self.mats.get(n), self.mats.get(n + p)
                for q, m in enumerate(M.component(n)):
                    fam = f_up.image(M.coords(M.act.get((a, m), {}), n + p)) if f_up else {}
                    fm = N.elem_from_component(fn.columns[q], n) if fn else {}
                    if fam != N.coords(N.act_elem(one, fm), n + p):
                        return Violation(n, f"not linear over basis element {A.label(a)}")
        return True


def module_shift(M: DgModule, t: int) -> DgModule:
    basis = [(f"s{t}.{lab}" if t else lab, d + t) for lab, d in M.basis]
    F = M.field
    diff = {i: vec_scale(F, F.sign(t), e) for i, e in M.diff.items()}
    if M.side == "left":
        act = koszul_signed(F, M.act, M.algebra.deg, lambda m: t)
    else:
        act = dict(M.act)
    return DgModule(M.algebra, M.side, basis, act, diff, name=f"Σ^{t}{M.name}" if t else M.name)


def module_direct_sum(summands: list[DgModule]) -> DgModule:
    if not summands:
        raise ValueError("empty module sum needs an algebra; use a zero module")
    A = summands[0].algebra
    side = summands[0].side
    basis, act, diff = [], {}, {}
    offset = 0
    for s in summands:
        for lab, d in s.basis:
            basis.append((f"p{offset}.{lab}", d))
        for (a, m), e in s.act.items():
            act[(a, m + offset)] = {k + offset: c for k, c in e.items()}
        for m, e in s.diff.items():
            diff[m + offset] = {k + offset: c for k, c in e.items()}
        offset += s.total_dim
    return DgModule(A, side, basis, act, diff, name="⊕".join(s.name for s in summands))


def module_cone(f: DgModuleMap) -> DgModule:
    """Cone of an A-linear map at module level: the target basis followed by
    the suspended source basis."""
    M, N = f.modules
    A, F = M.algebra, M.field
    nN = N.total_dim
    basis = [(f"t.{lab}", d) for lab, d in N.basis] + [
        (f"s.{lab}", d + 1) for lab, d in M.basis
    ]
    # the source part is shift(M, 1) moved past N's indices, plus f in the differential
    SM = module_shift(M, 1)
    act = {}
    for (a, m), e in N.act.items():
        act[(a, m)] = dict(e)
    for (a, m), e in SM.act.items():
        act[(a, m + nN)] = {k + nN: c for k, c in e.items()}
    diff = {}
    for m, e in N.diff.items():
        diff[m] = dict(e)
    for m in range(M.total_dim):
        e = {k + nN: c for k, c in SM.diff.get(m, {}).items()}
        n = M.deg(m)
        vec_iadd(F, e, N.elem_from_component(f.f(n).columns[M._pos[m]], n))
        if e:
            diff[m + nN] = e
    return DgModule(A, M.side, basis, act, diff, name=f"cone({M.name}->{N.name})")


# -- free and projective modules ---------------------------------------------


@dataclass
class Generator:
    label: str
    degree: int
    d_elem: dict = dc_field(default_factory=dict)  # over free-module indices
    eps: dict = dc_field(default_factory=dict)  # over target-module indices
    idempotent: dict | None = None  # e: the generator spans A e; None or 1 for A


def idempotents(A: DgAlgebra) -> list[dict]:
    """The idempotents whose summands A e a resolution's generators span.

    Each basis element b ≠ 1 of degree 0 with d b = 0 and b·b = λb for some
    λ ≠ 0 gives the idempotent e = λ⁻¹b; in basis order, each one orthogonal
    to those kept before it is kept.  The complement 1 − Σe, never zero
    since 1 is a basis element of its own, closes the list, so the e are
    orthogonal, sum to 1 and A = ⊕ A e.  An algebra without such b has [1]:
    free generators only.
    """
    F = A.field
    found: list[dict] = []
    for b in A.component(0):
        square = {k: c for k, c in A.mul.get((b, b), {}).items() if c}
        if b == A.unit or b in A.diff or list(square) != [b]:
            continue
        e = {b: F.inv(square[b])}
        if all(not A.mul_elem(e, f) and not A.mul_elem(f, e) for f in found):
            found.append(e)
    rest = A.one()
    for e in found:
        vec_iadd(F, rest, e, F.sign(1))
    return found + [rest]


def quotient_forms(F, dim: int, times_e, last: int | None = None) -> dict:
    """Normal forms modulo X(1 − e), for a right module X over an algebra
    with an idempotent e, of dimension ``dim``: basis element x ↦ its
    normal form modulo the reduced echelon basis of the x − x·e, where
    ``times_e(x)`` is x·e.  X = Xe ⊕ X(1 − e), so X/X(1 − e) ≅ Xe by
    [x] ↦ x·e: the x off the pivots, whose forms are {x: 1}, make a basis
    of Xe, and an element's coordinates there are its normal form, the sum
    of its entries' forms.  Basis element ``last`` is ordered after all the
    others, so it is off the pivots unless x·e = 0 for it.
    """
    kernel = Echelon(F)  # X(1 − e), on the keys (x is last, x)
    for x in range(dim):
        kernel.add({(y == last, y): c for y, c in vec_iadd(F, {x: F.one}, times_e(x), F.sign(1)).items()})
    forms = {}
    for x in range(dim):
        forms[x] = dict(sorted((y, c) for (_, y), c in kernel.reduce({(x == last, x): F.one}).items()))
    return forms


class _Summand:
    """A e for an idempotent e of degree 0 with d e = 0, on the basis a·e for
    the a in ``elems``: those off the pivots of A(1 − e), 1 among them and
    first (:func:`quotient_forms`, with 1 ordered last).  ``mul_into[a]``
    lists the nonzero b·(a·e) over that basis, in b order, and ``diff[a]``
    is d(a·e) = d(a)·e over it: the normal forms of b·a and d(a).  Without e
    it is A: every a, A's products and differential."""

    def __init__(self, A: DgAlgebra, e: dict | None = None):
        dA = range(A.total_dim)
        if e is None:
            self.elems = list(dA)
            self.mul_into = [[(b, A.mul[b, a]) for b in dA if (b, a) in A.mul] for a in dA]
            self.diff = A.diff
            return
        F = A.field
        forms = quotient_forms(F, A.total_dim, lambda a: A.mul_elem({a: F.one}, e), last=A.unit)
        self.elems = [A.unit] + [a for a in dA if a != A.unit and a in forms[a]]
        self.mul_into, self.diff = {}, {}
        for a in self.elems:
            prods = ((b, linear(F, forms.__getitem__, A.mul.get((b, a), {}))) for b in dA)
            self.mul_into[a] = [(b, p) for b, p in prods if p]
            da = linear(F, forms.__getitem__, A.diff.get(a, {}))
            if da:
                self.diff[a] = da


class FreeModule(DgModule):
    """Left A-module on graded generators, each spanning A e for its
    idempotent e (``Generator.idempotent``, from :func:`idempotents`; 1 for
    a free generator): a ``DgModule`` whose tables grow in place, free when
    every e is 1 and ``projective`` otherwise.

    Its layout numbers the basis: ``index(g, a)`` is the basis index of a·g,
    for generator g and an algebra basis element a of g's ``row``, ``split``
    is its inverse, and each generator's ``degree`` and ``d_elem`` are in
    that numbering.  Generator g is e·g, and its row runs over a basis a·e
    of A e (``_Summand``): every a for e = 1, so the layout is g·dim A + a;
    otherwise the unit first and then the other a off the pivots of the
    echelon basis of A(1 − e).  ``add`` appends a generator in that layout.
    Its ``d_elem`` lies over earlier generators, and e·d_elem = d_elem for
    its e, so any semifree module, and any module with a finite projective
    resolution, can be presented, and its basis elements a·g are computed
    once: their labels, their action rows b·(a·g) = (ba)·g and d(a·g) =
    d(a)·g + (-1)^{|a|} a·d(g), with (ba)·g and d(a)·g = (d(a)·e)·g read
    over the basis of A e, appended to the module's own basis and tables.
    ``per_idempotent`` makes what a free path reads of each e once.
    ``prefix(k)`` copies the module on the first k generators.  ``view``
    presents a module built elsewhere as a free one on its own numbering.
    The name is free(g0,g1,…) on the generators so far unless ``view`` is
    given one.
    """

    def __init__(self, algebra: DgAlgebra, gens=()):
        super().__init__(algebra, "left", [], {}, {}, None)
        self._layout([], [])
        for gen in gens:
            self.add(gen)

    @classmethod
    def view(cls, algebra: DgAlgebra, rows, basis, diff, gens=None, bimodule=None, name=None):
        """The module whose a·g is basis element rows[g][a], over a basis and
        differential numbered elsewhere; without ``gens``, each generator is
        free, with the label, degree and differential of its head 1·g.

        When it is the left module of ``bimodule``, its action is the
        bimodule's left action and ``bimodule`` is kept; else the action is
        A's multiplication on the layout.
        """
        free = cls.__new__(cls)
        act = {} if bimodule is None else bimodule.act_left
        DgModule.__init__(free, algebra, "left", basis, act, diff, name)
        if gens is None:
            heads = (row[algebra.unit] for row in rows)
            gens = [Generator(free.label(x), free.deg(x), free.diff.get(x, {})) for x in heads]
        free._layout(gens, rows, bimodule)
        if bimodule is None:
            for gen, key, row in zip(gens, free._types, rows):
                free._act_on(row, free._summand(key, gen.idempotent))
        return free

    def _layout(self, gens, rows, bimodule=None):
        """The generators, ``index`` and ``split`` tables, and the summands
        A e of their idempotents, made at their first read."""
        self.gens: list[Generator] = list(gens)
        self._rows: list[dict[int, int]] = rows  # g ↦ {a: the index of a·g}
        self._split: list = [None] * self.total_dim  # basis index ↦ (g, a)
        for g, row in enumerate(rows):
            for a, x in row.items():
                self._split[x] = (g, a)
        self.bimodule = bimodule
        self._summands: dict = {}  # idempotent, as sorted items (None for 1) ↦ _Summand
        self._one = self.algebra.one()
        self._types = [self._key(gen.idempotent) for gen in gens]  # g ↦ its idempotent's key
        self.projective = any(self._types)  # some e ≠ 1

    def _key(self, e: dict | None) -> tuple | None:
        """An idempotent as sorted items, and None for 1."""
        return None if e is None or e == self._one else tuple(sorted(e.items()))

    def _summand(self, key, e: dict | None) -> _Summand:
        """A e for the idempotent e whose key is ``key``."""
        if key not in self._summands:
            self._summands[key] = _Summand(self.algebra, None if key is None else e)
        return self._summands[key]

    @property
    def name(self) -> str:
        return self._name or f"free({','.join(g.label for g in self.gens)})"

    @name.setter
    def name(self, name):
        self._name = name

    def index(self, g: int, a: int) -> int:
        return self._rows[g][a]

    def split(self, idx: int) -> tuple[int, int]:
        return self._split[idx]

    def row(self, g: int) -> dict[int, int]:
        """{a: index(g, a)}: the basis elements a·g of generator g, in index order."""
        return self._rows[g]

    def per_idempotent(self, make) -> list:
        """g ↦ make(e) for generator g's idempotent e ≠ 1, made once per e,
        and None for a free generator."""
        out = [None] * len(self.gens)
        if not self.projective:
            return out
        made: dict = {}
        for g, key in enumerate(self._types):
            if key is not None:
                if key not in made:
                    made[key] = make(self.gens[g].idempotent)
                out[g] = made[key]
        return out

    def _act_on(self, row: dict[int, int], summand: _Summand):
        """The action rows of one generator's basis elements: b·(a·g) = (ba)·g."""
        for a, x in row.items():
            for b, prod in summand.mul_into[a]:
                self.act[b, x] = {row[a2]: c for a2, c in prod.items()}

    def add(self, gen: Generator) -> int:
        """Append a generator, whose d_elem lies over earlier ones; returns its number."""
        A, F = self.algebra, self.field
        key = self._key(gen.idempotent)
        summand = self._summand(key, gen.idempotent)
        g, base = len(self.gens), self.total_dim
        row = dict(zip(summand.elems, range(base, base + len(summand.elems))))
        self.gens.append(gen)
        self._types.append(key)
        self.projective = self.projective or key is not None
        self._rows.append(row)
        self._act_on(row, summand)
        for a, x in row.items():
            n = A.deg(a) + gen.degree
            self.basis.append((f"{A.label(a)}·{gen.label}", n))
            self._split.append((g, a))
            comp = self._by_degree.setdefault(n, [])
            self._pos.append(len(comp))
            comp.append(x)
            e = {row[a2]: c for a2, c in summand.diff.get(a, {}).items()}
            vec_iadd(F, e, linear(F, lambda y: self.act.get((a, y), {}), gen.d_elem), F.sign(A.deg(a)))
            if e:
                self.diff[x] = e
        self._complex = None
        return g

    def prefix(self, k: int) -> "FreeModule":
        """A copy on the first k generators of a module grown by ``add``: the
        module ``add`` made after them."""
        end = next(iter(self._rows[k].values())) if k < len(self.gens) else self.total_dim
        diff = {x: e for x, e in self.diff.items() if x < end}
        return FreeModule.view(self.algebra, self._rows[:k], self.basis[:end], diff, gens=self.gens[:k])


def left_free(Q: DgBimodule, env: FreeModule) -> FreeModule:
    """Q, an R-S-bimodule free over enveloping(R, S) on ``env``'s generators,
    as a left R-module: free on the (1⊗s_j)·g, on Q's own numbering.

    ``enveloping`` numbers r_i⊗s_j as i·|S| + j, and (r_i⊗1)(1⊗s_j) = r_i⊗s_j
    with no sign, so r_i·(1⊗s_j)·g is env's basis element at a = i·|S| + j.
    ``env_module_to_bimodule`` puts no sign on the left action either, so
    the view reads Q's own tables.  Only the rows are passed on:
    ``FreeModule.view`` makes each generator (1⊗s_j)·g, free over R, with
    its head's label, degree and differential.
    """
    R, nS = Q.left_algebra, Q.right_algebra.total_dim
    heads = [(g, j) for g in range(len(env.gens)) for j in range(nS)]  # (1⊗s_j)·g
    rows = [{i: env.index(g, i * nS + j) for i in range(R.total_dim)} for g, j in heads]
    return FreeModule.view(R, rows, Q.basis, Q.diff, bimodule=Q, name=Q.name)
