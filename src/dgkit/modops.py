"""Operations on DG modules: A-linear chain maps, shifts, sums, cones, frees.

Every map given by the images of basis elements is assembled by
:func:`~dgkit.dga.matrices_from_images`.  A module map, ``DgModuleMap``, is the
``ChainMap`` of the underlying complexes plus its modules and A-linearity;
``module_cone`` builds the cone of one as a module.  A free module,
``FreeModule``, is a ``DgModule`` that grows its own tables: one record.

Suspension convention for left modules: the action on shift(M, t) is twisted
by (-1)^{t|a|}; right actions are untwisted.  Both choices are forced by the
Leibniz rules once the shifted differential is (-1)^t d.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .linalg import Matrix
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
        """Chain-map property plus A-linearity against both action tables."""
        cm = super().validate()
        if cm is not True:
            return cm
        M, N = self.modules
        A = M.algebra
        degrees = set(M.degrees()) | set(N.degrees())
        for a in range(A.total_dim):
            p = A.deg(a)
            for n in sorted(degrees):
                if self.f(n + p) * M.action_matrix(a, n) != N.action_matrix(a, n) * self.f(n):
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


# -- free and semifree modules ------------------------------------------------


@dataclass
class Generator:
    label: str
    degree: int
    d_elem: dict = dc_field(default_factory=dict)  # over free-module indices
    eps: dict = dc_field(default_factory=dict)  # over target-module indices


class FreeModule(DgModule):
    """Left A-module free on graded generators: a ``DgModule`` whose tables
    grow in place.

    Its layout numbers the basis: ``index(g, a)`` is the basis index of a·g,
    for generator g and algebra basis element a, ``split`` is its inverse,
    and each generator's ``degree`` and ``d_elem`` are in that numbering.
    ``add`` appends a generator in the standard layout g·dim A + a.  Its
    ``d_elem`` lies over earlier generators, so any semifree module can be
    presented, and its basis elements a·g are computed once: their labels,
    their action rows b·(a·g) = (ba)·g and d(a·g) = d(a)·g + (-1)^{|a|} a·d(g),
    appended to the module's own basis and tables.  ``prefix(k)`` copies the
    module on the first k generators.  ``view`` presents a module built
    elsewhere as a free one on its own numbering.  The name is
    free(g0,g1,…) on the generators so far unless ``view`` is given one.
    """

    def __init__(self, algebra: DgAlgebra, gens=()):
        super().__init__(algebra, "left", [], {}, {}, None)
        self._layout([], [])
        for gen in gens:
            self.add(gen)

    @classmethod
    def view(cls, algebra: DgAlgebra, gens, rows, basis, diff, bimodule=None, name=None):
        """The free module on ``gens`` whose a·g is basis element rows[g][a],
        over a basis and differential numbered elsewhere.

        When it is the left module of ``bimodule``, its action is the
        bimodule's left action and ``bimodule`` is kept; else the action is
        A's multiplication on the layout.
        """
        free = cls.__new__(cls)
        act = {} if bimodule is None else bimodule.act_left
        DgModule.__init__(free, algebra, "left", basis, act, diff, name)
        free._layout(gens, rows, bimodule)
        if bimodule is None:
            for row in rows:
                free._act_on(row)
        return free

    def _layout(self, gens, rows, bimodule=None):
        """The generators, ``index`` and ``split`` tables, and A's products by
        right factor: a ↦ the nonzero b·a, in b order."""
        self.gens: list[Generator] = list(gens)
        self._rows: list[list[int]] = rows  # g ↦ the index of a·g, for each a
        self._split: list = [None] * self.total_dim  # basis index ↦ (g, a)
        for g, row in enumerate(rows):
            for a, x in enumerate(row):
                self._split[x] = (g, a)
        self.bimodule = bimodule
        A, dA = self.algebra, range(self.algebra.total_dim)
        self._mul_into = [[(b, A.mul[b, a]) for b in dA if (b, a) in A.mul] for a in dA]

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

    def _act_on(self, row: list[int]):
        """The action rows of one generator's basis elements: b·(a·g) = (ba)·g."""
        for a, x in enumerate(row):
            for b, prod in self._mul_into[a]:
                self.act[b, x] = {row[a2]: c for a2, c in prod.items()}

    def add(self, gen: Generator) -> int:
        """Append a generator, whose d_elem lies over earlier ones; returns its number."""
        A, F = self.algebra, self.field
        g, base = len(self.gens), self.total_dim
        row = list(range(base, base + A.total_dim))
        self.gens.append(gen)
        self._rows.append(row)
        self._act_on(row)
        for a, x in enumerate(row):
            n = A.deg(a) + gen.degree
            self.basis.append((f"{A.label(a)}·{gen.label}", n))
            self._split.append((g, a))
            comp = self._by_degree.setdefault(n, [])
            self._pos.append(len(comp))
            comp.append(x)
            e = {row[a2]: c for a2, c in A.diff.get(a, {}).items()}
            vec_iadd(F, e, linear(F, lambda y: self.act.get((a, y), {}), gen.d_elem), F.sign(A.deg(a)))
            if e:
                self.diff[x] = e
        self._complex, self._action_mats = None, {}
        return g

    def prefix(self, k: int) -> "FreeModule":
        """A copy on the first k generators of a module grown by ``add``: the
        module ``add`` made after them."""
        end = self._rows[k][0] if k < len(self.gens) else self.total_dim
        diff = {x: e for x, e in self.diff.items() if x < end}
        return FreeModule.view(self.algebra, self.gens[:k], self._rows[:k], self.basis[:end], diff)


def left_free(Q: DgBimodule, env: FreeModule) -> FreeModule:
    """Q, an R-S-bimodule free over enveloping(R, S) on ``env``'s generators,
    as a left R-module: free on the (1⊗s_j)·g, on Q's own numbering.

    ``enveloping`` numbers r_i⊗s_j as i·|S| + j, and (r_i⊗1)(1⊗s_j) = r_i⊗s_j
    with no sign, so r_i·(1⊗s_j)·g is env's basis element at a = i·|S| + j.
    ``env_module_to_bimodule`` puts no sign on the left action either, so
    the view reads Q's own tables.
    """
    R, S = Q.left_algebra, Q.right_algebra
    nS = S.total_dim
    gens, rows = [], []
    for g in range(len(env.gens)):
        for j in range(nS):
            head = env.index(g, R.unit * nS + j)
            gens.append(Generator(Q.label(head), Q.deg(head), Q.diff.get(head, {})))
            rows.append([env.index(g, i * nS + j) for i in range(R.total_dim)])
    return FreeModule.view(R, gens, rows, Q.basis, Q.diff, bimodule=Q, name=Q.name)
