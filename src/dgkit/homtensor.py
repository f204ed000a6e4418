"""Tensor and Hom complexes over a DGA, with retained outer actions.

``tensor_over(A, M, N)`` is the quotient of the ground-field tensor product
by the relations m·a ⊗ n − m ⊗ a·n; ``hom_over(A, M, N)`` is the complex of
graded A-linear maps with the Koszul linearity rule f(a m) = (-1)^{|f||a|}
a f(m) and differential D(f) = d∘f − (-1)^{|f|} f∘d.  When an argument is a
bimodule, the spare action descends to the result:

  * tensor: outer left action on M and outer right action on N pass through;
  * hom:    a right S-action on M gives (s·f)(m) = (-1)^{|s|(|f|+|m|)} f(m s),
            a right T-action on N gives (f·t)(m) = (-1)^{|t||m|} f(m)·t.

All descended structures are certified by the module validators in tests.
"""

from __future__ import annotations

from .field import Field
from .linalg import Echelon, Matrix
from .complexes import ChainMap, Complex, GradedSpace
from .dga import DgAlgebra, DgBimodule, DgModule


class SideMismatch(ValueError):
    pass


def _right_over(X, A: DgAlgebra):
    """(right-A action table, outer-left algebra or None, outer act table)."""
    if isinstance(X, DgBimodule):
        if X.right_algebra.basis != A.basis:
            raise SideMismatch(f"{X!r} is not a right {A.name}-module")
        return X.act_right, X.left_algebra, X.act_left
    if isinstance(X, DgModule):
        if X.side != "right" or X.algebra.basis != A.basis:
            raise SideMismatch(f"{X!r} is not a right {A.name}-module")
        return X.act, None, None
    raise SideMismatch(f"unsupported operand {X!r}")


def _left_over(X, A: DgAlgebra):
    """(left-A action table, outer-right algebra or None, outer act table)."""
    if isinstance(X, DgBimodule):
        if X.left_algebra.basis != A.basis:
            raise SideMismatch(f"{X!r} is not a left {A.name}-module")
        return X.act_left, X.right_algebra, X.act_right
    if isinstance(X, DgModule):
        if X.side != "left" or X.algebra.basis != A.basis:
            raise SideMismatch(f"{X!r} is not a left {A.name}-module")
        return X.act, None, None
    raise SideMismatch(f"unsupported operand {X!r}")


def _apply_table(F: Field, table: dict, a_idx: int, e: dict) -> dict:
    out: dict = {}
    for m, c in e.items():
        for k, c2 in table.get((a_idx, m), {}).items():
            s = F.add(out.get(k, F.zero), F.mul(c, c2))
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


class TensorProduct:
    """M ⊗_A N as an explicit quotient complex with section and projection."""

    def __init__(self, A: DgAlgebra, M, N, name: str | None = None):
        self.A = A
        self.M = M
        self.N = N
        F = A.field
        self.field = F
        self.name = name or f"{M.name}⊗{N.name}"
        act_rA, self.outer_left, act_outer_l = _right_over(M, A)
        act_lA, self.outer_right, act_outer_r = _left_over(N, A)
        self._act_rA, self._act_lA = act_rA, act_lA
        self._act_outer_l, self._act_outer_r = act_outer_l, act_outer_r

        # ground pairs by degree, in lexicographic order
        self.pairs: dict[int, list[tuple[int, int]]] = {}
        for mi in range(M.total_dim):
            for nj in range(N.total_dim):
                d = M.deg(mi) + N.deg(nj)
                self.pairs.setdefault(d, []).append((mi, nj))

        # the relations of each degree, as an echelon over ground pairs; the
        # pairs off its pivots represent the quotient basis
        self._relations: dict[int, Echelon] = {}
        self._free: dict[int, list[tuple[int, int]]] = {}
        self._free_pos: dict[int, dict[tuple[int, int], int]] = {}
        ncomp = {n: N.component(n) for n in N.degrees()}
        for d, ps in self.pairs.items():
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
                        for k, c in act_lA.get((a, nj), {}).items():
                            vec[(mi, k)] = F.sub(vec.get((mi, k), F.zero), c)
                        relations.add(vec)
            self._relations[d] = relations
            self._free[d] = [pair for pair in ps if pair not in relations.rows]
            self._free_pos[d] = {pair: i for i, pair in enumerate(self._free[d])}

        dims = {d: len(fr) for d, fr in self._free.items()}
        labels = {
            d: tuple(f"{M.label(mi)}⊗{N.label(nj)}" for mi, nj in fr)
            for d, fr in self._free.items()
        }
        diffs = {}
        for d in dims:
            if dims.get(d, 0) == 0 or dims.get(d - 1, 0) == 0:
                continue
            cols = [
                self.project(self._ground_diff_pair(mi, nj), d - 1)
                for mi, nj in self._free[d]
            ]
            diffs[d] = Matrix.from_columns(F, cols, rows=dims[d - 1])
        self.complex = Complex(F, GradedSpace(dims, labels), diffs)
        self._module = None
        self._struct_index: dict[tuple[int, int], int] = {}
        self._struct_pairs: list[tuple[int, int]] = []
        for d in sorted(dims):
            for q in range(dims[d]):
                self._struct_index[(d, q)] = len(self._struct_pairs)
                self._struct_pairs.append((d, q))

    def struct_index(self, d: int, q: int) -> int:
        """Global basis index (in structure()) of quotient vector q, degree d."""
        return self._struct_index[(d, q)]

    def struct_pair(self, g: int) -> tuple[int, int]:
        return self._struct_pairs[g]

    # -- ground-level helpers ------------------------------------------------

    def _ground_diff_pair(self, mi: int, nj: int) -> dict:
        """d(m ⊗ n) = dm ⊗ n + (-1)^{|m|} m ⊗ dn on a ground pair."""
        F = self.field
        out: dict = {}
        for k, c in self.M.diff.get(mi, {}).items():
            out[(k, nj)] = c
        s = F.of((-1) ** self.M.deg(mi))
        for k, c in self.N.diff.get(nj, {}).items():
            key = (mi, k)
            v = F.add(out.get(key, F.zero), F.mul(s, c))
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
        return out

    def reduce(self, ground: dict, d: int) -> dict:
        """Normal form of a ground vector of degree d modulo the relations."""
        if not any(ground.values()):
            return {}
        return self._relations[d].reduce(ground)

    def project(self, ground: dict, d: int):
        """Quotient coordinates of a ground vector of degree d."""
        fpos = self._free_pos.get(d, {})
        out = [self.field.zero] * len(fpos)
        for pair, c in self.reduce(ground, d).items():
            out[fpos[pair]] = c
        return tuple(out)

    def section(self, d: int, q: int) -> tuple[int, int]:
        """Ground pair representing quotient basis vector q in degree d."""
        return self._free[d][q]

    def project_elem(self, ground: dict, d: int) -> dict:
        """Quotient coordinates as a sparse dict over quotient positions."""
        return {i: c for i, c in enumerate(self.project(ground, d)) if c != 0}

    # -- module structure ----------------------------------------------------

    def structure(self):
        """The richest available structure: bimodule, module, or complex."""
        if self._module is not None:
            return self._module
        F = self.field
        dims = {d: len(fr) for d, fr in self._free.items()}
        index = self._struct_index
        basis = [
            (self.complex.space.label(d, q), d) for d, q in self._struct_pairs
        ]
        diff = {}
        for d in sorted(dims):
            mat = self.complex.d(d)
            for q in range(dims[d]):
                col = mat.column(q)
                e = {index[(d - 1, i)]: c for i, c in enumerate(col) if c != 0}
                if e:
                    diff[index[(d, q)]] = e

        def quotient_act(table, sign_fn, passes_m: bool):
            act = {}
            for d in sorted(dims):
                for q in range(dims[d]):
                    mi, nj = self.section(d, q)
                    for a in range(
                        (self.outer_left if passes_m else self.outer_right).total_dim
                    ):
                        if passes_m:
                            img = table.get((a, mi), {})
                            ground = {(k, nj): c for k, c in img.items()}
                            dd = d + self.outer_left.deg(a)
                        else:
                            img = table.get((a, nj), {})
                            ground = {(mi, k): c for k, c in img.items()}
                            dd = d + self.outer_right.deg(a)
                        s = sign_fn(a, d, mi, nj)
                        if s != self.field.one:
                            ground = {k: F.mul(s, c) for k, c in ground.items()}
                        e = {
                            index[(dd, i)]: c
                            for i, c in self.project_elem(ground, dd).items()
                        }
                        if e:
                            act[(a, index[(d, q)])] = e
            return act

        one = F.one
        if self.outer_left is not None and self.outer_right is not None:
            act_l = quotient_act(self._act_outer_l, lambda *_: one, True)
            act_r = quotient_act(self._act_outer_r, lambda *_: one, False)
            self._module = DgBimodule(
                self.outer_left, self.outer_right, basis, act_l, act_r, diff, self.name
            )
        elif self.outer_left is not None:
            act_l = quotient_act(self._act_outer_l, lambda *_: one, True)
            self._module = DgModule(
                self.outer_left, "left", basis, act_l, diff, self.name
            )
        elif self.outer_right is not None:
            act_r = quotient_act(self._act_outer_r, lambda *_: one, False)
            self._module = DgModule(
                self.outer_right, "right", basis, act_r, diff, self.name
            )
        else:
            self._module = self.complex
        return self._module


def tensor_over(A: DgAlgebra, M, N, name: str | None = None) -> TensorProduct:
    return TensorProduct(A, M, N, name=name)


def tensor_unit_iso(A: DgAlgebra, N) -> ChainMap:
    """The unit-law quasi-isomorphism A ⊗_A N -> N (it is an isomorphism)."""
    from .dga import regular_bimodule

    T = tensor_over(A, regular_bimodule(A), N)
    act_lA, _, _ = _left_over(N, A)
    F = A.field
    mats = {}
    NC = N.underlying()
    for d in T.complex.degrees():
        cols = []
        for q in range(T.complex.dim(d)):
            a, nj = T.section(d, q)
            img = _apply_table(F, act_lA, a, {nj: F.one})
            cols.append(
                tuple(
                    img.get(g, F.zero) for g in N.component(d)
                )
            )
        mats[d] = Matrix.from_columns(F, cols, rows=NC.dim(d))
    return ChainMap(T.complex, NC, mats)


class HomComplex:
    """Hom_A(M, N): graded A-linear maps as explicit per-degree bases."""

    def __init__(self, A: DgAlgebra, M, N, prefer=None, name: str | None = None):
        self.A = A
        self.M = M
        self.N = N
        F = A.field
        self.field = F
        self.name = name or f"Hom({M.name},{N.name})"
        act_M, self.outer_left, act_outer_l = _left_over(M, A)
        act_N, self.outer_right, act_outer_r = _left_over(N, A)
        self._act_M, self._act_N = act_M, act_N
        self._act_outer_l, self._act_outer_r = act_outer_l, act_outer_r
        if not M.basis or not N.basis:
            lo, hi = 0, -1
        else:
            m_degs = [d for _, d in M.basis]
            n_degs = [d for _, d in N.basis]
            lo = min(n_degs) - max(m_degs)
            hi = max(n_degs) - min(m_degs)

        self.basis_vectors: dict[int, list[dict]] = {}
        for n in range(lo, hi + 1):
            ps = [
                (mi, nj)
                for mi in range(M.total_dim)
                for nj in range(N.total_dim)
                if N.deg(nj) == M.deg(mi) + n
            ]
            if not ps:
                continue
            in_ps = set(ps)
            # A-linearity constraints, one per (a, m, w): the Hom_n component
            # is their kernel over the ground pairs
            constraints = Echelon(F)
            for a in range(A.total_dim):
                if a == A.unit:
                    continue
                pa = A.deg(a)
                sgn = F.of((-1) ** (n * pa))
                for mi in range(M.total_dim):
                    tgt_deg = M.deg(mi) + pa + n
                    tgt = N.component(tgt_deg)
                    if not tgt:
                        # no target component: both sides of the constraint vanish
                        continue
                    am = act_M.get((a, mi), {})
                    for w in tgt:
                        row = {(k, w): c for k, c in am.items() if (k, w) in in_ps}
                        for nj in N.component(M.deg(mi) + n):
                            coef = act_N.get((a, nj), {}).get(w)
                            if coef:
                                c = row.get((mi, nj), F.zero)
                                row[(mi, nj)] = F.sub(c, F.mul(sgn, coef))
                        constraints.add(row)
            vecs = constraints.kernel(ps)
            if prefer and n in prefer:
                vecs = self._seat_first(prefer[n], vecs)
            if vecs:
                self.basis_vectors[n] = vecs

        self._spans: dict[int, Echelon] = {}
        dims = {n: len(v) for n, v in self.basis_vectors.items()}
        labels = {n: tuple(f"f{n}_{i}" for i in range(d)) for n, d in dims.items()}
        diffs = {}
        for n in dims:
            if dims.get(n - 1, 0) == 0:
                continue
            cols = [
                self.coords(self.ground_differential(v, n), n - 1)
                for v in self.basis_vectors[n]
            ]
            diffs[n] = Matrix.from_columns(F, cols, rows=dims[n - 1])
        self.complex = Complex(F, GradedSpace(dims, labels), diffs)
        self._module = None
        self._struct_index: dict[tuple[int, int], int] = {}
        self._struct_pairs: list[tuple[int, int]] = []
        for n in sorted(dims):
            for q in range(dims[n]):
                self._struct_index[(n, q)] = len(self._struct_pairs)
                self._struct_pairs.append((n, q))

    def struct_index(self, n: int, q: int) -> int:
        return self._struct_index[(n, q)]

    def struct_pair(self, g: int) -> tuple[int, int]:
        return self._struct_pairs[g]

    def _seat_first(self, preferred, vecs):
        """Reorder a component basis so the preferred vectors come first."""
        span = Echelon(self.field)
        chosen = []
        for i, v in enumerate(list(preferred) + vecs):
            if span.add(v):
                chosen.append({pair: c for pair, c in sorted(v.items()) if c != 0})
            elif i < len(preferred):
                raise ValueError("preferred Hom vector dependent or not A-linear")
        return chosen

    # -- evaluation and differential on ground vectors -----------------------

    def evaluate(self, vec: dict, elem: dict) -> dict:
        """Apply a ground Hom vector to an element of M; lands in N."""
        F = self.field
        out: dict = {}
        for mi, c in elem.items():
            if c == 0:
                continue
            for (m2, nj), c2 in vec.items():
                if m2 == mi:
                    s = F.add(out.get(nj, F.zero), F.mul(c, c2))
                    if s == 0:
                        out.pop(nj, None)
                    else:
                        out[nj] = s
        return out

    def ground_differential(self, vec: dict, n: int) -> dict:
        """D(f) = d_N ∘ f − (-1)^n f ∘ d_M as a ground vector of degree n-1."""
        F = self.field
        out: dict = {}
        for (mi, nj), c in vec.items():
            for k, c2 in self.N.diff.get(nj, {}).items():
                key = (mi, k)
                s = F.add(out.get(key, F.zero), F.mul(c, c2))
                out[key] = s
        sgn = F.of((-1) ** n)
        for mi in range(self.M.total_dim):
            dm = self.M.diff.get(mi, {})
            for k, c in dm.items():
                for (m2, nj), c2 in vec.items():
                    if m2 == k:
                        key = (mi, nj)
                        s = F.sub(out.get(key, F.zero), F.mul(sgn, F.mul(c, c2)))
                        out[key] = s
        return {k: v for k, v in out.items() if v != 0}

    def coords(self, ground: dict, n: int):
        """Coordinates of a ground vector in the chosen Hom_n basis."""
        vecs = self.basis_vectors.get(n, [])
        if not vecs:
            if any(c != 0 for c in ground.values()):
                raise ValueError("vector outside empty Hom component")
            return ()
        span = self._spans.get(n)
        if span is None:
            span = self._spans[n] = Echelon(self.field, certify=True)
            for v in vecs:
                span.add(v)
        x = span.coords(ground)
        if x is None:
            raise ValueError("ground vector is not A-linear (outside Hom span)")
        return tuple(x.get(i, self.field.zero) for i in range(len(vecs)))

    def identity_ground(self) -> dict:
        """Ground vector of the identity (only meaningful when M is N)."""
        F = self.field
        return {(i, i): F.one for i in range(self.M.total_dim)}

    # -- module structure ----------------------------------------------------

    def structure(self):
        """Bimodule/module/complex per the outer actions present."""
        if self._module is not None:
            return self._module
        F = self.field
        dims = {n: len(v) for n, v in self.basis_vectors.items()}
        index = self._struct_index
        basis = [(f"f{n}_{q}", n) for n, q in self._struct_pairs]
        diff = {}
        for n in sorted(dims):
            mat = self.complex.d(n)
            for q in range(dims[n]):
                col = mat.column(q)
                e = {index[(n - 1, i)]: c for i, c in enumerate(col) if c != 0}
                if e:
                    diff[index[(n, q)]] = e

        act_l, act_r = {}, {}
        if self.outer_left is not None:
            S = self.outer_left
            for n in sorted(dims):
                for q in range(dims[n]):
                    f = self.basis_vectors[n][q]
                    for s in range(S.total_dim):
                        g = self._left_act_ground(s, f, n)
                        nn = n + S.deg(s)
                        e = {
                            index[(nn, i)]: c
                            for i, c in enumerate(self.coords(g, nn))
                            if c != 0
                        }
                        if e:
                            act_l[(s, index[(n, q)])] = e
        if self.outer_right is not None:
            T = self.outer_right
            for n in sorted(dims):
                for q in range(dims[n]):
                    f = self.basis_vectors[n][q]
                    for t in range(T.total_dim):
                        g = self._right_act_ground(t, f)
                        nn = n + T.deg(t)
                        e = {
                            index[(nn, i)]: c
                            for i, c in enumerate(self.coords(g, nn))
                            if c != 0
                        }
                        if e:
                            act_r[(t, index[(n, q)])] = e

        if self.outer_left is not None and self.outer_right is not None:
            self._module = DgBimodule(
                self.outer_left, self.outer_right, basis, act_l, act_r, diff, self.name
            )
        elif self.outer_left is not None:
            self._module = DgModule(self.outer_left, "left", basis, act_l, diff, self.name)
        elif self.outer_right is not None:
            self._module = DgModule(self.outer_right, "right", basis, act_r, diff, self.name)
        else:
            self._module = self.complex
        return self._module

    def _left_act_ground(self, s: int, f: dict, n: int) -> dict:
        """(s·f)(m) = (-1)^{|s|(|f|+|m|)} f(m·s) using the right action on M."""
        F = self.field
        ds = self.outer_left.deg(s)
        out: dict = {}
        for mi in range(self.M.total_dim):
            ms = self._act_outer_l.get((s, mi), {})
            if not ms:
                continue
            sgn = F.of((-1) ** (ds * (n + self.M.deg(mi))))
            img = self.evaluate(f, ms)
            for nj, c in img.items():
                key = (mi, nj)
                v = F.add(out.get(key, F.zero), F.mul(sgn, c))
                if v == 0:
                    out.pop(key, None)
                else:
                    out[key] = v
        return out

    def _right_act_ground(self, t: int, f: dict) -> dict:
        """(f·t)(m) = (-1)^{|t||m|} f(m)·t using the right action on N."""
        F = self.field
        dt = self.outer_right.deg(t)
        out: dict = {}
        for (mi, nj), c in f.items():
            sgn = F.of((-1) ** (dt * self.M.deg(mi)))
            img = self._act_outer_r.get((t, nj), {})
            for k, c2 in img.items():
                key = (mi, k)
                v = F.add(out.get(key, F.zero), F.mul(F.mul(sgn, c), c2))
                if v == 0:
                    out.pop(key, None)
                else:
                    out[key] = v
        return out


def hom_over(A: DgAlgebra, M, N, prefer=None, name: str | None = None) -> HomComplex:
    return HomComplex(A, M, N, prefer=prefer, name=name)


def endomorphism_dga(M: DgModule):
    """Endomorphism DGA of a left module, and M as an R-F^op-bimodule.

    Multiplication is composition; the unit is the identity map, seated as
    the first degree-0 basis vector.  The right F^op-action on M is
    m·f = (-1)^{|f||m|} f(m).
    """
    from .dga import opposite

    A, F = M.algebra, M.field
    H = hom_over(A, M, M, name=f"End({M.name})")
    idg = H.identity_ground()
    H2 = hom_over(A, M, M, prefer={0: [idg]}, name=f"End({M.name})")
    basis, index = [], {}
    dims = {n: len(v) for n, v in H2.basis_vectors.items()}
    for n in sorted(dims):
        for q in range(dims[n]):
            index[(n, q)] = len(basis)
            basis.append((f"f{n}_{q}", n))
    unit = index[(0, 0)]
    mul = {}
    for n1 in sorted(dims):
        for q1 in range(dims[n1]):
            f1 = H2.basis_vectors[n1][q1]
            for n2 in sorted(dims):
                for q2 in range(dims[n2]):
                    f2 = H2.basis_vectors[n2][q2]
                    comp: dict = {}
                    for mi in range(M.total_dim):
                        img = H2.evaluate(f1, H2.evaluate(f2, {mi: F.one}))
                        for nj, c in img.items():
                            key = (mi, nj)
                            s = F.add(comp.get(key, F.zero), c)
                            if s == 0:
                                comp.pop(key, None)
                            else:
                                comp[key] = s
                    nn = n1 + n2
                    if nn not in dims and comp:
                        raise ValueError("composition left the Hom complex")
                    if comp:
                        e = {
                            index[(nn, i)]: c
                            for i, c in enumerate(H2.coords(comp, nn))
                            if c != 0
                        }
                        if e:
                            mul[(index[(n1, q1)], index[(n2, q2)])] = e
    diff = {}
    for n in sorted(dims):
        for q in range(dims[n]):
            D = H2.ground_differential(H2.basis_vectors[n][q], n)
            if D:
                e = {
                    index[(n - 1, i)]: c
                    for i, c in enumerate(H2.coords(D, n - 1))
                    if c != 0
                }
                if e:
                    diff[index[(n, q)]] = e
    Fdga = DgAlgebra(F, basis, unit, mul, diff, name=f"End({M.name})")
    S = opposite(Fdga)
    act_right = {}
    for n in sorted(dims):
        for q in range(dims[n]):
            f = H2.basis_vectors[n][q]
            fi = index[(n, q)]
            for mi in range(M.total_dim):
                sgn = F.of((-1) ** (n * M.deg(mi)))
                img = H2.evaluate(f, {mi: F.one})
                e = {k: F.mul(sgn, c) for k, c in img.items()}
                if e:
                    act_right[(fi, mi)] = e
    bimod = DgBimodule(A, S, M.basis, dict(M.act), act_right, M.diff, name=M.name)
    return Fdga, bimod
