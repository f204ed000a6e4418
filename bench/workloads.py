"""The three benchmark workloads: seeded inputs, commands and oracles.

Every input is a ``.dg`` presentation file written by ``dgkit.parser.serialize``
from objects built here or by ``dgkit.standard``.  The seed rescales each basis
element of every algebra and module by a random sign over Q or a random unit of
F_101 (an isomorphic presentation with the same sparsity); the CLI's own
``--seed``, which picks the test family, stays 0.  Expected answers come from
theorems and hand computations, never from running dgkit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from dgkit import standard
from dgkit.dga import DgAlgebra, DgaMorphism, DgModule
from dgkit.field import GF, QQ
from dgkit.parser import PresentationFile, serialize


# -- seeded presentations -------------------------------------------------------


def _scalars(rng: random.Random, field, n: int, fixed: int | None = None) -> list:
    """n random nonzero scalars; index ``fixed`` (the unit) stays 1."""
    if field.is_rational:
        # signs only: larger rationals would change the cost of every elimination
        out = [rng.choice((field.one, -field.one)) for _ in range(n)]
    else:
        out = [rng.randrange(2, field.characteristic) for _ in range(n)]
    if fixed is not None:
        out[fixed] = field.one
    return out


def _rescaled_table(F, table: dict, key_scale, out_scale: list) -> dict:
    """Structure constants after replacing each basis element b_i by s_i b_i."""
    return {
        key: {k: F.div(F.mul(c, key_scale(key)), out_scale[k]) for k, c in e.items()}
        for key, e in table.items()
    }


def rescale_algebra(A: DgAlgebra, rng: random.Random, name: str) -> DgAlgebra:
    F = A.field
    s = _scalars(rng, F, A.total_dim, fixed=A.unit)
    mul = _rescaled_table(F, A.mul, lambda ij: F.mul(s[ij[0]], s[ij[1]]), s)
    diff = _rescaled_table(F, A.diff, lambda i: s[i], s)
    B = DgAlgebra(F, A.basis, A.unit, mul, diff, name=name)
    B.scales = s
    return B


def rescale_module(M: DgModule, A: DgAlgebra, rng: random.Random, name: str) -> DgModule:
    """M over the rescaled algebra A (which carries its scales), itself rescaled."""
    F = M.field
    e = _scalars(rng, F, M.total_dim)
    act = _rescaled_table(F, M.act, lambda am: F.mul(A.scales[am[0]], e[am[1]]), e)
    diff = _rescaled_table(F, M.diff, lambda m: e[m], e)
    return DgModule(A, M.side, M.basis, act, diff, name=name)


def rescale_morphism(phi: DgaMorphism, src: DgAlgebra, tgt: DgAlgebra, name: str) -> DgaMorphism:
    F = src.field
    images = _rescaled_table(F, phi.images, lambda i: src.scales[i], tgt.scales)
    # the parser drops zero images, so drop them too and stay a roundtrip fixed point
    return DgaMorphism(src, tgt, {i: e for i, e in images.items() if e}, name=name)


def presentation(field, field_decl: str, morphisms=(), modules=(), rng=None) -> str:
    """Serialize rescaled copies of morphisms (and modules) with fresh algebra names."""
    pf = PresentationFile(field, field_decl)
    renamed: dict[int, DgAlgebra] = {}

    def algebra(A: DgAlgebra) -> DgAlgebra:
        if id(A) not in renamed:
            B = rescale_algebra(A, rng, f"A{len(renamed) + 1}")
            renamed[id(A)] = B
            pf.algebras[B.name] = B
            pf.order.append(("algebra", B.name))
        return renamed[id(A)]

    for name, phi in morphisms:
        src, tgt = algebra(phi.source), algebra(phi.target)
        pf.morphisms[name] = rescale_morphism(phi, src, tgt, name)
        pf.order.append(("morphism", name))
    for name, M in modules:
        A = algebra(M.algebra)
        pf.modules[name] = rescale_module(M, A, rng, name)
        pf.module_over[name] = A.name
        pf.order.append(("module", name))
    return serialize(pf)


# -- workloads ------------------------------------------------------------------


@dataclass
class Command:
    argv: list  # dgkit arguments; "{file}" stands for the workload's input file
    check: object  # oracle: parsed json stdout -> None if right, else a reason


def _epi_oracle(expect_epi: bool, fail_degree: int | None = None):
    def check(rep: dict):
        if rep.get("agreement") is not True:
            return "conditions disagree"
        if rep.get("is_epi") is not expect_epi:
            return f"is_epi {rep.get('is_epi')}, expected {expect_epi}"
        if fail_degree is not None:
            first = next((v for v in rep["verdicts"] if v["status"] == "fails"), None)
            if first is None or first["degree"] != fail_degree:
                return f"first failure {first}, expected degree {fail_degree}"
        return None

    return check


def _consistency_oracle(expected: dict):
    def check(rep: dict):
        got = rep.get("instances", {})
        if set(got) != set(expected):
            return f"instances {sorted(got)}"
        for name, epi in expected.items():
            why = _epi_oracle(epi)(got[name])
            if why:
                return f"{name}: {why}"
        return None if rep.get("agreement") is True else "corpus disagreement"

    return check


def _table_oracle(expected: dict):
    def check(rep: dict):
        got = {int(i): v for i, v in rep.get("table", {}).items()}
        return None if got == expected else f"table {got}, expected {expected}"

    return check


def dga_epi(seed: int):
    """Λ(x) over Q: identity (YES) and the augmentation Λ(x) -> k (NO at degree 2).

    Both presentations are the same for every seed: x² = 0 and no image or
    differential involves x, so rescaling x changes nothing.
    """
    rng = random.Random(seed)
    E = standard.exterior_algebra(QQ)
    k = standard.ground_algebra(QQ)
    aug = DgaMorphism(E, k, {0: {0: QQ.one}}, name="aug")
    text = presentation(QQ, "Q", [("idE", standard.identity_morphism(E)), ("aug", aug)], rng=rng)
    # the family is {S, ΣS} for every CLI seed.  At family size 3 dgkit
    # answers NO for idE, a known wrong verdict (condition (4) fails at
    # degree -2), which a benchmark of correct outputs cannot time
    opts = ["--window", "0..6", "--family-size", "2", "--format", "json"]
    # identity morphisms are homological epimorphisms; Tor^{Λ(x)}_2(k, k) = k
    # while k ⊗_k k is concentrated in degree 0, so condition (1) fails at 2
    return text, [
        Command(["check-epi", "{file}", "idE", *opts], _epi_oracle(True)),
        Command(["check-epi", "{file}", "aug", *opts], _epi_oracle(False, 2)),
    ]


def ring_consistency(seed: int):
    """Ring-mode corpus over Q with verdicts known from Tor_1."""
    rng = random.Random(seed)
    corpus = [
        ("idk", standard.identity_morphism(standard.ground_algebra(QQ)), True),
        ("idD", standard.identity_morphism(standard.truncated_polynomial(2, QQ)), True),
        # k is projective over k × k, so the projection is a localization
        ("prk", standard.product_to_ground(QQ), True),
        # Tor_1^{k[x]/(x^n)}(k, k) = k ≠ 0
        ("dual2", standard.truncated_to_ground(2, QQ), False),
        ("dual3", standard.truncated_to_ground(3, QQ), False),
        # Tor_1^{T2}(k×k, k×k) = J/J² = k ≠ 0 for the radical J
        ("tri", standard.triangular_to_product(QQ), False),
    ]
    text = presentation(QQ, "Q", [(n, phi) for n, phi, _ in corpus], rng=rng)
    # the family seed stays 0: at family size 6 the run time varies twofold
    # between CLI seeds, and no other seed below 3000 gives seed 0's shapes
    opts = ["--window", "0..8", "--family-size", "6", "--seed", "0", "--format", "json"]
    expected = {n: epi for n, _, epi in corpus}
    return text, [Command(["consistency", "{file}", *opts], _consistency_oracle(expected))]


def deep_resolve(seed: int):
    """k over B = k[x,y]/(x², y²) over F_101: Tor_i = Ext^i = i + 1."""
    rng = random.Random(seed)
    F = GF(101)
    one = F.one
    mul = {(0, i): {i: one} for i in range(4)}
    mul.update({(i, 0): {i: one} for i in range(1, 4)})
    mul.update({(1, 2): {3: one}, (2, 1): {3: one}})
    B = DgAlgebra(F, [("1", 0), ("x", 0), ("y", 0), ("xy", 0)], 0, mul, {}, name="B")
    K = DgModule(B, "left", [("m", 0)], {(0, 0): {0: one}}, {})
    Kr = DgModule(B, "right", [("m", 0)], {(0, 0): {0: one}}, {})
    text = presentation(F, "Fp 101", modules=[("K", K), ("Kr", Kr)], rng=rng)
    opts = ["--window", "0..10", "--format", "json"]
    # the Koszul resolution of k has i + 1 generators in degree i
    table = {i: i + 1 for i in range(11)}
    return text, [
        Command(["tor", "{file}", "A1", "Kr", "K", *opts], _table_oracle(table)),
        Command(["ext", "{file}", "A1", "K", "K", *opts], _table_oracle(table)),
    ]


WORKLOADS = {
    "dga-epi": dga_epi,
    "ring-consistency": ring_consistency,
    "deep-resolve": deep_resolve,
}
