"""Acceptance gate: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single pass line on success; a failed assertion is the
fail line.  All expected values come from independent oracles built inside
this file (periodic resolutions, hand-computed projective covers) or are
structural identities that must hold exactly.
"""

import random
import subprocess
import sys
from pathlib import Path

from dgkit.field import QQ
from dgkit.complexes import ChainMap, Complex, GradedSpace, Window, homology_dims
from dgkit.dga import (
    DgAlgebra,
    DgBimodule,
    DgModule,
    bimodule_from_morphism,
    left_regular,
    restrict_scalars,
    right_regular,
    validate_dga,
    validate_module,
)
from dgkit.derived import (
    counit_map,
    derived_tensor,
    duality_map,
    ext_table,
    is_derived_iso,
    multiplication_map,
    tor_table,
    unit_map,
)
from dgkit.epicheck import (
    check_dga_epi,
    check_dwyer_greenlees,
    check_ring_epi,
    generate_test_family,
)
from dgkit.homtensor import tensor_over
from dgkit.linalg import Matrix
from dgkit.modops import module_direct_sum, module_shift
from dgkit.resolutions import (
    BuildTreeWitness,
    Leaf,
    SumNode,
    resolve_right_module,
    semifree_resolution_bimodule,
)
from dgkit.standard import (
    exterior_algebra,
    ground_algebra,
    identity_morphism,
    product_kk,
    product_to_ground,
    triangular_to_product,
    truncated_polynomial,
    truncated_to_ground,
)
from oracles import cone, direct_sum

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

RING_CORPUS = [
    ("id k", identity_morphism(ground_algebra())),
    ("k×k → k", product_to_ground()),
    ("k[x]/(x²) → k", truncated_to_ground(2)),
    ("T₂(k) → k×k", triangular_to_product()),
]


def _passed(n, text):
    print(f"criterion {n}: PASS — {text}")


# -- criterion 1: axiom validators on corrupted and valid fixtures -------------


def _alg(basis, unit, mul, diff):
    one = QQ.one
    full = dict(mul)
    for i in range(len(basis)):
        full.setdefault((unit, i), {i: one})
        full.setdefault((i, unit), {i: one})
    return DgAlgebra(QQ, basis, unit, full, diff)


def _corrupted_fixtures():
    one = QQ.one
    k = ground_algebra()
    E = exterior_algebra()
    A2 = truncated_polynomial(2)
    out = []
    # d² ≠ 0: d(a) = b, d(b) = c
    out.append(
        (
            "dga d-squared",
            _alg([("e", 0), ("a", 2), ("b", 1), ("c", 0)], 0, {}, {1: {2: one}, 2: {3: one}}),
            validate_dga,
            "d-squared",
        )
    )
    # Leibniz: d(x·y) = 0 but dx·y = y² = y
    out.append(
        (
            "dga leibniz",
            _alg([("e", 0), ("x", 1), ("y", 0)], 0, {(2, 2): {2: one}}, {1: {2: one}}),
            validate_dga,
            "leibniz",
        )
    )
    # associativity: (aa)a = ba = 0 but a(aa) = ab = e
    out.append(
        (
            "dga associativity",
            _alg([("e", 0), ("a", 0), ("b", 0)], 0, {(1, 1): {2: one}, (1, 2): {0: one}}, {}),
            validate_dga,
            "associativity",
        )
    )
    # unit law: 1·a forced to 0
    out.append(
        (
            "dga unit law",
            DgAlgebra(QQ, [("e", 0), ("a", 0)], 0, {(0, 0): {0: one}, (1, 0): {1: one}}, {}),
            validate_dga,
            "unit-law",
        )
    )
    # unit in the wrong degree
    out.append(
        ("dga unit degree", DgAlgebra(QQ, [("e", 1)], 0, {(0, 0): {0: one}}, {}), validate_dga, "unit-degree")
    )
    # grading: a product lands in the wrong degree
    out.append(
        (
            "dga grading",
            _alg([("e", 0), ("a", 1)], 0, {(1, 1): {1: one}}, {}),
            validate_dga,
            "grading",
        )
    )
    # d(1) ≠ 0
    out.append(
        (
            "dga d-unit",
            _alg([("e", 0), ("y", -1)], 0, {}, {0: {1: one}}),
            validate_dga,
            "d-unit",
        )
    )
    # module d² ≠ 0
    out.append(
        (
            "module d-squared",
            DgModule(k, "left", [("m", 2), ("n", 1), ("p", 0)], {(0, i): {i: one} for i in range(3)}, {0: {1: one}, 1: {2: one}}),
            validate_module,
            "d-squared",
        )
    )
    # left Leibniz: d(x·m) = dn = m but ±x·dm = 0
    out.append(
        (
            "module leibniz left",
            DgModule(
                E,
                "left",
                [("m", 0), ("n", 1)],
                {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
                {1: {0: one}},
            ),
            validate_module,
            "leibniz-left",
        )
    )
    # right Leibniz, same shape on the other side
    out.append(
        (
            "module leibniz right",
            DgModule(
                E,
                "right",
                [("m", 0), ("n", 1)],
                {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
                {1: {0: one}},
            ),
            validate_module,
            "leibniz-right",
        )
    )
    # action associativity: x·(x·m) = m but x²·m = 0
    out.append(
        (
            "module action associativity",
            DgModule(
                A2,
                "left",
                [("m", 0), ("n", 0)],
                {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: one}},
                {},
            ),
            validate_module,
            "associativity-left-action",
        )
    )
    # bimodule compatibility: (x·m)·x = 0 but x·(m·x) = n
    out.append(
        (
            "bimodule compatibility",
            DgBimodule(
                A2,
                A2,
                [("m", 0), ("n", 0)],
                {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
                {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {0: one}},
                {},
            ),
            validate_module,
            "bimodule-compatibility",
        )
    )
    return out


def test_criterion_1_axiom_validators():
    corrupted = _corrupted_fixtures()
    assert len(corrupted) == 12
    for desc, obj, check, axiom in corrupted:
        viols = check(obj)
        assert viols, f"{desc}: accepted a corrupted presentation"
        assert axiom in {v.axiom for v in viols}, f"{desc}: wrong axiom named"
    valid = [
        (ground_algebra(), validate_dga),
        (truncated_polynomial(2), validate_dga),
        (truncated_polynomial(3), validate_dga),
        (product_kk(), validate_dga),
        (exterior_algebra(), validate_dga),
        (left_regular(exterior_algebra()), validate_module),
        (right_regular(truncated_polynomial(2)), validate_module),
        (bimodule_from_morphism(truncated_to_ground(2)), validate_module),
    ]
    assert len(valid) == 8
    for obj, check in valid:
        assert check(obj) == [], f"valid fixture rejected: {obj!r}"
    _passed(1, "12 corrupted fixtures rejected with the right axiom, 8 valid accepted")


# -- criterion 2: homology engine on seeded random complexes -------------------


def _unipotent(rng, n):
    rows = [
        [QQ.one if i == j else (QQ.of(rng.randint(-2, 2)) if j > i else QQ.zero) for j in range(n)]
        for i in range(n)
    ]
    return Matrix(QQ, rows, cols=n)


def _unipotent_inverse(U):
    # U = I + N with N nilpotent: inverse is the finite alternating sum
    n = U.rows
    I = Matrix.identity(QQ, n)
    N = U - I
    acc, term = I, I
    for _ in range(n):
        term = (term * N).scale(QQ.of(-1))
        acc = acc + term
    return acc


def _random_complex(rng):
    # direct sum of elementary pieces, hidden by a random unipotent basis change
    pieces = []
    for _ in range(rng.randint(1, 6)):
        n = rng.randint(0, 5)
        if n >= 1 and rng.random() < 0.5:
            pieces.append(
                Complex(QQ, GradedSpace({n: 1, n - 1: 1}), {n: Matrix(QQ, [[QQ.one]])})
            )
        else:
            pieces.append(Complex(QQ, GradedSpace({n: 1}), {}))
    C = direct_sum(pieces, field=QQ)
    while any(C.dim(n) > 4 for n in range(6)):
        pieces.pop()
        C = direct_sum(pieces, field=QQ)
    S = {n: _unipotent(rng, C.dim(n)) for n in C.degrees()}
    Sinv = {n: _unipotent_inverse(S[n]) for n in C.degrees()}
    diffs = {}
    for n in C.degrees():
        if C.dim(n) and C.dim(n - 1):
            diffs[n] = S.get(n - 1, Matrix.identity(QQ, C.dim(n - 1))) * C.d(n) * Sinv[n]
    return Complex(QQ, C.space, diffs), C


def test_criterion_2_homology_engine():
    for seed in range(25):
        rng = random.Random(seed)
        C, plain = _random_complex(rng)
        w = Window(-1, 6)
        # basis change preserves homology
        assert homology_dims(C, w) == homology_dims(plain, w)
        # cone of the identity is acyclic
        K, _, _ = cone(ChainMap.identity(C))
        assert all(v == 0 for v in homology_dims(K, Window(-1, 7)).values())
        # Euler characteristic equals the alternating sum of homology dims
        h = homology_dims(C, w)
        chi = sum((-1) ** n * d for n, d in C.space.dims.items())
        assert chi == sum((-1) ** n * h[n] for n in h)
    _passed(2, "25 seeded complexes: cone(id) acyclic, Euler identity exact")


# -- criterion 3: Tor/Ext against periodic-resolution oracles ------------------


def _periodic_oracle(n, D):
    """Tor over k[x]/(x^n) via the explicit periodic resolution ··· R → R → k:
    the maps alternate x and x^{n-1}; applying the augmentation (x ↦ 0) kills
    every matrix, so the oracle complex has zero differential and all H dims 1.
    Built literally, not assumed."""
    eps_of_power = lambda p: QQ.one if p == 0 else QQ.zero
    diffs = {}
    for i in range(1, D + 2):
        power = 1 if i % 2 == 1 else n - 1
        diffs[i] = Matrix(QQ, [[eps_of_power(power)]])
    C = Complex(QQ, GradedSpace({i: 1 for i in range(D + 2)}), diffs)
    dims = homology_dims(C, Window(0, D))
    return {i: dims[i] for i in range(D + 1)}


def _k_modules(phi):
    return (
        restrict_scalars(right_regular(phi.target), phi),
        restrict_scalars(left_regular(phi.target), phi),
    )


def test_criterion_3_tor_ext_oracles():
    for n in (2, 3):
        phi = truncated_to_ground(n)
        A = phi.source
        kr, kl = _k_modules(phi)
        oracle = _periodic_oracle(n, 8)
        assert tor_table(A, kr, kl, 8) == oracle
        assert ext_table(A, kl, kl, 8) == oracle
    _passed(3, "Tor/Ext over k[x]/(x²) and k[x]/(x³) match the periodic oracles on 0..8")


# -- criterion 4: ring-condition consistency on the classical corpus ----------


def test_criterion_4_ring_corpus_consistency():
    # independent oracle for the fourth fixture, by projective covers over
    # T₂(k): the simples have covers P₁ (dim 1) and P₂ (dim 2) with
    # 0 → P₁ → P₂ → S₂ → 0, so Tor₁(k×k, k×k) = 1 ≠ 0 — not an epimorphism
    expected = {"id k": True, "k×k → k": True, "k[x]/(x²) → k": False, "T₂(k) → k×k": False}
    for desc, phi in RING_CORPUS:
        fam = generate_test_family(phi.target, 0, 3)
        rep = check_ring_epi(phi, 8, fam)
        assert rep.agreement, f"{desc}: conditions disagree"
        assert rep.is_epi == expected[desc], f"{desc}: verdict {rep.is_epi}"
        if desc == "k[x]/(x²) → k":
            v = rep.verdict(1)
            assert v.status == "fails" and v.degree == 1 and v.dims == (1, 0)
    _passed(4, "four ring fixtures: all conditions agree, verdicts match the oracles")


# -- criterion 5: DGA mode consistency with ring mode --------------------------


def test_criterion_5_dga_mode():
    for desc, phi in RING_CORPUS:
        fam = generate_test_family(phi.target, 0, 2)
        a = check_ring_epi(phi, 8, fam)
        b = check_dga_epi(phi, 8, fam)
        assert a.agreement == b.agreement and a.is_epi == b.is_epi, desc
        for va, vb in zip(a.verdicts, b.verdicts):
            assert (va.condition, va.status, va.window, va.degree, va.dims, va.note) == (
                vb.condition,
                vb.status,
                vb.window,
                vb.degree,
                vb.dims,
                vb.note,
            ), desc
    phi = identity_morphism(exterior_algebra())
    rep = check_dga_epi(phi, 2, generate_test_family(phi.target, 0, 2))
    assert rep.agreement and rep.is_epi
    assert all(v.holds for v in rep.verdicts if v.checkable)
    _passed(5, "DGA mode reproduces ring mode bit-for-bit; Λ(x) identity is YES")


# -- criterion 6: endomorphism picture ----------------------------------------


def test_criterion_6_endomorphism_picture():
    for R in (ground_algebra(), truncated_polynomial(2), exterior_algebra()):
        M = module_direct_sum([left_regular(R), module_shift(left_regular(R), 1)])
        w = BuildTreeWitness(SumNode([Leaf(0), Leaf(1)]))
        rep = check_dwyer_greenlees(R, M, w, Window(-2, 8))
        assert validate_dga(rep.endomorphism_algebra) == []
        assert rep.degreewise_iso, R.name
        assert rep.endpoint.holds, R.name
    _passed(6, "R ⊕ ΣR endomorphism picture holds for k, k[x]/(x²), Λ(x) on -2..8")


# -- criterion 7: canonical maps chain-validate; identity cases are iso --------


def test_criterion_7_canonical_maps():
    corpus = RING_CORPUS + [("id Λ(x)", identity_morphism(exterior_algebra()))]
    for desc, phi in corpus:
        M = bimodule_from_morphism(phi)
        N = left_regular(phi.target)
        maps = {
            "unit": unit_map(M, N, 2),
            "counit": counit_map(M, N, 2),
            "duality": duality_map(M, N, BuildTreeWitness(Leaf(0)), 2),
            "multiplication": multiplication_map(phi, 2),
        }
        for name, cm in maps.items():
            assert cm.validate() is True, f"{desc}: {name}"
        if phi.source is phi.target:  # identity fixtures: R = S = M
            for name, cm in maps.items():
                assert is_derived_iso(cm, Window(-2, 2)).ok, f"{desc}: {name}"
    _passed(7, "unit/counit/duality/multiplication chain-validate; identity cases are quasi-isos")


# -- criterion 8: duality for M = S and M = S ⊕ ΣS -----------------------------


def _sum_shift_bimodule(phi):
    """The R-S bimodule S ⊕ ΣS; the shifted copy twists the left action by
    (-1)^{|a|} and negates the differential, matching the shift of the left
    regular module over S^op so the sum witness is accepted verbatim."""
    R, S = phi.source, phi.target
    F = S.field
    n = S.total_dim
    basis = list(S.basis) + [(lbl + "'", d + 1) for lbl, d in S.basis]
    act_left, act_right, diff = {}, {}, {}
    for a in range(R.total_dim):
        img = phi.apply({a: F.one})
        sgn = F.of((-1) ** R.deg(a))
        for m in range(n):
            e = S.mul_elem(img, {m: F.one})
            if e:
                act_left[(a, m)] = dict(e)
                act_left[(a, m + n)] = {k + n: F.mul(sgn, c) for k, c in e.items()}
    for b in range(n):
        for m in range(n):
            e = S.mul_elem({m: F.one}, {b: F.one})
            if e:
                act_right[(b, m)] = dict(e)
                act_right[(b, m + n)] = {k + n: c for k, c in e.items()}
    for m, e in S.diff.items():
        diff[m] = dict(e)
        diff[m + n] = {k + n: F.neg(c) for k, c in e.items()}
    return DgBimodule(R, S, basis, act_left, act_right, diff, name="S⊕ΣS")


def test_criterion_8_duality():
    for phi in (truncated_to_ground(2), product_to_ground()):
        fam = generate_test_family(phi.target, 0, 4)
        cases = [
            (bimodule_from_morphism(phi), BuildTreeWitness(Leaf(0))),
            (_sum_shift_bimodule(phi), BuildTreeWitness(SumNode([Leaf(0), Leaf(1)]))),
        ]
        for M, w in cases:
            assert validate_module(M) == []
            for desc, N in fam.left:
                d = duality_map(M, N, w, 8)
                assert d.validate() is True, (M.name, desc)
                assert is_derived_iso(d, Window(-2, 8)).ok, (M.name, desc)
    _passed(8, "duality map is a quasi-iso for S and S ⊕ ΣS on every family member")


# -- criterion 9: balancing and associativity ----------------------------------


def _bot(M):
    degs = [d for _, d in M.basis]
    return min(degs) if degs else 0


def test_criterion_9_balancing_associativity():
    algebras = [truncated_polynomial(2), product_kk()]
    for seed in range(10):
        A = algebras[seed % 2]
        fam = generate_test_family(A, seed, 4)
        M = fam.right[seed % 4][1]
        N = fam.left[(seed + 1) % 4][1]
        via_N = derived_tensor(A, M, N, 3)
        # resolve the other side, staggered past the window
        D2 = 4 + max(0, -_bot(N)) + max(0, max(d for _, d in A.basis))
        _, right_free = resolve_right_module(M, D2)
        T = tensor_over(A, right_free, N)
        w = Window(-3, 3)
        assert homology_dims(via_N.value, w) == homology_dims(T.complex, w), seed
    for seed in range(10):
        phi = (truncated_to_ground(2), product_to_ground())[seed % 2]
        R, S = phi.source, phi.target
        fam = generate_test_family(S, seed, 3)
        Nr = generate_test_family(R, seed, 3).right[seed % 3][1]
        Np = fam.left[seed % 3][1]
        B = bimodule_from_morphism(phi)
        P = semifree_resolution_bimodule(B, 8 + max(0, -_bot(Nr))).free.bimodule
        M1 = tensor_over(R, Nr, P).structure()  # (Nr ⊗^L_R S) as a right S-module
        left = derived_tensor(S, M1, Np, 2)
        right = derived_tensor(R, Nr, restrict_scalars(Np, phi), 2)
        w = Window(-2, 2)
        assert homology_dims(left.value, w) == homology_dims(right.value, w), seed
    _passed(9, "balancing and associativity hold exactly on 20 seeded instances")


# -- criterion 10: CLI contract ------------------------------------------------


def _cli(*argv):
    r = subprocess.run(
        [sys.executable, "-m", "dgkit.cli", *[str(a) for a in argv]],
        capture_output=True,
        cwd=str(FIXTURES.parent),
    )
    return r.returncode, r.stdout


def test_criterion_10_cli_contract():
    # determinism: two runs of the same command are bytewise equal
    for argv in (
        ("check-epi", FIXTURES / "product.dg", "pr", "--window", "0..3", "--family-size", "2"),
        ("tor", FIXTURES / "truncated.dg", "A", "Kr", "K", "--format", "json"),
    ):
        (c1, o1), (c2, o2) = _cli(*argv), _cli(*argv)
        assert c1 == c2 == 0 and o1 == o2
    # round-trip on every shipped fixture that parses
    from dgkit.parser import parse, serialize

    for f in sorted(FIXTURES.glob("*.dg")):
        try:
            pf = parse(f.read_text())
        except Exception:
            continue
        s = serialize(pf)
        assert serialize(parse(s)) == s, f.name
    # exit-code contract: three cases per code
    zero = [
        ("validate", FIXTURES / "truncated.dg"),
        ("witness-verify", FIXTURES / "exterior.dg", "wM2"),
        ("homology", FIXTURES / "product.dg", "S1"),
    ]
    one = [
        ("validate", FIXTURES / "bad_parse.dg"),
        ("validate", FIXTURES / "bad_field.dg"),
        ("validate", FIXTURES / "bad_axiom.dg"),
    ]
    two = [
        ("resolve", FIXTURES / "truncated.dg", "K", "--max-generators", "2"),
        ("tor", FIXTURES / "truncated.dg", "A", "Kr", "K", "--max-generators", "2"),
        ("ext", FIXTURES / "truncated.dg", "A", "K", "K", "--max-generators", "2"),
    ]
    for code, cases in ((0, zero), (1, one), (2, two)):
        for argv in cases:
            got, _ = _cli(*argv)
            assert got == code, (argv, got, code)
    _passed(10, "CLI deterministic, fixtures round-trip, exit codes honored")
