"""Cross-checking the equivalent characterizations of homological epimorphisms.

The equivalence theorem quantifies over all DG modules; here every quantified
condition is evaluated over an explicit finite test family and an explicit
homological-degree window, both recorded in the verdicts.  The report's claim
is falsification power plus mutual consistency of the checkable conditions,
never certified universal quantification.

Every condition takes one path to its verdict: ``_reports`` builds the chain
map of the condition or of each family member and asks ``is_derived_iso``,
``_fold`` turns the (description, report) pairs into one ``ConditionVerdict``
(ring conditions (3) and (5) compare dims tables in the same report shape),
and ``_agreement`` compares the conditions group by group: one group of every
checkable condition, or (1)-(3) and (4)-(5) apart when no finitely-built
witness bridges them.  Witnesses pass ``resolutions.require_witness``.

Each report is built once.  The family's first member is S itself, so (2)
reads (1)'s report there, and ring-mode Translation reads Tor_i(S, S) off
the same report.  Every chain map is built in ``derived``, with its
resolution depths and the one truncated dual; this module keeps only the
families, the member loop, the fold, the agreement rule and the reports.
Each check runs its conditions in one ``resolutions.resolution_scope``, the
lifetime of everything the check reuses through ``resolutions.scoped``: each
module its conditions and members resolve is built once, grown to the
deepest depth requested, and a shallower request reads its prefix; the
bimodule is converted to its enveloping module once and each of its
resolutions read over R once; and the truncated dual is built once.

The test family is valid by construction (S, ΣS, cones of A-linear chain maps,
semifree modules on cycles, and their right-module forms), so it is built and
not re-checked: the tests validate every member on a grid of algebras, fields,
seeds and sizes.  Run time checks the CLI's inputs, each compared chain map
(``_reports``), each witness and the endomorphism DGA.

A consistency run checks its instances independently, each on its own test
family and in its own scope, so ``consistency_run`` sends them to a pool of
``fork``-started workers, one pinned to each CPU the process may use, and
reads the reports back in corpus order: its report, and the first exception, are
those of checking the instances one after another.  With one worker the
same per-instance function runs in-process.
"""

import functools
import os
import random
from dataclasses import dataclass, field as dc_field

from .complexes import ChainMap, QuasiIsoReport, Window
from .dga import (
    DgAlgebra,
    DgBimodule,
    DgModule,
    DgaMorphism,
    bimodule_from_morphism,
    left_op_to_right,
    left_regular,
    matrices_from_images,
    opposite,
    restrict_scalars,
    right_to_left_op,
    validate_dga,
    validate_module,
    vec_iadd,
)
from .derived import (
    _condition3_map,
    _condition5_map,
    _induction_counit,
    _ring_condition4_map,
    counit_map,
    ext_table,
    is_derived_iso,
    multiplication_map,
    tor_table,
    unit_map,
)
from .homtensor import _endomorphism_dga, _pointwise, hom_over
from .linalg import kernel_basis
from .modops import (
    FreeModule,
    Generator,
    DgModuleMap,
    module_cone,
    module_shift,
)
from .resolutions import (
    BuildTreeWitness,
    Leaf,
    ResourceBoundExceeded,
    require_witness,
    resolution_scope,
)


# -- verdicts and reports ------------------------------------------------------


HOLDS = "holds-on-window"
FAILS = "fails"
UNCHECKABLE = "not-directly-checkable"


@dataclass
class ConditionVerdict:
    condition: object  # 1..6, "translation", or "compact-endpoint"
    status: str  # HOLDS | FAILS | UNCHECKABLE
    window: Window | None = None
    degree: int | None = None  # first failing degree, when status is FAILS
    dims: tuple | None = None  # (source dim, target dim) at that degree
    members: list = dc_field(default_factory=list)  # per-member detail
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def checkable(self) -> bool:
        return self.status != UNCHECKABLE

    def summary(self) -> str:
        if self.status == FAILS:
            return (
                f"({self.condition}) fails at degree {self.degree}: "
                f"dims {self.dims[0]} vs {self.dims[1]}"
            )
        return f"({self.condition}) {self.status}"


@dataclass
class TestFamily:
    seed: int
    left: list  # (description, left DG S-module)
    right: list  # (description, right DG S-module)

    def __len__(self):
        return len(self.left)

    def singles(self) -> list:
        """(description, (N,)) for each left member N."""
        return [(d, (N,)) for d, N in self.left]

    def pairs(self) -> list:
        """(description, (N_r, N)) for the right and left members side by side."""
        return [(f"({d1}, {d2})", (Nr, Nl)) for (d1, Nr), (d2, Nl) in zip(self.right, self.left)]

    def diagonal(self) -> list:
        """(description, (N,)) for each left member N, described as the pair (N, N)."""
        return [(f"({d}, {d})", (N,)) for d, N in self.left]


@dataclass
class ConsistencyReport:
    verdicts: list
    agreement: bool
    disagreement: str | None = None
    note: str = ""

    def verdict(self, condition) -> ConditionVerdict:
        for v in self.verdicts:
            if v.condition == condition:
                return v
        raise KeyError(condition)

    @property
    def is_epi(self) -> bool:
        return self.agreement and all(v.holds for v in self.verdicts if v.checkable)


@dataclass
class DwyerGreenleesReport:
    endomorphism_algebra: DgAlgebra
    acting_algebra: DgAlgebra  # the opposite of the endomorphism DGA
    degreewise_iso: bool
    endpoint: ConditionVerdict
    note: str = ""


@dataclass
class AggregateReport:
    instances: list  # (description, ConsistencyReport)
    agreement: bool
    first_disagreement: str | None = None


def _fold(condition, window: Window, reports) -> ConditionVerdict:
    """The one fold of iso reports into a verdict.

    ``reports`` are (description, report) pairs; a report has ``per_degree``
    and ``dims[n] = (source dim, target dim)``, like ``QuasiIsoReport``.  The
    verdict fails at the first failing degree of the first failing report and
    lists each described report as a member; a single-map condition passes
    one report without description and lists none.
    """
    members, fail = [], None
    for desc, rep in reports:
        n = next((n for n, ok in rep.per_degree.items() if not ok), None)
        if n is None:
            status = "holds"
        else:
            fail = fail or (n, rep.dims[n])
            status = f"fails at degree {n}: dims {rep.dims[n][0]} vs {rep.dims[n][1]}"
        if desc is not None:
            members.append((desc, status))
    if fail is None:
        return ConditionVerdict(condition, HOLDS, window, members=members)
    return ConditionVerdict(
        condition, FAILS, window, degree=fail[0], dims=fail[1], members=members
    )


def _reports(window: Window, what: str, build, members=None) -> list:
    """The one member loop: build each member's chain map, require it to be
    a chain map and check it on the window; (description, report) pairs
    for ``_fold``.

    ``members`` are (description, arguments of ``build``) pairs; without
    them the condition is the single map ``build()``.
    """
    reports = []
    for desc, args in [(None, ())] if members is None else members:
        cm = build(*args)
        ok = cm.validate()
        if ok is not True:
            at = what if desc is None else f"{what} at {desc}"
            raise ValueError(f"{at} is not a chain map: {ok.reason} (degree {ok.degree})")
        reports.append((desc, is_derived_iso(cm, window)))
    return reports


def _split_S(family: TestFamily, S: DgAlgebra):
    """The description of the family's first left member, which must be S,
    and the other members: (2) reads (1)'s report at S, builds the others."""
    desc, N = family.left[0]
    if (N.side, N.field, N.basis, N.act, N.diff) != ("left", S.field, S.basis, S.mul, S.diff):
        raise ValueError(f"test family member {desc} is not S, where (2) reads (1)'s report")
    return desc, family.singles()[1:]


def _table_report(a: dict, b: dict) -> QuasiIsoReport:
    """Two dims tables compared degree by degree, as an iso report."""
    dims = {n: (a.get(n, 0), b.get(n, 0)) for n in sorted(set(a) | set(b))}
    per = {n: x == y for n, (x, y) in dims.items()}
    return QuasiIsoReport(per, all(per.values()), dims)


def _condition6(window: Window) -> ConditionVerdict:
    return ConditionVerdict(
        6,
        UNCHECKABLE,
        window,
        note="full embedding of derived categories; equivalent to (1)-(5) by "
        "the theorem, not directly evaluable",
    )


def _agreement(verdicts, groups, note: str = "") -> ConsistencyReport:
    """The one agreement rule: the conditions of each group all hold or all
    fail; the first group that splits gives the disagreement."""
    by_id = {v.condition: v for v in verdicts}
    for group in groups:
        vs = [by_id[c] for c in group]
        if len({v.holds for v in vs}) > 1:
            return ConsistencyReport(verdicts, False, "; ".join(v.summary() for v in vs), note)
    return ConsistencyReport(verdicts, True, None, note)


def _finished(verdicts) -> list:
    """Evaluate the conditions in turn; on a resource bound, the exception
    carries the verdicts finished before it."""
    done = []
    try:
        for v in verdicts:
            done.append(v)
    except ResourceBoundExceeded as e:
        e.verdicts = done
        raise
    return done


# -- test families -------------------------------------------------------------


def _random_cycle(rng: random.Random, M: DgModule, n: int) -> dict:
    """A deterministic pseudo-random cycle of degree n, possibly zero."""
    C = M.underlying()
    if C.dim(n) == 0:
        return {}
    ker = kernel_basis(C.d(n))
    if not ker:
        return {}
    F = M.field
    out: dict = {}
    for vec in ker:
        c = rng.randint(-2, 2)
        if c != 0:
            vec_iadd(F, out, M.elem_from_component(vec, n), F.of(c))
    return out


def _random_semifree(A: DgAlgebra, rng: random.Random, label: str) -> FreeModule:
    """Free module on 2-3 generators whose differentials are earlier cycles."""
    free = FreeModule(A, [Generator(f"{label}0", rng.randint(0, 1))])
    for i in range(rng.randint(1, 2)):
        deg = rng.randint(1, 3)
        free.add(Generator(f"{label}{i + 1}", deg, d_elem=_random_cycle(rng, free, deg - 1)))
    return free


def _random_cone(A: DgAlgebra, rng: random.Random, label: str) -> DgModule:
    """Cone of a random chain map between free modules on one generator."""
    F = A.field
    sdeg = rng.randint(0, 1)
    src = FreeModule(A, [Generator(f"{label}s", sdeg)])
    tgt = FreeModule(A, [Generator(f"{label}t", 0)])
    img = _random_cycle(rng, tgt, sdeg)  # image of the generator: a cycle

    def image(idx, n):  # a·g ↦ a·img
        return tgt.act_elem({src.split(idx)[1]: F.one}, img)

    return module_cone(DgModuleMap(src, tgt, matrices_from_images(src, tgt, image)))


def _family_side(A: DgAlgebra, rng: random.Random, size: int, tag: str):
    out = [(f"{tag}", left_regular(A)), (f"{tag}[1]", module_shift(left_regular(A), 1))]
    for i in range(size - 2):
        if i % 2 == 0:
            out.append((f"cone{i}", _random_cone(A, rng, f"{tag}c{i}")))
        else:
            out.append((f"semifree{i}", _random_semifree(A, rng, f"{tag}m{i}")))
    return out


def generate_test_family(S: DgAlgebra, seed: int, size: int = 6) -> TestFamily:
    """Deterministic family of left and right DG S-modules; always {S, ΣS}.

    Every member is valid by construction, and the tests validate them."""
    size = max(size, 2)
    rng = random.Random(seed)
    left = _family_side(S, rng, size, "S")
    right_as_op = _family_side(opposite(S), rng, size, "S°")
    right = [(desc.replace("S°", "S_r"), left_op_to_right(m, S)) for desc, m in right_as_op]
    return TestFamily(seed, left, right)


# -- the six bimodule conditions ----------------------------------------------


def check_bimodule_conditions(
    M: DgBimodule,
    witness_Sop,
    family: TestFamily,
    D: int,
    max_generators: int = 10000,
) -> ConsistencyReport:
    """Evaluate the six equivalent bimodule conditions of the R-S-bimodule M
    over a test family."""
    if witness_Sop is None:
        groups = [[1, 2, 3], [4, 5]]
        note = (
            "no finitely-built witness: conditions (1)-(3) and (4)-(5) are "
            "compared as separate groups; the bridge between them needs the witness"
        )
    else:
        require_witness(witness_Sop, right_to_left_op(M.right_module()))
        groups, note = [[1, 2, 3, 4, 5]], ""
    with resolution_scope():
        verdicts = _finished(_bimodule_verdicts(M, family, D, max_generators))
    return _agreement(verdicts, groups, note)


def _bimodule_verdicts(M: DgBimodule, family: TestFamily, D: int, max_generators: int):
    """The verdicts on conditions (1)-(6), one at a time."""
    S = M.right_algebra
    window = Window(-D, D)
    g = max_generators

    # (1): counit at N = S; (2): counit over the family, (1)'s report at S
    at_S, others = _split_S(family, S)
    r1 = _reports(window, "counit at S", lambda: counit_map(M, left_regular(S), D, g))
    yield _fold(1, window, r1)
    counit = _reports(window, "counit", lambda N: counit_map(M, N, D, g), others)
    yield _fold(2, window, [(at_S, r1[0][1])] + counit)
    # (3): the two-sided composed map over right/left pairs
    two_sided = _reports(
        window, "two-sided map", lambda Nr, Nl: _condition3_map(M, Nr, Nl, D, g), family.pairs()
    )
    yield _fold(3, window, two_sided)
    # (4): unit over the family
    unit = _reports(window, "unit", lambda N: unit_map(M, N, D, g), family.singles())
    yield _fold(4, window, unit)
    # (5): induced map on RHom over diagonal pairs
    induced = _reports(window, "RHom map", lambda N: _condition5_map(M, N, D, g), family.diagonal())
    yield _fold(5, window, induced)
    yield _condition6(window)


# -- compact endpoint ----------------------------------------------------------


def _endpoint_map(S: DgAlgebra, M: DgBimodule, H) -> ChainMap:
    """S → H, s ↦ (m ↦ ± m·s), for any Hom complex H of Hom_R(M, M)."""

    def image(s, n):
        # f_s(m) = (-1)^{|s||m|} m·s is graded R-linear and chain
        return _pointwise(M, n, lambda mi: M.act_right.get((s, mi), {}))

    return ChainMap(S.underlying(), H.complex, matrices_from_images(S, H, image))


def check_dwyer_greenlees(
    R: DgAlgebra,
    M: DgModule,
    witness_R: BuildTreeWitness,
    window: Window,
) -> DwyerGreenleesReport:
    """Endomorphism-DGA picture: F = End_R(M), S = F^op acting on the right."""
    require_witness(witness_R, M)
    # one Hom_R(M, M): the endomorphism DGA, the degreewise comparison and
    # the endpoint map all read it
    H = hom_over(R, M, M)
    Fdga, bimod = _endomorphism_dga(H)
    bad = validate_dga(Fdga)
    if bad:
        raise ValueError(f"endomorphism DGA invalid: {bad[0].axiom} at {bad[0].where}")
    bad = validate_module(bimod)
    if bad:
        raise ValueError(f"endomorphism bimodule invalid: {bad[0].axiom}")
    S = bimod.right_algebra
    # the witness was verified above, so the endpoint map can target H;
    # _reports raises ValueError unless it is a chain map
    reports = _reports(window, "endpoint map S → Hom_R(M, M)", lambda: _endpoint_map(S, bimod, H))
    endpoint = _fold("compact-endpoint", window, reports)
    # degreewise comparison S ≅ Hom_R(M, M): a basis element f of F is a map
    # of M, and the endpoint map sends it to f itself, since the signs of
    # m·f = (-1)^{|f||m|} f(m) and of the pointwise rule cancel; the verdict
    # above required it to be a chain map, which pins the differentials to agree
    SC = S.underlying()
    degreewise = all(SC.dim(n) == H.complex.dim(n) for n in set(SC.degrees()) | set(H.complex.degrees()))
    return DwyerGreenleesReport(Fdga, S, degreewise, endpoint)


# -- ring-mode checker ---------------------------------------------------------


def check_ring_epi(
    phi: DgaMorphism, D: int, family: TestFamily, max_generators: int = 10000
) -> ConsistencyReport:
    """The classical ring characterization, conditions (1)-(6) plus Translation."""
    R, S = phi.source, phi.target
    if any(d != 0 for _, d in R.basis) or any(d != 0 for _, d in S.basis):
        raise ValueError("ring mode requires algebras concentrated in degree zero")
    with resolution_scope():
        verdicts = _finished(_ring_verdicts(phi, D, family, max_generators))
    return _agreement(verdicts, [[v.condition for v in verdicts if v.checkable]])


def _ring_verdicts(phi: DgaMorphism, D: int, family: TestFamily, max_generators: int):
    """The verdicts on (1), Translation and (2)-(6), one at a time."""
    R, S = phi.source, phi.target
    window = Window(0, D)
    g = max_generators

    # (1): multiplication map S ⊗^L_R S → S
    at_S, others = _split_S(family, S)
    r1 = _reports(window, "multiplication map", lambda: multiplication_map(phi, D, g))
    v1 = _fold(1, window, r1)
    yield v1

    # Translation: H_0 bijective and Tor_i(S,S) = 0 for 1 <= i <= D, read
    # off the homology of (1)'s source S ⊗^L_R S
    tor = {i: h for i, (h, _) in r1[0][1].dims.items()}
    bad_i = next((i for i in range(1, D + 1) if tor[i] != 0), None)
    if v1.degree == 0:  # the window starts at 0, so (1) fails there first
        bad_i, dims, note = 0, v1.dims, "multiplication not bijective on H_0"
    elif bad_i is not None:
        dims, note = (tor[bad_i], 0), f"Tor_{bad_i}(S,S) has dimension {tor[bad_i]}"
    if bad_i is None:
        yield ConditionVerdict("translation", HOLDS, window)
    else:
        yield ConditionVerdict("translation", FAILS, window, degree=bad_i, dims=dims, note=note)

    # (2): S ⊗^L_R N → N over the family, chain-realized; (1)'s report at S
    counit = _reports(window, "induction counit", lambda N: _induction_counit(phi, N, D, g), others)
    yield _fold(2, window, [(at_S, r1[0][1])] + counit)

    # (3): Tor over R vs over S on right/left pairs (dims level)
    reports = []
    for desc, (Mr, Nl) in family.pairs():
        tR = tor_table(R, restrict_scalars(Mr, phi), restrict_scalars(Nl, phi), D, g)
        reports.append((desc, _table_report(tR, tor_table(S, Mr, Nl, D, g))))
    yield _fold(3, window, reports)

    # (4): N → RHom_R(S, N) over the family, chain-realized
    unit = _reports(
        Window(-D, D), "restriction unit", lambda N: _ring_condition4_map(phi, N, D, g), family.singles()
    )
    yield _fold(4, Window(-D, D), unit)

    # (5): Ext over S vs over R on diagonal pairs (dims level)
    reports = []
    for desc, (N,) in family.diagonal():
        NR = restrict_scalars(N, phi)
        eS = ext_table(S, N, N, D, g)
        reports.append((desc, _table_report(eS, ext_table(R, NR, NR, D, g))))
    yield _fold(5, window, reports)

    yield _condition6(window)


def check_dga_epi(
    phi: DgaMorphism, D: int, family: TestFamily, max_generators: int = 10000
) -> ConsistencyReport:
    """Homological-epimorphism check for a DGA morphism.

    Degree-zero inputs route to the ring checker; genuine DGAs go through the
    bimodule conditions with M = S and the trivial one-leaf witness for S_S.
    """
    R, S = phi.source, phi.target
    degree0 = all(d == 0 for _, d in R.basis) and all(d == 0 for _, d in S.basis)
    if degree0:
        return check_ring_epi(phi, D, family, max_generators)
    M = bimodule_from_morphism(phi)
    return check_bimodule_conditions(M, BuildTreeWitness(Leaf(0)), family, D, max_generators)


def _check_instance(run: tuple, i: int) -> ConsistencyReport:
    """Check instance i of run = (corpus, seed, D, family size, generator cap)
    on its own test family."""
    corpus, seed, D, family_size, max_generators = run
    phi = corpus[i][1]
    family = generate_test_family(phi.target, seed, family_size)
    return check_dga_epi(phi, D, family, max_generators)


# the run a forked worker checks, set in the worker only (``_start_worker``):
# forked, it inherits the run, so no instance is pickled on its way to it
_WORKER_RUN: tuple = ()


def _start_worker(run: tuple, cpus):
    """Keep the run in this worker and pin the worker to a CPU of its own,
    taken from the queue ``cpus`` (None where there is no affinity mask).
    Left unpinned, the workers of a run this short share their parent's CPU
    for most of it: each instance then takes twice its CPU time."""
    global _WORKER_RUN
    _WORKER_RUN = run
    if cpus is not None:
        try:
            os.sched_setaffinity(0, {cpus.get()})
        except OSError:  # the CPU left the mask: run anywhere in it
            pass


def _check_in_worker(i: int) -> ConsistencyReport:
    return _check_instance(_WORKER_RUN, i)


def _pool(run: tuple):
    """A pool of ``fork``-started workers for the run's instances, one per
    CPU this process may use and at most one per instance, each pinned to
    one of those CPUs; None, to check them in-process, for one worker,
    without ``fork``, or when this process has other threads, since a forked
    child gets no copy of them or of the locks they hold.  A
    ``ProcessPoolExecutor`` raises ``BrokenProcessPool`` when a worker dies,
    where a ``multiprocessing.Pool`` would wait for its result forever.
    The worker count is read off the affinity mask first, so a run with one
    worker imports neither ``multiprocessing`` nor ``concurrent.futures``."""
    try:
        mask = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        mask = []
    workers = min(len(run[0]), len(mask) or os.cpu_count() or 1)
    if workers < 2:
        return None
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return None
    context = multiprocessing.get_context("fork")
    cpus = None
    if mask:
        cpus = context.SimpleQueue()
        for cpu in mask[:workers]:
            cpus.put(cpu)
    return ProcessPoolExecutor(
        workers, mp_context=context, initializer=_start_worker, initargs=(run, cpus)
    )


def consistency_run(
    corpus, seed: int, D: int, family_size: int = 6, max_generators: int = 10000
) -> AggregateReport:
    """Run the applicable checker on each (description, morphism) instance.

    The instances are independent: each draws its own test family and opens
    its own resolution scope.  So they run on a pool of ``fork``-started
    workers, one pinned to each CPU this process may use and at most one per
    instance (``_pool``), and the results are read in corpus order: the reports,
    the agreement, the first disagreement and the first instance that raises
    are those of checking the instances one after another.  With one worker
    the same function runs in this process, through ``map``.  A worker's
    exception is pickled with its attributes (a ``quasi_iso`` witness, a
    resource bound's ``partial`` and ``verdicts``) and reaches the caller
    with the worker's traceback as its cause; the pool is joined on every
    path.

    On a resource bound the exception carries the (description, report)
    pairs finished before it, besides the capped instance's verdicts.
    """
    run = (corpus, seed, D, family_size, max_generators)
    pool = _pool(run)
    instances = []
    try:
        if pool:
            reports = pool.map(_check_in_worker, range(len(corpus)))
        else:
            reports = map(functools.partial(_check_instance, run), range(len(corpus)))
        for (desc, _), rep in zip(corpus, reports):
            instances.append((desc, rep))
    except ResourceBoundExceeded as e:
        e.instances = instances
        raise
    finally:
        if pool:  # after an exception, only the instances already started finish
            pool.shutdown(cancel_futures=True)
    first = next((f"{d}: {r.disagreement}" for d, r in instances if not r.agreement), None)
    return AggregateReport(instances, first is None, first)
