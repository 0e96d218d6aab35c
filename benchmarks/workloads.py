"""The benchmark's workloads: seeded cases, one timed op, answer checks.

Every input is built here from the workload seed through the library's own
generators; the library only ever sees the generated instances.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from tarski import (
    CountedOracle,
    Instance,
    MonotonicityViolation,
    SplitMix64,
    dqy_solve,
    fixed_points_bruteforce,
    full_box,
    gen_random_monotone,
    gen_target,
    iter_box,
    leq,
    load_instance,
    monotonize_table,
    save_instance,
    solve,
    verify_monotone,
)

from calibrate import clock
from hooks import Recorder

TARGET_LOG_SIDES = (8, 16, 20, 40)
PIPELINE_SIDES = (12, 20, 16, 24, 14, 22, 18)
# Raw tables come from their own stream so that every workload can replay
# the same raw tables for witness_rate; small_tables' own raw tables are the
# first of them.
RAW_STREAM = 0x5EED_7AB1_E5EE_D001

# Cases per workload (rounds of the fixed mix) at full size and at the
# smoke test's tiny size. Solve times of target instances spread widely, so
# target_sweep loops over many of them to keep its op_ms.p50 from swinging
# with the seed; its untimed check pass takes the first CHECKED_ROUNDS.
SIZES = {
    "target_sweep": {"full": 1000, "tiny": 2},
    "small_tables": {"full": 200, "tiny": 8},
    "table_pipeline": {"full": 4, "tiny": 1},
}
CHECKED_ROUNDS = 160
# About 1% of violations carry no witness, so witness_rate needs about 700
# violations (1000 raw tables) to hold still from seed to seed.
RAW_PROBE = {"full": 1000, "tiny": 8}
# small_tables mixes rotation and raw tables 2:1, so that its op_ms.p50
# falls inside the rotation tables' times rather than in the gap between
# the two kinds, where it would swing with the seed.
ROTATIONS_PER_RAW = 2
# Table sides cycle in a fixed order rather than being drawn, so that the
# share of each size, which sets most of the cost, is the same for every
# seed; the seed draws the table contents.
ROTATION_SIDES = (5, 6, 7, 8, 9)
RAW_SIDES = (3, 4, 5)
TINY_PIPELINE_SIDES = (3, 5, 4)


@dataclass
class Case:
    """One input of a workload.

    kind is "target", "rotation" (monotone table), "raw" (table that is
    usually not monotone) or "pipeline" (the op generates the instance from
    gen_seed). fixed holds the reference fixed points, filled untimed.
    """

    kind: str
    shape: tuple[int, ...]
    inst: Instance | None = None
    gen_seed: int = 0
    fixed: frozenset | None = None


@dataclass
class OpResult:
    """Timings, counts and outcome of one op; error is None when it passed."""

    op_s: float = 0.0
    solve_s: float = 0.0
    queries: int = 0
    dqy_s: float | None = None
    dqy_queries: int | None = None
    violation: MonotonicityViolation | None = None
    stages_s: dict[str, float] = field(default_factory=dict)
    file_bytes: int = 0
    error: str | None = None


# -- case builders ----------------------------------------------------------


def rotation_instance(n: int, deltas, rot: int) -> Instance:
    """Monotone table F(x)_i = clamp(x_{(i+rot) mod 3} + deltas_i) on [n]^3.

    Coordinates chase each other around a cycle, which floods levelsets with
    i-upward/i-downward points and drives the configuration machinery.
    """
    shape = (n, n, n)
    rows = tuple(
        tuple(min(n, max(1, x[(i + rot) % 3] + deltas[i])) for i in range(3))
        for x in iter_box(full_box(shape))
    )
    return Instance(shape=shape, kind="table", table=rows)


def raw_draws(rng: SplitMix64, shape) -> list[tuple[int, ...]]:
    """Uniform table values, one draw per coordinate, lexicographic order."""
    volume = full_box(shape).volume
    return [tuple(1 + rng.below(n) for n in shape) for _ in range(volume)]


def raw_cases(seed: int, count: int) -> list[Case]:
    """Uniform raw tables on [m]^3, not monotonized; m cycles through 3..5."""
    rng = SplitMix64(seed ^ RAW_STREAM)
    cases = []
    for i in range(count):
        shape = (RAW_SIDES[i % len(RAW_SIDES)],) * 3
        inst = Instance(shape=shape, kind="table", table=tuple(raw_draws(rng, shape)))
        cases.append(Case("raw", shape, inst))
    return cases


def build(workload: str, seed: int, size: str) -> list[Case]:
    """The workload's cases in their fixed, interleaved mix."""
    rounds = SIZES[workload][size]
    rng = SplitMix64(seed)
    if workload == "target_sweep":
        cases = []
        for _ in range(rounds):
            for log_side in TARGET_LOG_SIDES:
                shape = (1 << log_side,) * 3
                target = tuple(1 + rng.below(n) for n in shape)
                cases.append(Case("target", shape, gen_target(shape, target)))
        return cases
    if workload == "small_tables":
        cases = []
        sides = iter(ROTATION_SIDES * (rounds * ROTATIONS_PER_RAW))
        for raw in raw_cases(seed, rounds):
            for _ in range(ROTATIONS_PER_RAW):
                n = next(sides)
                deltas = tuple(rng.below(5) - 2 for _ in range(3))
                rot = 1 + rng.below(2)
                cases.append(Case("rotation", (n,) * 3, rotation_instance(n, deltas, rot)))
            cases.append(raw)
        return cases
    if workload == "table_pipeline":
        sides = PIPELINE_SIDES if size == "full" else TINY_PIPELINE_SIDES
        return [
            Case("pipeline", (n,) * 3, gen_seed=rng.next_u64())
            for _ in range(rounds)
            for n in sides
        ]
    raise ValueError(f"unknown workload {workload!r}")


def round_length(workload: str, size: str) -> int:
    """Cases per round of the mix; a timed loop stops only between rounds."""
    if workload == "target_sweep":
        return len(TARGET_LOG_SIDES)
    if workload == "small_tables":
        return ROTATIONS_PER_RAW + 1
    return len(PIPELINE_SIDES if size == "full" else TINY_PIPELINE_SIDES)


def checked(workload: str, cases: list[Case]) -> list[Case]:
    """The cases of the untimed check pass."""
    if workload == "target_sweep":
        return cases[: CHECKED_ROUNDS * len(TARGET_LOG_SIDES)]
    return cases


def add_references(cases: list[Case]) -> list[float]:
    """Reference fixed points of monotone table cases, by exhaustive scan.

    Returns the seconds each scan took.
    """
    scans = []
    for case in cases:
        if case.kind == "rotation":
            inst = case.inst
        elif case.kind == "pipeline" and case.fixed is None:
            inst = gen_random_monotone(case.shape, case.gen_seed)
        else:
            continue
        t0 = clock()
        case.fixed = frozenset(fixed_points_bruteforce(inst))
        scans.append(clock() - t0)
    return scans


# -- one op -----------------------------------------------------------------


def _detached(mv: MonotonicityViolation) -> MonotonicityViolation:
    """The violation without the frames and the chained exception it holds
    on to, which would keep every oracle of the solve alive."""
    mv.__traceback__ = None
    mv.__context__ = None
    return mv


def _levelset(inst: Instance, rec: Recorder | None):
    """Levelset solve on a fresh oracle: (answer or violation, seconds, oracle)."""
    if rec is None:
        oracle, kwargs = CountedOracle(inst), {}
    else:
        record = rec.levelset_record(inst)
        oracle, kwargs = record.oracle, record.kwargs
    t0 = clock()
    try:
        answer = solve(oracle, **kwargs)
    except MonotonicityViolation as mv:
        answer = _detached(mv)
    elapsed = clock() - t0
    if rec is not None:
        record.wall_s = elapsed
        rec.finished(oracle, record)
    return answer, elapsed, oracle


def _dqy(inst: Instance, rec: Recorder | None):
    """dqy solve on a fresh oracle: (answer or violation, seconds, queries)."""
    oracle = CountedOracle(inst) if rec is None else rec.dqy_oracle(inst)
    t0 = clock()
    try:
        answer = dqy_solve(oracle).fixed_point
    except MonotonicityViolation as mv:
        answer = _detached(mv)
    elapsed = clock() - t0
    if rec is not None:
        rec.finished(oracle)
    return answer, elapsed, oracle.distinct_queries


def _has_violating_pair(inst: Instance, points) -> bool:
    """Whether some x <= y among the points has F(x) not <= F(y), by the
    table's own values."""
    points = list(points)
    return any(
        x != y and leq(x, y) and not leq(inst.value(x), inst.value(y))
        for x in points
        for y in points
    )


def _check(case: Case, inst: Instance, answer, queried=()) -> str | None:
    """Why the answer is wrong, or None.

    Only raw tables may raise a violation, and only one that the table
    backs: some pair among its implicated points or, failing that, among
    the points the solve queried must violate monotonicity. About 1% of
    the violations raised at default settings hold no such pair among their
    implicated points, so that stricter test would fail ops at every seed;
    witness_rate measures it instead (a violation carries a witness exactly
    when its implicated values hold a violating pair).
    """
    if isinstance(answer, MonotonicityViolation):
        if case.kind != "raw":
            return f"violation on a monotone input: {answer}"
        implicated = (p for p, _ in answer.implicated)
        if _has_violating_pair(inst, implicated) or _has_violating_pair(inst, queried):
            return None
        return f"violation on raw {case.shape} not backed by any queried pair: {answer}"
    if case.kind == "target":
        ok = answer == inst.target
    elif case.kind == "raw":
        ok = inst.value(answer) == answer
    else:
        ok = answer in case.fixed
    return None if ok else f"wrong answer {answer} on {case.kind} {case.shape}"


def run_op(case: Case, rec: Recorder | None, work_dir: str) -> OpResult:
    """One op of the case's workload; answers are checked after the clock stops.

    target: solve is the op, dqy_solve is timed beside it. rotation: solve
    is the op, dqy_solve is timed beside it. raw: solve is the op.
    pipeline: gen -> save -> load -> verify -> solve + dqy is the op.
    """
    res = OpResult()
    if case.kind != "pipeline":
        inst = case.inst
        answer, res.solve_s, oracle = _levelset(inst, rec)
        res.op_s = res.solve_s
        res.queries = oracle.distinct_queries
        errors = [_check(case, inst, answer, oracle.cache)]
        if case.kind != "raw":
            dqy_answer, res.dqy_s, res.dqy_queries = _dqy(inst, rec)
            errors.append(_check(case, inst, dqy_answer))
    else:
        path = os.path.join(work_dir, "instance.txt")
        t0 = clock()
        inst = gen_random_monotone(case.shape, case.gen_seed)
        t1 = clock()
        save_instance(inst, path)
        t2 = clock()
        loaded = load_instance(path)
        t3 = clock()
        witness = verify_monotone(loaded)
        t4 = clock()
        answer, res.solve_s, oracle = _levelset(loaded, rec)
        res.queries = oracle.distinct_queries
        dqy_answer, res.dqy_s, res.dqy_queries = _dqy(loaded, rec)
        res.op_s = clock() - t0
        res.stages_s = {"gen": t1 - t0, "save": t2 - t1, "load": t3 - t2, "verify": t4 - t3}
        res.file_bytes = os.path.getsize(path)
        errors = [
            None if loaded == inst else "loaded instance differs from the saved one",
            None if witness is None else f"generated table is not monotone: {witness}",
            _check(case, loaded, answer),
            _check(case, loaded, dqy_answer),
        ]
    if isinstance(answer, MonotonicityViolation):
        res.violation = answer
    res.error = next((e for e in errors if e is not None), None)
    return res


def gen_stages(shape, seed: int) -> tuple[dict[str, float], int, bool]:
    """gen_random_monotone split into its stages, each timed.

    Returns stage seconds, the number of bounded draws, and whether the
    staged result equals gen_random_monotone's.
    """
    rng = SplitMix64(seed)
    t0 = clock()
    raw = raw_draws(rng, shape)
    t1 = clock()
    rows = monotonize_table(shape, raw)
    t2 = clock()
    inst = Instance(shape=tuple(shape), kind="table", table=tuple(rows))
    t3 = clock()
    same = inst == gen_random_monotone(shape, seed)
    stages = {"draws": t1 - t0, "monotonize": t2 - t1, "instance": t3 - t2}
    return stages, len(raw) * len(shape), same
