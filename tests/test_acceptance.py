"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines. Budget
constants were frozen after a calibration run on this implementation and are
asserted verbatim; every instance here is seeded, so reruns reproduce the
exact same numbers.
"""

import math
import time

from click.testing import CliRunner

from _families import (
    raw_random_table,
    rotation_batch,
)
from tarski.baseline import brute_solve, dqy_solve
from tarski.cli import main as cli_main
from tarski.errors import MonotonicityViolation
from tarski.lattice import full_box, iter_box, leq
from tarski.levelset import LevelsetSolver, solve
from tarski.oracle import (
    CountedOracle,
    fixed_points_bruteforce,
    gen_random_monotone,
    gen_target,
    verify_monotone,
)
from tarski.rng import SplitMix64

# Frozen after calibration (see README): max normalized query count for the
# scaling sweep, and the per-level budget coefficients.
SCALING_MAX_NORMALIZED = 1.25
PER_LEVEL_PER_LOG = 2.5
PER_LEVEL_CONSTANT = 14
SEPARATION_RATIO = 0.6


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_correctness_vs_bruteforce_oracle():
    t0 = time.monotonic()
    checked = 0
    for n in (3, 4, 5):
        for seed in range(2000):
            inst = gen_random_monotone((n, n, n), seed)
            answer = solve(CountedOracle(inst))
            assert inst.value(answer) == answer, (n, seed)
            assert answer in fixed_points_bruteforce(inst), (n, seed)
            checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 6000 and elapsed < 60.0
    assert _report(
        1, ok, f"{checked} seeded instances on [3]^3..[5]^3 in {elapsed:.1f}s"
    )


def test_criterion_2_exhaustive_4cube_all_solvers():
    failures = 0
    for target in iter_box(full_box((4, 4, 4))):
        inst = gen_target((4, 4, 4), target)
        if solve(CountedOracle(inst)) != target:
            failures += 1
        if dqy_solve(CountedOracle(inst)).fixed_point != target:
            failures += 1
        if brute_solve(CountedOracle(inst)) != target:
            failures += 1
    assert _report(
        2, failures == 0, f"64 targets x 3 solvers, {failures} failures"
    )


def test_criterion_3_query_scaling_via_bench():
    t0 = time.monotonic()
    sides = [1 << e for e in range(4, 21)]
    res = CliRunner().invoke(
        cli_main,
        [
            "bench",
            "--sides", ",".join(str(s) for s in sides),
            "--kind", "target",
            "--reps", "10",
            "--seed", "3",
            "--algos", "levelset",
        ],
    )
    assert res.exit_code == 0, res.output
    rows = res.output.splitlines()[1:]
    assert len(rows) == len(sides) * 10
    per_side = {}
    worst = 0.0
    for row in rows:
        _, shape, n_measure, _, queries, verified, _ = row.split(",")
        assert verified == "true"
        side = int(shape.split("x")[0])
        denom = math.ceil(math.log2(int(n_measure))) ** 2
        ratio = int(queries) / denom
        worst = max(worst, ratio)
        per_side.setdefault(side, []).append(ratio)
    mean_ratio = {s: sum(v) / len(v) for s, v in per_side.items()}
    flat = mean_ratio[1 << 20] <= 1.5 * mean_ratio[1 << 10]
    elapsed = time.monotonic() - t0
    ok = worst <= SCALING_MAX_NORMALIZED and flat and elapsed < 300.0
    assert _report(
        3,
        ok,
        f"max q/ceil(log2 N)^2 = {worst:.3f} (limit {SCALING_MAX_NORMALIZED}), "
        f"normalized 2^20/2^10 = {mean_ratio[1 << 20] / mean_ratio[1 << 10]:.2f} "
        f"(limit 1.5), {elapsed:.1f}s",
    )


def test_criterion_4_per_level_query_budget():
    levels = []

    def obs(ev, payload):
        if ev == "level_done":
            levels.append((payload["queries"], payload["box"].size))

    rng = SplitMix64(999)
    for e in (4, 8, 12, 16, 20):
        n = 1 << e
        for _ in range(8):
            t = tuple(1 + rng.below(n) for _ in range(3))
            LevelsetSolver(CountedOracle(gen_target((n, n, n), t)), observer=obs).solve()
    for n in (4, 5, 6):
        for seed in range(60):
            LevelsetSolver(
                CountedOracle(gen_random_monotone((n, n, n), seed)), observer=obs
            ).solve()
    for inst in rotation_batch(100, 31415, 5, 12):
        LevelsetSolver(CountedOracle(inst), observer=obs).solve()

    over = [
        (q, size)
        for q, size in levels
        if q > PER_LEVEL_PER_LOG * math.ceil(math.log2(size)) + PER_LEVEL_CONSTANT
    ]
    assert _report(
        4,
        not over,
        f"{len(levels)} level calls within {PER_LEVEL_PER_LOG}*ceil(log2 N(box))"
        f"+{PER_LEVEL_CONSTANT}; {len(over)} over budget",
    )


def test_criterion_5_shrink_and_configuration_invariants():
    # (i)+(ii): shrink probes against brute-force enumeration of the search
    # space, and strict decrease of the shrink potential. The shrink phase
    # needs a diameter >= 6, so the enumerated grids use sides 7..9 (a side
    # of 6 caps every diameter at 5 and the phase never runs).
    def log65_ceil(d):
        t, num, den = 0, 1, 1
        while num < d * den:
            num, den, t = num * 6, den * 5, t + 1
        return t

    def enumerate_space(box, k, a, b):
        return [
            x
            for x in iter_box(box)
            if sum(x) == k and all(lo <= c <= hi for lo, c, hi in zip(a, x, b))
        ]

    shrink_events = []
    small_events = []
    config_count = 0

    def obs(ev, payload):
        if ev == "shrink":
            shrink_events.append(payload)
        elif ev == "small":
            small_events.append(payload)

    rng = SplitMix64(31)
    exercisers = list(rotation_batch(30, 131, 7, 9))
    for _ in range(30):
        n = 7 + rng.below(3)
        exercisers.append(gen_target((n, n, n), tuple(1 + rng.below(n) for _ in range(3))))
    for inst in exercisers:
        LevelsetSolver(CountedOracle(inst), observer=obs).solve()

    i_ok = bool(shrink_events)
    ii_ok = True
    for payload in shrink_events:
        snap = payload["state_before"]
        a = tuple(snap["up"][i][0][i] for i in range(3))
        b = tuple(snap["down"][i][0][i] for i in range(3))
        pts = enumerate_space(snap["box"], snap["k"], a, b)
        ell = tuple(min(p[i] for p in pts) for i in range(3))
        r = tuple(max(p[i] for p in pts) for i in range(3))
        dia = tuple(y - x for x, y in zip(ell, r))
        step = tuple(-(-d // 6) for d in dia)
        q = payload["q"]
        if not (
            all(l + s <= c for l, s, c in zip(ell, step, q))
            and all(c <= y - s for y, s, c in zip(r, step, q))
        ):
            i_ok = False
        if payload["dia_after"] is not None:
            before = sum(log65_ceil(d) for d in payload["view"].dia)
            after = sum(log65_ceil(d) for d in payload["dia_after"])
            if after > before - 1:
                ii_ok = False

    # (iii): the configuration scan never fails on monotone instances.
    iii_ok = True
    config_mix = [gen_target((4, 4, 4), t) for t in iter_box(full_box((4, 4, 4)))]
    config_mix += [gen_random_monotone((4, 4, 4), seed) for seed in range(300)]
    config_mix += rotation_batch(100, 61, 4, 4)
    for inst in config_mix:
        events = []
        try:
            LevelsetSolver(
                CountedOracle(inst),
                observer=lambda ev, p: events.append(ev),
            ).solve()
        except MonotonicityViolation:
            iii_ok = False
        config_count += events.count("config")

    # (iv): every implied certificate confirmed by a debug query on [5]^3.
    iv_ok = True
    cert_count = 0
    sweeps = [gen_target((5, 5, 5), t) for t in iter_box(full_box((5, 5, 5)))]
    sweeps += [gen_random_monotone((5, 5, 5), seed) for seed in range(200)]
    sweeps += rotation_batch(150, 55, 5, 5)
    for inst in sweeps:
        certs = []

        def cert_obs(ev, payload):
            if ev == "certificate":
                certs.append(payload["verified"])

        try:
            answer = LevelsetSolver(
                CountedOracle(inst), verify_certificates=True, observer=cert_obs
            ).solve()
        except MonotonicityViolation:
            iv_ok = False
            continue
        if inst.value(answer) != answer:
            iv_ok = False
        if not all(certs):
            iv_ok = False
        cert_count += len(certs)

    ok = i_ok and ii_ok and iii_ok and iv_ok and config_count > 0 and cert_count > 0
    assert _report(
        5,
        ok,
        f"(i) {len(shrink_events)} shrink probes in bounds: {i_ok}; "
        f"(ii) potential decreases: {ii_ok}; "
        f"(iii) {config_count} configurations, never failed: {iii_ok}; "
        f"(iv) {cert_count} certificates confirmed: {iv_ok}",
    )


def test_criterion_6_baseline_separation_at_2_16():
    n = 1 << 16
    rng = SplitMix64(0)
    reps = 50
    level_q, dqy_q = [], []
    for _ in range(reps):
        t = tuple(1 + rng.below(n) for _ in range(3))
        o1 = CountedOracle(gen_target((n, n, n), t))
        solve(o1)
        level_q.append(o1.distinct_queries)
        o2 = CountedOracle(gen_target((n, n, n), t))
        dqy_solve(o2)
        dqy_q.append(o2.distinct_queries)
    ratio = (sum(level_q) / reps) / (sum(dqy_q) / reps)
    ok = ratio <= SEPARATION_RATIO
    assert _report(
        6,
        ok,
        f"mean levelset {sum(level_q) / reps:.1f} vs mean dqy {sum(dqy_q) / reps:.1f} "
        f"over {reps} instances, ratio {ratio:.3f} (limit {SEPARATION_RATIO})",
    )


def test_criterion_7_violation_handling_on_non_monotone_tables():
    collected = 0
    seed = 0
    bad = 0
    outcomes = {"fixed": 0, "violation": 0}
    while collected < 100:
        inst = raw_random_table((4, 4, 4), seed)
        seed += 1
        if verify_monotone(inst) is None:
            continue  # astronomically rare, but keep the family non-monotone
        collected += 1
        o = CountedOracle(inst)
        try:
            answer = solve(o, verify_certificates=True)
            if inst.value(answer) == answer:
                outcomes["fixed"] += 1
            else:
                bad += 1
        except MonotonicityViolation as err:
            pts = [p for p, _ in err.implicated]
            genuine = any(
                x != y and leq(x, y) and not leq(inst.value(x), inst.value(y))
                for x in pts
                for y in pts
            )
            if genuine:
                outcomes["violation"] += 1
            else:
                bad += 1
    ok = bad == 0 and collected == 100
    assert _report(
        7,
        ok,
        f"{outcomes['fixed']} verified fixed points, {outcomes['violation']} "
        f"violations with a genuine pair, {bad} bad runs",
    )
