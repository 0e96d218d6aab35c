"""One benchmark run: set-up, untimed check pass, timed closed loop, metrics.

``end_to_end`` measures with no hooks attached. ``per_layer`` takes its
counts from the check pass and its times from a loop in which every op runs
once plain and once traced, so the two can be compared.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import re
import resource
import statistics
import sys
import traceback

from tarski import Instance, SplitMix64, gen_target

import hooks
import workloads as wl
from calibrate import REF_KERNEL_S, Calibrator, clock

SETUP_REPEATS = 9


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def calibrated(res: wl.OpResult, factor: float) -> wl.OpResult:
    """The op's times multiplied by a calibration factor."""
    return dataclasses.replace(
        res,
        op_s=res.op_s * factor,
        solve_s=res.solve_s * factor,
        dqy_s=None if res.dqy_s is None else res.dqy_s * factor,
        stages_s={k: v * factor for k, v in res.stages_s.items()},
    )


class Run:
    """State of one run: its arguments, its scratch directory, its
    calibration ticks and every op attempted, with the reason each failed
    op failed."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str, work_dir: str,
                 cal: Calibrator, imports: list[tuple[float, int]]):
        self.cal = cal
        self.imports = imports
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.work_dir = work_dir
        self.failures: list[str] = []
        self.attempted = 0

    def op(self, case, rec=None) -> wl.OpResult:
        """run_op at the boundary that must keep running: an exception is
        a failed op, reported with its traceback."""
        try:
            res = wl.run_op(case, rec, self.work_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res = wl.OpResult(error=f"exception on {case.kind} {case.shape}")
        self.attempted += 1
        if res.error is not None:
            self.failures.append(res.error)
        return res

    def setup(self):
        """Build the cases and run one warm-up op, SETUP_REPEATS times.

        Returns the cases, setup_s (the median import plus the median
        repeat, each calibrated) and the median build time alone. The reference answer
        the warm-up op is checked against is computed outside the measured
        time.
        """
        repeats = []
        for _ in range(SETUP_REPEATS):
            cases = None  # so that repeats do not stack up in memory
            gc.collect()
            tick = self.cal.tick()
            t0 = clock()
            cases = wl.build(self.workload, self.seed, self.size)
            t1 = clock()
            wl.add_references(cases[:1])
            t2 = clock()
            self.op(cases[0])
            repeats.append((t1 - t0 + clock() - t2, t1 - t0, tick))
        self.cal.tick()
        self.cal.tick()
        setup_s = statistics.median(
            s * self.cal.scale(tick) for s, tick in self.imports
        ) + statistics.median(total * self.cal.scale(tick) for total, _, tick in repeats)
        return cases, setup_s, statistics.median(build for _, build, _ in repeats)

    def check_pass(self, cases, fold=None):
        """Every case once with transcripts recorded (and, with fold, the
        hooks, each levelset record handed to fold), plus the raw tables
        behind witness_rate.

        Returns the checked cases and their results, the violations raised
        on raw tables, the exact end-to-end counts and the digest.
        """
        rec = hooks.Recorder(record_transcript=True, fold=fold)
        cases = wl.checked(self.workload, cases)
        results = [self.op(case, rec) for case in cases]
        raw = [self.op(c) for c in wl.raw_cases(self.seed, wl.RAW_PROBE[self.size])]
        paired = [r for r in results if r.dqy_queries is not None]
        violations = [r.violation for r in raw if r.violation is not None]
        counts = {
            "queries_per_solve": mean(r.queries for r in results),
            "dqy_queries_per_solve": mean(r.dqy_queries for r in paired),
            "query_ratio": mean(r.queries for r in paired) / mean(r.dqy_queries for r in paired),
            "witness_rate": mean(v.witness is not None for v in violations),
        }
        return cases, results, violations, counts, rec.digest()

    def criterion6(self) -> tuple[float, float]:
        """The criterion_6 draw: 50 targets at side 2^16 from seed 0. Returns
        the mean distinct queries of levelset and of dqy."""
        n = 1 << 16
        rng = SplitMix64(0)
        results = []
        for _ in range(50):
            target = tuple(1 + rng.below(n) for _ in range(3))
            results.append(self.op(wl.Case("target", (n,) * 3, gen_target((n,) * 3, target))))
        return mean(r.queries for r in results), mean(r.dqy_queries for r in results)

    def loop(self, cases, fold=None):
        """Closed loop over the cases for the run's seconds, stopping only
        between rounds of the mix. With fold, each plain op is followed by
        the same op traced, and fold gets the case and each levelset record.

        Returns the plain and the traced results, each paired with the
        index of the calibration tick taken before it.
        """
        round_len = wl.round_length(self.workload, self.size)
        plain, traced = [], []
        gc.collect()
        deadline = clock() + self.seconds
        i = 0
        while True:
            case = cases[i % len(cases)]
            tick = self.cal.maybe_tick()
            res = self.op(case)
            res.violation = None  # witnesses are counted in the check pass
            plain.append((res, tick))
            if fold is not None:
                rec = hooks.Recorder(record_transcript=False, fold=lambda record: fold(case, record))
                traced.append((self.op(case, rec), tick))
            i += 1
            if i % round_len == 0 and clock() >= deadline:
                break
        for _ in range(2):
            self.cal.tick()
        return plain, traced


def end_to_end(run: Run) -> tuple[dict, dict]:
    cases, setup_s, _ = run.setup()
    wl.add_references(cases)
    _, _, _, counts, digest = run.check_pass(cases)
    info = {"digest": digest}
    if run.workload == "target_sweep":
        info["criterion6"] = run.criterion6()
    # Read before the loop, whose per-op samples grow with the machine's
    # speed; set-up and the check pass have run every case through the
    # library by now.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain, _ = run.loop(cases)
    ok = [calibrated(r, run.cal.scale(tick)) for r, tick in plain if r.error is None]
    op_ms = [r.op_s * 1e3 for r in ok]
    info["ops"] = len(plain)
    info["kernel_us"] = REF_KERNEL_S / run.cal.run_scale() * 1e6
    return {
        "setup_s": setup_s,
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": p90(op_ms),
        "ops_per_s": len(ok) / sum(r.op_s for r in ok),
        # A median over ops, so that one stalled short solve (a garbage
        # collection, say) does not weigh on the whole run.
        "us_per_query": statistics.median(r.solve_s / r.queries for r in ok) * 1e6,
        "dqy_ms.p50": statistics.median(r.dqy_s * 1e3 for r in ok if r.dqy_s is not None),
        **counts,
        "ok_rate": 1 - len(run.failures) / run.attempted,
        "peak_rss_mb": peak_rss_mb,
    }, info


class LayerTotals:
    """Per-layer sums over levelset solves, folded in one record at a time."""

    def __init__(self):
        self.solves = 0
        self.phase = {p: [0, 0] for p in hooks.PHASES}
        self.phase_ms = dict.fromkeys(hooks.TIMED_PHASES, 0.0)
        self.configs = dict.fromkeys(hooks.CONFIG_KINDS, 0)
        self.inferred = self.confirmed = 0
        self.levels_ms: list[float] = []
        self.level_queries: list[int] = []
        self.query_calls = self.query_distinct = 0
        self.query_busy_s = self.solve_s = 0.0

    def add(self, record: hooks.SolveRecord) -> None:
        self.solves += 1
        for p, (calls, distinct) in hooks.phase_calls(record).items():
            counts = self.phase.setdefault(p, [0, 0])
            counts[0] += calls
            counts[1] += distinct
        summary = hooks.level_summary(record)
        for p, ms in summary["phase_ms"].items():
            self.phase_ms[p] += ms
        for kind, n in summary["configs"].items():
            self.configs[kind] += n
        self.inferred += summary["inferred"]
        self.confirmed += summary["confirmed"]
        self.levels_ms += summary["levels_ms"]
        self.level_queries += summary["level_queries"]
        self.query_calls += len(record.oracle.misses)
        self.query_distinct += record.oracle.distinct_queries
        self.query_busy_s += record.oracle.busy_s
        self.solve_s += record.wall_s

    def per_solve(self, n: float) -> float:
        return n / self.solves if self.solves else 0.0


# Per-layer metrics whose names end in a time unit are times.
TIME_METRIC = re.compile(r"[._](ms|us|ns)(\.p\d+)?$")


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics. Every time is calibrated by the run's median
    kernel time, so that layers measured at different moments compare."""
    cases, _, build_s = run.setup()
    brute_s = wl.add_references(cases)
    # Exact counts, from the check pass.
    exact = LayerTotals()
    checked, results, violations, _, digest = run.check_pass(cases, fold=exact.add)
    info = {"digest": digest}
    m = {
        "levelset.levels_per_solve": exact.per_solve(len(exact.level_queries)),
        "levelset.queries_per_level": mean(exact.level_queries),
        "levelset.certificates.inferred": exact.per_solve(exact.inferred),
        "levelset.certificates.confirmed": exact.per_solve(exact.confirmed),
        "oracle.query.calls": exact.per_solve(exact.query_calls),
        "oracle.query.distinct": exact.per_solve(exact.query_distinct),
        "oracle.query.hit_rate": 1 - exact.query_distinct / exact.query_calls,
        "errors.violations": len(violations),
        "errors.witness_found": sum(v.witness is not None for v in violations),
        "errors.implicated_size": mean(len(v.implicated) for v in violations),
    }
    for p in hooks.PHASES:
        m[f"levelset.phase.{p}.calls"] = exact.per_solve(exact.phase[p][0])
        m[f"levelset.phase.{p}.distinct"] = exact.per_solve(exact.phase[p][1])
    for kind in hooks.CONFIG_KINDS:
        m[f"levelset.config.{kind}"] = exact.per_solve(exact.configs[kind])
    for log_side in wl.TARGET_LOG_SIDES:
        side = [r for c, r in zip(checked, results) if c.shape == (1 << log_side,) * 3]
        m[f"levelset.queries.side{log_side}"] = mean(r.queries for r in side)
        m[f"baseline.queries.side{log_side}"] = mean(r.dqy_queries for r in side)
    levelset_q = dqy_q = 0.0
    if run.workload == "target_sweep":
        levelset_q, dqy_q = info["criterion6"] = run.criterion6()
    m["gate.criterion6.levelset_queries"] = levelset_q
    m["gate.criterion6.dqy_queries"] = dqy_q
    m["gate.criterion6.query_ratio"] = levelset_q / dqy_q if dqy_q else 0.0

    # Times, from the traced loop.
    timed = LayerTotals()
    captured = hooks.Captured()

    def fold_traced(case, record):
        timed.add(record)
        if case.kind != "raw":
            captured.add(record)

    plain, traced = (list(r for r, _ in results) for results in run.loop(cases, fold_traced))
    m["levelset.level_ms.p50"] = statistics.median(timed.levels_ms) if timed.levels_ms else 0.0
    for p in hooks.TIMED_PHASES:
        m[f"levelset.phase.{p}.ms"] = timed.per_solve(timed.phase_ms[p])
    m["oracle.query.us"] = timed.query_busy_s / timed.query_calls * 1e6
    m["oracle.query.share"] = timed.query_busy_s / timed.solve_s
    dqy_ms = [r.dqy_s * 1e3 for r in plain if r.dqy_s is not None]
    m["baseline.dqy_ms"] = statistics.median(dqy_ms) if dqy_ms else 0.0
    m["trace.overhead"] = statistics.median(r.op_s for r in traced) / statistics.median(
        r.op_s for r in plain
    )
    m.update(hooks.primitive_us(captured, [v.implicated for v in violations]))
    m.update(build_layers(run, cases, plain, brute_s, build_s))
    m["fail_rate"] = len(run.failures) / run.attempted
    factor = run.cal.run_scale()
    for name in m:
        if TIME_METRIC.search(name):
            m[name] *= factor
    info["ops"] = len(plain)
    info["kernel_us"] = REF_KERNEL_S / factor * 1e6
    return m, info


def build_layers(run: Run, cases, plain, brute_s: list[float], build_s: float) -> dict:
    """Instance building and file layers: table generation split into its
    stages, bounded draws, the file round trip, monotonicity verification
    and the brute-force reference. Zero where the workload does not
    exercise the layer."""
    m = dict.fromkeys(
        ("oracle.gen_ms", "oracle.monotonize_ms", "oracle.instance_ms", "rng.below_ns",
         "oracle.save_ms", "oracle.load_ms", "oracle.verify_monotone_ms", "oracle.file_bytes"),
        0.0,
    )
    m["oracle.fixed_points_ms"] = mean(brute_s) * 1e3
    if run.workload == "table_pipeline":
        staged = [wl.gen_stages(c.shape, c.gen_seed) for c in cases]
        if not all(same for _, _, same in staged):
            run.failures.append("staged generation differs from gen_random_monotone")
        m["oracle.gen_ms"] = mean(r.stages_s["gen"] for r in plain) * 1e3
        m["oracle.monotonize_ms"] = mean(s["monotonize"] for s, _, _ in staged) * 1e3
        m["oracle.instance_ms"] = mean(s["instance"] for s, _, _ in staged) * 1e3
        m["rng.below_ns"] = sum(s["draws"] for s, _, _ in staged) / sum(n for _, n, _ in staged) * 1e9
        m["oracle.save_ms"] = mean(r.stages_s["save"] for r in plain) * 1e3
        m["oracle.load_ms"] = mean(r.stages_s["load"] for r in plain) * 1e3
        m["oracle.verify_monotone_ms"] = mean(r.stages_s["verify"] for r in plain) * 1e3
        m["oracle.file_bytes"] = mean(r.file_bytes for r in plain)
    elif run.workload == "small_tables":
        m["oracle.gen_ms"] = build_s / len(cases) * 1e3
        instance_s, draw_s, draws = [], 0.0, 0
        rng = SplitMix64(run.seed)
        for case in cases:
            t0 = clock()
            Instance(shape=case.shape, kind="table", table=case.inst.table)
            instance_s.append(clock() - t0)
            if case.kind == "raw":
                t0 = clock()
                draws += len(wl.raw_draws(rng, case.shape)) * 3
                draw_s += clock() - t0
        m["oracle.instance_ms"] = mean(instance_s) * 1e3
        m["rng.below_ns"] = draw_s / draws * 1e9
    return m
