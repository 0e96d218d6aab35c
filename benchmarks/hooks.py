"""Traced solves through the library's public hooks, and their analysis.

A traced levelset solve attaches only what the library already offers: a
CountedOracle subclass that times every query call, the ``observer=``
callback with a timestamp per event, and the TSV ``trace=`` sink written
into memory. Nothing inside ``src/`` is instrumented. The per-call costs of
the lattice primitives are measured by replaying inputs captured from these
hooks (see ``replay_us``).
"""

from __future__ import annotations

import hashlib
import io
import statistics

from tarski import CountedOracle, LevelState, classify, extreme_level_point, level_point, search_space
from tarski.errors import find_violation_pair

from calibrate import clock

PHASES = ("init", "shrink", "small", "third", "outer", "brute")
TIMED_PHASES = ("init", "shrink", "small", "resolve")
CONFIG_KINDS = ("first", "second", "third")
# Observer events that end a stretch of one timed phase.
PHASE_CLOSED_BY = {"init_done": "init", "shrink": "shrink", "small": "small", "config": "resolve"}
# Inputs kept per lattice primitive for the replay timings.
CAPTURE_LIMIT = 400
# A replay timing is the median of REPLAY_REPEATS repeats, each of which
# calls the primitive on every captured input for at least REPLAY_MIN_S.
REPLAY_REPEATS = 5
REPLAY_MIN_S = 0.02


class TimingOracle(CountedOracle):
    """CountedOracle that logs, per query call, whether it missed the cache,
    and sums the time spent inside ``query``."""

    def __init__(self, instance, record_transcript: bool):
        super().__init__(instance, record_transcript=record_transcript)
        self.misses: list[bool] = []
        self.busy_s = 0.0

    def query(self, x):
        before = self.distinct_queries
        t0 = clock()
        fx = super().query(x)
        self.busy_s += clock() - t0
        self.misses.append(self.distinct_queries != before)
        return fx


class SolveRecord:
    """Everything the hooks report about one solve; with hooked False, only
    a plain CountedOracle and its transcript."""

    def __init__(self, instance, record_transcript: bool, hooked: bool):
        oracle_type = TimingOracle if hooked else CountedOracle
        self.oracle = oracle_type(instance, record_transcript=record_transcript)
        self.events: list[tuple[float, str, dict]] = []
        self.tsv = io.StringIO()
        self.kwargs = {"observer": self.observe, "trace": self.tsv} if hooked else {}
        self.wall_s = 0.0

    def observe(self, event: str, payload: dict) -> None:
        self.events.append((clock(), event, payload))


class Recorder:
    """Folds every levelset and dqy solve of a pass as soon as it returns,
    so that no oracle, cache or transcript outlives its solve.

    With record_transcript, each solve's query transcript goes into one
    running SHA-256 digest, in solve order. With fold, levelset solves get
    all three hooks and each finished record is handed to fold; dqy solves
    have no observer or trace parameter, so they get the timing oracle only.
    """

    def __init__(self, record_transcript: bool, fold=None):
        self.record_transcript = record_transcript
        self.hooked = fold is not None
        self.fold = fold
        self._sha = hashlib.sha256()

    def levelset_record(self, instance) -> SolveRecord:
        return SolveRecord(instance, self.record_transcript, self.hooked)

    def dqy_oracle(self, instance) -> CountedOracle:
        oracle_type = TimingOracle if self.hooked else CountedOracle
        return oracle_type(instance, record_transcript=self.record_transcript)

    def finished(self, oracle: CountedOracle, record: SolveRecord | None = None) -> None:
        """Take in a solve that has returned: its transcript into the
        digest, its levelset record (if any) into fold."""
        if self.record_transcript:
            for point, value in oracle.transcript:
                self._sha.update(f"{point}\t{value}\n".encode())
            self._sha.update(b"--\n")
        if record is not None and self.fold is not None:
            self.fold(record)

    def digest(self) -> str:
        """SHA-256 over every (point, value) pair of every transcript so far."""
        return self._sha.hexdigest()


def phase_calls(rec: SolveRecord) -> dict[str, list[int]]:
    """Query calls and distinct queries per trace phase, for one solve.

    The solver writes one trace record per query call, right after the
    oracle answers it, so the records pair up with the oracle's call log.
    """
    lines = rec.tsv.getvalue().splitlines()
    if len(lines) != len(rec.oracle.misses):
        raise RuntimeError(
            f"{len(lines)} trace records for {len(rec.oracle.misses)} query calls"
        )
    out = {p: [0, 0] for p in PHASES}
    for line, missed in zip(lines, rec.oracle.misses):
        counts = out.setdefault(line.split("\t", 1)[0], [0, 0])
        counts[0] += 1
        counts[1] += missed
    return out


def level_summary(rec: SolveRecord) -> dict:
    """Levels, per-level time and queries, per-phase time, configurations
    and certificates of one solve, from the observer events.

    A phase's time runs from the previous event to the event that closes
    it; time after the configuration event counts as ``resolve``.
    """
    levels_ms: list[float] = []
    level_queries: list[int] = []
    phase_s = dict.fromkeys(TIMED_PHASES, 0.0)
    configs = dict.fromkeys(CONFIG_KINDS, 0)
    inferred = confirmed = 0
    start = last = 0.0
    current = "init"
    for t, event, payload in rec.events:
        if event == "level_start":
            start = last = t
            current = "init"
        elif event in PHASE_CLOSED_BY:
            current = PHASE_CLOSED_BY[event]
            phase_s[current] += t - last
            last = t
        elif event == "level_done":
            phase_s[current] += t - last
            levels_ms.append((t - start) * 1e3)
            level_queries.append(payload["queries"])
        if event == "config":
            configs[payload["config"].kind] += 1
        elif event == "recurse":
            if payload["outcome"].fvalue is None:
                inferred += 1
            else:
                confirmed += 1
    return {
        "levels_ms": levels_ms,
        "level_queries": level_queries,
        "phase_ms": {p: s * 1e3 for p, s in phase_s.items()},
        "configs": configs,
        "inferred": inferred,
        "confirmed": confirmed,
    }


class Captured:
    """Inputs of the lattice primitives, captured from traced solves."""

    def __init__(self):
        self.classify: list[tuple] = []
        self.level_point: list[tuple] = []
        self.extreme: list[tuple] = []
        self.search_space: list[tuple] = []

    def _add(self, bucket: list, item: tuple) -> None:
        if len(bucket) < CAPTURE_LIMIT:
            bucket.append(item)

    def add(self, rec: SolveRecord) -> None:
        for x in rec.oracle.cache:
            self._add(self.classify, (x, rec.oracle.cache[x]))
        for _, event, payload in rec.events:
            if event == "level_start":
                box, k = payload["box"], payload["k"]
                for i in range(3):
                    for j in range(3):
                        if i != j:
                            self._add(self.extreme, (box, k, i, j))
            elif event == "shrink":
                view, k = payload["view"], payload["state_before"]["k"]
                step = tuple(-(-d // 6) for d in view.dia)
                lower = tuple(a + s for a, s in zip(view.ell, step))
                upper = tuple(b - s for b, s in zip(view.r, step))
                self._add(self.level_point, (lower, upper, k))
            snap = _snapshot(event, payload)
            if snap is not None:
                self._add(self.search_space, (_state(snap),))


def _snapshot(event: str, payload: dict):
    if event == "init_done":
        return payload
    if event in ("shrink", "small"):
        return payload["state_before"]
    if event == "config":
        return payload["state"]
    return None


def _state(snap: dict) -> LevelState:
    return LevelState(snap["box"], snap["k"], list(snap["up"]), list(snap["down"]))


def replay_us(fn, args: list[tuple]) -> float:
    """Median over REPLAY_REPEATS of the mean time of one call of fn, in us.

    Each repeat calls fn on every captured input, as many rounds as it
    takes to fill REPLAY_MIN_S. Returns 0.0 when nothing was captured.
    """
    if not args:
        return 0.0
    samples = []
    for _ in range(REPLAY_REPEATS):
        rounds = 0
        t0 = clock()
        while True:
            for a in args:
                fn(*a)
            rounds += 1
            elapsed = clock() - t0
            if elapsed >= REPLAY_MIN_S:
                break
        samples.append(elapsed / (rounds * len(args)) * 1e6)
    return statistics.median(samples)


def primitive_us(cap: Captured, implicated: list[tuple]) -> dict[str, float]:
    """Per-call replay timings of the lattice primitives and of the
    violation-witness scan."""
    return {
        "lattice.classify_us": replay_us(classify, cap.classify),
        "lattice.level_point_us": replay_us(level_point, cap.level_point),
        "lattice.extreme_level_point_us": replay_us(extreme_level_point, cap.extreme),
        "levelset.search_space_us": replay_us(search_space, cap.search_space),
        "errors.find_violation_pair_us": replay_us(
            find_violation_pair, [(pairs,) for pairs in implicated]
        ),
    }
