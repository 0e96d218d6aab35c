"""Pins everything a levelset solve lets a caller see, on seeded families.

For each solve, in both verify_certificates modes, one SHA-256 digest takes
in the oracle transcript (distinct queries in first-query order), the TSV
trace, the observer events with their payloads, and the result: the fixed
point, or the violation's message, implicated pairs and whether it carries
a witness. A refactor of the solver must leave the digest unchanged; a
change that is meant to alter queries, traces or events updates it on
purpose and says why.

Configurations of the first and second kind almost never arise in whole
solves, so find_configuration is also pinned directly, on states built from
random labelled levelset points.
"""

import hashlib
import io

from _families import raw_random_table, rotation_batch
from tarski.errors import MonotonicityViolation
from tarski.lattice import classify, full_box, iter_box, norm1
from tarski.levelset import LevelsetSolver, LevelState, find_configuration
from tarski.oracle import CountedOracle, gen_target
from tarski.rng import SplitMix64

DIGEST = "1f7f5782955ffa2c6f216971d83b97c4ea2721eb6bd228d23a58d32a28a62709"
CONFIG_DIGEST = "7bfca45c226f25fbc17c0c1d0758f28da29e8c3975ebba0ff84b00be7fc97b47"


def _instances():
    n = 1 << 16
    rng = SplitMix64(0)  # the criterion_6 target stream
    for _ in range(20):
        yield gen_target((n, n, n), tuple(1 + rng.below(n) for _ in range(3)))
    yield from rotation_batch(60, 7)
    for seed in range(300):
        side = 3 + seed % 5
        yield raw_random_table((side,) * 3, seed)


def _fold(sha, inst, verify_certificates: bool) -> None:
    oracle = CountedOracle(inst, record_transcript=True)
    trace = io.StringIO()
    events = []
    solver = LevelsetSolver(
        oracle,
        verify_certificates=verify_certificates,
        trace=trace,
        observer=lambda event, payload: events.append((event, payload)),
    )
    try:
        result = f"fixed {solver.solve()}"
    except MonotonicityViolation as mv:
        result = f"violation {mv}|{mv.implicated}|{mv.witness is not None}"
    for point, value in oracle.transcript:
        sha.update(f"{point}\t{value}\n".encode())
    sha.update(trace.getvalue().encode())
    for event, payload in events:
        sha.update(f"{event}\t{payload!r}\n".encode())
    sha.update(f"{result}\n--\n".encode())


def test_transcripts_traces_events_and_results_are_pinned():
    sha = hashlib.sha256()
    for inst in _instances():
        for verify_certificates in (False, True):
            _fold(sha, inst, verify_certificates)
    assert sha.hexdigest() == DIGEST


def _states():
    """Six bounding points drawn at random from the correctly labelled
    points of levels of raw 5-cubes."""
    rng = SplitMix64(5)
    for seed in range(40):
        inst = raw_random_table((5, 5, 5), seed)
        box = full_box(inst.shape)
        for k in range(6, 13):
            labelled = [(p, inst.value(p)) for p in iter_box(box) if norm1(p) == k]
            labelled = [(pair, classify(*pair)[1]) for pair in labelled]
            ups = [[pair for pair, lab in labelled if i in lab.i_upward] for i in range(3)]
            downs = [[pair for pair, lab in labelled if i in lab.i_downward] for i in range(3)]
            if not all(ups + downs):
                continue
            for _ in range(10):
                yield LevelState(
                    box,
                    k,
                    [c[rng.below(len(c))] for c in ups],
                    [c[rng.below(len(c))] for c in downs],
                )


def test_configuration_scan_is_pinned():
    sha = hashlib.sha256()
    for state in _states():
        try:
            found = repr(find_configuration(state))
        except MonotonicityViolation as mv:
            found = f"violation {mv}|{mv.implicated}"
        sha.update(f"{found}\n".encode())
    assert sha.hexdigest() == CONFIG_DIGEST
