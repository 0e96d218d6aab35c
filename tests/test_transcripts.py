"""Pins everything a levelset solve lets a caller see, on seeded families.

For each solve, in both verify_certificates modes, one SHA-256 digest takes
in the oracle transcript (distinct queries in first-query order), the TSV
trace, the observer events with their payloads, and the result: the fixed
point, or the violation's message, implicated pairs and whether it carries
a witness. A refactor of the solver must leave the digest unchanged; a
change that is meant to alter queries, traces or events updates it on
purpose and says why. Solves with no trace and no observer must match the
hooked ones query for query, and must not build observer payloads at all.

Configurations of the first and second kind almost never arise in whole
solves, so find_configuration is also pinned directly, on states built from
random labelled levelset points that lie in the scan's domain.

The hook-free solves and the dqy baseline are pinned on their own at the
sides the benchmark runs (2^8, 2^20 and 2^40), where coordinates outgrow
every machine word, and on 2-D and pinched grids, which the solver hands
to dqy; dqy is pinned on 1-D and 4-D grids, rotation tables and raw tables
as well. dqy's pin takes in every query call in call order, cache hits
included, so it pins its distinct queries too: they are the first
occurrences of those calls. On the way to an answer dqy makes no cache
hit, so there its calls are its distinct queries.
"""

import hashlib
import io
import pathlib
import subprocess
import sys

from _families import CallLog, raw_random_table, rotation_batch
from tarski.baseline import dqy_solve
from tarski.errors import MonotonicityViolation
from tarski.lattice import classify, full_box, iter_box
from tarski.levelset import LevelsetSolver, LevelState, find_configuration, search_space, solve
from tarski.oracle import CountedOracle, gen_target
from tarski.rng import SplitMix64

DIGEST = "66db3d740b498298cea7844a548fda606d8d6c8b68beaebec6dcfe5dee8fb7b6"
CONFIG_DIGEST = "2997209a8565d8f2603fc11e7126b0eccaebc446d8e714bcf5567d62c0a0390e"
SOLVE_DIGEST = "f41add7ca29e0659a6020be5e2774cbda2df395238135e17a57ae5ab52ac6fff"
DQY_CALLS_DIGEST = "5d6d6d5f7650c97e54c822cc7b0b486b77d27af0e48457064990bd631539a32b"


def _instances():
    n = 1 << 16
    rng = SplitMix64(0)  # the criterion_6 target stream
    for _ in range(20):
        yield gen_target((n, n, n), tuple(1 + rng.below(n) for _ in range(3)))
    yield from rotation_batch(60, 7)
    yield from _raw_tables()


def _raw_tables():
    """300 uniform random cubes of sides 3 to 7, not monotonized."""
    for seed in range(300):
        side = 3 + seed % 5
        yield raw_random_table((side,) * 3, seed)


def _run(inst, verify_certificates: bool, hooked: bool):
    """One solve: its oracle transcript, TSV trace, observer events and
    result. Without hooks the trace and events stay empty."""
    oracle = CountedOracle(inst, record_transcript=True)
    trace = io.StringIO()
    events = []
    solver = LevelsetSolver(
        oracle,
        verify_certificates=verify_certificates,
        trace=trace if hooked else None,
        observer=(lambda event, payload: events.append((event, payload))) if hooked else None,
    )
    try:
        result = f"fixed {solver.solve()}"
    except MonotonicityViolation as mv:
        result = f"violation {mv}|{mv.implicated}|{mv.witness is not None}"
    return oracle.transcript, trace.getvalue(), events, result


def _fold(sha, inst, verify_certificates: bool) -> None:
    transcript, trace, events, result = _run(inst, verify_certificates, hooked=True)
    for point, value in transcript:
        sha.update(f"{point}\t{value}\n".encode())
    sha.update(trace.encode())
    for event, payload in events:
        sha.update(f"{event}\t{payload!r}\n".encode())
    sha.update(f"{result}\n--\n".encode())


def test_transcripts_traces_events_and_results_are_pinned():
    sha = hashlib.sha256()
    for inst in _instances():
        for verify_certificates in (False, True):
            _fold(sha, inst, verify_certificates)
    assert sha.hexdigest() == DIGEST


def test_pinned_digest_holds_under_python_O():
    # The contract also holds under python -O, which strips assert
    # statements; pytest still checks the test's own assertions there, as it
    # rewrites them into plain raises.
    test_id = f"{__file__}::test_transcripts_traces_events_and_results_are_pinned"
    child = (
        "import sys, pytest\n"
        "print('optimize', sys.flags.optimize)\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', sys.argv[1]]))\n"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", child, test_id],
        capture_output=True,
        text=True,
        cwd=pathlib.Path(__file__).resolve().parent.parent,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.startswith("optimize 1\n"), res.stdout
    assert "1 passed" in res.stdout, res.stdout


def test_hook_free_solves_match_hooked_solves():
    # With no trace and no observer a solve must make the same queries, in
    # the same order, and end the same way as the hooked solves pinned above.
    for inst in _instances():
        for verify_certificates in (False, True):
            transcript, _, _, result = _run(inst, verify_certificates, hooked=False)
            hooked_transcript, _, _, hooked_result = _run(inst, verify_certificates, hooked=True)
            assert transcript == hooked_transcript
            assert result == hooked_result


def test_hook_free_solves_build_no_observer_payloads(monkeypatch):
    # Observer payloads are built only for an attached observer; with none,
    # not a single state snapshot, search space view or Box may be built.
    # Their code is written plainly on that premise, so a solve that builds
    # one on the way to a fixed point or to a violation fails here.
    import tarski.levelset

    def refuse(*args, **kwargs):
        raise RuntimeError("observer payload built with no observer attached")

    monkeypatch.setattr(LevelState, "snapshot", refuse)
    monkeypatch.setattr(tarski.levelset, "search_space", refuse)
    monkeypatch.setattr(tarski.levelset, "Box", refuse)
    rng = SplitMix64(3)
    targets = [
        gen_target((n, n, n), tuple(1 + rng.below(n) for _ in range(3)))
        for n in (1 << 8, 1 << 20, 1 << 40)
        for _ in range(5)
    ]
    raw = [raw_random_table((n, n, n), seed) for n in range(3, 7) for seed in range(25)]
    outcomes = {"fixed": 0, "violation": 0}
    for inst in targets + rotation_batch(30, 11) + raw:
        for verify_certificates in (False, True):
            solver = LevelsetSolver(CountedOracle(inst), verify_certificates=verify_certificates)
            try:
                point = solver.solve()
            except MonotonicityViolation:
                outcomes["violation"] += 1
            else:
                assert inst.value(point) == point
                outcomes["fixed"] += 1
    assert min(outcomes.values()) > 50, outcomes


def _states():
    """Six bounding points drawn at random from the correctly labelled
    points of levels of raw 5-cubes, kept when they lie in the scan's
    domain: a nonempty S with some diameter <= 1, as _solve_level hands it."""
    rng = SplitMix64(5)
    for seed in range(40):
        inst = raw_random_table((5, 5, 5), seed)
        box = full_box(inst.shape)
        for k in range(6, 13):
            labelled = [(p, inst.value(p)) for p in iter_box(box) if sum(p) == k]
            labelled = [(pair, classify(*pair)[1]) for pair in labelled]
            ups = [[pair for pair, lab in labelled if i in lab.i_upward] for i in range(3)]
            downs = [[pair for pair, lab in labelled if i in lab.i_downward] for i in range(3)]
            if not all(ups + downs):
                continue
            for _ in range(10):
                state = LevelState(
                    box,
                    k,
                    [c[rng.below(len(c))] for c in ups],
                    [c[rng.below(len(c))] for c in downs],
                )
                if 0 <= min(search_space(state).dia) <= 1:
                    yield state


def test_configuration_scan_is_pinned():
    sha = hashlib.sha256()
    for state in _states():
        sha.update(f"{find_configuration(state.up, state.down)!r}\n".encode())
    assert sha.hexdigest() == CONFIG_DIGEST


def _target(rng, shape):
    return gen_target(shape, tuple(1 + rng.below(n) for n in shape))


def _large_targets():
    """Seeded target instances on the benchmark's cube sides, on 2-D grids
    and on grids with one pinched side."""
    rng = SplitMix64(8)
    for log_side in (8, 20, 40):
        n = 1 << log_side
        for _ in range(40):
            yield _target(rng, (n, n, n))
        for shape in ((n, n), (1, n, n), (n, 1, n), (n, n, 1), (n, 2, n)):
            for _ in range(3):
                yield _target(rng, shape)


def test_hook_free_solves_at_benchmark_sides_are_pinned():
    sha = hashlib.sha256()
    for inst in _large_targets():
        for verify_certificates in (False, True):
            oracle = CountedOracle(inst, record_transcript=True)
            try:
                result = f"fixed {solve(oracle, verify_certificates=verify_certificates)}"
            except MonotonicityViolation as mv:
                result = f"violation {mv}|{mv.implicated}"
            for point, value in oracle.transcript:
                sha.update(f"{point}\t{value}\n".encode())
            sha.update(f"{result}\n--\n".encode())
    assert sha.hexdigest() == SOLVE_DIGEST


def test_dqy_query_calls_are_pinned():
    # Every call is pinned, not only the distinct queries, as the levelset
    # TSV trace writes one record per call of its outer dqy phase. Raw
    # tables are in, as their violations take the evidence path, whose
    # queries may repeat earlier calls.
    rng = SplitMix64(9)
    others = [
        _target(rng, shape)
        for shape in ((1 << 40,), (7,), (1 << 20,) * 4, (5, 3, 6, 4))
        for _ in range(3)
    ]
    sha = hashlib.sha256()
    for inst in [*_large_targets(), *others, *rotation_batch(30, 13), *_raw_tables()]:
        oracle = CallLog(inst)
        try:
            result = f"fixed {dqy_solve(oracle).fixed_point}"
        except MonotonicityViolation as mv:
            result = f"violation {mv}|{mv.implicated}"
        for point, value in oracle.calls:
            sha.update(f"{point}\t{value}\n".encode())
        sha.update(f"{result}\n--\n".encode())
    assert sha.hexdigest() == DQY_CALLS_DIGEST
