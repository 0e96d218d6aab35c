import math

import pytest

from _families import CallLog, raw_random_table, rotation_batch
from tarski.baseline import _dqy_point, brute_solve, dqy_solve
from tarski.errors import CapacityError, MonotonicityViolation
from tarski.lattice import full_box, iter_box, leq
from tarski.oracle import (
    CountedOracle,
    Instance,
    fixed_points_bruteforce,
    gen_random_monotone,
    gen_target,
)
from tarski.rng import SplitMix64


class _CappedCallLog(CallLog):
    """CallLog that refuses its 17th query call, so that a bisection that
    stops narrowing its bracket fails at once instead of running on."""

    def query(self, x):
        if len(self.calls) == 16:
            raise RuntimeError("more than 16 query calls")
        return super().query(x)


def test_dqy_1d_binary_search():
    o = _CappedCallLog(gen_target((8,), (5,)))
    assert dqy_solve(o).fixed_point == (5,)
    assert o.distinct_queries <= 4


def test_dqy_3d_target():
    o = CountedOracle(gen_target((8, 8, 8), (4, 4, 4)))
    assert dqy_solve(o).fixed_point == (4, 4, 4)


def test_dqy_exhaustive_random_4_cube():
    for seed in range(150):
        inst = gen_random_monotone((4, 4, 4), seed)
        o = CountedOracle(inst)
        assert dqy_solve(o).fixed_point in fixed_points_bruteforce(inst)


def test_dqy_2d_and_degenerate_boxes():
    o = CountedOracle(gen_target((16, 16), (13, 2)))
    assert dqy_solve(o).fixed_point == (13, 2)
    # sub-box with a pinched side; corners certified because target is inside
    inst = gen_target((8, 8, 8), (5, 5, 4))
    o = CountedOracle(inst)
    assert _dqy_point(o.query, (2, 5, 3), (7, 5, 6)) == (5, 5, 4)


def test_dqy_report_counts_only_this_call():
    inst = gen_target((8, 8, 8), (3, 6, 2))
    o = CountedOracle(inst)
    first = dqy_solve(o)
    before = o.distinct_queries
    again = dqy_solve(o)
    assert again.fixed_point == first.fixed_point
    assert o.distinct_queries == before  # everything cached


def test_dqy_growth_consistent_with_cubic_log_model():
    """Doubling the side should scale queries like the model predicts, +-30%."""

    def mean_queries(side, reps=20):
        rng = SplitMix64(5)
        total = 0
        for _ in range(reps):
            t = tuple(1 + rng.below(side) for _ in range(3))
            o = CountedOracle(gen_target((side,) * 3, t))
            dqy_solve(o)
            total += o.distinct_queries
        return total / reps

    small, big = 1 << 15, 1 << 16
    measured = mean_queries(big) / mean_queries(small)
    predicted = (math.log2(3 * big) / math.log2(3 * small)) ** 3
    assert abs(measured / predicted - 1) <= 0.30, (measured, predicted)


def _dqy_instances():
    """Targets on cubes of sides 2^8 to 2^40 and on 1-D, 2-D and 4-D grids,
    rotation tables, and random monotone cubes of sides 12 to 24."""
    rng = SplitMix64(5)
    shapes = [(1 << s,) * 3 for s in (8, 16, 20, 40) for _ in range(20)]
    shapes += [shape for shape in ((1 << 40,), (1 << 20,) * 2, (1 << 10,) * 4) for _ in range(5)]
    for shape in shapes:
        yield gen_target(shape, tuple(1 + rng.below(n) for n in shape))
    yield from rotation_batch(40, 7)
    for seed in range(6):
        yield gen_random_monotone((12 + 3 * (seed % 5),) * 3, seed)


def _asks_once(calls):
    points = [x for x, _ in calls]
    return len(points) == len(set(points))


def test_dqy_asks_for_no_point_twice():
    # Each bisection step reads F of its slice's answer from the pair the
    # slice returns, and the final check reads the same pair, so a solve
    # that finds its point makes no cache hit on the way.
    calls = 0
    for inst in _dqy_instances():
        o = CallLog(inst)
        point = dqy_solve(o).fixed_point
        assert inst.value(point) == point
        assert o.calls[-1] == (point, point)
        assert _asks_once(o.calls), inst.shape
        calls += len(o.calls)
    assert calls > 10_000, calls


def test_levelset_delegations_to_dqy_ask_for_no_point_twice(monkeypatch):
    # The same holds for the dqy runs a levelset solve hands its tail, its
    # pinched boxes and its grids that are not 3D, in both modes. Points the
    # solve queried before the delegation may come up again; within one dqy
    # run none does.
    import tarski.levelset
    from tarski.levelset import solve

    dqy_point = tarski.levelset._dqy_point
    runs = []

    def checked(query, lo, hi):
        calls = []

        def logged(x):
            fx = query(x)
            calls.append((x, fx))
            return fx

        point = dqy_point(logged, lo, hi)
        assert _asks_once(calls), (lo, hi)
        runs.append(len(calls))
        return point

    monkeypatch.setattr(tarski.levelset, "_dqy_point", checked)
    for inst in _dqy_instances():
        for verify_certificates in (False, True):
            point = solve(CountedOracle(inst), verify_certificates=verify_certificates)
            assert inst.value(point) == point
    assert len(runs) > 200 and sum(runs) > 3000, (len(runs), sum(runs))


def test_brute_solve_examples():
    pts = tuple(iter_box(full_box((2, 2, 2))))
    ident = Instance(shape=(2, 2, 2), kind="table", table=pts)
    assert brute_solve(CountedOracle(ident)) == (1, 1, 1)
    o = CountedOracle(gen_target((3, 3, 3), (2, 3, 1)))
    assert brute_solve(o) == (2, 3, 1)


def test_brute_solve_capacity():
    o = CountedOracle(gen_target((200, 200, 200), (1, 1, 1)))
    with pytest.raises(CapacityError):
        brute_solve(o)


def test_brute_solve_violation_lists_distinct_points_and_both_corners():
    # axis 0 cycles 1 -> 2 -> 3 -> 4 -> 1, so no point is fixed
    box = full_box((4, 4, 4))
    table = tuple((x[0] % 4 + 1, x[1], x[2]) for x in iter_box(box))
    o = CountedOracle(Instance(shape=(4, 4, 4), kind="table", table=table))
    with pytest.raises(MonotonicityViolation) as err:
        brute_solve(o)
    pts = [p for p, _ in err.value.implicated]
    assert len(pts) == len(set(pts)) == 33
    assert box.lo in pts and box.hi in pts
    assert all(v == o.query(p) for p, v in err.value.implicated)


def test_brute_solve_queries_in_iter_box_order():
    # brute_solve makes the query calls of a plain scan of the grid's
    # iter_box, in order, up to the first fixed point; without one it raises
    # with the first 32 scanned pairs and the last one. 1-D to 4-D grids.
    def plain_scan(inst):
        o = CountedOracle(inst)
        calls = []
        for x in iter_box(full_box(inst.shape)):
            calls.append((x, o.query(x)))
            if calls[-1][1] == x:
                return calls, x
        return calls, None

    cycle = tuple((x[0] % 4 + 1, x[1], x[2]) for x in iter_box(full_box((4, 4, 4))))
    cases = [
        gen_target((9,), (6,)),
        gen_target((5, 6), (4, 2)),
        gen_target((4, 5, 3), (3, 5, 2)),
        gen_target((3, 4, 2, 3), (2, 4, 1, 3)),
        Instance(shape=(4, 4, 4), kind="table", table=cycle),
        # a 3-cycle: fewer than 32 scanned pairs, the last one among them
        Instance(shape=(3,), kind="table", table=((2,), (3,), (1,))),
    ]
    cases += [raw_random_table(shape, seed)
              for seed, shape in enumerate(((5,), (4, 5), (4, 3, 5), (3, 4, 3, 4)) * 5)]
    outcomes = set()
    for inst in cases:
        calls, fixed = plain_scan(inst)
        o = CallLog(inst)
        try:
            assert brute_solve(o) == fixed
            outcomes.add("fixed")
        except MonotonicityViolation as mv:
            assert fixed is None
            assert mv.implicated == tuple(calls[:32]) + tuple(calls[32:][-1:])
            outcomes.add(len(mv.implicated))
        assert o.calls == calls, inst.shape
    # the cycle table gives the 33 pairs, corners included; the 3-cycle
    # gives its 3
    assert {"fixed", 3, 33} <= outcomes, outcomes


def test_dqy_violation_on_hostile_table():
    # cyclic 1D permutation with no fixed point: 1 -> 2 -> 1
    inst = Instance(shape=(2,), kind="table", table=((2,), (1,)))
    o = CountedOracle(inst)
    with pytest.raises(MonotonicityViolation) as err:
        dqy_solve(o)
    pts = [p for p, _ in err.value.implicated]
    assert (1,) in pts and (2,) in pts


def test_dqy_violations_on_raw_tables_implicate_a_violating_pair():
    # the evidence dqy raises with holds x <= y with F(x) not <= F(y)
    seen = 0
    for seed in range(600):
        inst = raw_random_table((3 + seed % 5,) * 3, seed)
        try:
            dqy_solve(CountedOracle(inst))
        except MonotonicityViolation as mv:
            pairs = mv.implicated
            assert any(
                leq(x, y) and not leq(fx, fy) for x, fx in pairs for y, fy in pairs
            ), (seed, pairs)
            assert len({x for x, _ in pairs}) == len(pairs), (seed, pairs)
            seen += 1
    assert seen > 500


def test_dqy_agrees_with_levelset_on_fixed_point_sets():
    from tarski.levelset import solve

    for seed in range(60):
        inst = gen_random_monotone((5, 4, 3), seed)
        fps = fixed_points_bruteforce(inst)
        assert dqy_solve(CountedOracle(inst)).fixed_point in fps
        assert solve(CountedOracle(inst)) in fps
