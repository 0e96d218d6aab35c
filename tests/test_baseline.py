import math

import pytest

from tarski.baseline import brute_solve, dqy_solve
from tarski.errors import CapacityError, MonotonicityViolation
from tarski.lattice import Box, full_box, iter_box
from tarski.oracle import (
    CountedOracle,
    Instance,
    fixed_points_bruteforce,
    gen_random_monotone,
    gen_target,
)
from tarski.rng import SplitMix64


def test_dqy_1d_binary_search():
    o = CountedOracle(gen_target((8,), (5,)))
    report = dqy_solve(o)
    assert report.fixed_point == (5,)
    assert report.distinct_queries <= 4


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
    report = dqy_solve(o, Box((2, 5, 3), (7, 5, 6)))
    assert report.fixed_point == (5, 5, 4)


def test_dqy_report_counts_only_this_call():
    inst = gen_target((8, 8, 8), (3, 6, 2))
    o = CountedOracle(inst)
    first = dqy_solve(o)
    again = dqy_solve(o)
    assert again.fixed_point == first.fixed_point
    assert again.distinct_queries == 0  # everything cached


def test_dqy_growth_consistent_with_cubic_log_model():
    """Doubling the side should scale queries like the model predicts, +-30%."""

    def mean_queries(side, reps=20):
        rng = SplitMix64(5)
        total = 0
        for _ in range(reps):
            t = tuple(1 + rng.below(side) for _ in range(3))
            o = CountedOracle(gen_target((side,) * 3, t))
            total += dqy_solve(o).distinct_queries
        return total / reps

    small, big = 1 << 15, 1 << 16
    measured = mean_queries(big) / mean_queries(small)
    predicted = (math.log2(3 * big) / math.log2(3 * small)) ** 3
    assert abs(measured / predicted - 1) <= 0.30, (measured, predicted)


def test_brute_solve_examples():
    pts = tuple(iter_box(full_box((2, 2, 2))))
    ident = Instance(shape=(2, 2, 2), kind="table", table=pts)
    assert brute_solve(CountedOracle(ident)) == (1, 1, 1)
    o = CountedOracle(gen_target((3, 3, 3), (2, 3, 1)))
    assert brute_solve(o) == (2, 3, 1)


def test_brute_solve_finds_point_in_certified_subbox():
    inst = gen_target((6, 6, 6), (4, 2, 5))
    o = CountedOracle(inst)
    assert brute_solve(o, Box((2, 2, 2), (5, 5, 5))) == (4, 2, 5)


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


def test_dqy_violation_on_hostile_table():
    # cyclic 1D permutation with no fixed point: 1 -> 2 -> 1
    inst = Instance(shape=(2,), kind="table", table=((2,), (1,)))
    o = CountedOracle(inst)
    with pytest.raises(MonotonicityViolation) as err:
        dqy_solve(o)
    pts = [p for p, _ in err.value.implicated]
    assert (1,) in pts and (2,) in pts


def test_dqy_agrees_with_levelset_on_fixed_point_sets():
    from tarski.levelset import solve

    for seed in range(60):
        inst = gen_random_monotone((5, 4, 3), seed)
        fps = fixed_points_bruteforce(inst)
        assert dqy_solve(CountedOracle(inst)).fixed_point in fps
        assert solve(CountedOracle(inst)) in fps
