import io
import itertools
import math
import re

import pytest
from hypothesis import Phase, assume, given, settings, strategies

from tarski.baseline import dqy_solve
from tarski.errors import MonotonicityViolation
from tarski.lattice import (
    Box,
    classify,
    full_box,
    glb,
    iter_box,
    leq,
    level_point,
    lub,
)
from tarski.levelset import (
    DOWNWARD,
    FIXED,
    UPWARD,
    Config,
    LevelOutcome,
    LevelsetSolver,
    LevelState,
    find_configuration,
    search_space,
    solve,
)
from tarski.oracle import (
    CountedOracle,
    Instance,
    fixed_points_bruteforce,
    gen_random_monotone,
    gen_target,
)
from tarski.rng import SplitMix64


def enumerate_space(box, k, a, b):
    """All levelset points with a_i <= x_i <= b_i; the brute-force S."""
    pts = []
    for x in iter_box(box):
        if sum(x) == k and all(lo <= c <= hi for lo, c, hi in zip(a, x, b)):
            pts.append(x)
    return pts


def state_from_coords(box, k, a, b):
    """Minimal LevelState whose up/down coordinates are a/b; F-values are
    dummies because search_space never reads them."""
    ups, downs = [], []
    for i in range(3):
        up = [box.lo[0], box.lo[1], box.lo[2]]
        up[i] = a[i]
        dn = [box.hi[0], box.hi[1], box.hi[2]]
        dn[i] = b[i]
        ups.append((tuple(up), tuple(up)))
        downs.append(((tuple(dn)), tuple(dn)))
    return LevelState(box, k, ups, downs)


def outcome_is_valid(inst, out, k):
    """Check a LevelOutcome against ground truth."""
    fp = inst.value(out.point)
    _, labels = classify(out.point, fp)
    if out.kind == FIXED:
        return labels.is_fixed
    if out.kind == UPWARD:
        return labels.is_upward and sum(out.point) >= k
    return labels.is_downward and sum(out.point) <= k


def log_ratio_ceil(d):
    """Smallest t >= 0 with (6/5)^t >= d, exactly."""
    if d <= 1:
        return 0
    t, num, den = 0, 1, 1
    while num < d * den:
        num *= 6
        den *= 5
        t += 1
    return t


def phi(dia):
    return sum(log_ratio_ceil(d) for d in dia)


# -- search_space ----------------------------------------------------------


def test_search_space_spec_example():
    box = full_box((8, 8, 8))
    st = state_from_coords(box, 12, (1, 1, 1), (8, 8, 8))
    view = search_space(st)
    assert view.ell == (1, 1, 1)
    assert view.r == (8, 8, 8)
    assert view.dia == (7, 7, 7)


def test_search_space_pinched_axis():
    box = full_box((8, 8, 8))
    st = state_from_coords(box, 12, (4, 1, 1), (4, 8, 8))
    assert search_space(st).dia[0] == 0


def test_search_space_matches_bruteforce():
    def matches(box, k, a, b):
        # search_space agrees with the enumerated S when S is nonempty, its
        # one precondition; true for a nonempty S.
        pts = enumerate_space(box, k, a, b)
        if not pts:
            return False
        view = search_space(state_from_coords(box, k, a, b))
        for i in range(3):
            assert view.ell[i] == min(p[i] for p in pts)
            assert view.r[i] == max(p[i] for p in pts)
        return True

    # Boxes anchored at (1,1,1) with every bound inside the box.
    rng = SplitMix64(11)
    checked = 0
    while checked < 400:
        sides = tuple(2 + rng.below(5) for _ in range(3))
        box = full_box(sides)
        k = sum(box.lo) + 1 + rng.below(max(1, sum(box.hi) - sum(box.lo) - 1))
        a = tuple(1 + rng.below(s) for s in sides)
        b = tuple(ai + rng.below(s - ai + 1) for ai, s in zip(a, sides))
        checked += matches(box, k, a, b)
    # Sub-boxes with lo > 1, and bounds drawn up to two past either side of
    # the box, so that each clamp of a bound to the box binds.
    checked = 0
    while checked < 400:
        lo = tuple(2 + rng.below(4) for _ in range(3))
        box = Box(lo, tuple(c + 1 + rng.below(5) for c in lo))
        k = sum(box.lo) + 1 + rng.below(max(1, sum(box.hi) - sum(box.lo) - 1))
        a = tuple(c - 2 + rng.below(h - c + 3) for c, h in zip(box.lo, box.hi))
        b = tuple(ai + rng.below(h + 3 - ai) for ai, h in zip(a, box.hi))
        checked += matches(box, k, a, b)


# -- initialization --------------------------------------------------------


def test_extreme_search_endpoint_example():
    # the first probe of the axis-0 search on this instance is the
    # coordinate-extreme point (8,1,3)
    from tarski.lattice import extreme_level_point

    box = full_box((8, 8, 8))
    assert extreme_level_point(box, 12, 0, 1) == (8, 1, 3)
    oracle = _ScriptedOracle({}, fallback=lambda q: q)
    LevelsetSolver(oracle)._extreme_search(box.lo, box.hi, 12, 0, 1)
    assert oracle.order == [(8, 1, 3)]


def test_init_search_starts_at_the_extreme_level_point():
    # the i-downward search of an axis first probes the level point with
    # the largest coordinate on that axis, then the smallest middle one
    from tarski.lattice import extreme_level_point

    rng = SplitMix64(23)
    for _ in range(300):
        lo = tuple(1 + rng.below(1 << 20) for _ in range(3))
        hi = tuple(a + 2 + rng.below(1 << 20) for a in lo)
        box = Box(lo, hi)
        k = sum(lo) + 1 + rng.below(sum(hi) - sum(lo) - 1)
        inst = gen_target(hi, tuple(a + rng.below(b - a + 1) for a, b in zip(lo, hi)))
        for axis in range(3):
            o = CountedOracle(inst, record_transcript=True)
            LevelsetSolver(o)._extreme_search(lo, hi, k, axis, 1)
            middle = 1 if axis == 0 else 0
            assert o.transcript[0][0] == extreme_level_point(box, k, axis, middle)


def test_extreme_search_single_point_segment_that_does_not_resolve():
    # at level 10 in (3,3,3)..(6,6,6) the axis-0 segment is the one point
    # (4,3,3); F = (4,4,2) neither certifies it nor lets it bracket anything
    oracle = _ScriptedOracle({(4, 3, 3): (4, 4, 2)}, fallback=lambda q: q)
    with pytest.raises(
        MonotonicityViolation, match="single-point init segment for axis 0 did not resolve"
    ) as info:
        LevelsetSolver(oracle)._extreme_search((3, 3, 3), (6, 6, 6), 10, 0, 1)
    assert oracle.order == [(4, 3, 3)]
    assert info.value.implicated == (((4, 3, 3), (4, 4, 2)),)


def test_extreme_search_segment_point_with_impossible_sign_pattern():
    # the axis-0 segment of level 12 runs from (7,1,4) to (7,4,1); both ends
    # bracket it, and the bisection probe (7,2,3) rises on the pinned axis
    script = {
        (7, 1, 4): (7, 2, 3),  # low end
        (7, 4, 1): (7, 3, 2),  # high end
        (7, 2, 3): (8, 1, 3),
    }
    oracle = _ScriptedOracle(script, fallback=lambda q: q)
    with pytest.raises(
        MonotonicityViolation, match=r"segment point \(7, 2, 3\) has an impossible sign pattern"
    ) as info:
        LevelsetSolver(oracle)._extreme_search((1, 1, 1), (7, 7, 7), 12, 0, 1)
    assert oracle.order == list(script)
    assert info.value.implicated == tuple(script.items())


def test_extreme_search_endpoints_with_impossible_sign_patterns():
    # on level 14 of (2,2,2)..(7,7,7) the axis-0 segment runs from its low
    # end (7,2,5) to its high end (7,5,2) for s = +1, and from (2,7,5) to
    # (2,5,7) for s = -1; each case gives one end the other end's type: F
    # lowers (oriented) the middle axis at the low end, or raises it at the
    # high end
    cases = (
        # s, scripted values in query order, of which the last is raised on
        (1, {(7, 2, 5): (7, 1, 6)}),
        (1, {(7, 2, 5): (7, 3, 4), (7, 5, 2): (7, 6, 1)}),
        (-1, {(2, 7, 5): (2, 8, 4)}),
        (-1, {(2, 7, 5): (2, 6, 6), (2, 5, 7): (2, 4, 8)}),
    )
    for s, script in cases:
        oracle = _ScriptedOracle(script, fallback=lambda q: q)
        end = list(script)[-1]
        message = f"endpoint {end} of the axis-0 init segment has an impossible sign pattern"
        with pytest.raises(MonotonicityViolation, match=re.escape(message)) as info:
            LevelsetSolver(oracle)._extreme_search((2, 2, 2), (7, 7, 7), 14, 0, s)
        assert oracle.order == list(script)
        # the low end, if placed, then the end raised on
        assert info.value.implicated == tuple(script.items())


def test_extreme_search_downward_orientation_bisects_to_adjacent_ends():
    # s = -1 on level 14 of (2,2,2)..(7,7,7): the axis-0 segment's low end
    # (2,7,5) and high end (2,5,7) bracket it with a = 7 > b = 5; the probe
    # at 6 moves one end next to the other, and the join of the two ends
    # is the certified upward point
    for f_mid, low, high in (
        ((2, 5, 7), (2, 6, 6), (2, 5, 7)),  # the probe replaces the low end
        ((2, 7, 5), (2, 7, 5), (2, 6, 6)),  # the probe replaces the high end
    ):
        script = {(2, 7, 5): (2, 6, 6), (2, 5, 7): (2, 6, 6), (2, 6, 6): f_mid}
        oracle = _ScriptedOracle(script, fallback=lambda q: q)
        events = []
        solver = LevelsetSolver(oracle, observer=lambda ev, p: events.append((ev, p)))
        out = solver._extreme_search((2, 2, 2), (7, 7, 7), 14, 0, -1)
        assert oracle.order == [(2, 7, 5), (2, 5, 7), (2, 6, 6)]
        assert out == LevelOutcome(UPWARD, lub(low, high))
        assert events == [("certificate", {"kind": UPWARD, "point": out.point, "verified": False})]


def test_extreme_search_postconditions():
    box = full_box((8, 8, 8))
    k = 12
    solver = LevelsetSolver(CountedOracle(gen_target((8, 8, 8), (4, 4, 4))))
    down_pair = solver._extreme_search(box.lo, box.hi, k, 0, 1)
    up_pair = solver._extreme_search(box.lo, box.hi, k, 0, -1)
    assert isinstance(down_pair, tuple) and isinstance(up_pair, tuple)
    (up, f_up), (down, f_down) = up_pair, down_pair
    _, lab_up = classify(up, f_up)
    _, lab_down = classify(down, f_down)
    assert 0 in lab_up.i_upward
    assert 0 in lab_down.i_downward
    assert up[0] <= down[0]
    level_pts = [p for p in iter_box(box) if sum(p) == k]
    assert up[0] == min(p[0] for p in level_pts)
    assert down[0] == max(p[0] for p in level_pts)


def test_extreme_search_early_exit_all_up():
    # every point below the target (8,8,8) is upward, so each search ends
    # at its first probe
    box = full_box((8, 8, 8))
    o = CountedOracle(gen_target((8, 8, 8), (8, 8, 8)))
    for s in (1, -1):
        res = LevelsetSolver(o)._extreme_search(box.lo, box.hi, 12, 0, s)
        assert res.kind == UPWARD
        assert sum(res.point) >= 12
        assert outcome_is_valid(o.instance, res, 12)
    assert o.distinct_queries == 2


def test_extreme_search_sweep_small_grids():
    rng = SplitMix64(21)
    for trial in range(120):
        n = 4 + rng.below(3)
        shape = (n, n, n)
        if trial % 2:
            inst = gen_target(shape, tuple(1 + rng.below(n) for _ in range(3)))
        else:
            inst = gen_random_monotone(shape, rng.next_u64())
        box = full_box(shape)
        k = sum(box.lo) + 1 + rng.below(sum(box.hi) - sum(box.lo) - 1)
        level_pts = [p for p in iter_box(box) if sum(p) == k]
        for axis in range(3):
            # s = +1 finds the extreme i-downward point, s = -1 the i-upward one
            for s in (1, -1):
                res = LevelsetSolver(CountedOracle(inst))._extreme_search(
                    box.lo, box.hi, k, axis, s
                )
                if isinstance(res, tuple):
                    point, value = res
                    _, labels = classify(point, value)
                    coords = [p[axis] for p in level_pts]
                    if s > 0:
                        assert axis in labels.i_downward
                        assert point[axis] == max(coords)
                    else:
                        assert axis in labels.i_upward
                        assert point[axis] == min(coords)
                else:
                    assert outcome_is_valid(inst, res, k)


# -- one level ---------------------------------------------------------------


def test_solve_level_spec_examples():
    box = full_box((8, 8, 8))
    for target in [(4, 4, 4), (1, 1, 1), (8, 8, 8)]:
        inst = gen_target((8, 8, 8), target)
        out = LevelsetSolver(CountedOracle(inst))._solve_level(box.lo, box.hi, 12)
        assert outcome_is_valid(inst, out, 12)
    inst = gen_target((8, 8, 8), (1, 1, 1))
    out = LevelsetSolver(CountedOracle(inst))._solve_level(box.lo, box.hi, 12)
    assert out.kind == DOWNWARD and sum(out.point) <= 12


def test_solve_level_valid_outcome_many_instances():
    box = full_box((5, 5, 5))
    for seed in range(200):
        inst = gen_random_monotone((5, 5, 5), seed)
        out = LevelsetSolver(CountedOracle(inst))._solve_level(box.lo, box.hi, 8)
        assert outcome_is_valid(inst, out, 8), seed


def test_solve_level_on_certified_subboxes():
    # corners of the box are certified because the target lies inside it
    rng = SplitMix64(6)
    checked = 0
    while checked < 150:
        n = 6 + rng.below(6)
        t = tuple(1 + rng.below(n) for _ in range(3))
        lo = tuple(1 + rng.below(c) for c in t)
        hi = tuple(c + rng.below(n - c + 1) for c in t)
        box = Box(lo, hi)
        if any(s < 2 for s in box.sides) or sum(hi) - sum(lo) < 2:
            continue
        k = sum(lo) + 1 + rng.below(sum(hi) - sum(lo) - 1)
        inst = gen_target((n, n, n), t)
        out = LevelsetSolver(CountedOracle(inst))._solve_level(lo, hi, k)
        assert outcome_is_valid(inst, out, k)
        assert leq(box.lo, out.point) and leq(out.point, box.hi)
        checked += 1


def test_solve_level_query_budget_small():
    # every level call on a [6]^3 grid stays within a generous O(log) budget
    box = full_box((6, 6, 6))
    lg = math.ceil(math.log2(box.size))
    for seed in range(100):
        inst = gen_random_monotone((6, 6, 6), seed)
        o = CountedOracle(inst)
        LevelsetSolver(o)._solve_level(box.lo, box.hi, 9)
        assert o.distinct_queries <= 3 * lg + 14, seed


# -- shrink / small-case invariants -----------------------------------------


def run_with_observer(inst, **kw):
    events = []
    o = CountedOracle(inst)
    solver = LevelsetSolver(o, observer=lambda ev, payload: events.append((ev, payload)), **kw)
    point = solver.solve()
    return point, events, o


def coords_of(snapshot):
    a = tuple(snapshot["up"][i][0][i] for i in range(3))
    b = tuple(snapshot["down"][i][0][i] for i in range(3))
    return a, b


def shrink_exercisers():
    """Instances whose solves reach the shrink phase on smallish boxes.

    Box sides stay <= 9 so the remaining search space can be enumerated
    exhaustively. Random running-max tables resolve during init, so the
    mix leans on target-sign and rotation instances.
    """
    from _families import rotation_batch

    rng = SplitMix64(31)
    out = list(rotation_batch(40, 131, 7, 9))
    for _ in range(40):
        n = 7 + rng.below(3)
        out.append(gen_target((n, n, n), tuple(1 + rng.below(n) for _ in range(3))))
    return out


def test_shrink_probe_respects_sixth_step_bounds():
    """The shrink probe must sit ceil(dia/6) inside the true bounds of S,
    computed here by brute-force enumeration."""
    shrinks = 0
    for inst in shrink_exercisers():
        _, events, _ = run_with_observer(inst)
        for ev, payload in events:
            if ev != "shrink":
                continue
            snap = payload["state_before"]
            a, b = coords_of(snap)
            pts = enumerate_space(snap["box"], snap["k"], a, b)
            assert pts, "shrink ran on an empty search space"
            ell = tuple(min(p[i] for p in pts) for i in range(3))
            r = tuple(max(p[i] for p in pts) for i in range(3))
            dia = tuple(y - x for x, y in zip(ell, r))
            assert all(d > 1 for d in dia) and max(dia) >= 6
            step = tuple(-(-d // 6) for d in dia)
            q = payload["q"]
            assert all(l + s <= c for l, s, c in zip(ell, step, q))
            assert all(c <= y - s for y, s, c in zip(r, step, q))
            # the formula-computed view must agree with the enumeration
            assert payload["view"].ell == ell and payload["view"].r == r
            shrinks += 1
    assert shrinks > 50


def test_shrink_strictly_decreases_phi():
    seen = 0
    for inst in shrink_exercisers():
        _, events, _ = run_with_observer(inst)
        for ev, payload in events:
            if ev != "shrink" or payload["dia_after"] is None:
                continue
            before = payload["view"].dia
            after = payload["dia_after"]
            assert phi(after) <= phi(before) - 1, (before, after)
            seen += 1
    assert seen > 50


# No shrink phase: shrinking a failing example takes about a minute of
# solver calls, while the failure itself shows in a few seconds.
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(strategies.data())
def test_shrink_probe_is_central_inside_the_sixth_step_bounds(data):
    # On a random box [a, b] and level k whose S, the whole level, takes a
    # shrink step, the level's first shrink probe lies on level k a sixth of
    # each diameter inside both bounds of S, and it is level_point of
    # those pulled-in bounds. F rotates the coordinates relative to a, clamped
    # to the box: a monotone map, so the init searches end in bounds or in an
    # outcome, and the example counts only when they end in bounds.
    def above(point):
        return tuple(c + data.draw(strategies.integers(0, 80)) for c in point)

    a = tuple(data.draw(strategies.integers(1, 1 << 20)) for _ in range(3))
    b = above(a)
    k = data.draw(strategies.integers(sum(a), sum(b)))
    view = search_space(state_from_coords(Box(a, b), k, a, b))
    assume(min(view.dia) >= 2 and max(view.dia) >= 6)

    def rotate(q):
        return tuple(
            a[i] + min(max(q[(i + 1) % 3] - a[(i + 1) % 3], 0), b[i] - a[i]) for i in range(3)
        )

    shrinks = []

    def observe(event, payload):
        if event == "shrink":
            shrinks.append(payload)
            raise _FirstShrink

    oracle = _ScriptedOracle({}, fallback=rotate)
    try:
        LevelsetSolver(oracle, observer=observe)._solve_level(a, b, k)
    except _FirstShrink:
        pass
    assume(shrinks)
    (payload,) = shrinks
    q = payload["q"]
    assert payload["view"] == view and oracle.order[-1] == q
    step = tuple(-(-d // 6) for d in view.dia)
    lower = tuple(c + s for c, s in zip(view.ell, step))
    upper = tuple(c - s for c, s in zip(view.r, step))
    assert sum(q) == k and leq(lower, q) and leq(q, upper)
    assert q == level_point(lower, upper, k)


class _FirstShrink(Exception):
    """Raised by a test observer to stop a level at its first shrink step."""


def test_small_case_progress():
    seen = 0
    for inst in shrink_exercisers():
        _, events, _ = run_with_observer(inst)
        for ev, payload in events:
            if ev != "small" or payload["dia_after"] is None:
                continue
            before = payload["view"].dia
            after = payload["dia_after"]
            assert sum(after) < sum(before), (before, after)
            seen += 1
    assert seen > 20


# The first probes of the six init searches of level 18 in (1,1,1)..(11,11,11),
# each answered so that its search ends there: F lowers the axis of the top
# face the point lies on and raises the axis of its bottom face.
_INIT_18 = {
    (11, 1, 6): (10, 2, 6),
    (1, 11, 6): (2, 10, 6),
    (1, 6, 11): (2, 6, 10),
    (11, 6, 1): (10, 6, 2),
}


def _scripted_level(lo, hi, k, script, fallback=lambda q: q):
    """Run one level on a scripted oracle with an observer and a trace:
    its outcome, query order, events and trace phases."""
    oracle = _ScriptedOracle(script, fallback=fallback)
    events, buf = [], io.StringIO()
    solver = LevelsetSolver(oracle, trace=buf, observer=lambda ev, p: events.append((ev, p)))
    out = solver._solve_level(lo, hi, k)
    phases = [line.split("\t")[0] for line in buf.getvalue().splitlines()]
    return out, oracle.order, events, phases


def _state_after_first_shrink(events):
    """The state a level's first shrink step left: the snapshot that the
    next step or the configuration starts from."""
    at = next(i for i, (ev, _) in enumerate(events) if ev == "shrink")
    payload = next(p for ev, p in events[at + 1:] if ev in ("shrink", "small", "config"))
    return payload.get("state_before") or payload["state"]


def test_level_of_diameter_10_opens_with_the_init_searches():
    # level 18 of (1,1,1)..(11,11,11) has S of diameters (10,10,10), the
    # least for which the six init searches run first: the level opens with
    # the axis-0 search's extreme vertex, and all six searches are traced as
    # init
    from tarski.lattice import extreme_level_point

    box = full_box((11, 11, 11))
    assert search_space(state_from_coords(box, 18, box.lo, box.hi)).dia == (10, 10, 10)
    out, order, _, phases = _scripted_level(box.lo, box.hi, 18, _INIT_18)
    assert order[0] == extreme_level_point(box, 18, 0, 1) == (11, 1, 6)
    assert order == [(11, 1, 6), (1, 11, 6), (1, 11, 6), (11, 1, 6), (1, 6, 11), (11, 6, 1), (6, 6, 6)]
    assert phases == ["init"] * 6 + ["shrink"]
    assert out == LevelOutcome(FIXED, (6, 6, 6), (6, 6, 6))


def test_levels_of_diameter_6_to_9_open_with_their_central_shrink_probe():
    # level 12 of (1,1,1)..(7,7,7) has S of diameters (6,6,6), and level 16
    # of (1,1,1)..(10,10,10) has (9,9,9), the largest that puts the init
    # searches off: each level's first query is its central probe, a shrink
    # step a sixth of each diameter inside S, which here ends the level
    for side, k, dia, q in ((7, 12, 6, (4, 4, 4)), (10, 16, 9, (6, 5, 5))):
        box = full_box((side,) * 3)
        assert search_space(state_from_coords(box, k, box.lo, box.hi)).dia == (dia,) * 3
        step = -(-dia // 6)
        assert q == level_point((1 + step,) * 3, (side - step,) * 3, k)
        out, order, _, phases = _scripted_level(box.lo, box.hi, k, {})
        assert order == [q] and phases == ["shrink"], side
        assert out == LevelOutcome(FIXED, q, q)


def test_a_level_searches_first_exactly_when_some_diameter_of_its_level_is_10():
    # The level decides from the box and k alone whether its init searches go
    # first; that must agree with search_space's diameters of the whole
    # level. A level that puts them off reports init_done before any query;
    # one that runs them first reports it after its searches, or not at all
    # when a search ends the level.
    rng = SplitMix64(41)
    seen = {True: 0, False: 0}
    for _ in range(1500):
        lo = tuple(1 + rng.below(3) for _ in range(3))
        hi = tuple(c + 1 + rng.below(16) for c in lo)
        k = sum(lo) + 1 + rng.below(sum(hi) - sum(lo) - 1)
        inst = gen_target(hi, tuple(a + rng.below(b - a + 1) for a, b in zip(lo, hi)))
        oracle = CountedOracle(inst)
        marks = []
        solver = LevelsetSolver(oracle, observer=lambda ev, p: marks.append((ev, oracle.distinct_queries)))
        solver._solve_level(lo, hi, k)
        lazy = ("init_done", 0) in marks
        dia = search_space(state_from_coords(Box(lo, hi), k, lo, hi)).dia
        assert lazy == (max(dia) < 10), (lo, hi, k, dia)
        seen[lazy] += 1
    assert min(seen.values()) > 300, seen


def test_shrink_probe_spec_example():
    # bounds (1,1,1)..(11,11,11) with dia (10,10,10) at level 18: after the
    # init searches the probe is the central level point (6,6,6) of the
    # shrunken bounds [3..9]^3
    assert level_point((3, 3, 3), (9, 9, 9), 18) == (6, 6, 6)
    q, fq = (6, 6, 6), (7, 6, 5)
    _, order, events, _ = _scripted_level((1, 1, 1), (11, 11, 11), 18, {**_INIT_18, q: fq})
    assert order[6] == q
    shrinks = [p for ev, p in events if ev == "shrink"]
    assert (shrinks[0]["q"], shrinks[0]["fq"], shrinks[0]["outcome"]) == (q, fq, None)
    # the probe was 1-upward (and 3-downward), so both bounds moved
    after = _state_after_first_shrink(events)
    assert after["up"][0] == (q, fq) and after["down"][2] == (q, fq)
    assert shrinks[0]["dia_after"] == shrinks[1]["view"].dia == (5, 10, 5)


def test_small_case_interior_probe_spec_example():
    # bounds (2,2,2)..(4,4,4) at level 9 have the interior point (3,3,3); the
    # level's S has diameters (2,2,2), so it opens with that probe, not with
    # an init vertex
    _, order, events, phases = _scripted_level((2, 2, 2), (4, 4, 4), 9, {(3, 3, 3): (4, 3, 2)})
    assert order[0] == (3, 3, 3) and phases[0] == "small"
    assert [ev for ev, _ in events][:3] == ["level_start", "init_done", "small"]


def test_lazy_level_searches_exactly_the_bounds_its_probes_left_unset():
    # level 9 of (2,2,2)..(4,4,4) opens with (3,3,3), which F makes 1-upward
    # and 3-downward; that leaves a diameter of 1, so the level searches the
    # four other bounds, in axis order and i-downward first, traced as init.
    # F is (3,3,3) elsewhere, so each search ends on its first vertex.
    q, fq = (3, 3, 3), (4, 3, 2)
    _, order, events, phases = _scripted_level(
        (2, 2, 2), (4, 4, 4), 9, {q: fq}, fallback=lambda x: (3, 3, 3)
    )
    # down(0), down(1), up(1), up(2); up(0) and down(2) are the probe's
    assert order == [q, (4, 2, 3), (2, 4, 3), (4, 2, 3), (4, 3, 2)]
    assert phases == ["small"] + ["init"] * 4
    init = next(p for ev, p in events if ev == "init_done")
    assert init["up"] == (((2, 2, 2), None),) * 3 and init["down"] == (((4, 4, 4), None),) * 3
    config = next(p for ev, p in events if ev == "config")["state"]
    center = (3, 3, 3)
    assert config["up"] == ((q, fq), ((4, 2, 3), center), ((4, 3, 2), center))
    assert config["down"] == (((4, 2, 3), center), ((2, 4, 3), center), (q, fq))


def test_small_case_interior_probe_is_the_central_level_point_inside_the_bounds():
    # On every small step of rotation and raw solves, in both modes, whose
    # level has a point of S strictly inside every bound
    # (sum(ell) + 3 <= k <= sum(r) - 3), the step's first query is
    # level_point(ell + 1, r - 1, k) of its view, the shrink step's
    # probe with every sixth step 1; both ends of that range of k occur. A
    # step's queries are the calls after the event before it.
    from _families import CallLog, raw_random_table, rotation_batch

    instances = rotation_batch(60, 25) + [
        raw_random_table((3 + seed % 6,) * 3, seed) for seed in range(120)
    ]
    seen, ends = 0, set()
    for inst in instances:
        for verify in (False, True):
            oracle = CallLog(inst)
            marks = []
            solver = LevelsetSolver(
                oracle,
                verify_certificates=verify,
                observer=lambda ev, p: marks.append((ev, p, len(oracle.calls))),
            )
            try:
                solver.solve()
            except MonotonicityViolation:
                pass
            for (_, _, mark), (ev, payload, _) in zip(marks, marks[1:]):
                if ev != "small":
                    continue
                view, k = payload["view"], payload["state_before"]["k"]
                low, high = sum(view.ell) + 3, sum(view.r) - 3
                if not low <= k <= high:
                    continue
                lower = tuple(c + 1 for c in view.ell)
                upper = tuple(c - 1 for c in view.r)
                assert oracle.calls[mark][0] == level_point(lower, upper, k), (view, k)
                seen += 1
                ends.update(end for end, at in (("low", low), ("high", high)) if k == at)
    assert seen > 100 and ends == {"low", "high"}, (seen, ends)


def test_small_case_probe_branch_all_upward_spec_example():
    # bounds (2,2,2)..(4,4,4) at level 8: no interior point; the three corner
    # probes are all i-upward, certifying (3,3,3) as an upward point with no
    # other query. Its order dual at level 10 probes one step below the upper
    # corner; all three i-downward certify (3,3,3) as a downward point.
    cases = (
        (8, UPWARD, {
            (2, 3, 3): (3, 3, 2),  # 1-upward (and 3-downward)
            (3, 2, 3): (2, 3, 3),  # 2-upward (and 1-downward)
            (3, 3, 2): (2, 3, 3),  # 3-upward (and 1-downward)
        }),
        (10, DOWNWARD, {
            (4, 3, 3): (3, 3, 4),  # 1-downward (and 3-upward)
            (3, 4, 3): (4, 3, 3),  # 2-downward (and 1-upward)
            (3, 3, 4): (4, 3, 3),  # 3-downward (and 1-upward)
        }),
    )
    for k, kind, script in cases:
        out, order, events, phases = _scripted_level((2, 2, 2), (4, 4, 4), k, script)
        assert order == list(script), kind
        assert phases == ["small"] * 3
        assert out == LevelOutcome(kind, (3, 3, 3))
        assert sum(out.point) >= k if kind == UPWARD else sum(out.point) <= k
        assert [ev for ev, _ in events][-3:] == ["certificate", "small", "level_done"]


def test_probe_moves_the_bounds_classify_selects():
    # for each of the 27 sign patterns of F(q) - q at the shrink probe
    # q = (6,6,6) of the scripted level 18 above: a fixed, upward or downward
    # q is the level's outcome; otherwise exactly the up(i) slots of q's
    # i-upward labels and the down(i) slots of its i-downward labels move,
    # and the next step's S is the one the moved bounds give
    q = (6, 6, 6)
    moved = 0
    for signs in itertools.product((-1, 0, 1), repeat=3):
        fq = tuple(c + d for c, d in zip(q, signs))
        out, order, events, _ = _scripted_level((1, 1, 1), (11, 11, 11), 18, {**_INIT_18, q: fq})
        assert order[6] == q, signs
        _, labels = classify(q, fq)
        if labels.is_upward or labels.is_downward:
            kind = FIXED if labels.is_fixed else UPWARD if labels.is_upward else DOWNWARD
            assert out == LevelOutcome(kind, q, fq) and len(order) == 7, signs
            continue
        init = next(p for ev, p in events if ev == "init_done")
        after = _state_after_first_shrink(events)
        for i in range(3):
            assert after["up"][i] == ((q, fq) if i in labels.i_upward else init["up"][i]), signs
            assert after["down"][i] == ((q, fq) if i in labels.i_downward else init["down"][i]), signs
        step = next(p for ev, p in events if ev in ("shrink", "small") and p["state_before"] is after)
        state = LevelState(after["box"], after["k"], list(after["up"]), list(after["down"]))
        assert step["view"] == search_space(state), signs
        moved += 1
    # 27 patterns less the 8 with no axis falling and the 8 with none rising, (0, 0, 0) in both
    assert moved == 12


# -- configurations ----------------------------------------------------------


def test_find_configuration_definitions_hold():
    from _families import rotation_batch

    kinds = set()
    for inst in rotation_batch(60, 201, 5, 9):
        _, events, _ = run_with_observer(inst)
        for ev, payload in events:
            if ev != "config":
                continue
            cfg = payload["config"]
            kinds.add(cfg.kind)
            pts = [p for p, _ in cfg.points]
            labels = [classify(p, f)[1] for p, f in cfg.points]
            if cfg.kind == "third":
                x, y = pts
                i = cfg.axis
                assert i in labels[0].i_upward and i in labels[1].i_downward
                assert x[i] <= y[i] <= x[i] + 1
            elif cfg.kind == "first":
                x, y = pts
                if cfg.flavor == UPWARD:
                    ok = any(
                        x[i] >= y[i] and x[j] <= y[j]
                        for i in labels[0].i_upward
                        for j in labels[1].i_upward
                        if i != j
                    )
                else:
                    ok = any(
                        x[i] <= y[i] and x[j] >= y[j]
                        for i in labels[0].i_downward
                        for j in labels[1].i_downward
                        if i != j
                    )
                assert ok
            else:
                x, y, z = pts
                if cfg.flavor == UPWARD:
                    ok = any(
                        x[i] >= y[i] and y[j] >= z[j] and z[p] >= x[p]
                        for i in labels[0].i_upward
                        for j in labels[1].i_upward
                        for p in labels[2].i_upward
                        if {i, j, p} == {0, 1, 2}
                    )
                else:
                    ok = any(
                        x[i] <= y[i] and y[j] <= z[j] and z[p] <= x[p]
                        for i in labels[0].i_downward
                        for j in labels[1].i_downward
                        for p in labels[2].i_downward
                        if {i, j, p} == {0, 1, 2}
                    )
                assert ok
    assert kinds, "no run ever reached the configuration phase"


def test_configuration_lemma():
    # Why find_configuration has no fall-through: six points of a level in a
    # box, with up(i)_i <= down(i)_i, a nonempty S and some diameter of S
    # <= 1, always hold a first, second or third configuration. The scan
    # reads coordinates only, so the F-values are dummies. Every such state
    # of every box with sides 2-3 is checked, then a seeded sample of boxes
    # with sides 4-7, off the origin too.
    def in_domain_and_holds(box, k, ups, downs):
        state = LevelState(box, k, [(u, u) for u in ups], [(d, d) for d in downs])
        if not 0 <= min(search_space(state).dia) <= 1:
            return False
        assert isinstance(find_configuration(state.up, state.down), Config), state.snapshot()
        return True

    def level(box, k):
        return [p for p in iter_box(box) if sum(p) == k]

    checked = 0
    for sides in itertools.product((2, 3), repeat=3):
        box = full_box(sides)
        for k in range(sum(box.lo) + 1, sum(box.hi)):
            pts = level(box, k)
            # up(i)_i <= down(i)_i holds on every state with a nonempty S.
            bounds = [[(u, d) for u in pts for d in pts if u[i] <= d[i]] for i in range(3)]
            for (u0, d0), (u1, d1), (u2, d2) in itertools.product(*bounds):
                checked += in_domain_and_holds(box, k, (u0, u1, u2), (d0, d1, d2))
    assert checked == 83045

    rng = SplitMix64(21)
    sampled = 0
    for _ in range(600):
        lo = tuple(1 + rng.below(4) for _ in range(3))
        box = Box(lo, tuple(c + 3 + rng.below(4) for c in lo))
        k = sum(box.lo) + 1 + rng.below(sum(box.hi) - sum(box.lo) - 1)
        pts = level(box, k)
        for _ in range(20):
            ups, downs = [], []
            for i in range(3):
                u, d = pts[rng.below(len(pts))], pts[rng.below(len(pts))]
                ups.append(u if u[i] <= d[i] else d)
                downs.append(d if u[i] <= d[i] else u)
            sampled += in_domain_and_holds(box, k, ups, downs)
    assert sampled == 9612


def test_resolution_never_fails_on_monotone_exhaustive_4_cube():
    # all 64 target instances plus a seeded batch; any failure would raise
    for target in iter_box(full_box((4, 4, 4))):
        inst = gen_target((4, 4, 4), target)
        assert solve(CountedOracle(inst)) == target
    for seed in range(300):
        inst = gen_random_monotone((4, 4, 4), seed)
        assert solve(CountedOracle(inst)) in fixed_points_bruteforce(inst)


def test_resolve_first_example():
    o = CountedOracle(gen_target((8, 8, 8), (1, 1, 1)))  # oracle unused here
    solver = LevelsetSolver(o)
    x, y = (5, 2, 5), (3, 4, 5)
    cfg = Config("first", UPWARD, ((x, (6, 2, 4)), (y, (3, 5, 4))))
    out = solver.resolve_meet_join(cfg)
    assert out.kind == DOWNWARD
    assert out.point == (3, 2, 5)
    assert sum(out.point) <= 12


def test_resolve_second_mirrored_flavor():
    o = CountedOracle(gen_target((8, 8, 8), (8, 8, 8)))
    solver = LevelsetSolver(o)
    pts = ((2, 4, 6), (4, 3, 5), (3, 6, 3))
    vals = ((1, 4, 6), (4, 2, 5), (3, 6, 2))
    cfg = Config("second", DOWNWARD, tuple(zip(pts, vals)))
    out = solver.resolve_meet_join(cfg)
    assert out.kind == UPWARD
    assert out.point == lub(*pts)


# -- third configuration -----------------------------------------------------


def test_resolve_third_planted_exhaustive():
    from _families import planted_third_configs, rotation_batch

    total = 0
    for inst in rotation_batch(25, 71, 5, 6):
        n3 = sum(inst.shape)
        for k in range(n3 // 2 - 1, n3 // 2 + 2):
            for x, y, axis in planted_third_configs(inst, k):
                o = CountedOracle(inst)
                fx, fy = o.query(x), o.query(y)
                primed = o.distinct_queries
                solver = LevelsetSolver(o)
                out = solver.resolve_third(
                    Config("third", None, ((x, fx), (y, fy)), axis=axis), k
                )
                assert outcome_is_valid(inst, out, k), (x, y, axis)
                others = [a for a in range(3) if a != axis]
                j = next(a for a in others if y[a] < x[a])
                budget = math.ceil(math.log2(max(2, x[j] - y[j]))) + 3
                assert o.distinct_queries - primed <= budget
                total += 1
    assert total > 100


class _ScriptedOracle:
    """Fixed value map with a fallback; records query order. A search that
    stops narrowing its bracket fails on the 65th query instead of running
    on."""

    def __init__(self, values, fallback):
        self.values = dict(values)
        self.fallback = fallback
        self.order = []
        self.distinct_queries = 0

    def query(self, x):
        if len(self.order) == 64:
            raise RuntimeError("more than 64 queries to a scripted oracle")
        self.order.append(x)
        self.distinct_queries += 1
        return self.values.get(x, self.fallback(x))


def test_resolve_third_spec_example_initial_points():
    # x=(4,6,2) 1-upward, y=(5,1,6) 1-downward, k=12: the bracket starts at y,
    # and the first probe is the segment point with the middle coordinate one
    # below x's, namely (5, 5, 2)
    x, y = (4, 6, 2), (5, 1, 6)
    fx, fy = (5, 5, 1), (4, 2, 6)  # 1-upward / 1-downward, no early exit
    oracle = _ScriptedOracle(
        {(5, 5, 2): (5, 4, 2)},  # keeps the bracket: high side
        fallback=lambda q: (5, q[1] - 1, q[2]),
    )
    solver = LevelsetSolver(oracle)
    out = solver.resolve_third(Config("third", None, ((x, fx), (y, fy)), axis=0), 12)
    assert oracle.order[0] == (5, 5, 2)
    assert out.kind in (UPWARD, DOWNWARD)


def test_resolve_third_degenerate_adjacent_bracket():
    # y_j == x_j - 1 certifies the meet with no queries at all
    x, y = (4, 6, 2), (5, 5, 2)
    fx, fy = (5, 5, 1), (4, 6, 2)
    oracle = _ScriptedOracle({}, fallback=lambda q: q)
    solver = LevelsetSolver(oracle)
    out = solver.resolve_third(Config("third", None, ((x, fx), (y, fy)), axis=0), 12)
    assert out.kind == DOWNWARD
    assert out.point == glb(x, y) == (4, 5, 2)
    assert oracle.order == []


def test_resolve_third_early_exit_branch():
    # F(x)_j == x_j forces the join certificate with no extra queries
    x, y = (4, 6, 2), (5, 1, 6)
    inst = gen_target((8, 8, 8), (6, 6, 6))
    fx = (5, 6, 3)  # crafted: 1-upward with equality on axis 1
    fy = (4, 2, 7)
    o = CountedOracle(inst)
    solver = LevelsetSolver(o)
    out = solver.resolve_third(Config("third", None, ((x, fx), (y, fy)), axis=0), 12)
    assert out.kind == UPWARD
    assert out.point == lub(x, y) == (5, 6, 6)
    assert o.distinct_queries == 0


def test_resolve_third_certifies_inside_the_bracket_loop():
    # the spec example's inputs with (5,3,4) fixed: the first probe (5,5,2)
    # keeps the high end, the bisection probe (5,3,4) is upward, and its
    # join with y certifies the upward point (5,3,6)
    x, y = (4, 6, 2), (5, 1, 6)
    fx, fy = (5, 5, 1), (4, 2, 6)
    oracle = _ScriptedOracle(
        {(5, 5, 2): (5, 4, 2), (5, 3, 4): (5, 3, 4)},
        fallback=lambda q: (5, q[1] - 1, q[2]),
    )
    solver = LevelsetSolver(oracle)
    out = solver.resolve_third(Config("third", None, ((x, fx), (y, fy)), axis=0), 12)
    assert oracle.order == [(5, 5, 2), (5, 3, 4)]
    assert out == LevelOutcome(UPWARD, lub((5, 3, 4), y)) == LevelOutcome(UPWARD, (5, 3, 6))


def _bisect_to_adjacent_ends(f_high):
    # the spec example's inputs, where the bracket narrows over two midpoints:
    # the first probe (5,5,2) is high-typed (b = 5), the midpoint (5,3,4) is
    # low-typed (a = 3), the midpoint (5,4,3) answers f_high and is high-typed
    # (b = 4), so the ends (5,3,4) and (5,4,3) are adjacent
    x, y = (4, 6, 2), (5, 1, 6)
    fx, fy = (5, 5, 1), (4, 2, 6)
    oracle = _ScriptedOracle(
        {(5, 5, 2): (5, 4, 2), (5, 3, 4): (4, 4, 4), (5, 4, 3): f_high},
        fallback=lambda q: q,
    )
    events = []
    solver = LevelsetSolver(oracle, observer=lambda event, payload: events.append(payload))
    out = solver.resolve_third(Config("third", None, ((x, fx), (y, fy)), axis=0), 12)
    assert oracle.order == [(5, 5, 2), (5, 3, 4), (5, 4, 3)]
    assert events == [{"kind": out.kind, "point": out.point, "verified": False}]
    return out


def test_resolve_third_bisects_past_a_low_midpoint_to_the_meet_when_f_high_keeps_p():
    # F(high)_p == high_p on the third axis: the meet of the ends is downward
    out = _bisect_to_adjacent_ends((5, 3, 3))
    assert out == LevelOutcome(DOWNWARD, glb((5, 3, 4), (5, 4, 3))) == LevelOutcome(DOWNWARD, (5, 3, 3))


def test_resolve_third_bisects_past_a_low_midpoint_to_the_join_when_f_high_raises_p():
    # F(high)_p > high_p on the third axis: the join of the ends is upward
    out = _bisect_to_adjacent_ends((5, 3, 4))
    assert out == LevelOutcome(UPWARD, lub((5, 3, 4), (5, 4, 3))) == LevelOutcome(UPWARD, (5, 4, 4))


# -- whole solve --------------------------------------------------------------


def test_solve_spec_examples():
    assert solve(CountedOracle(gen_target((32, 32, 32), (7, 19, 2)))) == (7, 19, 2)
    assert solve(CountedOracle(gen_target((2, 2, 2), (2, 2, 2)))) == (2, 2, 2)
    inst = gen_random_monotone((5, 5, 5), 4242)
    assert solve(CountedOracle(inst)) in fixed_points_bruteforce(inst)


def test_solve_exhaustive_targets_sides_up_to_5():
    for n in (2, 3, 4, 5):
        for target in iter_box(full_box((n, n, n))):
            assert solve(CountedOracle(gen_target((n, n, n), target))) == target


def test_solve_low_dimensions_delegate():
    assert solve(CountedOracle(gen_target((9,), (4,)))) == (4,)
    assert solve(CountedOracle(gen_target((16, 16), (13, 2)))) == (13, 2)
    assert solve(CountedOracle(gen_target((3, 3, 3, 3), (1, 1, 1, 1)))) == (1, 1, 1, 1)
    assert solve(CountedOracle(gen_target((6, 2, 9, 4, 5), (5, 1, 7, 4, 2)))) == (5, 1, 7, 4, 2)


def test_solve_is_dqy_call_for_call_above_3d_and_on_span_6_grids():
    # A grid with more than 3 dimensions, or a 3D grid whose coordinate-sum
    # span is at most 6, goes to dqy_solve on the full box: the same query
    # calls, cache hits included, in the same order, and the same answer or
    # violation, in both verify_certificates modes.
    from _families import CallLog, raw_random_table

    def run(inst, search):
        oracle = CallLog(inst)
        try:
            result = ("fixed", search(oracle))
        except MonotonicityViolation as mv:
            result = ("violation", str(mv), mv.implicated)
        return oracle.calls, result

    rng = SplitMix64(29)
    instances = [
        gen_target(shape, tuple(1 + rng.below(n) for n in shape))
        for shape in ((1 << 20,) * 4, (5, 3, 6, 4), (1 << 10,) * 5, (2, 7, 1, 3, 4))
        for _ in range(3)
    ]
    instances += [gen_random_monotone((4, 3, 4, 2 + seed % 3), seed) for seed in range(20)]
    instances += [raw_random_table((3,) * 4, seed) for seed in range(60)]
    instances += [
        gen_target(shape, tuple(1 + rng.below(n) for n in shape))
        for shape in ((2, 2, 2), (3, 3, 3), (2, 3, 4), (4, 1, 4), (7, 1, 1))
        for _ in range(3)
    ]
    instances += [gen_random_monotone((3, 3, 3), seed) for seed in range(10)]
    instances += [raw_random_table((3,) * 3, seed) for seed in range(60)]
    violations = 0
    for inst in instances:
        want = run(inst, lambda o: dqy_solve(o).fixed_point)
        violations += want[1][0] == "violation"
        for verify_certificates in (False, True):
            got = run(inst, lambda o: solve(o, verify_certificates=verify_certificates))
            assert got == want, (inst.shape, verify_certificates)
    assert violations >= 100, violations


def _monotone_tables(shape):
    """Every monotone table on the grid, by backtracking over iter_box
    order. That order is a linear extension of the grid's, so when a point
    is reached every point below it has its value already, and the point
    takes each value at or above all of theirs."""
    points = list(iter_box(full_box(shape)))
    below = [[j for j in range(i) if leq(points[j], x)] for i, x in enumerate(points)]
    table = []

    def fill(i):
        if i == len(points):
            yield tuple(table)
            return
        for v in points:
            if all(leq(table[j], v) for j in below[i]):
                table.append(v)
                yield from fill(i + 1)
                table.pop()

    yield from fill(0)


def _distinct_queries(inst):
    oracle = CountedOracle(inst)
    p = solve(oracle)
    assert inst.value(p) == p
    return oracle.distinct_queries


def test_solve_meets_the_optimum_on_every_monotone_2x2x2_function():
    # Each axis of F is one of the 20 monotone Boolean functions of three
    # variables, so there are 20^3 = 8000 of them. The grid's span is 3, so
    # solve hands it to dqy, whose worst case, 4 distinct queries, is the
    # optimum here.
    counts = [
        _distinct_queries(Instance(shape=(2, 2, 2), kind="table", table=table))
        for table in _monotone_tables((2, 2, 2))
    ]
    assert len(counts) == 8000
    assert max(counts) == 4
    assert sum(counts) == 10049  # a mean of 1.256


def test_solve_on_every_3x3x3_target_is_dqy_cheap():
    # Span 6: the whole grid is the constant-size tail. Over all 27 targets
    # solve makes 4.00 distinct queries on average and at most 6.
    counts = [_distinct_queries(gen_target((3, 3, 3), t)) for t in iter_box(full_box((3, 3, 3)))]
    assert sum(counts) == 4 * 27
    assert max(counts) == 6


# Mean distinct queries of solve and of dqy_solve per side of the lazy
# rotations: 100 instances per side from SplitMix64(5), each drawing its
# three deltas in -2..2, then its rotation 1 or 2.
LAZY_ROTATION_QUERIES = {
    3: (7.46, 7.84),
    8: (59.18, 52.88),
    12: (113.76, 119.64),
    16: (179.59, 213.60),
    20: (259.36, 334.76),
}


def test_lazy_rotation_query_counts_are_pinned():
    # The lazy oracle first matches rotation_instance on every point at n = 7.
    from _families import LazyRotation, rotation_instance

    for deltas in itertools.product(range(-2, 3), repeat=3):
        for rot in (1, 2):
            inst = rotation_instance(7, deltas, rot)
            lazy = LazyRotation(7, deltas, rot)
            assert all(lazy.query(x) == inst.value(x) for x in iter_box(full_box((7, 7, 7))))
            assert lazy.instance.shape == inst.shape and lazy.distinct_queries == 7**3
    means = {}
    for bits in LAZY_ROTATION_QUERIES:
        rng, n = SplitMix64(5), 1 << bits
        totals = [0, 0]
        for _ in range(100):
            deltas = tuple(rng.below(5) - 2 for _ in range(3))
            rot = 1 + rng.below(2)
            for at, run in enumerate((solve, lambda o: dqy_solve(o).fixed_point)):
                oracle = LazyRotation(n, deltas, rot)
                answer = run(oracle)
                totals[at] += oracle.distinct_queries
                assert oracle.query(answer) == answer, (bits, deltas, rot)
        means[bits] = (totals[0] / 100, totals[1] / 100)
    assert means == LAZY_ROTATION_QUERIES


def test_solve_degenerate_and_odd_shapes():
    for shape, t in [
        ((7, 3, 9), (2, 3, 8)),
        ((1, 5, 5), (1, 4, 2)),
        ((5, 1, 1), (3, 1, 1)),
        ((2, 2, 9), (1, 2, 7)),
        ((1, 1, 1), (1, 1, 1)),
    ]:
        assert solve(CountedOracle(gen_target(shape, t))) == t


def test_recursion_halves_the_size_measure():
    rng = SplitMix64(81)
    for trial in range(30):
        n = 16 + rng.below(100)
        t = tuple(1 + rng.below(n) for _ in range(3))
        _, events, _ = run_with_observer(gen_target((n, n, n), t))
        for ev, payload in events:
            if ev != "recurse":
                continue
            before = payload["before"]
            after = payload["after"]
            m_before = sum(before.hi) - sum(before.lo)
            m_after = sum(after.hi) - sum(after.lo)
            assert m_after <= -(-m_before // 2)
            # the recursed corner carries the outcome point
            out = payload["outcome"]
            assert after.lo == out.point or after.hi == out.point


def _tightened(events):
    """(level outcome, index of its tightening certificate or None) for every
    recurse event whose outcome came from a query."""
    out = []
    for i, (ev, payload) in enumerate(events):
        if ev == "recurse" and payload["outcome"].fvalue is not None:
            nxt = events[i + 1] if i + 1 < len(events) else (None, None)
            out.append((payload, i + 1 if nxt[0] == "certificate" else None))
    return out


def test_solve_tightens_queried_corner_before_the_next_level():
    rng = SplitMix64(17)
    tightened = 0
    for _ in range(20):
        t = tuple(1 + rng.below(64) for _ in range(3))
        point, events, _ = run_with_observer(gen_target((64, 64, 64), t))
        assert point == t
        for payload, cert_at in _tightened(events):
            out, box = payload["outcome"], payload["after"]
            terminal = min(box.sides) == 1 or sum(box.hi) - sum(box.lo) <= 6
            # a terminal box goes on exactly as the level certified it
            assert (cert_at is None) == terminal
            if terminal:
                continue
            assert events[cert_at][1] == {
                "kind": out.kind, "point": out.fvalue, "verified": False
            }
            starts = [p for ev, p in events[cert_at:] if ev == "level_start"]
            if starts:
                nxt = starts[0]["box"]
                corner = nxt.lo if out.kind == UPWARD else nxt.hi
                assert corner == out.fvalue
                tightened += 1
    assert tightened > 20


def test_tighten_moves_corner_to_image_without_a_query():
    oracle = _ScriptedOracle({}, fallback=lambda q: q)
    events = []
    solver = LevelsetSolver(oracle, observer=lambda ev, p: events.append((ev, p)))
    lo, hi = (3, 3, 3), (7, 7, 7)
    up = LevelOutcome(UPWARD, (3, 3, 3), (4, 5, 3))
    assert solver._tighten(lo, hi, up) == (4, 5, 3)
    down = LevelOutcome(DOWNWARD, (7, 7, 7), (7, 6, 5))
    assert solver._tighten(lo, hi, down) == (7, 6, 5)
    assert oracle.order == []
    assert events == [
        ("certificate", {"kind": UPWARD, "point": (4, 5, 3), "verified": False}),
        ("certificate", {"kind": DOWNWARD, "point": (7, 6, 5), "verified": False}),
    ]


def test_tighten_confirms_image_as_outer_query_in_verify_mode():
    oracle = _ScriptedOracle({(4, 5, 3): (4, 6, 4)}, fallback=lambda q: q)
    buf = io.StringIO()
    events = []
    solver = LevelsetSolver(
        oracle,
        verify_certificates=True,
        trace=buf,
        observer=lambda ev, p: events.append((ev, p)),
    )
    solver._context = ("third", 12)  # left over from the level
    up = LevelOutcome(UPWARD, (3, 3, 3), (4, 5, 3))
    assert solver._tighten((3, 3, 3), (7, 7, 7), up) == (4, 5, 3)
    assert oracle.order == [(4, 5, 3)]
    assert buf.getvalue().split("\t")[:4] == ["outer", "-1", "4,5,3", "4,6,4"]
    assert events == [
        ("certificate", {"kind": UPWARD, "point": (4, 5, 3), "verified": True})
    ]


def test_tighten_failures_raise_witnessed_violations():
    lo, hi = (3, 3, 3), (7, 7, 7)
    # the image of the upward corner leaves the box: with F(hi) <= hi the
    # pair (u, hi) violates monotonicity
    oracle = _ScriptedOracle({(3, 3, 3): (4, 8, 3)}, fallback=lambda q: q)
    with pytest.raises(MonotonicityViolation) as info:
        LevelsetSolver(oracle)._tighten(lo, hi, LevelOutcome(UPWARD, (3, 3, 3), (4, 8, 3)))
    assert ((3, 3, 3), (4, 8, 3)) in info.value.implicated
    w = info.value.witness
    assert w is not None and (w.x, w.y) == ((3, 3, 3), (7, 7, 7))
    # the image is not upward: (u, F(u)) itself is the violating pair
    oracle = _ScriptedOracle({(4, 5, 3): (4, 4, 3)}, fallback=lambda q: q)
    solver = LevelsetSolver(oracle, verify_certificates=True)
    with pytest.raises(MonotonicityViolation) as info:
        solver._tighten(lo, hi, LevelOutcome(UPWARD, (3, 3, 3), (4, 5, 3)))
    w = info.value.witness
    assert w is not None and (w.x, w.y) == ((3, 3, 3), (4, 5, 3))


def test_violations_after_tightening_carry_its_evidence():
    from _families import raw_random_table

    carried = 0
    for seed in range(150):
        inst = raw_random_table((7, 7, 7), seed)
        for verify in (False, True):
            events = []
            solver = LevelsetSolver(
                CountedOracle(inst),
                verify_certificates=verify,
                observer=lambda ev, p: events.append((ev, p)),
            )
            try:
                solver.solve()
            except MonotonicityViolation as err:
                violation = err
            else:
                continue
            evidence = [
                (payload["outcome"].point, payload["outcome"].fvalue)
                for payload, cert_at in _tightened(events)
                if cert_at is not None
            ]
            assert set(evidence) <= set(violation.implicated)
            carried += bool(evidence)
            if verify:
                pts = [p for p, _ in violation.implicated]
                assert any(
                    x != y and leq(x, y) and not leq(inst.value(x), inst.value(y))
                    for x in pts
                    for y in pts
                )
    assert carried > 10


def test_violations_escape_solve_unchained():
    # One row per raise site of the levelset solver and of the dqy baseline
    # solve delegates to, each reached through solve: inside a level, inside
    # a level after a tightening, while tightening, and by the dqy
    # delegation. Each violation leaves solve as the exception
    # first raised, with the tightening evidence merged in and no other
    # exception chained to it; in verify mode its pairs hold a witness.
    from _families import jump_target_table, perturbed_target_table, raw_random_table

    def raw(seed):
        return raw_random_table((6, 6, 6), seed)

    cases = (
        # _extreme_search; on raw(34) the second level, (1,1,1)..(2,2,6) at 7, has S of
        # diameters (1,1,2) from the start, so its searches all run after the (empty) step
        # loop, and the first raises
        (raw(34), False, "endpoint .* impossible sign pattern", False),
        (raw(79), False, "endpoint .* impossible sign pattern", True),
        (perturbed_target_table(10, 114), True, "single-point init segment .* did not resolve", True),
        (perturbed_target_table(24, 509), True, "segment point .* impossible sign pattern", True),
        # _certify and _tighten
        (raw(20), True, "implied .* certificate failed", True),
        (jump_target_table(12, 33), True, "image .* left the box", True),
        # dqy's bisection and dqy_solve's final query
        (raw(19), False, "binary search on axis .* exhausted its bracket", True),
        (raw(18), True, "candidate .* is not fixed", False),
    )
    for inst, verify, message, tightened in cases:
        solver = LevelsetSolver(CountedOracle(inst), verify_certificates=verify)
        with pytest.raises(MonotonicityViolation, match=message) as info:
            solver.solve()
        mv = info.value
        assert mv.__context__ is None and mv.__cause__ is None, message
        assert bool(solver._evidence) == tightened, message
        assert set(solver._evidence) <= set(mv.implicated)
        if verify:
            w = mv.witness
            assert w is not None, message
            assert leq(w.x, w.y) and not leq(inst.value(w.x), inst.value(w.y)), message


def test_observed_solves_end_in_a_fixed_point_or_a_violation():
    # The observer payloads' boxes go through Box's check. On monotone and
    # raw inputs, in both modes, with and without an observer, every solve
    # ends in a fixed point or a MonotonicityViolation, never in a
    # ValueError of an empty box or of mixed dimensions.
    from _families import (
        jump_target_table,
        perturbed_target_table,
        raw_random_table,
        rotation_batch,
    )

    instances = [raw_random_table((n, n, n), seed) for n in range(3, 9) for seed in range(12)]
    instances += [perturbed_target_table(n, seed) for n in (12, 16) for seed in range(6)]
    instances += [jump_target_table(12, seed) for seed in range(6)]
    # Only observer payloads build boxes: the dqy delegation takes bare corners.
    instances += rotation_batch(72, 3)
    boxes = []

    def observer(event, payload):
        if event == "level_start":
            boxes.append(payload["box"])

    outcomes = {"fixed": 0, "violation": 0}
    for inst in instances:
        for verify, watch in itertools.product((False, True), (None, observer)):
            try:
                point = solve(CountedOracle(inst), verify_certificates=verify, observer=watch)
            except MonotonicityViolation:
                outcomes["violation"] += 1
            else:
                assert inst.value(point) == point
                outcomes["fixed"] += 1
    assert min(outcomes.values()) > 50 and len(boxes) > 300, (outcomes, len(boxes))


def test_witness_is_scanned_only_when_read(monkeypatch):
    import tarski.errors
    from _families import raw_random_table

    scans = []
    scan = tarski.errors.find_violation_pair

    def counted(pairs):
        scans.append(pairs)
        return scan(pairs)

    monkeypatch.setattr(tarski.errors, "find_violation_pair", counted)
    with pytest.raises(MonotonicityViolation) as info:
        solve(CountedOracle(raw_random_table((6, 6, 6), 19)))
    assert scans == []
    assert info.value.witness == scan(info.value.implicated) is not None
    assert scans == [info.value.implicated]


def test_certificates_confirmed_in_debug_mode_5_cube():
    from _families import rotation_batch

    certs = 0
    sweeps = [gen_target((5, 5, 5), t) for t in iter_box(full_box((5, 5, 5)))]
    sweeps += [gen_random_monotone((5, 5, 5), seed) for seed in range(150)]
    sweeps += rotation_batch(120, 55, 5, 5)
    for inst in sweeps:
        point, events, _ = run_with_observer(inst, verify_certificates=True)
        assert inst.value(point) == point
        certs += sum(
            1 for ev, payload in events if ev == "certificate" and payload["verified"]
        )
    assert certs > 20


def test_resolve_first_and_second_planted_on_real_instances():
    """Every first/second configuration found on real monotone levelsets
    resolves to a true upward/downward point, and debug mode confirms it."""
    from _families import (
        planted_first_configs,
        planted_second_configs,
        reflected_instance,
        rotation_batch,
        sparse_monotone_instance,
    )

    insts = [
        sparse_monotone_instance(
            (5, 5, 5), {(4, 2, 3): (5, 2, 3), (2, 4, 3): (2, 5, 3)}
        ),
        sparse_monotone_instance(
            (5, 5, 5), {(3, 1, 5): (4, 1, 5), (1, 4, 4): (1, 5, 4), (2, 5, 2): (2, 5, 3)}
        ),
    ]
    insts += [reflected_instance(i) for i in insts]
    insts += rotation_batch(10, 77, 5, 5)
    firsts = seconds = 0
    for inst in insts:
        n3 = sum(inst.shape)
        for k in range(4, n3 - 2):
            for pts, flavor in planted_first_configs(inst, k):
                o = CountedOracle(inst)
                pairs = tuple((p, o.query(p)) for p in pts)
                solver = LevelsetSolver(o, verify_certificates=True)
                out = solver.resolve_meet_join(Config("first", flavor, pairs))
                assert outcome_is_valid(inst, out, k), (pts, flavor)
                firsts += 1
            for pts, flavor in planted_second_configs(inst, k):
                o = CountedOracle(inst)
                pairs = tuple((p, o.query(p)) for p in pts)
                solver = LevelsetSolver(o, verify_certificates=True)
                out = solver.resolve_meet_join(Config("second", flavor, pairs))
                assert outcome_is_valid(inst, out, k), (pts, flavor)
                seconds += 1
    assert firsts > 2 and seconds > 50, (firsts, seconds)


def test_whole_solves_resolve_first_and_second_configurations():
    # each solve's first level ends in the named configuration, which the
    # level resolves by meet or join with no query: the next event is the
    # certificate, and the level's outcome
    from _families import raw_random_table

    for shape, seed, kind in (((6, 6, 6), 115, "first"), ((8, 8, 8), 253, "second")):
        events = []
        solver = LevelsetSolver(
            CountedOracle(raw_random_table(shape, seed)),
            observer=lambda ev, p: events.append((ev, p)),
        )
        with pytest.raises(MonotonicityViolation):
            solver.solve()
        at = next(i for i, (ev, _) in enumerate(events) if ev == "config")
        cfg = events[at][1]["config"]
        assert cfg.kind == kind and cfg.flavor == UPWARD
        meet = glb(*(pt for pt, _ in cfg.points))
        assert events[at + 1] == (
            "certificate", {"kind": DOWNWARD, "point": meet, "verified": False}
        )
        assert events[at + 2][0] == "level_done"
        assert events[at + 3][0] == "recurse"
        assert events[at + 3][1]["outcome"] == LevelOutcome(DOWNWARD, meet)


def test_trace_records_every_query_with_phase():
    buf = io.StringIO()
    o = CountedOracle(gen_target((16, 16, 16), (11, 2, 7)))
    assert solve(o, trace=buf) == (11, 2, 7)
    lines = buf.getvalue().splitlines()
    assert lines
    phases = set()
    for line in lines:
        phase, level, pt, fpt, labels = line.split("\t")
        phases.add(phase)
        int(level)
        coords = tuple(int(c) for c in pt.split(","))
        vals = tuple(int(c) for c in fpt.split(","))
        assert o.instance.value(coords) == vals
        assert labels
    assert phases <= {"init", "shrink", "small", "third", "outer"}
    assert "init" in phases


def test_trace_has_one_record_per_query_call():
    # A trace pairs up with the oracle's call log: one record per query call,
    # cache hits included, in call order. This holds in every phase, for the
    # baselines the solver delegates to, and on violation paths in both modes.
    # A grid that is not 3D is one dqy phase: all outer, outside any level.
    from _families import CallLog, raw_random_table, rotation_batch

    rng = SplitMix64(17)
    instances = [
        gen_target((n, n, n), tuple(1 + rng.below(n) for _ in range(3)))
        for n in (5, 9, 1 << 8, 1 << 16)
        for _ in range(5)
    ]
    instances += rotation_batch(30, 23)
    # A 2-D grid, a pinched grid, and a grid whose boxes get pinched.
    instances += [gen_target((16, 16), (13, 2)), gen_target((1, 9, 9), (1, 4, 2)),
                  gen_target((7, 3, 9), (2, 3, 8))]
    instances += [raw_random_table((3 + seed % 4,) * 3, seed) for seed in range(80)]
    # A 4-D grid, and a raw 4-D table.
    instances += [gen_target((3, 5, 4, 6), (2, 5, 1, 3)), raw_random_table((3,) * 4, 2)]
    phases = set()
    violations = {False: 0, True: 0}
    for inst in instances:
        for verify_certificates in (False, True):
            oracle = CallLog(inst)
            buf = io.StringIO()
            try:
                solve(oracle, verify_certificates=verify_certificates, trace=buf)
            except MonotonicityViolation:
                violations[verify_certificates] += 1
            records = [line.split("\t") for line in buf.getvalue().splitlines()]
            calls = [(",".join(map(str, x)), ",".join(map(str, fx))) for x, fx in oracle.calls]
            assert [(rec[2], rec[3]) for rec in records] == calls
            if len(inst.shape) != 3:
                assert records and {(rec[0], rec[1]) for rec in records} == {("outer", "-1")}
            phases.update(rec[0] for rec in records)
    assert phases == {"init", "shrink", "small", "third", "outer"}
    assert violations[False] > 10 and violations[True] > 10, violations


def test_solve_on_non_monotone_terminates():
    rng = SplitMix64(91)
    results = {"fixed": 0, "violation": 0}
    for trial in range(120):
        box = full_box((4, 4, 4))
        table = tuple(
            tuple(1 + rng.below(4) for _ in range(3)) for _ in range(box.volume)
        )
        inst = Instance(shape=(4, 4, 4), kind="table", table=table)
        o = CountedOracle(inst)
        try:
            p = solve(o, verify_certificates=True)
            assert inst.value(p) == p
            results["fixed"] += 1
        except MonotonicityViolation as err:
            assert err.implicated
            results["violation"] += 1
    assert results["violation"] > 0
