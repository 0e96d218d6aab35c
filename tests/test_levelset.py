import io
import math

import pytest
from hypothesis import Phase, assume, given, settings, strategies

from tarski.baseline import dqy_solve
from tarski.errors import MonotonicityViolation
from tarski.lattice import (
    Box,
    central_level_point,
    classify,
    full_box,
    glb,
    iter_box,
    leq,
    lub,
    norm1,
)
from tarski.levelset import (
    DOWNWARD,
    FIXED,
    UPWARD,
    Config,
    LevelOutcome,
    LevelsetSolver,
    LevelState,
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
        if norm1(x) == k and all(lo <= c <= hi for lo, c, hi in zip(a, x, b)):
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
        return labels.is_upward and norm1(out.point) >= k
    return labels.is_downward and norm1(out.point) <= k


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
        # search_space agrees with the enumerated S, or raises when S is
        # empty; true for a nonempty S.
        st = state_from_coords(box, k, a, b)
        pts = enumerate_space(box, k, a, b)
        if not pts:
            with pytest.raises(MonotonicityViolation):
                search_space(st)
            return False
        view = search_space(st)
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
        k = norm1(box.lo) + 1 + rng.below(max(1, norm1(box.hi) - norm1(box.lo) - 1))
        a = tuple(1 + rng.below(s) for s in sides)
        b = tuple(ai + rng.below(s - ai + 1) for ai, s in zip(a, sides))
        checked += matches(box, k, a, b)
    # Sub-boxes with lo > 1, and bounds drawn up to two past either side of
    # the box, so that each clamp of a bound to the box binds.
    checked = 0
    while checked < 400:
        lo = tuple(2 + rng.below(4) for _ in range(3))
        box = Box(lo, tuple(c + 1 + rng.below(5) for c in lo))
        k = norm1(box.lo) + 1 + rng.below(max(1, norm1(box.hi) - norm1(box.lo) - 1))
        a = tuple(c - 2 + rng.below(h - c + 3) for c, h in zip(box.lo, box.hi))
        b = tuple(ai + rng.below(h + 3 - ai) for ai, h in zip(a, box.hi))
        checked += matches(box, k, a, b)


# -- initialization --------------------------------------------------------


def test_init_direction_endpoint_example():
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
        k = norm1(lo) + 1 + rng.below(norm1(hi) - norm1(lo) - 1)
        inst = gen_target(hi, tuple(a + rng.below(b - a + 1) for a, b in zip(lo, hi)))
        for axis in range(3):
            o = CountedOracle(inst, record_transcript=True)
            LevelsetSolver(o)._extreme_search(lo, hi, k, axis, 1)
            middle = 1 if axis == 0 else 0
            assert o.transcript[0][0] == extreme_level_point(box, k, axis, middle)


def test_init_direction_single_point_segment_that_does_not_resolve():
    # at level 10 in (3,3,3)..(6,6,6) the axis-0 segment is the one point
    # (4,3,3); F = (4,4,2) neither certifies it nor lets it bracket anything
    oracle = _ScriptedOracle({(4, 3, 3): (4, 4, 2)}, fallback=lambda q: q)
    with pytest.raises(
        MonotonicityViolation, match="single-point init segment for axis 0 did not resolve"
    ) as info:
        LevelsetSolver(oracle)._extreme_search((3, 3, 3), (6, 6, 6), 10, 0, 1)
    assert oracle.order == [(4, 3, 3)]
    assert info.value.implicated == (((4, 3, 3), (4, 4, 2)),)


def test_init_direction_segment_point_with_impossible_sign_pattern():
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


def test_init_direction_postconditions():
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
    level_pts = [p for p in iter_box(box) if norm1(p) == k]
    assert up[0] == min(p[0] for p in level_pts)
    assert down[0] == max(p[0] for p in level_pts)


def test_init_direction_early_exit_all_up():
    # every point below the target (8,8,8) is upward, so each search ends
    # at its first probe
    box = full_box((8, 8, 8))
    o = CountedOracle(gen_target((8, 8, 8), (8, 8, 8)))
    for s in (1, -1):
        res = LevelsetSolver(o)._extreme_search(box.lo, box.hi, 12, 0, s)
        assert res.kind == UPWARD
        assert norm1(res.point) >= 12
        assert outcome_is_valid(o.instance, res, 12)
    assert o.distinct_queries == 2


def test_init_direction_sweep_small_grids():
    rng = SplitMix64(21)
    for trial in range(120):
        n = 4 + rng.below(3)
        shape = (n, n, n)
        if trial % 2:
            inst = gen_target(shape, tuple(1 + rng.below(n) for _ in range(3)))
        else:
            inst = gen_random_monotone(shape, rng.next_u64())
        box = full_box(shape)
        k = norm1(box.lo) + 1 + rng.below(norm1(box.hi) - norm1(box.lo) - 1)
        level_pts = [p for p in iter_box(box) if norm1(p) == k]
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
    assert out.kind == DOWNWARD and norm1(out.point) <= 12


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
        if any(s < 2 for s in box.sides) or norm1(hi) - norm1(lo) < 2:
            continue
        k = norm1(lo) + 1 + rng.below(norm1(hi) - norm1(lo) - 1)
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
    # On a random bounding state that search_space lets shrink_once probe,
    # the probe lies on level k a sixth of each diameter inside both bounds
    # of S, and it is central_level_point of those pulled-in bounds.
    def above(point):
        return tuple(c + data.draw(strategies.integers(0, 80)) for c in point)

    lo = tuple(data.draw(strategies.integers(1, 1 << 20)) for _ in range(3))
    a = above(lo)
    b = above(a)
    hi = above(b)
    k = data.draw(strategies.integers(sum(a), sum(b)))
    state = state_from_coords(Box(lo, hi), k, a, b)
    view = search_space(state)
    assume(min(view.dia) >= 2 and max(view.dia) >= 6)
    oracle = _ScriptedOracle({}, fallback=lambda q: q)
    LevelsetSolver(oracle).shrink_once(state, view)
    (q,) = oracle.order
    step = tuple(-(-d // 6) for d in view.dia)
    lower = tuple(c + s for c, s in zip(view.ell, step))
    upper = tuple(c - s for c, s in zip(view.r, step))
    assert norm1(q) == k and leq(lower, q) and leq(q, upper)
    assert q == central_level_point(lower, upper, k)


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


def test_shrink_probe_spec_example():
    # bounds (1,1,1)..(7,7,7) with dia (6,6,6) at level 12: the probe is the
    # central level point (4,4,4) of the shrunken bounds [2..6]^3; their
    # greedy level point (6,4,2) would sit on the bounds of axes 0 and 2
    from tarski.lattice import level_point

    assert level_point((2, 2, 2), (6, 6, 6), 12) == (6, 4, 2)
    assert central_level_point((2, 2, 2), (6, 6, 6), 12) == (4, 4, 4)
    box = full_box((7, 7, 7))
    st = state_from_coords(box, 12, (1, 1, 1), (7, 7, 7))
    oracle = _ScriptedOracle({(4, 4, 4): (5, 4, 3)}, fallback=lambda q: q)
    solver = LevelsetSolver(oracle)
    res = solver.shrink_once(st, search_space(st))
    assert oracle.order == [(4, 4, 4)]
    assert isinstance(res, LevelState)
    # the probe was 1-upward (and 3-downward), so both bounds moved
    assert res.up[0][0] == (4, 4, 4)
    assert res.down[2][0] == (4, 4, 4)
    assert search_space(res).dia[0] <= 5


def test_small_case_interior_probe_spec_example():
    # bounds (2,2,2)..(4,4,4) at level 9 have the interior point (3,3,3)
    box = full_box((5, 5, 5))
    st = state_from_coords(box, 9, (2, 2, 2), (4, 4, 4))
    oracle = _ScriptedOracle({(3, 3, 3): (4, 3, 2)}, fallback=lambda q: q)
    solver = LevelsetSolver(oracle)
    res = solver.small_case_step(st, search_space(st))
    assert oracle.order == [(3, 3, 3)]
    assert isinstance(res, LevelState)


def test_small_case_probe_branch_all_upward_spec_example():
    # bounds (2,2,2)..(4,4,4) at level 8: no interior point; the three corner
    # probes are all i-upward, certifying (3,3,3) as an upward point. Its
    # order dual at level 10 probes one step below the upper corner; all
    # three i-downward certify (3,3,3) as a downward point.
    box = full_box((5, 5, 5))
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
        st = state_from_coords(box, k, (2, 2, 2), (4, 4, 4))
        oracle = _ScriptedOracle(script, fallback=lambda q: q)
        solver = LevelsetSolver(oracle)
        out = solver.small_case_step(st, search_space(st))
        assert oracle.order == list(script), kind
        assert out.kind == kind
        assert out.point == (3, 3, 3)
        assert norm1(out.point) >= k if kind == UPWARD else norm1(out.point) <= k


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
    assert norm1(out.point) <= 12


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
    """Fixed value map with a fallback; records query order."""

    def __init__(self, values, fallback):
        self.values = dict(values)
        self.fallback = fallback
        self.order = []
        self.distinct_queries = 0

    def query(self, x):
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


def test_solve_above_3d_is_dqy_call_for_call():
    # A grid with more than 3 dimensions goes to dqy_solve on the full box:
    # the same query calls, cache hits included, in the same order, and the
    # same answer or violation, in both verify_certificates modes.
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
    violations = 0
    for inst in instances:
        want = run(inst, lambda o: dqy_solve(o).fixed_point)
        violations += want[1][0] == "violation"
        for verify_certificates in (False, True):
            got = run(inst, lambda o: solve(o, verify_certificates=verify_certificates))
            assert got == want, (inst.shape, verify_certificates)
    assert violations >= 50, violations


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
            m_before = norm1(before.hi) - norm1(before.lo)
            m_after = norm1(after.hi) - norm1(after.lo)
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
            terminal = min(box.sides) == 1 or norm1(box.hi) - norm1(box.lo) <= 6
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
    assert solver._tighten(lo, hi, up) == ((4, 5, 3), (7, 7, 7))
    down = LevelOutcome(DOWNWARD, (7, 7, 7), (7, 6, 5))
    assert solver._tighten(lo, hi, down) == ((3, 3, 3), (7, 6, 5))
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
    assert solver._tighten((3, 3, 3), (7, 7, 7), up) == ((4, 5, 3), (7, 7, 7))
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
    # raised inside a level, inside a level after a tightening, by the
    # final scan after one and by the dqy delegation after one: each
    # violation leaves solve as the exception first raised, with the
    # tightening evidence merged in and no other exception chained to it
    from _families import raw_random_table

    cases = (
        (34, "endpoint", False),
        (79, "endpoint", True),
        (1, "no fixed point", True),
        (19, "binary search", True),
    )
    for seed, message, tightened in cases:
        solver = LevelsetSolver(CountedOracle(raw_random_table((6, 6, 6), seed)))
        with pytest.raises(MonotonicityViolation, match=message) as info:
            solver.solve()
        mv = info.value
        assert mv.__context__ is None and mv.__cause__ is None, seed
        assert bool(solver._evidence) == tightened
        assert set(solver._evidence) <= set(mv.implicated)


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
    assert phases <= {"init", "shrink", "small", "third", "outer", "brute"}
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
    assert phases == {"init", "shrink", "small", "third", "outer", "brute"}
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
