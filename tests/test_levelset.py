import io
import math

import pytest

from tarski.errors import MonotonicityViolation
from tarski.lattice import (
    Box,
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
    solve_level,
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
    rng = SplitMix64(11)
    checked = 0
    while checked < 400:
        sides = tuple(2 + rng.below(5) for _ in range(3))
        box = full_box(sides)
        k = norm1(box.lo) + 1 + rng.below(max(1, norm1(box.hi) - norm1(box.lo) - 1))
        a = tuple(1 + rng.below(s) for s in sides)
        b = tuple(ai + rng.below(s - ai + 1) for ai, s in zip(a, sides))
        st = state_from_coords(box, k, a, b)
        pts = enumerate_space(box, k, a, b)
        if not pts:
            with pytest.raises(MonotonicityViolation):
                search_space(st)
            continue
        view = search_space(st)
        for i in range(3):
            assert view.ell[i] == min(p[i] for p in pts)
            assert view.r[i] == max(p[i] for p in pts)
        checked += 1


# -- initialization --------------------------------------------------------


def test_init_direction_endpoint_example():
    # the first probe of the axis-0 search on this instance is the
    # coordinate-extreme point (8,1,3)
    from tarski.lattice import extreme_level_point

    box = full_box((8, 8, 8))
    assert extreme_level_point(box, 12, 0, 1) == (8, 1, 3)


def test_init_direction_postconditions():
    box = full_box((8, 8, 8))
    k = 12
    o = CountedOracle(gen_target((8, 8, 8), (4, 4, 4)))
    solver = LevelsetSolver(o)
    solver._level = k
    res = solver.init_direction(box, k, 0)
    assert isinstance(res, tuple)
    (up, f_up), (down, f_down) = res
    _, lab_up = classify(up, f_up)
    _, lab_down = classify(down, f_down)
    assert 0 in lab_up.i_upward
    assert 0 in lab_down.i_downward
    assert up[0] <= down[0]
    level_pts = [p for p in iter_box(box) if norm1(p) == k]
    assert up[0] == min(p[0] for p in level_pts)
    assert down[0] == max(p[0] for p in level_pts)


def test_init_direction_early_exit_all_up():
    box = full_box((8, 8, 8))
    o = CountedOracle(gen_target((8, 8, 8), (8, 8, 8)))
    solver = LevelsetSolver(o)
    solver._level = 12
    res = solver.init_direction(box, 12, 0)
    assert res.kind == UPWARD
    assert norm1(res.point) >= 12
    assert outcome_is_valid(o.instance, res, 12)


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
            o = CountedOracle(inst)
            solver = LevelsetSolver(o)
            solver._level = k
            res = solver.init_direction(box, k, axis)
            if isinstance(res, tuple):
                (up, f_up), (down, f_down) = res
                _, lab_up = classify(up, f_up)
                _, lab_down = classify(down, f_down)
                assert axis in lab_up.i_upward
                assert axis in lab_down.i_downward
                assert up[axis] == min(p[axis] for p in level_pts)
                assert down[axis] == max(p[axis] for p in level_pts)
            else:
                assert outcome_is_valid(inst, res, k)


# -- solve_level ------------------------------------------------------------


def test_solve_level_spec_examples():
    box = full_box((8, 8, 8))
    for target in [(4, 4, 4), (1, 1, 1), (8, 8, 8)]:
        inst = gen_target((8, 8, 8), target)
        out = solve_level(CountedOracle(inst), box, 12)
        assert outcome_is_valid(inst, out, 12)
    inst = gen_target((8, 8, 8), (1, 1, 1))
    out = solve_level(CountedOracle(inst), box, 12)
    assert out.kind == DOWNWARD and norm1(out.point) <= 12


def test_solve_level_valid_outcome_many_instances():
    box = full_box((5, 5, 5))
    for seed in range(200):
        inst = gen_random_monotone((5, 5, 5), seed)
        out = solve_level(CountedOracle(inst), box, 8)
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
        out = solve_level(CountedOracle(inst), box, k)
        assert outcome_is_valid(inst, out, k)
        assert box.contains(out.point)
        checked += 1


def test_solve_level_rejects_bad_preconditions():
    o = CountedOracle(gen_target((5, 5, 5), (2, 2, 2)))
    with pytest.raises(ValueError):
        solve_level(o, full_box((5, 5, 5)), 3)
    with pytest.raises(ValueError):
        solve_level(o, Box((1, 1, 1), (1, 5, 5)), 6)


def test_solve_level_query_budget_small():
    # every level call on a [6]^3 grid stays within a generous O(log) budget
    box = full_box((6, 6, 6))
    lg = math.ceil(math.log2(box.size))
    for seed in range(100):
        inst = gen_random_monotone((6, 6, 6), seed)
        o = CountedOracle(inst)
        solve_level(o, box, 9)
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
    from tarski.lattice import central_level_point, level_point

    assert level_point((2, 2, 2), (6, 6, 6), 12) == (6, 4, 2)
    assert central_level_point((2, 2, 2), (6, 6, 6), 12) == (4, 4, 4)
    box = full_box((7, 7, 7))
    st = state_from_coords(box, 12, (1, 1, 1), (7, 7, 7))
    oracle = _ScriptedOracle({(4, 4, 4): (5, 4, 3)}, fallback=lambda q: q)
    solver = LevelsetSolver(oracle)
    solver._level = 12
    res = solver.shrink_once(st)
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
    solver._level = 9
    res = solver.small_case_step(st)
    assert oracle.order == [(3, 3, 3)]
    assert isinstance(res, LevelState)


def test_small_case_probe_branch_all_upward_spec_example():
    # bounds (2,2,2)..(4,4,4) at level 8: no interior point; the three corner
    # probes are all i-upward, certifying (3,3,3) as an upward point
    box = full_box((5, 5, 5))
    st = state_from_coords(box, 8, (2, 2, 2), (4, 4, 4))
    oracle = _ScriptedOracle(
        {
            (2, 3, 3): (3, 3, 2),  # 1-upward (and 3-downward)
            (3, 2, 3): (2, 3, 3),  # 2-upward (and 1-downward)
            (3, 3, 2): (2, 3, 3),  # 3-upward (and 1-downward)
        },
        fallback=lambda q: q,
    )
    solver = LevelsetSolver(oracle)
    solver._level = 8
    out = solver.small_case_step(st)
    assert oracle.order == [(2, 3, 3), (3, 2, 3), (3, 3, 2)]
    assert out.kind == UPWARD
    assert out.point == (3, 3, 3)
    assert norm1(out.point) >= 8


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
    solver._level = 12
    x, y = (5, 2, 5), (3, 4, 5)
    cfg = Config("first", UPWARD, ((x, (6, 2, 4)), (y, (3, 5, 4))))
    out = solver.resolve_meet_join(cfg)
    assert out.kind == DOWNWARD
    assert out.point == (3, 2, 5)
    assert norm1(out.point) <= 12


def test_resolve_second_mirrored_flavor():
    o = CountedOracle(gen_target((8, 8, 8), (8, 8, 8)))
    solver = LevelsetSolver(o)
    solver._level = 12
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
                solver._level = k
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
    solver._level = 12
    out = solver.resolve_third(Config("third", None, ((x, fx), (y, fy)), axis=0), 12)
    assert oracle.order[0] == (5, 5, 2)
    assert out.kind in (UPWARD, DOWNWARD)


def test_resolve_third_degenerate_adjacent_bracket():
    # y_j == x_j - 1 certifies the meet with no queries at all
    x, y = (4, 6, 2), (5, 5, 2)
    fx, fy = (5, 5, 1), (4, 6, 2)
    oracle = _ScriptedOracle({}, fallback=lambda q: q)
    solver = LevelsetSolver(oracle)
    solver._level = 12
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
    solver._level = 12
    out = solver.resolve_third(Config("third", None, ((x, fx), (y, fy)), axis=0), 12)
    assert out.kind == UPWARD
    assert out.point == lub(x, y) == (5, 6, 6)
    assert o.distinct_queries == 0


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
    with pytest.raises(ValueError):
        solve(CountedOracle(gen_target((3, 3, 3, 3), (1, 1, 1, 1))))


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
    box = Box((3, 3, 3), (7, 7, 7))
    up = LevelOutcome(UPWARD, (3, 3, 3), (4, 5, 3))
    assert solver._tighten(box, up) == Box((4, 5, 3), (7, 7, 7))
    down = LevelOutcome(DOWNWARD, (7, 7, 7), (7, 6, 5))
    assert solver._tighten(box, down) == Box((3, 3, 3), (7, 6, 5))
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
    solver._phase, solver._level = "third", 12  # left over from the level
    box = Box((3, 3, 3), (7, 7, 7))
    up = LevelOutcome(UPWARD, (3, 3, 3), (4, 5, 3))
    assert solver._tighten(box, up) == Box((4, 5, 3), (7, 7, 7))
    assert oracle.order == [(4, 5, 3)]
    assert buf.getvalue().split("\t")[:4] == ["outer", "-1", "4,5,3", "4,6,4"]
    assert events == [
        ("certificate", {"kind": UPWARD, "point": (4, 5, 3), "verified": True})
    ]


def test_tighten_failures_raise_witnessed_violations():
    box = Box((3, 3, 3), (7, 7, 7))
    # the image of the upward corner leaves the box: with F(hi) <= hi the
    # pair (u, hi) violates monotonicity
    oracle = _ScriptedOracle({(3, 3, 3): (4, 8, 3)}, fallback=lambda q: q)
    with pytest.raises(MonotonicityViolation) as info:
        LevelsetSolver(oracle)._tighten(box, LevelOutcome(UPWARD, (3, 3, 3), (4, 8, 3)))
    assert ((3, 3, 3), (4, 8, 3)) in info.value.implicated
    w = info.value.witness
    assert w is not None and (w.x, w.y) == ((3, 3, 3), (7, 7, 7))
    # the image is not upward: (u, F(u)) itself is the violating pair
    oracle = _ScriptedOracle({(4, 5, 3): (4, 4, 3)}, fallback=lambda q: q)
    solver = LevelsetSolver(oracle, verify_certificates=True)
    with pytest.raises(MonotonicityViolation) as info:
        solver._tighten(box, LevelOutcome(UPWARD, (3, 3, 3), (4, 5, 3)))
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
                solver._level = k
                out = solver.resolve_meet_join(Config("first", flavor, pairs))
                assert outcome_is_valid(inst, out, k), (pts, flavor)
                firsts += 1
            for pts, flavor in planted_second_configs(inst, k):
                o = CountedOracle(inst)
                pairs = tuple((p, o.query(p)) for p in pts)
                solver = LevelsetSolver(o, verify_certificates=True)
                solver._level = k
                out = solver.resolve_meet_join(Config("second", flavor, pairs))
                assert outcome_is_valid(inst, out, k), (pts, flavor)
                seconds += 1
    assert firsts > 2 and seconds > 50, (firsts, seconds)


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
