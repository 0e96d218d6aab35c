import itertools
import random

import pytest

from tarski.errors import InfeasibleLevelError
from tarski.lattice import (
    Box,
    LabelSet,
    classify,
    extreme_level_point,
    full_box,
    glb,
    iter_box,
    leq,
    level_point,
    lub,
)


def test_leq_examples():
    assert leq((1, 2, 3), (1, 2, 3))
    assert leq((1, 5, 2), (2, 5, 3))
    assert not leq((1, 5, 2), (2, 4, 3))


def test_leq_dimension_mismatch():
    with pytest.raises(ValueError):
        leq((1, 2), (1, 2, 3))


def test_glb_lub_examples():
    assert glb((1, 5, 6), (3, 4, 5)) == (1, 4, 5)
    assert lub((1, 5, 6), (3, 4, 5)) == (3, 5, 6)
    assert glb((2, 2, 2)) == (2, 2, 2)


def test_glb_empty_rejected():
    with pytest.raises(ValueError):
        glb()
    with pytest.raises(ValueError):
        lub()


def test_iter_box_is_lazy_on_huge_sides():
    # no side's range is materialized: the first points come at once
    points = iter_box(full_box((6 * 2**40,) * 3))
    assert list(itertools.islice(points, 3)) == [(1, 1, 1), (1, 1, 2), (1, 1, 3)]


def test_iter_box_order_on_sub_boxes():
    # the points of each box in lexicographic order, first axis slowest,
    # whatever the box: off the origin, with pinched sides, a single point,
    # in one to four dimensions
    boxes = [
        Box((4,), (9,)),
        Box((3,), (3,)),
        Box((2, 5), (4, 6)),
        Box((3, 1), (3, 4)),
        Box((3, 2, 4), (6, 5, 7)),
        Box((5, 2, 6), (5, 6, 6)),
        Box((5, 4, 6), (5, 4, 6)),
        Box((2, 3, 3, 2), (4, 6, 3, 5)),
        Box((2, 2, 2, 2), (3, 4, 3, 4)),
        Box((7, 1, 2, 9), (7, 1, 2, 9)),
    ]
    for box in boxes:
        ranges = [range(a, b + 1) for a, b in zip(box.lo, box.hi)]
        assert list(iter_box(box)) == list(itertools.product(*ranges)), box


def test_lattice_laws_exhaustive_on_3_cube():
    pts = list(iter_box(full_box((3, 3, 3))))
    for x, y in itertools.product(pts, pts):
        m = glb(x, y)
        j = lub(x, y)
        assert leq(m, x) and leq(m, y)
        assert leq(x, j) and leq(y, j)
        assert glb(x, y) == glb(y, x)
        assert lub(x, y) == lub(y, x)
        assert glb(x, x) == x and lub(x, x) == x
    # associativity on a sample, greatest-lower-bound property exhaustively
    rnd = random.Random(7)
    for _ in range(200):
        x, y, z = rnd.choice(pts), rnd.choice(pts), rnd.choice(pts)
        assert glb(glb(x, y), z) == glb(x, glb(y, z))
        assert lub(lub(x, y), z) == lub(x, lub(y, z))
    for x, y in itertools.product(pts[:9], pts):
        m = glb(x, y)
        for z in pts:
            if leq(z, x) and leq(z, y):
                assert leq(z, m)


def test_box_validation_and_measures():
    b = Box((2, 3, 4), (5, 3, 6))
    assert b.sides == (4, 1, 3)
    assert b.size == 8
    assert b.volume == 12
    with pytest.raises(ValueError):
        Box((2, 2, 2), (1, 3, 3))


def test_classify_examples():
    s, labels = classify((2, 2, 2), (2, 2, 2))
    assert s == (0, 0, 0)
    assert labels.is_fixed and labels.is_upward and labels.is_downward

    s, labels = classify((2, 2, 2), (3, 2, 1))
    assert s == (1, 0, -1)
    assert labels.i_upward == (0,) and labels.i_downward == (2,)
    assert not labels.is_upward and not labels.is_downward

    s, labels = classify((2, 2, 2), (3, 3, 1))
    assert s == (1, 1, -1)
    assert labels.i_upward == () and labels.i_downward == (2,)


def test_classify_completeness_all_27_sign_vectors():
    # every 3D sign vector yields at least one label
    base = (2, 2, 2)
    for signs in itertools.product((-1, 0, 1), repeat=3):
        fx = tuple(b + s for b, s in zip(base, signs))
        _, labels = classify(base, fx)
        nonempty = (
            labels.is_upward
            or labels.is_downward
            or labels.i_upward
            or labels.i_downward
        )
        assert nonempty, signs


def test_classify_matches_definition():
    # every sign vector in one to four dimensions, against the definitions
    # written out literally
    for d in range(1, 5):
        base = (2,) * d
        for signs in itertools.product((-1, 0, 1), repeat=d):
            fx = tuple(b + s for b, s in zip(base, signs))
            got_signs, labels = classify(base, fx)
            up = all(s >= 0 for s in signs)
            down = all(s <= 0 for s in signs)
            i_up = tuple(
                i for i, s in enumerate(signs)
                if s > 0 and all(t <= 0 for j, t in enumerate(signs) if j != i)
            )
            i_down = tuple(
                i for i, s in enumerate(signs)
                if s < 0 and all(t >= 0 for j, t in enumerate(signs) if j != i)
            )
            assert got_signs == signs
            assert labels == LabelSet(up and down, up, down, i_up, i_down), signs


def test_level_point_examples():
    assert level_point((1, 1, 1), (1, 1, 1), 3) == (1, 1, 1)
    assert level_point((1, 1, 1), (4, 4, 4), 12) == (4, 4, 4)
    # shares round down to (2,2,2); the remainder goes to axis 0 first
    assert level_point((1, 1, 1), (4, 4, 4), 7) == (3, 2, 2)
    # ... skipping an axis with no room
    assert level_point((2, 1, 1), (2, 3, 3), 5) == (2, 2, 1)


def test_level_point_infeasible():
    with pytest.raises(InfeasibleLevelError):
        level_point((1, 1, 1), (2, 2, 2), 7)
    with pytest.raises(InfeasibleLevelError):
        level_point((2, 2, 2), (1, 3, 3), 6)


def test_level_point_postcondition_random():
    rnd = random.Random(42)
    for _ in range(500):
        lower = tuple(rnd.randint(1, 10) for _ in range(3))
        upper = tuple(c + rnd.randint(0, 8) for c in lower)
        k = rnd.randint(sum(lower), sum(upper))
        q = level_point(lower, upper, k)
        assert leq(lower, q) and leq(q, upper)
        assert sum(q) == k


def test_central_level_point_examples():
    # every coordinate covers the same share of its range: the point where
    # the level crosses the segment from lower to upper, in 1 to 4 dimensions
    assert level_point((1,), (9,), 5) == (5,)
    assert level_point((1, 1), (5, 9), 8) == (3, 5)
    assert level_point((2, 2, 2), (6, 6, 6), 12) == (4, 4, 4)
    assert level_point((1, 1, 1), (1, 5, 9), 9) == (1, 3, 5)
    assert level_point((1, 1, 1, 1), (3, 5, 7, 9), 14) == (2, 3, 4, 5)


def test_central_level_point_infeasible():
    # a level below the lower bound's sum
    with pytest.raises(InfeasibleLevelError):
        level_point((3, 3), (5, 5), 5)
    # a one-point segment asked for another level
    with pytest.raises(InfeasibleLevelError):
        level_point((2, 2), (2, 2), 5)
    # bounds crossed on one axis, with the level between their sums
    with pytest.raises(InfeasibleLevelError):
        level_point((1, 2, 1, 1), (3, 1, 3, 3), 7)


def test_central_level_point_postcondition_random():
    # q is the segment point rounded down, with the remainder (less than the
    # dimension) raised to the upper bounds on a prefix of the axes
    rnd = random.Random(7)
    for _ in range(500):
        n = rnd.randint(1, 5)
        lower = tuple(rnd.randint(1, 10) for _ in range(n))
        upper = tuple(c + rnd.randint(0, 8) for c in lower)
        k = rnd.randint(sum(lower), sum(upper))
        q = level_point(lower, upper, k)
        width = sum(upper) - sum(lower)
        share = [
            a + (k - sum(lower)) * (b - a) // width if width else a
            for a, b in zip(lower, upper)
        ]
        assert all(s <= c <= b for s, c, b in zip(share, q, upper))
        assert sum(q) == k and k - sum(share) < n
        raised = [i for i in range(n) if q[i] > share[i]]
        if raised:
            assert all(q[j] == upper[j] for j in range(raised[-1]))


def test_extreme_level_point_examples():
    cube8 = full_box((8, 8, 8))
    assert extreme_level_point(cube8, 12, 0, 1) == (8, 1, 3)
    assert extreme_level_point(cube8, 22, 0, 1) == (8, 6, 8)
    cube4 = full_box((4, 4, 4))
    assert extreme_level_point(cube4, 6, 2, 0) == (1, 1, 4)


def test_extreme_level_point_infeasible_and_bad_axes():
    with pytest.raises(InfeasibleLevelError):
        extreme_level_point(full_box((3, 3, 3)), 10, 0, 1)
    with pytest.raises(ValueError):
        extreme_level_point(full_box((3, 3, 3)), 5, 1, 1)


def test_extreme_level_point_refuses_a_2d_box():
    with pytest.raises(ValueError, match="extreme_level_point is defined for 3D boxes"):
        extreme_level_point(full_box((4, 4)), 4, 0, 1)


def _brute_extreme(box, k, max_coord, min_coord):
    best = None
    for p in iter_box(box):
        if sum(p) != k:
            continue
        key = (-p[max_coord], p[min_coord])
        if best is None or key < best[0]:
            best = (key, p)
    return None if best is None else best[1]


def test_extreme_level_point_matches_bruteforce():
    rnd = random.Random(3)
    boxes = [full_box((s, s, s)) for s in (2, 3, 4, 5)]
    for _ in range(40):
        lo = tuple(rnd.randint(1, 3) for _ in range(3))
        hi = tuple(c + rnd.randint(0, 4) for c in lo)
        boxes.append(Box(lo, hi))
    for box in boxes:
        for k in range(sum(box.lo), sum(box.hi) + 1):
            for max_coord, min_coord in itertools.permutations(range(3), 2):
                want = _brute_extreme(box, k, max_coord, min_coord)
                got = extreme_level_point(box, k, max_coord, min_coord)
                assert got == want, (box, k, max_coord, min_coord)
