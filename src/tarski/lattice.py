"""Integer-grid lattice primitives.

Grid points are plain tuples of ints (1-based coordinates). The componentwise
partial order makes any box [lo, hi] a complete lattice; the solvers navigate
it through levelsets, the sets of points with a fixed coordinate sum.
level_point is the central point of a level between two bounds, the probe
that the levelset solver's shrink step writes out inline on the bounds it
pulls in. Everything here is a pure function, safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleLevelError

Point = tuple[int, ...]
SignVector = tuple[int, ...]


def _same_dim(x: Point, y: Point) -> None:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")


def leq(x: Point, y: Point) -> bool:
    """Componentwise order: true iff x_i <= y_i for every i."""
    _same_dim(x, y)
    return all(a <= b for a, b in zip(x, y))


def glb(*points: Point) -> Point:
    """Greatest lower bound (componentwise minimum) of one or more points."""
    if not points:
        raise ValueError("glb of an empty collection")
    for p in points[1:]:
        _same_dim(points[0], p)
    return tuple(min(cs) for cs in zip(*points))


def lub(*points: Point) -> Point:
    """Least upper bound (componentwise maximum) of one or more points."""
    if not points:
        raise ValueError("lub of an empty collection")
    for p in points[1:]:
        _same_dim(points[0], p)
    return tuple(max(cs) for cs in zip(*points))


@dataclass(frozen=True)
class Box:
    """Inclusive sub-grid [lo, hi]; the recursion domain of the solvers."""

    lo: Point
    hi: Point

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        _same_dim(lo, hi)
        for a, b in zip(lo, hi):
            if a > b:
                raise ValueError(f"empty box {lo}..{hi}")

    @property
    def sides(self) -> tuple[int, ...]:
        return tuple([b - a + 1 for a, b in zip(self.lo, self.hi)])

    @property
    def size(self) -> int:
        """Additive size measure: the sum of the side lengths."""
        return sum(self.sides)

    @property
    def volume(self) -> int:
        return math.prod(self.sides)


def _check_shape(shape: tuple[int, ...]) -> None:
    """ValueError unless shape is a tuple of at least one side and every
    side is a positive int: the one shape check of full_box and of the
    instances."""
    if type(shape) is not tuple or not shape or any(type(n) is not int or n < 1 for n in shape):
        raise ValueError(f"invalid shape {shape}")


def full_box(shape) -> Box:
    """The whole grid [1, n_1] x ... x [1, n_d] as a box."""
    shape = tuple(shape)
    _check_shape(shape)
    return Box((1,) * len(shape), shape)


def iter_box(box: Box):
    """Yield the points of a box in lexicographic order (first axis slowest).

    Lazy on every axis: no side's range is materialized, so a box with huge
    sides yields its first points at once.
    """
    points = iter(((),))
    for a, b in zip(box.lo, box.hi):
        points = _extend(points, range(a, b + 1))
    return points


def _extend(prefixes, coords):
    """Each prefix followed by each coordinate, in order."""
    for p in prefixes:
        for c in coords:
            yield p + (c,)


@dataclass(frozen=True)
class LabelSet:
    """All order relations a point has to its function value.

    Labels overlap on purpose: a point with signs (+1, 0, -1) is both 1-upward
    and 3-downward, and callers pick whichever serves them. Axes are 0-based.
    """

    is_fixed: bool
    is_upward: bool
    is_downward: bool
    i_upward: tuple[int, ...]
    i_downward: tuple[int, ...]


def classify(x: Point, fx: Point) -> tuple[SignVector, LabelSet]:
    """Sign vector of F(x) - x and the labels it implies.

    x is upward iff F(x) >= x, downward iff F(x) <= x, fixed iff both;
    i-upward iff strictly up in coordinate i and weakly down elsewhere,
    i-downward symmetrically. In 3D the label set is never empty.
    """
    _same_dim(x, fx)
    signs = tuple([(f > c) - (f < c) for c, f in zip(x, fx)])
    rises = [i for i, s in enumerate(signs) if s > 0]
    falls = [i for i, s in enumerate(signs) if s < 0]
    # i-upward means that i is the only coordinate F raises; dually i-downward.
    return signs, LabelSet(
        not rises and not falls,
        not falls,
        not rises,
        tuple(rises) if len(rises) == 1 else (),
        tuple(falls) if len(falls) == 1 else (),
    )


def level_point(lower: Point, upper: Point, k: int) -> Point:
    """A point q with lower <= q <= upper and sum(q) == k: the central one,
    where level k crosses the segment from lower to upper.

    Every coordinate covers the same share (k - sum(lower)) /
    (sum(upper) - sum(lower)) of its range, rounded down; the rounding
    remainder goes up to the upper bounds in axis order.
    """
    _same_dim(lower, upper)
    lo_sum, hi_sum = sum(lower), sum(upper)
    if not lo_sum <= k <= hi_sum or not all(a <= b for a, b in zip(lower, upper)):
        raise InfeasibleLevelError(
            f"no point with sum {k} inside {lower}..{upper}"
        )
    # lower == upper makes the width 0 and every numerator 0.
    width = hi_sum - lo_sum or 1
    q = [a + (k - lo_sum) * (b - a) // width for a, b in zip(lower, upper)]
    deficit = k - sum(q)
    for i in range(len(q)):
        if deficit == 0:
            break
        step = min(upper[i] - q[i], deficit)
        q[i] += step
        deficit -= step
    return tuple(q)


def extreme_level_point(box: Box, k: int, max_coord: int, min_coord: int) -> Point:
    """The point of box-level-k that maximizes one coordinate, then minimizes another.

    3D only. The third coordinate is determined by the level. Closed form:
    clamp the maximized coordinate against the box, push the minimized one as
    low as the remaining sum allows.
    """
    if len(box.lo) != 3:
        raise ValueError("extreme_level_point is defined for 3D boxes")
    if max_coord == min_coord or not {max_coord, min_coord} <= {0, 1, 2}:
        raise ValueError(f"invalid axes ({max_coord}, {min_coord})")
    lo, hi = box.lo, box.hi
    if not lo[0] + lo[1] + lo[2] <= k <= hi[0] + hi[1] + hi[2]:
        raise InfeasibleLevelError(f"level {k} misses box {lo}..{hi}")
    i, j = max_coord, min_coord
    p = 3 - i - j
    vi = min(hi[i], k - lo[j] - lo[p])
    vj = max(lo[j], k - vi - hi[p])
    out = [0, 0, 0]
    out[i], out[j], out[p] = vi, vj, k - vi - vj
    return tuple(out)
