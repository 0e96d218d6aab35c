"""Reference solvers: recursive binary search (dqy) and exhaustive scan.

dqy_solve is the classic O(log^d N)-query scheme: binary search the last
free axis, solving each slice as a (d-1)-dimensional sub-instance. It serves
as a correctness oracle, as the scaling comparison for the levelset solver,
and inside that solver for grids that are not 3D, for boxes with pinched
sides and for the constant-size tail of a solve. Its core, _dqy_point,
takes a bare query function and bare corners: that solver hands it the one
query function its solve runs on, which writes the trace when there is one.
Each solver here returns a point that its own last query answered with
itself: for dqy the probe that found the point, for brute_solve the scan's
query that reached it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MonotonicityViolation
from .lattice import Point, full_box, iter_box
from .oracle import _check_dense


@dataclass(frozen=True)
class BaselineReport:
    fixed_point: Point


def dqy_solve(oracle) -> BaselineReport:
    """Fixed point of F on the oracle's full grid, whose corners are
    certified for free: F maps the grid into itself."""
    shape = oracle.instance.shape
    return BaselineReport(_dqy_point(oracle.query, (1,) * len(shape), shape))


def _dqy_point(query, lo: Point, hi: Point) -> Point:
    """dqy_solve's fixed point of the box [lo, hi] with certified corners,
    asking F through the function query, for callers that hold bare corners
    and want the bare point."""
    axes = [a for a in range(len(lo)) if lo[a] < hi[a]]
    point, fp = _solve_rec(query, lo, hi, axes, (lo, None), (hi, None)) if axes else (lo, query(lo))
    if fp != point:
        raise MonotonicityViolation(
            f"candidate {point} is not fixed",
            implicated=((point, fp), (lo, query(lo)), (hi, query(hi))),
        )
    return point


def _solve_rec(query, lo: Point, hi: Point, axes, floor_ev, ceil_ev) -> tuple[Point, Point]:
    """Pair (y, F(y)) with y fixed in every coordinate of ``axes`` within [lo, hi].

    Invariant: coordinates outside ``axes`` agree between lo and hi, and the
    corners bracket the restriction (F(lo)_a >= lo_a and F(hi)_a <= hi_a for
    a in axes). Binary search on the last axis; at each midpoint solve the
    slice recursively, then step toward the side that F of the slice's
    answer, returned with it, points to. So no point is queried twice on
    the way to an answer.
    ``axes`` is never empty. The innermost axis bisects in its caller's
    loop: with no axis left in ``rest``, the probe is the slice's lower
    corner itself, where a plain recursion would spend one frame per step
    on a slice with no free axis only to return that corner.

    floor_ev / ceil_ev are (point, value) pairs backing the current corner
    certificates (value None for a root corner, queried on failure). When the
    bracket runs empty, which cannot happen for monotone F, the two evidence
    pairs contain an explicit violating pair.
    """
    axis = axes[-1]
    rest = axes[:-1]
    a, b = lo[axis], hi[axis]
    cur_lo, cur_hi = lo, hi
    while a <= b:
        m = (a + b) // 2
        y = cur_lo[:axis] + (m,) + cur_lo[axis + 1 :]
        y, fy = _solve_rec(
            query, y, cur_hi[:axis] + (m,) + cur_hi[axis + 1 :], rest, floor_ev, ceil_ev
        ) if rest else (y, query(y))
        v = fy[axis]
        if v == m:
            return y, fy
        if v > m:
            cur_lo = y
            floor_ev = (y, fy)
            a = m + 1
        else:
            cur_hi = y
            ceil_ev = (y, fy)
            b = m - 1
    raise MonotonicityViolation(
        f"binary search on axis {axis} exhausted its bracket",
        implicated=(
            (floor_ev[0], floor_ev[1] if floor_ev[1] is not None else query(floor_ev[0])),
            (ceil_ev[0], ceil_ev[1] if ceil_ev[1] is not None else query(ceil_ev[0])),
            (cur_lo, query(cur_lo)),
            (cur_hi, query(cur_hi)),
        ),
    )


def brute_solve(oracle) -> Point:
    """First fixed point of the oracle's grid in lexicographic order."""
    box = full_box(oracle.instance.shape)
    _check_dense(box.volume, "brute_solve")
    query = oracle.query
    scanned = []
    for x in iter_box(box):
        fx = query(x)
        if fx == x:
            return x
        if len(scanned) < 32:
            scanned.append((x, fx))
    # box.lo was scanned first; box.hi, scanned last, is (x, fx) now, listed once if already kept.
    scanned.append((x, fx))
    raise MonotonicityViolation(
        "no fixed point in a certified box", implicated=tuple(scanned)
    )
