"""Reference solvers: recursive binary search (dqy) and exhaustive scan.

dqy_solve is the classic O(log^d N)-query scheme: binary search the last
free axis, solving each slice as a (d-1)-dimensional sub-instance. It serves
as a correctness oracle, as the fallback for boxes with pinched sides, and
as the scaling comparison for the levelset solver. The innermost axis
bisects in its caller's loop, and every query call of the plain recursion
is kept, cache hits included, as traces record each call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MonotonicityViolation
from .lattice import Box, Point, full_box, iter_box
from .oracle import _check_dense


@dataclass(frozen=True)
class BaselineReport:
    fixed_point: Point


def dqy_solve(oracle, box: Box | None = None) -> BaselineReport:
    """Fixed point of F restricted to a box with certified corners.

    With no box, solves the full grid (whose corners are certified for free:
    F maps the grid into itself).
    """
    if box is None:
        box = full_box(oracle.instance.shape)
    axes = [a for a in range(len(box.lo)) if box.lo[a] < box.hi[a]]
    point = (
        _solve_rec(oracle, box.lo, box.hi, axes, (box.lo, None), (box.hi, None))
        if axes
        else box.lo
    )
    fp = oracle.query(point)
    if fp != point:
        raise MonotonicityViolation(
            f"candidate {point} is not fixed",
            implicated=((point, fp), (box.lo, oracle.query(box.lo)), (box.hi, oracle.query(box.hi))),
        )
    return BaselineReport(point)


def _solve_rec(oracle, lo: Point, hi: Point, axes, floor_ev, ceil_ev) -> Point:
    """Point fixed in every coordinate of ``axes`` within [lo, hi].

    Invariant: coordinates outside ``axes`` agree between lo and hi, and the
    corners bracket the restriction (F(lo)_a >= lo_a and F(hi)_a <= hi_a for
    a in axes). Binary search on the last axis; at each midpoint solve the
    slice recursively, then step toward the side its value points to.
    ``axes`` is never empty. The innermost axis bisects in its caller's
    loop: with no axis left in ``rest``, the probe is the slice's lower
    corner itself, where a plain recursion would spend one frame per step
    on a slice with no free axis only to return that corner.

    Every query call of that plain recursion is kept, in the same order,
    cache hits included (each step re-queries the answer its slice has
    already queried), as a levelset trace writes one record per call.

    floor_ev / ceil_ev are (point, value) pairs backing the current corner
    certificates (value None for a root corner, queried on failure). When the
    bracket runs empty, which cannot happen for monotone F, the two evidence
    pairs contain an explicit violating pair.
    """
    query = oracle.query
    axis = axes[-1]
    rest = axes[:-1]
    a, b = lo[axis], hi[axis]
    cur_lo, cur_hi = lo, hi
    while a <= b:
        m = (a + b) // 2
        y = cur_lo[:axis] + (m,) + cur_lo[axis + 1 :]
        if rest:
            y = _solve_rec(
                oracle, y, cur_hi[:axis] + (m,) + cur_hi[axis + 1 :], rest, floor_ev, ceil_ev
            )
        fy = query(y)
        v = fy[axis]
        if v == m:
            return y
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


def brute_solve(oracle, box: Box | None = None) -> Point:
    """First fixed point of the box in lexicographic order."""
    if box is None:
        box = full_box(oracle.instance.shape)
    _check_dense(box.volume, "brute_solve")
    scanned = []
    for x in iter_box(box):
        fx = oracle.query(x)
        if fx == x:
            return x
        if len(scanned) < 32:
            scanned.append((x, fx))
    # box.lo was scanned first; box.hi, scanned last, is (x, fx) now.
    if scanned[-1][0] != x:
        scanned.append((x, fx))
    raise MonotonicityViolation(
        "no fixed point in a certified box", implicated=tuple(scanned)
    )
