"""Levelset search for Tarski fixed points on 3D integer grids.

The outer loop keeps a box whose corners are certified upward/downward and
repeatedly runs the level procedure on the middle levelset, which yields an
upward point at-or-above the level or a downward point at-or-below it; the
box then shrinks to the half the certificate selects, and a constant-size
remainder is scanned directly. When the certificate came from a query, its
already known image is upward (resp. downward) too and becomes the corner
before the next level, for free. Each level costs O(log N) distinct queries,
so a full solve costs O(log^2 N), N being the sum of the side lengths.

The level procedure maintains six bounding points on the levelset: for each
axis i an i-upward point up(i) and an i-downward point down(i) with
up(i)_i <= down(i)_i. They induce a remaining search space S (the levelset
points between the bounds) which shrinks geometrically: while some diameter
is large, one query at the centre of the bounds pulled in by a sixth of each
diameter makes every label it can receive move a bound by at least that
sixth; once S is constant-sized, single probes keep making progress; once
some diameter is <= 1, the six bounding points must contain a first,
second, or third configuration, and each of those resolves into the
required upward/downward point, the first two by pure meet/join reasoning,
the third by one more binary search.

Monotonicity is only ever used locally. When a case analysis that is
exhaustive for monotone F falls through, the solver raises
MonotonicityViolation carrying the constant-size set of (point, value)
pairs it was looking at, plus the pair (u, F(u)) behind every corner the
outer loop moved to an image.

Each mirrored pair of cases is written once, for a direction sign s: s = +1
reads its comparisons as written, s = -1 reads them in the order dual, which
swaps upward with downward, i-upward with i-downward, and meet with join.

A level has one path, the one solve runs: _solve_level on bare corners
and a level the outer loop holds strictly inside its box, which makes the
six init searches, then the shrink and small steps, then the configuration
resolution. It checks neither its level nor its box sides, which the outer
loop meets by construction, and it builds a Box only for a level that gets
past init, for observer payloads and for the baselines. No step checks its
arguments: _run_level tests the diameters that pick the shrink or the small
step before it calls either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .baseline import brute_solve, dqy_solve
from .errors import MonotonicityViolation
from .lattice import (
    Box,
    LabelSet,
    Point,
    classify,
    glb,
    level_point,
    lub,
)

FIXED = "fixed"
UPWARD = "upward"
DOWNWARD = "downward"

PHASE_INIT = "init"
PHASE_SHRINK = "shrink"
PHASE_SMALL = "small"
PHASE_THIRD = "third"
PHASE_OUTER = "outer"
PHASE_BRUTE = "brute"

# The two ends of a bracket on an init or third-configuration segment, as
# indices into it.
_LOW = 0
_HIGH = 1

# The two axes other than each axis, in increasing order.
_OTHERS = ((1, 2), (0, 2), (0, 1))


@dataclass(slots=True)
class LevelOutcome:
    """Result of one level: a fixed point, or an upward point with coordinate
    sum >= the level, or a downward point with sum <= the level. fvalue is
    F(point) when the certificate came from a query, None when it is implied
    by monotonicity."""

    kind: str
    point: Point
    fvalue: Point | None = None


@dataclass
class LevelState:
    """The six bounding points of one level run, with their cached F-values."""

    box: Box
    k: int
    up: list[tuple[Point, Point]]
    down: list[tuple[Point, Point]]

    def pairs(self) -> tuple[tuple[Point, Point], ...]:
        return tuple(self.up) + tuple(self.down)

    def snapshot(self) -> dict:
        return {
            "box": self.box,
            "k": self.k,
            "up": tuple(self.up),
            "down": tuple(self.down),
        }


class SearchSpaceView(NamedTuple):
    """Tight per-axis bounds of the remaining search space and its diameter."""

    ell: Point
    r: Point
    dia: tuple[int, ...]


@dataclass(frozen=True)
class Config:
    """A first/second/third configuration among the six bounding points."""

    kind: str
    flavor: str | None
    points: tuple[tuple[Point, Point], ...]
    axis: int | None = None


def search_space(state: LevelState) -> SearchSpaceView:
    """Per-axis min (ell) and max (r) over S, and dia = r - ell.

    S is the set of levelset points bounded per-axis by the up/down pair;
    the coordinate bounds follow from the per-axis constraints plus the fixed
    coordinate sum, clamped to the box. Both bounds are attained by points
    of S whenever S is nonempty.
    """
    (lo0, lo1, lo2), (hi0, hi1, hi2) = state.box.lo, state.box.hi
    k = state.k
    up, down = state.up, state.down
    # Every min and max written out: a two-argument builtin min or max costs a call on CPython.
    # The per-axis bounds a_i = up(i)_i and b_i = down(i)_i, clamped to the box.
    a0, a1, a2 = up[0][0][0], up[1][0][1], up[2][0][2]
    b0, b1, b2 = down[0][0][0], down[1][0][1], down[2][0][2]
    a0 = a0 if a0 > lo0 else lo0
    a1 = a1 if a1 > lo1 else lo1
    a2 = a2 if a2 > lo2 else lo2
    b0 = b0 if b0 < hi0 else hi0
    b1 = b1 if b1 < hi1 else hi1
    b2 = b2 if b2 < hi2 else hi2
    # Then each bound as far as the other two axes' bounds and the level sum allow.
    e0, e1, e2 = k - b1 - b2, k - b0 - b2, k - b0 - b1
    r0, r1, r2 = k - a1 - a2, k - a0 - a2, k - a0 - a1
    e0 = e0 if e0 > a0 else a0
    e1 = e1 if e1 > a1 else a1
    e2 = e2 if e2 > a2 else a2
    r0 = r0 if r0 < b0 else b0
    r1 = r1 if r1 < b1 else b1
    r2 = r2 if r2 < b2 else b2
    d0, d1, d2 = r0 - e0, r1 - e1, r2 - e2
    if d0 < 0 or d1 < 0 or d2 < 0:
        raise MonotonicityViolation(
            "remaining search space is empty", implicated=state.pairs()
        )
    return SearchSpaceView((e0, e1, e2), (r0, r1, r2), (d0, d1, d2))


def find_configuration(state: LevelState) -> Config:
    """Scan the six bounding points for a configuration, cheapest kind first.

    first: an i-upward x and j-upward y with x_i >= y_i and x_j <= y_j (or
    the downward mirror); meet/join resolves it with zero queries. second:
    a cyclic triple of the same shape. third: some pair up(i), down(i) with
    down(i)_i at most one above up(i)_i; costs one more binary search. One of
    them must exist once some diameter of S is <= 1.
    """
    flavors = ((1, state.up), (-1, state.down))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for s, pairs in flavors:
                x, y = pairs[i][0], pairs[j][0]
                if s * (x[i] - y[i]) >= 0 and s * (y[j] - x[j]) >= 0:
                    return Config("first", _kind(s), (pairs[i], pairs[j]))
    for i, j, p in ((0, 1, 2), (0, 2, 1)):
        for s, pairs in flavors:
            x, y, z = pairs[i][0], pairs[j][0], pairs[p][0]
            if s * (x[i] - y[i]) >= 0 and s * (y[j] - z[j]) >= 0 and s * (z[p] - x[p]) >= 0:
                return Config("second", _kind(s), (pairs[i], pairs[j], pairs[p]))
    for i in range(3):
        if state.down[i][0][i] - state.up[i][0][i] <= 1:
            return Config("third", None, (state.up[i], state.down[i]), axis=i)
    raise MonotonicityViolation(
        "no configuration among the bounding points", implicated=state.pairs()
    )


def _kind(s: int) -> str:
    """UPWARD for direction +1, DOWNWARD for -1."""
    return UPWARD if s > 0 else DOWNWARD


def _meet_outcome(s: int, points) -> LevelOutcome:
    """The meet of the points as a downward certificate for s = +1, their
    join as an upward one for s = -1."""
    return LevelOutcome(_kind(-s), glb(*points) if s > 0 else lub(*points))


def _segment_point(i: int, ci: int, j: int, cj: int, k: int) -> Point:
    """The point of level k with coordinates ci on axis i and cj on axis j."""
    q = [k - ci - cj] * 3
    q[i], q[j] = ci, cj
    return tuple(q)


def _fmt_point(p: Point) -> str:
    return ",".join(str(c) for c in p)


def _label_tokens(labels: LabelSet) -> str:
    toks = []
    if labels.is_fixed:
        toks.append("fixed")
    if labels.is_upward:
        toks.append("up")
    if labels.is_downward:
        toks.append("down")
    toks.extend(f"up{i + 1}" for i in labels.i_upward)
    toks.extend(f"dn{i + 1}" for i in labels.i_downward)
    return ",".join(toks)


def _step_payload(before: LevelState, view: SearchSpaceView, res, **probe) -> dict:
    """Observer payload of one shrink or small step: the state before it,
    its view, the probe (shrink only), and its outcome or the diameters it
    left."""
    done = isinstance(res, LevelOutcome)
    return {
        "state_before": before.snapshot(),
        "view": view,
        **probe,
        "outcome": res if done else None,
        "dia_after": None if done else search_space(res).dia,
    }


class LevelsetSolver:
    """One solve run over one oracle. Strictly sequential; make a fresh
    solver (and oracle) per run.

    verify_certificates: spend one query on every monotonicity-implied
    upward/downward certificate and raise on mismatch instead of trusting it.
    trace: file-like object receiving one tab-separated record per query
    call: phase, level, point, F(point), labels.
    observer: callable(event, payload) fed solver progress; used by tests.
    Payloads are built only when an observer is attached, so a solve
    without one spends nothing on them.

    Every query, the solver's own and its baselines', goes through one
    oracle picked here: the given one, or with a trace a wrapper writing it.
    """

    def __init__(self, oracle, *, verify_certificates: bool = False,
                 trace=None, observer=None):
        self.oracle = oracle
        self.verify_certificates = verify_certificates
        self.observer = observer
        self._oracle = oracle if trace is None else _TracingOracle(self, trace)
        self._context = (PHASE_OUTER, -1)  # (phase, level) of a traced query
        self._evidence: tuple[tuple[Point, Point], ...] = ()

    # -- plumbing ---------------------------------------------------------

    def _corner_pairs(self, lo: Point, hi: Point):
        return ((lo, self._oracle.query(lo)), (hi, self._oracle.query(hi)))

    def _certify(self, outcome: LevelOutcome, sources) -> LevelOutcome:
        """Record an implied certificate; in debug mode confirm it by query."""
        verified = False
        if self.verify_certificates:
            fq = self._oracle.query(outcome.point)
            _, labels = classify(outcome.point, fq)
            if not (labels.is_upward if outcome.kind == UPWARD else labels.is_downward):
                raise MonotonicityViolation(
                    f"implied {outcome.kind} certificate failed at {outcome.point}",
                    implicated=tuple(sources) + ((outcome.point, fq),),
                )
            outcome = LevelOutcome(outcome.kind, outcome.point, fq)
            verified = True
        if self.observer is not None:
            self.observer(
                "certificate", {"kind": outcome.kind, "point": outcome.point, "verified": verified}
            )
        return outcome

    def _apply_query(self, state: LevelState, q: Point, fq: Point):
        """The outcome when q is fixed, upward or downward; otherwise a new
        state, with the bounds q's labels select moved to q.

        The labels are those of classify, read off the signs directly: q is
        i-upward when i is the only axis F raises, i-downward when i is the
        only axis F lowers."""
        d0, d1, d2 = fq[0] - q[0], fq[1] - q[1], fq[2] - q[2]
        if d0 >= 0 and d1 >= 0 and d2 >= 0:
            return LevelOutcome(FIXED if d0 == d1 == d2 == 0 else UPWARD, q, fq)
        if d0 <= 0 and d1 <= 0 and d2 <= 0:
            return LevelOutcome(DOWNWARD, q, fq)
        up, down = list(state.up), list(state.down)
        if (d0 > 0) + (d1 > 0) + (d2 > 0) == 1:
            up[0 if d0 > 0 else 1 if d1 > 0 else 2] = (q, fq)
        if (d0 < 0) + (d1 < 0) + (d2 < 0) == 1:
            down[0 if d0 < 0 else 1 if d1 < 0 else 2] = (q, fq)
        return LevelState(state.box, state.k, up, down)

    # -- outer loop -------------------------------------------------------

    def solve(self) -> Point:
        """Run the full algorithm on the oracle's grid and return a fixed
        point, one the oracle has answered with itself. A grid that is not
        3D goes to the binary search baseline on the full box."""
        shape = self.oracle.instance.shape
        # The current box is [lo, hi], with corner sums lo_sum and hi_sum.
        lo, hi = (1,) * len(shape), shape
        lo_sum, hi_sum = len(shape), sum(shape)
        pending = None  # the last level's queried outcome, not yet tightened
        try:
            while True:
                if len(shape) != 3 or lo[0] == hi[0] or lo[1] == hi[1] or lo[2] == hi[2]:
                    # A pinched side has no i-upward or i-downward point for a level to grab.
                    self._context = (PHASE_OUTER, -1)
                    return dqy_solve(self._oracle, Box(lo, hi)).fixed_point
                if hi_sum - lo_sum <= 6:
                    self._context = (PHASE_BRUTE, -1)
                    return brute_solve(self._oracle, Box(lo, hi))
                if pending is not None:
                    lo, hi = self._tighten(lo, hi, pending)
                    pending = None
                    lo_sum, hi_sum = sum(lo), sum(hi)
                    continue
                # span >= 7 and no pinched side: k lies strictly inside
                out = self._solve_level(lo, hi, (lo_sum + hi_sum + 1) // 2)
                if out.kind == FIXED:
                    # Only a query makes a FIXED outcome, and F of its point is the point.
                    return out.point
                before = lo, hi
                if out.kind == UPWARD:
                    lo = out.point
                    lo_sum = sum(lo)
                else:
                    hi = out.point
                    hi_sum = sum(hi)
                if self.observer is not None:
                    self.observer(
                        "recurse", {"before": Box(*before), "after": Box(lo, hi), "outcome": out}
                    )
                if out.fvalue is not None:
                    pending = out
        except MonotonicityViolation as mv:
            if self._evidence:
                mv.extend(self._evidence)
            raise

    def _tighten(self, lo: Point, hi: Point, out: LevelOutcome) -> tuple[Point, Point]:
        """The corners of the half [lo, hi] that a level's queried
        certificate selected, with that corner moved on to its image.

        F(u) >= u for a queried upward point u = lo, so F(F(u)) >= F(u) by
        monotonicity: F(u) is upward as well, and u <= F(u) <= F(hi) <= hi
        keeps it in the half. Dually for a downward point u = hi. The new
        corner is an implied certificate; the pair (u, F(u)) backing it joins
        every later violation.
        """
        self._context = (PHASE_OUTER, -1)
        u, fu = out.point, out.fvalue
        if not (lo[0] <= fu[0] <= hi[0] and lo[1] <= fu[1] <= hi[1] and lo[2] <= fu[2] <= hi[2]):
            raise MonotonicityViolation(
                f"image {fu} of the certified corner {u} left the box {lo}..{hi}",
                implicated=((u, fu),) + self._corner_pairs(lo, hi),
            )
        self._evidence += ((u, fu),)
        corner = self._certify(LevelOutcome(out.kind, fu), ((u, fu),)).point
        return (corner, hi) if out.kind == UPWARD else (lo, corner)

    # -- one level --------------------------------------------------------

    def _solve_level(self, lo: Point, hi: Point, k: int) -> LevelOutcome:
        """Find an upward point at-or-above level k or a downward point
        at-or-below it, inside the box [lo, hi] with certified corners. The
        caller holds k strictly inside the box and every side >= 2, as the
        outer loop does by construction; neither is checked. No Box is built
        unless an observer is attached or the level gets past init."""
        self._context = (PHASE_INIT, k)
        observer = self.observer
        if observer is not None:
            box = Box(lo, hi)
            before = self.oracle.distinct_queries
            observer("level_start", {"box": box, "k": k, "queries": before})
        try:
            return self._run_level(lo, hi, k)
        except MonotonicityViolation as mv:
            mv.extend(self._corner_pairs(lo, hi))
            raise
        finally:
            if observer is not None:
                observer("level_done", {
                    "box": box, "k": k, "queries": self.oracle.distinct_queries - before
                })

    def _run_level(self, lo: Point, hi: Point, k: int) -> LevelOutcome:
        extreme_search = self._extreme_search
        ups: list[tuple[Point, Point]] = []
        downs: list[tuple[Point, Point]] = []
        # Per axis the extreme i-downward, then i-upward point, so up(i)_i <= down(i)_i.
        for axis in range(3):
            down_pair = extreme_search(lo, hi, k, axis, 1)
            if isinstance(down_pair, LevelOutcome):
                return down_pair
            up_pair = extreme_search(lo, hi, k, axis, -1)
            if isinstance(up_pair, LevelOutcome):
                return up_pair
            ups.append(up_pair)
            downs.append(down_pair)
        state = LevelState(Box(lo, hi), k, ups, downs)
        if self.observer is not None:
            self.observer("init_done", state.snapshot())
        while True:
            view = search_space(state)
            d0, d1, d2 = view.dia
            # Tested one by one: builtin min and max cost a call each on CPython.
            if d0 <= 1 or d1 <= 1 or d2 <= 1:
                break
            if d0 >= 6 or d1 >= 6 or d2 >= 6:
                self._context = (PHASE_SHRINK, k)
                res = self.shrink_once(state, view)
            else:
                self._context = (PHASE_SMALL, k)
                res = self.small_case_step(state, view)
            if isinstance(res, LevelOutcome):
                return res
            state = res
        cfg = find_configuration(state)
        if self.observer is not None:
            self.observer("config", {"config": cfg, "state": state.snapshot()})
        if cfg.kind != "third":
            return self.resolve_meet_join(cfg)
        self._context = (PHASE_THIRD, k)
        return self.resolve_third(cfg, k)

    # -- initialization ---------------------------------------------------

    def _extreme_search(self, lo: Point, hi: Point, k: int, axis: int, s: int):
        """Find the extreme i-downward point (s = +1) or i-upward point
        (s = -1) of level k in the box [lo, hi] as a (point, value) pair, or
        an early outcome.

        The candidates form the one-dimensional segment of the level where
        coordinate ``axis`` is as large (oriented) as the box allows: it is
        pinned to ci, the middle axis j runs over [jmin, jmax], and the third
        axis p takes the rest. Its two endpoints, the low one with j at its
        oriented minimum and the high one with j at its oriented maximum,
        either resolve directly or bracket the segment: the low end strictly
        descends (oriented) in the third axis, the high end in the middle
        axis; binary search keeps that bracket until the endpoints are
        adjacent, where their meet is a certified downward (oriented) point.
        """
        query = self._oracle.query
        j, p = _OTHERS[axis]
        # min and max written out: this runs six times a level
        if s > 0:
            ci = k - lo[j] - lo[p]
            if ci > hi[axis]:
                ci = hi[axis]
        else:
            ci = k - hi[j] - hi[p]
            if ci < lo[axis]:
                ci = lo[axis]
        m = k - ci
        jmin, jmax = m - hi[p], m - lo[p]
        if jmin < lo[j]:
            jmin = lo[j]
        if jmax > hi[j]:
            jmax = hi[j]
        low_j, high_j = (jmin, jmax) if s > 0 else (jmax, jmin)
        ends: list[tuple[Point, Point]] = []
        cj = low_j
        while True:
            cp = m - cj
            q = (ci, cj, cp) if axis == 0 else (cj, ci, cp) if axis == 1 else (cj, cp, ci)
            fq = query(q)
            # Only the signs of the oriented moves si, sj, sp are tested.
            si, sj, sp = s * (fq[axis] - ci), s * (fq[j] - cj), s * (fq[p] - cp)
            if sj >= 0 and sp >= 0:
                if si < 0:
                    return q, fq
                return LevelOutcome(FIXED if si == sj == sp == 0 else _kind(s), q, fq)
            if si <= 0 and sj <= 0 and sp <= 0:
                return LevelOutcome(_kind(-s), q, fq)
            # The bracket end q can replace, or None when its sign pattern
            # is impossible on the segment.
            side = None if si > 0 else _LOW if sj >= 0 else _HIGH
            if len(ends) < 2:
                if side != len(ends):
                    raise MonotonicityViolation(
                        f"endpoint {q} of the axis-{axis} init segment has an impossible sign pattern",
                        implicated=(*ends, (q, fq)),
                    )
                ends.append((q, fq))
                if len(ends) == 1:
                    cj = high_j
                    if cj == low_j:
                        raise MonotonicityViolation(
                            f"single-point init segment for axis {axis} did not resolve",
                            implicated=ends,
                        )
                    continue
            elif side is None:
                raise MonotonicityViolation(
                    f"segment point {q} has an impossible sign pattern",
                    implicated=(*ends, (q, fq)),
                )
            else:
                ends[side] = (q, fq)
            a, b = ends[_LOW][0][j], ends[_HIGH][0][j]
            if abs(b - a) <= 1:
                return self._certify(_meet_outcome(s, [ends[_LOW][0], ends[_HIGH][0]]), tuple(ends))
            cj = (a + b) // 2

    # -- shrinking --------------------------------------------------------

    def shrink_once(self, state: LevelState, view: SearchSpaceView):
        """One geometric shrink while some diameter is >= 6 and none is below
        2, where view is search_space(state). The caller holds those
        diameters, as _run_level does; they are not checked.

        The probe sits at least ceil(dia_i/6) inside both bounds on every
        axis (such a level point always exists under the preconditions), so
        whatever per-axis label it gets moves that bound by at least a sixth
        of the diameter. Among those points it takes the central one, which
        keeps every axis about equally far from both bounds instead of
        pushing the first axes to one bound and the last to the other.
        """
        d0, d1, d2 = view.dia
        s0, s1, s2 = -(-d0 // 6), -(-d1 // 6), -(-d2 // 6)
        (l0, l1, l2), (r0, r1, r2) = view.ell, view.r
        a0, a1, a2 = l0 + s0, l1 + s1, l2 + s2
        b0, b1, b2 = r0 - s0, r1 - s1, r2 - s2
        k = state.k
        # S attains ell, r: k - sum(ell), sum(r) - k >= max(dia) >= sum(s); dia_i >= 2s_i: a <= b.
        # central_level_point(a, b, k), inlined; a diameter >= 6 keeps width > 0.
        lo_sum = a0 + a1 + a2
        width, deficit = b0 + b1 + b2 - lo_sum, k - lo_sum
        q0 = a0 + deficit * (b0 - a0) // width
        q1 = a1 + deficit * (b1 - a1) // width
        q2 = a2 + deficit * (b2 - a2) // width
        # What the rounding left goes up to each bound in axis order; the last axis takes the rest.
        rest = k - q0 - q1 - q2
        step = b0 - q0 if b0 - q0 < rest else rest
        q0, rest = q0 + step, rest - step
        step = b1 - q1 if b1 - q1 < rest else rest
        q = (q0, q1 + step, q2 + rest - step)
        fq = self._oracle.query(q)
        res = self._apply_query(state, q, fq)
        if self.observer is not None:
            self.observer("shrink", _step_payload(state, view, res, q=q, fq=fq))
        return res

    def small_case_step(self, state: LevelState, view: SearchSpaceView):
        """One constant-size step once every diameter is in 2..5, where view
        is search_space(state). The caller holds those diameters, as
        _run_level does; they are not checked.

        If S still has a point strictly inside every bound, probing it shrinks
        some diameter. Otherwise S hugs one corner of its bounding ranges, the
        lower one (s = +1) or the upper one (s = -1); probing the three points
        one step inside that corner either makes progress through an
        unexpected label or proves (all three i-upward, resp. i-downward) that
        the corner plus s is an upward, resp. downward, point with no further
        query.
        """
        (l0, l1, l2), (r0, r1, r2), k = view.ell, view.r, state.k
        ell_sum = l0 + l1 + l2
        if ell_sum + 3 <= k <= r0 + r1 + r2 - 3:
            q = level_point((l0 + 1, l1 + 1, l2 + 1), (r0 - 1, r1 - 1, r2 - 1), k)
            res = self._apply_query(state, q, self._oracle.query(q))
        else:
            s, (c0, c1, c2) = (1, view.ell) if ell_sum + 3 > k else (-1, view.r)
            # ell and r are attained in S and every diameter is >= 2, so c0 + c1 + c2 == k - 2s.
            res = state
            probes = []
            for axis, q in enumerate(((c0, c1 + s, c2 + s), (c0 + s, c1, c2 + s), (c0 + s, c1 + s, c2))):
                fq = self._oracle.query(q)
                probes.append((q, fq))
                # A probe taking its bound moves one other at most, to corner + s: the next stays in S.
                res = self._apply_query(res, q, fq)
                if isinstance(res, LevelOutcome):
                    break
                if (res.up if s > 0 else res.down)[axis] != (q, fq):
                    break
            else:
                res = self._certify(
                    LevelOutcome(_kind(s), (c0 + s, c1 + s, c2 + s)), tuple(probes)
                )
        if self.observer is not None:
            self.observer("small", _step_payload(state, view, res))
        return res

    # -- configuration resolution -----------------------------------------

    def resolve_meet_join(self, cfg: Config) -> LevelOutcome:
        """Resolve a first or second configuration with no query.

        The meet of an upward-flavored pair is downward (the join of a
        downward-flavored pair is upward): each point bounds the other's
        strict axis, and monotonicity carries both bounds to the meet. A
        second configuration threads the same argument through a cyclic
        triple.
        """
        s = 1 if cfg.flavor == UPWARD else -1
        return self._certify(_meet_outcome(s, [pt for pt, _ in cfg.points]), cfg.points)

    def resolve_third(self, cfg: Config, k: int) -> LevelOutcome:
        """Resolve an i-upward x and i-downward y with y_i <= x_i + 1.

        The two points disagree on exactly one further axis j (y_j < x_j).
        Points on the segment between them (coordinate i pinned to y_i, j
        running from y_j up to x_j - 1) classify four ways: two give an
        immediate certificate via a meet or join with x or y, the other two
        tighten a bracket whose adjacent endpoints also certify. The j-range
        is at most a box side, so this costs one binary search.
        """
        (x, fx), (y, fy) = cfg.points
        i = cfg.axis
        # x != y share level k and x_i <= y_i <= x_i + 1, so exactly one other axis has y < x.
        j, p = _OTHERS[i]
        if y[j] >= x[j]:
            j, p = p, j

        if fx[j] == x[j]:
            return self._certify(LevelOutcome(UPWARD, lub(x, y)), cfg.points)
        if fy[j] == y[j]:
            return self._certify(LevelOutcome(DOWNWARD, glb(x, y)), cfg.points)
        # x is i-upward and y is i-downward, so now fx_j < x_j and fy_j > y_j.
        if y[j] == x[j] - 1:
            return self._certify(LevelOutcome(DOWNWARD, glb(x, y)), cfg.points)

        def settle(q: Point, fq: Point) -> LevelOutcome | int:
            """A certificate, or the bracket end q replaces: _LOW when
            fq_i < q_i and fq_j > q_j, _HIGH when fq_i >= q_i and fq_j < q_j."""
            if fq[i] >= q[i]:
                if fq[j] >= q[j]:
                    return self._certify(
                        LevelOutcome(UPWARD, lub(q, y)), ((q, fq), (y, fy))
                    )
                return _HIGH
            if fq[j] <= q[j]:
                return self._certify(
                    LevelOutcome(DOWNWARD, glb(x, q)), ((x, fx), (q, fq))
                )
            return _LOW

        right = _segment_point(i, y[i], j, x[j] - 1, k)
        f_right = self._oracle.query(right)
        res = settle(right, f_right)
        if isinstance(res, LevelOutcome):
            return res
        if res == _LOW:
            # The whole bracket is low-typed; the meet with x still certifies
            # because f_right_i < right_i = y_i <= x_i + 1 and fx_j < x_j = right_j + 1.
            return self._certify(
                LevelOutcome(DOWNWARD, glb(x, right)), ((x, fx), (right, f_right))
            )
        ends = [(y, fy), (right, f_right)]
        while abs(ends[_HIGH][0][j] - ends[_LOW][0][j]) > 1:
            q = _segment_point(i, y[i], j, (ends[_LOW][0][j] + ends[_HIGH][0][j]) // 2, k)
            fq = self._oracle.query(q)
            res = settle(q, fq)
            if isinstance(res, LevelOutcome):
                return res
            ends[res] = (q, fq)
        (low, _), (high, f_high) = ends
        if f_high[p] <= high[p]:
            out = LevelOutcome(DOWNWARD, glb(low, high))
        else:
            out = LevelOutcome(UPWARD, lub(low, high))
        return self._certify(out, tuple(ends))


class _TracingOracle:
    """The oracle of a traced solve: writes one record per query call,
    tagged with the solver's current phase and level, so delegated boxes
    and the final scan show up in the trace too. Baselines given a box
    never read an instance, so it carries none."""

    def __init__(self, solver: LevelsetSolver, trace):
        self._solver = solver
        self._trace = trace

    def query(self, x: Point) -> Point:
        fx = self._solver.oracle.query(x)
        _, labels = classify(x, fx)
        phase, level = self._solver._context
        self._trace.write(
            f"{phase}\t{level}\t{_fmt_point(x)}\t"
            f"{_fmt_point(fx)}\t{_label_tokens(labels)}\n"
        )
        return fx


def solve(oracle, *, verify_certificates: bool = False, trace=None, observer=None) -> Point:
    """Find a verified fixed point of the oracle's instance: by the levelset
    algorithm on a 3D grid, by dqy_solve on any other."""
    return LevelsetSolver(
        oracle,
        verify_certificates=verify_certificates,
        trace=trace,
        observer=observer,
    ).solve()
