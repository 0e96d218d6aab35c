"""Levelset search for Tarski fixed points on 3D integer grids.

The outer loop keeps a box whose corners are certified upward/downward and
repeatedly runs the level procedure on the middle levelset, which yields an
upward point at-or-above the level or a downward point at-or-below it; the
box then shrinks to the half the certificate selects, and dqy_solve takes a
box with a pinched side or a constant-size one (coordinate-sum span <= 6).
When the certificate came from a query, its already known image is upward
(resp. downward) too and becomes the corner before the next level, for
free. Each level costs O(log N) distinct queries, so a full solve costs
O(log^2 N), N being the sum of the side lengths.

The level procedure maintains six bounding points on the levelset: for each
axis i an i-upward point up(i) and an i-downward point down(i) with
up(i)_i <= down(i)_i. They induce a remaining search space S (the levelset
points between the bounds). Each step pulls S's bounds in by a sixth of
each diameter, rounded up, and queries the central level point between
them, so every label it can receive moves a bound by at least that sixth:
S shrinks geometrically while some diameter is >= 6 (shrink steps), and
by at least one per step once S is constant-sized (small steps). A small
step with no such point probes the three points just inside the corner of
S's bounds that S hugs. Once some diameter is <= 1, the six bounding
points must contain a first, second, or third configuration, and each of
those resolves into the required upward/downward point, the first two by
pure meet/join reasoning, the third by one more binary search.

The bounds start on the box faces, where S is the whole level. Six init
searches find the level's extreme i-upward and i-downward point of each
axis. Such a point's own coordinate is the level's extreme on that axis,
which already bounds S, so the searches never shrink S: they supply the
points the configuration scan needs. They run first only when some
diameter of the whole level's S is >= 10. On a smaller level the steps,
shrink steps from diameter 6 and small ones below, set most bounds
themselves, a single central probe often ends the level, and once some
diameter is <= 1 the searches run for the bounds that no probe has set.

Monotonicity is only ever used locally. The bounds of S and the
configuration scan read coordinates only, hold for every F and check
nothing. When a case analysis that is exhaustive for monotone F falls
through (in _certify, _tighten or _extreme_search, or in a baseline solve
delegates to), the solver raises MonotonicityViolation carrying the
constant-size set of (point, value) pairs it was looking at, plus the pair
(u, F(u)) behind every corner the outer loop moved to an image.

Each mirrored pair of cases is written once, for a direction sign s: s = +1
reads its comparisons as written, s = -1 reads them in the order dual, which
swaps upward with downward, i-upward with i-downward, and meet with join.

A level has one path, the one solve runs: _solve_level on bare corners
and a level the outer loop holds strictly inside its box. One loop holds
the six bounds and S's bound coordinates as locals and runs the shrink and
small steps inline, with the init searches before or after it, and then the
configuration resolution. It checks neither its level nor its box sides,
which the outer loop meets by construction, and it builds a Box only for
observer payloads; the baseline it delegates to takes bare corners too.
No step checks its inputs: the loop computes the pulled-in bounds that
pick the central probe or the corner triple before either.

A solve reaches F through one query function, which the solver binds once:
the oracle's own, or with a trace a closure around it that writes one
record per call. The level path, the outer loop and its one dqy delegation
all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .baseline import _dqy_point
from .errors import MonotonicityViolation
from .lattice import (
    Box,
    LabelSet,
    Point,
    classify,
    glb,
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

# The trace context of the outer loop's own queries and of its dqy delegation.
_OUTER = (PHASE_OUTER, -1)

# The two axes other than each axis, in increasing order.
_OTHERS = ((1, 2), (0, 2), (0, 1))

# A level runs its six init searches first only when some diameter of its whole-level S is at
# least this. A smaller level opens with its steps, one central probe often ends it, and it
# searches only the bounds its probes left unset.
_SEARCHES_FIRST = 10


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
    """The six bounding points of one level run, with their cached
    F-values. A bound that no probe or search has set yet is the box corner
    lo (for up) or hi (for down), with the value None."""

    box: Box
    k: int
    up: list[tuple[Point, Point]]
    down: list[tuple[Point, Point]]

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
    of S whenever S is nonempty, which holds for any F on every state the
    solver builds and is not checked: a level starts with S the whole level,
    and every later probe lies in S and moves a bound only to itself.
    """
    lo, hi, k = state.box.lo, state.box.hi, state.k
    # The per-axis bounds a_i = up(i)_i and b_i = down(i)_i, clamped to the box.
    a = [max(state.up[i][0][i], lo[i]) for i in range(3)]
    b = [min(state.down[i][0][i], hi[i]) for i in range(3)]
    # Then each bound as far as the other two axes' bounds and the level sum allow.
    ell = tuple(max(a[i], k - b[j] - b[p]) for i, (j, p) in enumerate(_OTHERS))
    r = tuple(min(b[i], k - a[j] - a[p]) for i, (j, p) in enumerate(_OTHERS))
    return SearchSpaceView(ell, r, tuple(y - x for x, y in zip(ell, r)))


def find_configuration(up, down) -> Config:
    """Scan the six bounding points, the (point, value) pairs up(i) and
    down(i) of a level, for a configuration, cheapest kind first.

    first: an i-upward x and j-upward y with x_i >= y_i and x_j <= y_j (or
    the downward mirror); meet/join resolves it with zero queries. second:
    a cyclic triple of the same shape. third: some pair up(i), down(i) with
    down(i)_i at most one above up(i)_i; costs one more binary search. One of
    them exists, for any F, on every state _solve_level passes: six level
    points in the box with up(i)_i <= down(i)_i, a nonempty S and some
    diameter of S <= 1.
    """
    flavors = ((1, up), (-1, down))
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
    # No fall-through in the domain: the lemma test_configuration_lemma checks.
    for i in range(3):
        if down[i][0][i] - up[i][0][i] <= 1:
            return Config("third", None, (up[i], down[i]), axis=i)


def _kind(s: int) -> str:
    """UPWARD for direction +1, DOWNWARD for -1."""
    return UPWARD if s > 0 else DOWNWARD


def _meet_outcome(s: int, points) -> LevelOutcome:
    """The meet of the points as a downward certificate for s = +1, their
    join as an upward one for s = -1."""
    return LevelOutcome(_kind(-s), glb(*points) if s > 0 else lub(*points))


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
    query function bound here: the oracle's own, or with a trace a closure
    around it that writes the record, tagged with the solver's current
    phase and level, so the boxes the solver delegates to dqy show up in the
    trace too.
    """

    def __init__(self, oracle, *, verify_certificates: bool = False,
                 trace=None, observer=None):
        self.oracle = oracle
        self.verify_certificates = verify_certificates
        self.observer = observer
        self._context = _OUTER  # (phase, level) of a traced query
        self._evidence: list[tuple[Point, Point]] = []
        query = self._query = oracle.query
        if trace is not None:

            def traced(x: Point) -> Point:
                fx = query(x)
                _, labels = classify(x, fx)
                phase, level = self._context
                trace.write(
                    f"{phase}\t{level}\t{_fmt_point(x)}\t"
                    f"{_fmt_point(fx)}\t{_label_tokens(labels)}\n"
                )
                return fx

            self._query = traced

    # -- plumbing ---------------------------------------------------------

    def _corner_pairs(self, lo: Point, hi: Point):
        return ((lo, self._query(lo)), (hi, self._query(hi)))

    def _certify(self, outcome: LevelOutcome, sources) -> LevelOutcome:
        """Record an implied certificate; with verify_certificates set,
        confirm it by query."""
        verified = False
        if self.verify_certificates:
            fq = self._query(outcome.point)
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

    # -- outer loop -------------------------------------------------------

    def solve(self) -> Point:
        """Run the full algorithm on the oracle's grid and return a fixed
        point, one the oracle has answered with itself. A grid that is not
        3D goes to the binary search baseline on the full box, through the
        same delegation branch as a 3D solve's tail."""
        shape = self.oracle.instance.shape
        # The current box [lo, hi] is corners, with coordinate sums sums. An upward certificate
        # moves the corner at index 0 (lo), a downward one the corner at index 1 (hi).
        corners, sums = [(1,) * len(shape), shape], [len(shape), sum(shape)]
        pending = None  # the last level's queried outcome, not yet tightened
        try:
            while True:
                lo, hi = corners
                if len(lo) != 3 or lo[0] == hi[0] or lo[1] == hi[1] or lo[2] == hi[2] or sums[1] - sums[0] <= 6:
                    # Levels are 3D only, so any other grid is dqy's whole. A pinched side has no
                    # i-upward or i-downward point for a level to grab, and a box of span <= 6 (at
                    # most 27 points) costs dqy a few queries per axis, where a scan's worst case
                    # is one query per point.
                    self._context = _OUTER
                    return _dqy_point(self._query, lo, hi)
                if pending is not None:
                    out, pending = pending, None
                    corner = self._tighten(lo, hi, out)
                else:
                    # span >= 7 and no pinched side: k lies strictly inside
                    out = self._solve_level(lo, hi, (sums[0] + sums[1] + 1) // 2)
                    if out.kind == FIXED:
                        # Only a query makes a FIXED outcome, and F of its point is the point.
                        return out.point
                    if self.observer is not None:
                        after = (out.point, hi) if out.kind == UPWARD else (lo, out.point)
                        self.observer(
                            "recurse", {"before": Box(lo, hi), "after": Box(*after), "outcome": out}
                        )
                    corner = out.point
                    if out.fvalue is not None:
                        pending = out
                # Both steps move only the corner out.kind names.
                side = out.kind == DOWNWARD
                corners[side], sums[side] = corner, corner[0] + corner[1] + corner[2]
        except MonotonicityViolation as mv:
            mv.extend(self._evidence)
            raise

    def _tighten(self, lo: Point, hi: Point, out: LevelOutcome) -> Point:
        """The new corner of the half [lo, hi] that a level's queried
        certificate selected: that corner moved on to its image.

        F(u) >= u for a queried upward point u = lo, so F(F(u)) >= F(u) by
        monotonicity: F(u) is upward as well, and u <= F(u) <= F(hi) <= hi
        keeps it in the half. Dually for a downward point u = hi. The new
        corner is an implied certificate; the pair (u, F(u)) backing it joins
        every later violation. _certify sees it only when verify_certificates
        is set or an observer is attached, the two cases where it does
        anything; otherwise the corner is F(u) as it stands.
        """
        self._context = _OUTER
        u, fu = out.point, out.fvalue
        if not (lo[0] <= fu[0] <= hi[0] and lo[1] <= fu[1] <= hi[1] and lo[2] <= fu[2] <= hi[2]):
            raise MonotonicityViolation(
                f"image {fu} of the certified corner {u} left the box {lo}..{hi}",
                implicated=((u, fu),) + self._corner_pairs(lo, hi),
            )
        self._evidence.append((u, fu))
        if self.verify_certificates or self.observer is not None:
            self._certify(LevelOutcome(out.kind, fu), ((u, fu),))
        return fu

    # -- one level --------------------------------------------------------

    def _solve_level(self, lo: Point, hi: Point, k: int) -> LevelOutcome:
        """Find an upward point at-or-above level k or a downward point
        at-or-below it, inside the box [lo, hi] with certified corners. The
        caller holds k strictly inside the box and every side >= 2, as the
        outer loop does by construction; neither is checked. No Box is built
        unless an observer is attached.

        The bounds start on the box faces, where S is the whole level. When
        some diameter of that S is >= _SEARCHES_FIRST (10) the six init
        searches run first; otherwise the steps set most bounds themselves,
        and the searches run last, for the bounds no probe has set. Either
        way each step probes the central level point of S's bounds pulled in
        by a sixth of each diameter (three points at a corner of S when
        there is none), its labels moving the bounds they select, until some
        diameter is <= 1 and a configuration resolves the level.
        """
        self._context = (PHASE_INIT, k)
        observer = self.observer
        if observer is not None:
            box = Box(lo, hi)
            before = self.oracle.distinct_queries
            observer("level_start", {"box": box, "k": k, "queries": before})
        try:
            query = self._query
            # The six bounding pairs, a bound not yet set being its box corner with no value, and
            # the bound coordinates a_i = up(i)_i and b_i = down(i)_i of S. Only probes move the
            # latter: an init search's point has the whole level's extreme coordinate on its axis,
            # which already bounds S.
            unset_up, unset_down = (lo, None), (hi, None)
            up, down = [unset_up, unset_up, unset_up], [unset_down, unset_down, unset_down]
            (a0, a1, a2), (b0, b1, b2) = lo, hi
            # With the bounds on the faces S is the whole level, whose diameter on axis i is
            # min(side_i, m, n, m + n - side_i) for m = k - sum(lo) and n = sum(hi) - k. The init
            # searches go first when one of those is >= t.
            m, n, t = k - a0 - a1 - a2, b0 + b1 + b2 - k, _SEARCHES_FIRST
            top = m + n - t
            searches_first = m >= t and n >= t and (
                t <= b0 - a0 <= top or t <= b1 - a1 <= top or t <= b2 - a2 <= top
            )
            if searches_first:
                out = self._init_searches(lo, hi, k, up, down)
                if out is not None:
                    return out
            if observer is not None:
                # Its snapshots read the two lists as they stand.
                state = LevelState(box, k, up, down)
                observer("init_done", state.snapshot())
            shrink, small = (PHASE_SHRINK, k), (PHASE_SMALL, k)
            while True:
                # S's bounds ell = e and r, as search_space computes them; a0..b2 lie in the box.
                # Every min and max written out: a two-argument builtin costs a call on CPython.
                e0, e1, e2 = k - b1 - b2, k - b0 - b2, k - b0 - b1
                r0, r1, r2 = k - a1 - a2, k - a0 - a2, k - a0 - a1
                e0 = e0 if e0 > a0 else a0
                e1 = e1 if e1 > a1 else a1
                e2 = e2 if e2 > a2 else a2
                r0 = r0 if r0 < b0 else b0
                r1 = r1 if r1 < b1 else b1
                r2 = r2 if r2 < b2 else b2
                d0, d1, d2 = r0 - e0, r1 - e1, r2 - e2
                if d0 <= 1 or d1 <= 1 or d2 <= 1:
                    break
                if observer is not None:
                    before_step = state.snapshot()
                    view = SearchSpaceView((e0, e1, e2), (r0, r1, r2), (d0, d1, d2))
                # Each step pulls S's bounds in by a sixth s_i = ceil(dia_i/6) of each diameter, to
                # u = ell + s and v = r - s; dia_i >= 2s_i gives u <= v.
                s0, s1, s2 = -(-d0 // 6), -(-d1 // 6), -(-d2 // 6)
                u0, u1, u2 = e0 + s0, e1 + s1, e2 + s2
                v0, v1, v2 = r0 - s0, r1 - s1, r2 - s2
                u_sum = u0 + u1 + u2
                width, deficit = v0 + v1 + v2 - u_sum, k - u_sum
                bounds = None  # at a corner of S, the bounds its three probes aim to take
                if 0 <= deficit <= width:
                    # Level k has a point between u and v, at least s_i inside both bounds on every
                    # axis, so whatever per-axis label it gets moves that bound by at least s_i. The
                    # probe is the central one, which keeps every axis about equally far from both
                    # bounds: level_point(u, v, k) written out. Some diameter >= 6 always takes this
                    # branch, as S attains ell and r, so k - sum(ell) and sum(r) - k are >= max(dia)
                    # >= sum(s); the step is a shrink step then, a small one otherwise.
                    phase = shrink if d0 >= 6 or d1 >= 6 or d2 >= 6 else small
                    # Every diameter 2 makes width 0 and u = v the one point, each numerator 0.
                    width = width or 1
                    q0 = u0 + deficit * (v0 - u0) // width
                    q1 = u1 + deficit * (v1 - u1) // width
                    q2 = u2 + deficit * (v2 - u2) // width
                    # What the rounding left goes up to each bound in axis order; the last axis
                    # takes the rest.
                    rest = k - q0 - q1 - q2
                    step = v0 - q0 if v0 - q0 < rest else rest
                    q0, rest = q0 + step, rest - step
                    step = v1 - q1 if v1 - q1 < rest else rest
                    probes = ((q0, q1 + step, q2 + rest - step),)
                else:
                    # Otherwise every diameter is in 2..5 and S hugs one corner of its bounding
                    # ranges, the lower one (s = +1) or the upper one (s = -1), and
                    # c0 + c1 + c2 == k - 2s. Probing the three points one step inside that corner
                    # either makes progress through an unexpected label or proves (all three
                    # i-upward, resp. i-downward) that the corner plus s is an upward, resp.
                    # downward, point with no further query.
                    phase = small
                    s, c0, c1, c2 = (1, e0, e1, e2) if deficit < 0 else (-1, r0, r1, r2)
                    probes = ((c0, c1 + s, c2 + s), (c0 + s, c1, c2 + s), (c0 + s, c1 + s, c2))
                    bounds = up if s > 0 else down
                self._context = phase
                out = None
                for axis, q in enumerate(probes):
                    fq = query(q)
                    q0, q1, q2 = q
                    # q is fixed, upward or downward, or its labels are those of classify, read off
                    # the signs of F's moves: q is i-upward when i is the only axis F raises,
                    # i-downward when i is the only axis F lowers.
                    m0, m1, m2 = fq[0] - q0, fq[1] - q1, fq[2] - q2
                    if m0 >= 0 and m1 >= 0 and m2 >= 0:
                        out = LevelOutcome(FIXED if m0 == m1 == m2 == 0 else UPWARD, q, fq)
                        break
                    if m0 <= 0 and m1 <= 0 and m2 <= 0:
                        out = LevelOutcome(DOWNWARD, q, fq)
                        break
                    pair = q, fq
                    if m1 <= 0 and m2 <= 0:
                        up[0], a0 = pair, q0
                    elif m0 <= 0 and m2 <= 0:
                        up[1], a1 = pair, q1
                    elif m0 <= 0 and m1 <= 0:
                        up[2], a2 = pair, q2
                    if m1 >= 0 and m2 >= 0:
                        down[0], b0 = pair, q0
                    elif m0 >= 0 and m2 >= 0:
                        down[1], b1 = pair, q1
                    elif m0 >= 0 and m1 >= 0:
                        down[2], b2 = pair, q2
                    # A corner probe taking its bound moves one other at most, to corner + s:
                    # the next probe stays in S.
                    if bounds is None or bounds[axis] is not pair:
                        break
                else:
                    # All three probes i-upward (resp. i-downward): corner + s is upward (downward).
                    out = self._certify(LevelOutcome(_kind(s), (c0 + s, c1 + s, c2 + s)), tuple(bounds))
                if observer is not None:
                    probe = {"q": q, "fq": fq} if phase is shrink else {}
                    observer(phase[0], {
                        "state_before": before_step,
                        "view": view,
                        **probe,
                        "outcome": out,
                        "dia_after": None if out is not None else search_space(state).dia,
                    })
                if out is not None:
                    return out
            if not searches_first:
                self._context = (PHASE_INIT, k)
                out = self._init_searches(lo, hi, k, up, down)
                if out is not None:
                    return out
            cfg = find_configuration(up, down)
            if observer is not None:
                observer("config", {"config": cfg, "state": state.snapshot()})
            if cfg.kind != "third":
                return self.resolve_meet_join(cfg)
            self._context = (PHASE_THIRD, k)
            return self.resolve_third(cfg, k)
        except MonotonicityViolation as mv:
            mv.extend(self._corner_pairs(lo, hi))
            raise
        finally:
            if observer is not None:
                observer("level_done", {
                    "box": box, "k": k, "queries": self.oracle.distinct_queries - before
                })

    # -- initialization ---------------------------------------------------

    def _init_searches(self, lo: Point, hi: Point, k: int, up: list, down: list):
        """Set each bound of the level no probe has set to the extreme point
        _extreme_search finds, axis by axis and the i-downward one first, so
        up(i)_i <= down(i)_i; None, or the first search's early outcome."""
        extreme_search, flavors = self._extreme_search, ((1, down), (-1, up))
        for axis in range(3):
            for s, pairs in flavors:
                if pairs[axis][1] is None:
                    pair = extreme_search(lo, hi, k, axis, s)
                    if type(pair) is LevelOutcome:
                        return pair
                    pairs[axis] = pair
        return None

    def _extreme_search(self, lo: Point, hi: Point, k: int, axis: int, s: int):
        """Find the extreme i-downward point (s = +1) or i-upward point
        (s = -1) of level k in the box [lo, hi] as a (point, value) pair, or
        an early outcome.

        The candidates form the one-dimensional segment of the level where
        coordinate ``axis`` is as large (oriented) as the box allows: it is
        pinned to ci, the middle axis j runs over [jmin, jmax], and the third
        axis p takes the rest. Its two endpoints, the low one with j at its
        oriented minimum and the high one with j at its oriented maximum,
        either resolve directly or bracket the segment as two named ends: low
        at middle coordinate a strictly descends (oriented) in the third axis,
        high at b in the middle axis. Binary search keeps that bracket until a
        and b (a < b when s = +1) are adjacent, where the meet of low and high
        is a certified downward (oriented) point.
        """
        query = self._query
        j, p = _OTHERS[axis]
        # min and max written out: this runs up to six times a level (2.8 on targets)
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
        a, b = (jmin, jmax) if s > 0 else (jmax, jmin)
        low = high = None
        cj = a
        while True:
            cp = m - cj
            q = (ci, cj, cp) if axis == 0 else (cj, ci, cp) if axis == 1 else (cj, cp, ci)
            fq = query(q)
            # Only the signs of the oriented moves si, sj, sp are tested.
            si, sj, sp = s * (fq[axis] - ci), s * (fq[j] - cj), s * (fq[p] - cp)
            if sj >= 0 and sp >= 0:
                if si < 0:
                    return q, fq
                return LevelOutcome(FIXED if si == sj == sp == 0 else UPWARD if s > 0 else DOWNWARD, q, fq)
            if si <= 0 and sj <= 0 and sp <= 0:
                return LevelOutcome(DOWNWARD if s > 0 else UPWARD, q, fq)
            # Otherwise q fits low if si <= 0 <= sj, high if si <= 0 > sj, neither if si > 0.
            if high is None:  # q is the low endpoint at a, or after it the high one at b
                if si > 0 or (sj < 0) == (low is None):
                    raise MonotonicityViolation(
                        f"endpoint {q} of the axis-{axis} init segment has an impossible sign pattern",
                        implicated=((q, fq),) if low is None else (low, (q, fq)),
                    )
                if low is None:
                    low, cj = (q, fq), b
                    if a == b:
                        raise MonotonicityViolation(
                            f"single-point init segment for axis {axis} did not resolve",
                            implicated=(low,),
                        )
                    continue
                high = q, fq
            elif si > 0:
                raise MonotonicityViolation(
                    f"segment point {q} has an impossible sign pattern",
                    implicated=(low, high, (q, fq)),
                )
            elif sj >= 0:
                low, a = (q, fq), cj
            else:
                high, b = (q, fq), cj
            if -1 <= b - a <= 1:
                return self._certify(_meet_outcome(s, [low[0], high[0]]), (low, high))
            cj = (a + b) // 2

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
        # x is i-upward and y is i-downward, so now fx_j < x_j. With fy_j > y_j as well, the meet
        # certifies the same way when y_j == x_j - 1 leaves no segment point between them.
        if fy[j] == y[j] or y[j] == x[j] - 1:
            return self._certify(LevelOutcome(DOWNWARD, glb(x, y)), cfg.points)
        # The bracket: low at j-coordinate a and high at b, a < b. A probe q is low when
        # fq_i < q_i and fq_j > q_j, high when fq_i >= q_i and fq_j < q_j; the two other
        # patterns certify. Low starts at y, and the first probe is the segment's top point.
        ci = y[i]
        low, high = (y, fy), None
        a, b = y[j], x[j] - 1
        cj = b
        while True:
            seg = [k - ci - cj] * 3
            seg[i], seg[j] = ci, cj
            q = tuple(seg)
            fq = self._query(q)
            if fq[i] >= ci:
                if fq[j] >= cj:
                    return self._certify(LevelOutcome(UPWARD, lub(q, y)), ((q, fq), (y, fy)))
                high, b = (q, fq), cj
            elif fq[j] <= cj or high is None:
                # A low first probe certifies too: fq_i < q_i = y_i <= x_i + 1, fx_j < x_j = q_j + 1.
                return self._certify(LevelOutcome(DOWNWARD, glb(x, q)), ((x, fx), (q, fq)))
            else:
                low, a = (q, fq), cj
            if b - a <= 1:
                # Adjacent ends: the meet is downward when F(high) keeps or lowers the third
                # axis p, the join upward when F(high) raises it.
                if high[1][p] <= high[0][p]:
                    out = LevelOutcome(DOWNWARD, glb(low[0], high[0]))
                else:
                    out = LevelOutcome(UPWARD, lub(low[0], high[0]))
                return self._certify(out, (low, high))
            cj = (a + b) // 2


def solve(oracle, *, verify_certificates: bool = False, trace=None, observer=None) -> Point:
    """Find a verified fixed point of the oracle's instance: by the levelset
    algorithm on a 3D grid, by dqy_solve on any other."""
    return LevelsetSolver(
        oracle,
        verify_certificates=verify_certificates,
        trace=trace,
        observer=observer,
    ).solve()
