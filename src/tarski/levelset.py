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
"""

from __future__ import annotations

from dataclasses import dataclass

from .baseline import brute_solve, dqy_solve
from .errors import MonotonicityViolation
from .lattice import (
    Box,
    LabelSet,
    Point,
    central_level_point,
    classify,
    full_box,
    glb,
    level_point,
    lub,
    norm1,
    sign,
    _oriented_extreme,
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

# The two ends of an init segment's bracket, as indices into it.
_LOW = 0
_HIGH = 1


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SearchSpaceView:
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
    lo, hi = state.box.lo, state.box.hi
    k = state.k
    a = tuple(state.up[i][0][i] for i in range(3))
    b = tuple(state.down[i][0][i] for i in range(3))
    ell = []
    r = []
    for i in range(3):
        j, p = _others(i)
        ell.append(max(a[i], k - min(b[j], hi[j]) - min(b[p], hi[p]), lo[i]))
        r.append(min(b[i], k - max(a[j], lo[j]) - max(a[p], lo[p]), hi[i]))
    dia = tuple(hb - lb for lb, hb in zip(ell, r))
    if any(d < 0 for d in dia):
        raise MonotonicityViolation(
            "remaining search space is empty", implicated=state.pairs()
        )
    return SearchSpaceView(tuple(ell), tuple(r), dia)


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


def _others(axis: int) -> tuple[int, int]:
    return tuple(x for x in range(3) if x != axis)


def _kind(s: int) -> str:
    """UPWARD for direction +1, DOWNWARD for -1."""
    return UPWARD if s > 0 else DOWNWARD


def _meet_outcome(s: int, points) -> LevelOutcome:
    """The meet of the points as a downward certificate for s = +1, their
    join as an upward one for s = -1."""
    return LevelOutcome(_kind(-s), glb(*points) if s > 0 else lub(*points))


def _half(box: Box, kind: str, corner: Point) -> Box:
    """The part of the box at-or-above an upward corner, or at-or-below a
    downward one."""
    return Box(corner, box.hi) if kind == UPWARD else Box(box.lo, corner)


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
    """

    def __init__(self, oracle, *, verify_certificates: bool = False,
                 trace=None, observer=None):
        self.oracle = oracle
        self.verify_certificates = verify_certificates
        self.trace = trace
        self.observer = observer
        self._phase = PHASE_OUTER
        self._level = -1
        self._evidence: tuple[tuple[Point, Point], ...] = ()

    # -- plumbing ---------------------------------------------------------

    def _emit(self, event: str, payload: dict) -> None:
        if self.observer is not None:
            self.observer(event, payload)

    def _query(self, x: Point) -> Point:
        fx = self.oracle.query(x)
        if self.trace is not None:
            _, labels = classify(x, fx)
            self.trace.write(
                f"{self._phase}\t{self._level}\t{_fmt_point(x)}\t"
                f"{_fmt_point(fx)}\t{_label_tokens(labels)}\n"
            )
        return fx

    def _corner_pairs(self, box: Box):
        return ((box.lo, self._query(box.lo)), (box.hi, self._query(box.hi)))

    def _violation(self, message: str, pairs, box: Box | None = None):
        extra = self._corner_pairs(box) if box is not None else ()
        return MonotonicityViolation(message, implicated=tuple(pairs) + extra)

    def _certify(self, outcome: LevelOutcome, sources) -> LevelOutcome:
        """Record an implied certificate; in debug mode confirm it by query."""
        verified = False
        if self.verify_certificates:
            fq = self._query(outcome.point)
            _, labels = classify(outcome.point, fq)
            ok = (
                labels.is_fixed
                if outcome.kind == FIXED
                else labels.is_upward if outcome.kind == UPWARD else labels.is_downward
            )
            if not ok:
                raise MonotonicityViolation(
                    f"implied {outcome.kind} certificate failed at {outcome.point}",
                    implicated=tuple(sources) + ((outcome.point, fq),),
                )
            outcome = LevelOutcome(outcome.kind, outcome.point, fq)
            verified = True
        self._emit(
            "certificate",
            {"kind": outcome.kind, "point": outcome.point, "verified": verified},
        )
        return outcome

    @staticmethod
    def _outcome_from_labels(q: Point, fq: Point, labels: LabelSet) -> LevelOutcome | None:
        if labels.is_fixed:
            return LevelOutcome(FIXED, q, fq)
        if labels.is_upward:
            return LevelOutcome(UPWARD, q, fq)
        if labels.is_downward:
            return LevelOutcome(DOWNWARD, q, fq)
        return None

    def _update_state(self, state: LevelState, q: Point, fq: Point, labels: LabelSet) -> None:
        view = search_space(state)
        if not all(l <= c <= r for l, c, r in zip(view.ell, q, view.r)) or norm1(q) != state.k:
            raise self._violation(
                f"probe {q} fell outside the remaining search space",
                state.pairs() + ((q, fq),),
                state.box,
            )
        for i in labels.i_upward:
            state.up[i] = (q, fq)
        for i in labels.i_downward:
            state.down[i] = (q, fq)

    def _apply_query(self, state: LevelState, q: Point, fq: Point):
        _, labels = classify(q, fq)
        out = self._outcome_from_labels(q, fq, labels)
        if out is not None:
            return out
        self._update_state(state, q, fq, labels)
        return state

    # -- outer loop -------------------------------------------------------

    def solve(self) -> Point:
        """Run the full algorithm on the oracle's grid and return a verified
        fixed point."""
        shape = self.oracle.instance.shape
        if len(shape) > 3:
            raise ValueError("the levelset solver handles at most 3 dimensions")
        box = full_box(shape)
        if len(shape) < 3:
            return self._delegate(box)
        pending = None  # the last level's queried outcome, not yet tightened
        try:
            while True:
                if any(s == 1 for s in box.sides):
                    return self._delegate(box)
                span = norm1(box.hi) - norm1(box.lo)
                if span <= 6:
                    return self._finish_brute(box)
                if pending is not None:
                    box = self._tighten(box, pending)
                    pending = None
                    continue
                k = (norm1(box.lo) + norm1(box.hi) + 1) // 2
                out = self.solve_level(box, k)
                if out.kind == FIXED:
                    return self._verified(out.point)
                prev = box
                box = _half(box, out.kind, out.point)
                self._emit("recurse", {"before": prev, "after": box, "outcome": out})
                if out.fvalue is not None:
                    pending = out
        except MonotonicityViolation as mv:
            if not self._evidence:
                raise
            raise mv.extended(self._evidence) from None

    def _tighten(self, box: Box, out: LevelOutcome) -> Box:
        """Move the corner a level just certified by a query to its image.

        F(u) >= u for a queried upward point u, so F(F(u)) >= F(u) by
        monotonicity: F(u) is upward as well, and u <= F(u) <= F(box.hi) <=
        box.hi keeps it in the box. Dually for a downward point. The new
        corner is an implied certificate; the pair (u, F(u)) backing it joins
        every later violation.
        """
        self._phase = PHASE_OUTER
        self._level = -1
        u, fu = out.point, out.fvalue
        if not box.contains(fu):
            raise self._violation(
                f"image {fu} of the certified corner {u} left the box "
                f"{box.lo}..{box.hi}",
                ((u, fu),),
                box,
            )
        self._evidence += ((u, fu),)
        corner = self._certify(LevelOutcome(out.kind, fu), ((u, fu),)).point
        return _half(box, out.kind, corner)

    def _verified(self, point: Point) -> Point:
        self._phase = PHASE_OUTER
        self._level = -1
        fp = self._query(point)
        if fp != point:
            raise MonotonicityViolation(
                f"answer {point} failed its final check", implicated=((point, fp),)
            )
        return point

    def _delegate(self, box: Box) -> Point:
        """Boxes with a pinched side (and grids below 3D) go to the binary
        search baseline; i-upward/i-downward points cannot exist along a
        pinched axis, so the level machinery has nothing to grab."""
        self._phase = PHASE_OUTER
        self._level = -1
        report = dqy_solve(_TracingOracle(self), box)
        return report.fixed_point

    def _finish_brute(self, box: Box) -> Point:
        self._phase = PHASE_BRUTE
        self._level = -1
        return brute_solve(_TracingOracle(self), box)

    # -- one level --------------------------------------------------------

    def solve_level(self, box: Box, k: int) -> LevelOutcome:
        """Find an upward point at-or-above level k or a downward point
        at-or-below it, inside a box with certified corners."""
        if not norm1(box.lo) < k < norm1(box.hi):
            raise ValueError(f"level {k} must lie strictly inside {box.lo}..{box.hi}")
        if any(s < 2 for s in box.sides):
            raise ValueError("solve_level needs all box sides >= 2")
        self._level = k
        before = self.oracle.distinct_queries
        self._emit("level_start", {"box": box, "k": k, "queries": before})
        try:
            outcome = self._run_level(box, k)
            if outcome.kind == UPWARD:
                assert norm1(outcome.point) >= k
            elif outcome.kind == DOWNWARD:
                assert norm1(outcome.point) <= k
            return outcome
        except MonotonicityViolation as mv:
            raise mv.extended(self._corner_pairs(box)) from None
        finally:
            self._emit(
                "level_done",
                {"box": box, "k": k, "queries": self.oracle.distinct_queries - before},
            )
            self._level = -1

    def _run_level(self, box: Box, k: int) -> LevelOutcome:
        ups: list[tuple[Point, Point]] = []
        downs: list[tuple[Point, Point]] = []
        self._phase = PHASE_INIT
        for axis in range(3):
            res = self.init_direction(box, k, axis)
            if isinstance(res, LevelOutcome):
                return res
            up_pair, down_pair = res
            ups.append(up_pair)
            downs.append(down_pair)
        state = LevelState(box, k, ups, downs)
        self._emit("init_done", state.snapshot())
        while True:
            view = search_space(state)
            if min(view.dia) <= 1:
                break
            if max(view.dia) >= 6:
                self._phase = PHASE_SHRINK
                res = self.shrink_once(state, view)
            else:
                self._phase = PHASE_SMALL
                res = self.small_case_step(state, view)
            if isinstance(res, LevelOutcome):
                return res
            state = res
        cfg = find_configuration(state)
        self._emit("config", {"config": cfg, "state": state.snapshot()})
        if cfg.kind != "third":
            return self.resolve_meet_join(cfg)
        self._phase = PHASE_THIRD
        return self.resolve_third(cfg, k)

    # -- initialization ---------------------------------------------------

    def init_direction(self, box: Box, k: int, axis: int):
        """Both bounding points for one axis: an i-downward point with the
        largest possible i-coordinate on the level and an i-upward point with
        the smallest, or an early LevelOutcome if a search hits one. The
        coordinate extremes make up(i)_i <= down(i)_i automatic."""
        down_pair = self._extreme_search(box, k, axis, 1)
        if isinstance(down_pair, LevelOutcome):
            return down_pair
        up_pair = self._extreme_search(box, k, axis, -1)
        if isinstance(up_pair, LevelOutcome):
            return up_pair
        return up_pair, down_pair

    def _extreme_search(self, box: Box, k: int, axis: int, s: int):
        """Find the extreme i-downward point (s = +1) or i-upward point
        (s = -1) of the level as a (point, value) pair, or an early outcome.

        The candidates form the one-dimensional segment of the level where
        coordinate ``axis`` is as large (oriented) as the box allows. Its two
        endpoints either resolve directly or bracket the segment: the low end
        strictly descends (oriented) in the third axis, the high end in the
        middle axis; binary search keeps that bracket until the endpoints are
        adjacent, where their meet is a certified downward (oriented) point.
        """
        j, p = _others(axis)

        def probe(q: Point, fq: Point):
            """An outcome, the sought pair when q is axis-downward (oriented),
            the bracket end q can replace (_LOW or _HIGH), or None when its
            sign pattern is impossible on the segment."""
            si = s * sign(fq[axis] - q[axis])
            sj = s * sign(fq[j] - q[j])
            sp = s * sign(fq[p] - q[p])
            if sj >= 0 and sp >= 0:
                if si < 0:
                    return q, fq
                return LevelOutcome(FIXED if si == sj == sp == 0 else _kind(s), q, fq)
            if si > 0:
                return None
            if sj <= 0 and sp <= 0:
                return LevelOutcome(_kind(-s), q, fq)
            return _LOW if sj >= 0 else _HIGH

        ends: list[tuple[Point, Point]] = []
        for side, far in ((_LOW, j), (_HIGH, p)):
            q = _oriented_extreme(box, k, axis, far, s)
            if ends and q == ends[_LOW][0]:
                raise self._violation(
                    f"single-point init segment for axis {axis} did not resolve",
                    ends,
                    box,
                )
            fq = self._query(q)
            res = probe(q, fq)
            if isinstance(res, (LevelOutcome, tuple)):
                return res
            if res != side:
                raise self._violation(
                    f"endpoint {q} of the axis-{axis} init segment has an impossible sign pattern",
                    (*ends, (q, fq)),
                    box,
                )
            ends.append((q, fq))
        pinned = ends[_LOW][0][axis]
        while abs(ends[_HIGH][0][j] - ends[_LOW][0][j]) > 1:
            mid = (ends[_LOW][0][j] + ends[_HIGH][0][j]) // 2
            q = [0, 0, 0]
            q[axis], q[j], q[p] = pinned, mid, k - pinned - mid
            q = tuple(q)
            fq = self._query(q)
            res = probe(q, fq)
            if isinstance(res, (LevelOutcome, tuple)):
                return res
            if res is None:
                raise self._violation(
                    f"segment point {q} has an impossible sign pattern",
                    (*ends, (q, fq)),
                    box,
                )
            ends[res] = (q, fq)
        return self._certify(_meet_outcome(s, [pt for pt, _ in ends]), tuple(ends))

    # -- shrinking --------------------------------------------------------

    def shrink_once(self, state: LevelState, view: SearchSpaceView | None = None):
        """One geometric shrink while some diameter is >= 6.

        The probe sits at least ceil(dia_i/6) inside both bounds on every
        axis (such a level point always exists under the preconditions), so
        whatever per-axis label it gets moves that bound by at least a sixth
        of the diameter. Among those points it takes the central one, which
        keeps every axis about equally far from both bounds instead of
        pushing the first axes to one bound and the last to the other.
        """
        view = view or search_space(state)
        assert all(d > 1 for d in view.dia) and max(view.dia) >= 6
        step = tuple(-(-d // 6) for d in view.dia)
        lower = tuple(l + s for l, s in zip(view.ell, step))
        upper = tuple(r - s for r, s in zip(view.r, step))
        q = central_level_point(lower, upper, state.k)
        fq = self._query(q)
        before = state.snapshot()
        res = self._apply_query(state, q, fq)
        self._emit(
            "shrink",
            {
                "state_before": before,
                "view": view,
                "q": q,
                "fq": fq,
                "outcome": res if isinstance(res, LevelOutcome) else None,
                "dia_after": None if isinstance(res, LevelOutcome) else search_space(res).dia,
            },
        )
        return res

    def small_case_step(self, state: LevelState, view: SearchSpaceView | None = None):
        """One constant-size step once every diameter is below 6.

        If S still has a point strictly inside every bound, probing it shrinks
        some diameter. Otherwise S hugs one corner of its bounding ranges, the
        lower one (s = +1) or the upper one (s = -1); probing the three points
        one step inside that corner either makes progress through an
        unexpected label or proves (all three i-upward, resp. i-downward) that
        the corner plus s is an upward, resp. downward, point with no further
        query.
        """
        view = view or search_space(state)
        assert all(d > 1 for d in view.dia) and max(view.dia) < 6
        ell, r, k = view.ell, view.r, state.k
        before = state.snapshot()
        if sum(ell) + 3 <= k <= sum(r) - 3:
            q = level_point(tuple(c + 1 for c in ell), tuple(c - 1 for c in r), k)
            res = self._apply_query(state, q, self._query(q))
        else:
            s, corner = (1, ell) if sum(ell) + 3 > k else (-1, r)
            if sum(corner) != k - 2 * s:
                raise self._violation(
                    "search-space bounds inconsistent with the level",
                    state.pairs(),
                    state.box,
                )
            probes = []
            for axis in range(3):
                q = tuple(c + s * (a != axis) for a, c in enumerate(corner))
                fq = self._query(q)
                probes.append((q, fq))
                _, labels = classify(q, fq)
                res = self._outcome_from_labels(q, fq, labels)
                if res is not None:
                    break
                self._update_state(state, q, fq, labels)
                if axis not in (labels.i_upward if s > 0 else labels.i_downward):
                    res = state
                    break
            else:
                res = self._certify(
                    LevelOutcome(_kind(s), tuple(c + s for c in corner)), tuple(probes)
                )
        self._emit(
            "small",
            {
                "state_before": before,
                "view": view,
                "outcome": res if isinstance(res, LevelOutcome) else None,
                "dia_after": None if isinstance(res, LevelOutcome) else search_space(res).dia,
            },
        )
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
        others = _others(i)
        low_axes = [a for a in others if y[a] < x[a]]
        if len(low_axes) != 1 or not x[i] <= y[i] <= x[i] + 1:
            raise MonotonicityViolation(
                "malformed third configuration", implicated=cfg.points
            )
        j = low_axes[0]
        p = others[0] if others[1] == j else others[1]

        if fx[j] == x[j]:
            return self._certify(LevelOutcome(UPWARD, lub(x, y)), cfg.points)
        if fy[j] == y[j]:
            return self._certify(LevelOutcome(DOWNWARD, glb(x, y)), cfg.points)
        # x is i-upward and y is i-downward, so now fx_j < x_j and fy_j > y_j.
        if y[j] == x[j] - 1:
            return self._certify(LevelOutcome(DOWNWARD, glb(x, y)), cfg.points)

        pinned = y[i]

        def segment_point(cj: int) -> Point:
            q = [0, 0, 0]
            q[i], q[j], q[p] = pinned, cj, k - pinned - cj
            return tuple(q)

        def settle(q: Point, fq: Point) -> LevelOutcome | str:
            if fq[i] >= q[i]:
                if fq[j] >= q[j]:
                    return self._certify(
                        LevelOutcome(UPWARD, lub(q, y)), ((q, fq), (y, fy))
                    )
                return "keep_high"
            if fq[j] <= q[j]:
                return self._certify(
                    LevelOutcome(DOWNWARD, glb(x, q)), ((x, fx), (q, fq))
                )
            return "keep_low"

        ell, f_ell = y, fy
        right = segment_point(x[j] - 1)
        f_right = self._query(right)
        res = settle(right, f_right)
        if isinstance(res, LevelOutcome):
            return res
        if res == "keep_low":
            # The whole bracket is low-typed; the meet with x still certifies
            # because f_right_i < right_i = y_i <= x_i + 1 and fx_j < x_j = right_j + 1.
            return self._certify(
                LevelOutcome(DOWNWARD, glb(x, right)), ((x, fx), (right, f_right))
            )
        while right[j] - ell[j] > 1:
            q = segment_point((ell[j] + right[j]) // 2)
            fq = self._query(q)
            res = settle(q, fq)
            if isinstance(res, LevelOutcome):
                return res
            if res == "keep_low":
                ell, f_ell = q, fq
            else:
                right, f_right = q, fq
        if f_right[p] <= right[p]:
            out = LevelOutcome(DOWNWARD, glb(ell, right))
        else:
            out = LevelOutcome(UPWARD, lub(ell, right))
        return self._certify(out, ((ell, f_ell), (right, f_right)))


class _TracingOracle:
    """Adapter letting a baseline run its queries through a solver, so
    delegated boxes and the final scan show up in the trace."""

    def __init__(self, solver: LevelsetSolver):
        self._solver = solver
        self.instance = solver.oracle.instance

    def query(self, x: Point) -> Point:
        return self._solver._query(x)

    @property
    def distinct_queries(self) -> int:
        return self._solver.oracle.distinct_queries


def solve(oracle, *, verify_certificates: bool = False, trace=None, observer=None) -> Point:
    """Find a verified fixed point of the oracle's instance (d <= 3)."""
    return LevelsetSolver(
        oracle,
        verify_certificates=verify_certificates,
        trace=trace,
        observer=observer,
    ).solve()


def solve_level(oracle, box: Box, k: int, *, verify_certificates: bool = False,
                trace=None, observer=None) -> LevelOutcome:
    """Run the level procedure once on a box with certified corners."""
    return LevelsetSolver(
        oracle,
        verify_certificates=verify_certificates,
        trace=trace,
        observer=observer,
    ).solve_level(box, k)
