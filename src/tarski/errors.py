"""Shared exception types and monotonicity-violation witnesses."""

from __future__ import annotations

from dataclasses import dataclass


class CapacityError(ValueError):
    """An operation would materialize or scan more grid points than allowed."""


class InfeasibleLevelError(ValueError):
    """No grid point satisfies the requested bounds and coordinate sum."""


class InstanceFormatError(ValueError):
    """An instance file failed to parse; carries the offending line number."""

    def __init__(self, path: str, line: int, reason: str):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")


@dataclass(frozen=True)
class Violation:
    """Witness that F is not monotone: x <= y but not F(x) <= F(y)."""

    x: tuple
    y: tuple
    fx: tuple
    fy: tuple


def find_violation_pair(pairs) -> Violation | None:
    """Scan a sequence of (point, value) pairs for an explicit violating pair."""
    for xp, xv in pairs:
        for yp, yv in pairs:
            if xp == yp:
                continue
            if all(a <= b for a, b in zip(xp, yp)) and not all(
                a <= b for a, b in zip(xv, yv)
            ):
                return Violation(xp, yp, xv, yv)
    return None


class MonotonicityViolation(Exception):
    """The observed F-values cannot belong to any monotone function.

    ``implicated`` is the constant-size set of queried (point, F(point))
    pairs the failing step examined, the one record a violation keeps. It
    lists each point once, in the order the pairs came, with the value of
    the point's first occurrence; extend keeps that rule. ``witness`` is
    worked out from it each time it is read: an explicit violating pair
    among those pairs, or None. Extracting it is best effort; the
    implicated set itself is the reliable diagnostic.
    """

    def __init__(self, message: str, implicated=()):
        self.implicated = _each_point_once(implicated)
        super().__init__(message)

    @property
    def witness(self) -> Violation | None:
        return find_violation_pair(self.implicated)

    def extend(self, extra_pairs) -> None:
        """Attach more context pairs, in place; a point keeps the value of
        its first occurrence."""
        self.implicated = _each_point_once(self.implicated + tuple(extra_pairs))


def _each_point_once(pairs) -> tuple:
    """The (point, value) pairs with each point once, first occurrence first."""
    merged: dict = {}
    for p, v in pairs:
        merged.setdefault(p, v)
    return tuple(merged.items())
