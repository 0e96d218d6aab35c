"""Counted, cached query access to grid functions, plus instance tooling.

An Instance is a concrete function F from a grid to itself, either as an
explicit table or in lazy target-sign form. A CountedOracle is the only
query boundary the solvers see: it caches values and counts distinct
evaluations, the cost measure everything here optimizes.

Instances are immutable after construction and may be shared across threads;
a CountedOracle is single-owner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, InstanceFormatError, Violation
from .lattice import Point, full_box, iter_box
from .rng import SplitMix64

MAX_DENSE_POINTS = 10**6

KIND_TARGET = "target"
KIND_TABLE = "table"

FORMAT_MAGIC = "tarski-instance v1"


@dataclass(frozen=True)
class Instance:
    """A function F: grid -> grid with one of two concrete representations.

    target kind: F(x)_i = x_i + sign(target_i - x_i), monotone with the
    single fixed point ``target``; evaluated lazily so sides can be huge.
    table kind: explicit F-values in lexicographic point order (first
    coordinate slowest); not necessarily monotone.
    """

    shape: tuple[int, ...]
    kind: str
    target: Point | None = None
    table: tuple[Point, ...] | None = None

    def __post_init__(self):
        if not self.shape or any(n < 1 for n in self.shape):
            raise ValueError(f"invalid shape {self.shape}")
        if self.kind == KIND_TARGET:
            if self.target is None or not self.contains(self.target):
                raise ValueError(f"target {self.target} outside grid {self.shape}")
        elif self.kind == KIND_TABLE:
            if self.table is None or len(self.table) != self.volume:
                got = None if self.table is None else len(self.table)
                raise ValueError(f"table needs {self.volume} rows, got {got}")
            for row in self.table:
                if not self.contains(row):
                    raise ValueError(f"table value {row} outside grid {self.shape}")
        else:
            raise ValueError(f"unknown instance kind {self.kind!r}")

    @property
    def volume(self) -> int:
        v = 1
        for n in self.shape:
            v *= n
        return v

    def contains(self, x: Point) -> bool:
        if len(x) != len(self.shape):
            return False
        for c, n in zip(x, self.shape):
            if not 1 <= c <= n:
                return False
        return True

    def value(self, x: Point) -> Point:
        """Evaluate F(x). No bounds check; the oracle validates queries."""
        if self.kind == KIND_TARGET:
            # c + sign(t - c), with the sign written out
            return tuple([c + (t > c) - (t < c) for c, t in zip(x, self.target)])
        idx = 0
        for c, n in zip(x, self.shape):
            idx = idx * n + (c - 1)
        return self.table[idx]


class CountedOracle:
    """Query gateway to an instance.

    Repeated queries of the same point are served from the cache and are not
    counted: distinct_queries equals the number of cache entries. An optional
    transcript records (point, value) pairs in first-query order.
    """

    def __init__(self, instance: Instance, record_transcript: bool = False):
        self.instance = instance
        self.cache: dict[Point, Point] = {}
        self.distinct_queries = 0
        self.transcript: list[tuple[Point, Point]] | None = (
            [] if record_transcript else None
        )

    def query(self, x: Point) -> Point:
        fx = self.cache.get(x)
        if fx is not None:
            return fx
        inst = self.instance
        if not inst.contains(x):
            raise ValueError(f"query {x} outside grid {inst.shape}")
        fx = inst.value(x)
        self.cache[x] = fx
        self.distinct_queries += 1
        if self.transcript is not None:
            self.transcript.append((x, fx))
        return fx


def gen_target(shape, target: Point) -> Instance:
    """Target-sign instance: every value steps one unit toward ``target``."""
    return Instance(shape=tuple(shape), kind=KIND_TARGET, target=tuple(target))


def _check_dense(volume: int, what: str) -> None:
    if volume > MAX_DENSE_POINTS:
        raise CapacityError(
            f"{what} needs {volume} grid points, limit is {MAX_DENSE_POINTS}"
        )


def gen_random_monotone(shape, seed: int) -> Instance:
    """Seeded random monotone table.

    Draws a uniform random raw table from a splitmix64 stream (one draw per
    coordinate, points in lexicographic order), then monotonizes it with
    running maxima. Same seed, same instance, on any platform.
    """
    shape = tuple(shape)
    inst_box = full_box(shape)
    _check_dense(inst_box.volume, "gen_random_monotone")
    rng = SplitMix64(seed)
    raw = [
        tuple(1 + rng.below(n) for n in shape) for _ in range(inst_box.volume)
    ]
    return Instance(shape=shape, kind=KIND_TABLE, table=tuple(monotonize_table(shape, raw)))


def monotonize_table(shape, table) -> list[Point]:
    """Running componentwise maxima along every axis.

    The result at x is the componentwise max of the input over all y <= x,
    so it is always monotone, and monotone inputs pass through unchanged.
    """
    shape = tuple(shape)
    vals = list(table)
    stride = 1
    strides = []
    for n in reversed(shape):
        strides.append(stride)
        stride *= n
    strides.reverse()
    for axis, n in enumerate(shape):
        if n == 1:
            continue
        st = strides[axis]
        for idx in range(len(vals)):
            if (idx // st) % n > 0:
                prev = vals[idx - st]
                cur = vals[idx]
                vals[idx] = tuple(max(a, b) for a, b in zip(cur, prev))
    return vals


def verify_monotone(inst: Instance) -> Violation | None:
    """None if F is monotone, else a concrete violating pair.

    Only immediate-successor pairs (y = x + unit vector) are compared; by
    transitivity of the componentwise order that implies full monotonicity.
    """
    _check_dense(inst.volume, "verify_monotone")
    d = len(inst.shape)
    for x in iter_box(full_box(inst.shape)):
        fx = inst.value(x)
        for axis in range(d):
            if x[axis] == inst.shape[axis]:
                continue
            y = x[:axis] + (x[axis] + 1,) + x[axis + 1 :]
            fy = inst.value(y)
            if any(a > b for a, b in zip(fx, fy)):
                return Violation(x, y, fx, fy)
    return None


def fixed_points_bruteforce(inst: Instance) -> set[Point]:
    """Exactly the set of points with F(x) = x, by exhaustive scan."""
    _check_dense(inst.volume, "fixed_points_bruteforce")
    return {x for x in iter_box(full_box(inst.shape)) if inst.value(x) == x}


def save_instance(inst: Instance, path) -> None:
    """Write the line-based text format (see load_instance)."""
    lines = [
        FORMAT_MAGIC,
        f"d {len(inst.shape)}",
        "shape " + " ".join(str(n) for n in inst.shape),
        f"kind {inst.kind}",
    ]
    if inst.kind == KIND_TARGET:
        lines.append("target " + " ".join(str(c) for c in inst.target))
    else:
        lines.extend(" ".join(str(c) for c in row) for row in inst.table)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_ints(path, lineno: int, text: str, label: str) -> tuple[int, ...]:
    parts = text.split(" ")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise InstanceFormatError(path, lineno, f"malformed {label}: {text!r}") from None


def load_instance(path) -> Instance:
    """Parse an instance file.

    Format (UTF-8, LF line endings, no trailing whitespace):
        tarski-instance v1
        d <dimension>
        shape <n1> ... <nd>
        kind target | kind table
        target <x1> ... <xd>            (target kind)
        <f1> ... <fd>  x volume lines   (table kind, lexicographic order)
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            path, data.count(b"\n", 0, exc.start) + 1, f"not UTF-8: {exc.reason}"
        ) from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def need(idx: int, what: str) -> str:
        if idx >= len(lines):
            raise InstanceFormatError(path, idx + 1, f"missing {what}")
        return lines[idx]

    if need(0, "header") != FORMAT_MAGIC:
        raise InstanceFormatError(path, 1, f"expected {FORMAT_MAGIC!r}")
    dline = need(1, "dimension line")
    if not dline.startswith("d "):
        raise InstanceFormatError(path, 2, f"expected 'd <dimension>', got {dline!r}")
    (d,) = _parse_ints(path, 2, dline[2:], "dimension")
    if d < 1:
        raise InstanceFormatError(path, 2, f"dimension must be positive, got {d}")
    sline = need(2, "shape line")
    if not sline.startswith("shape "):
        raise InstanceFormatError(path, 3, f"expected 'shape ...', got {sline!r}")
    shape = _parse_ints(path, 3, sline[6:], "shape")
    if len(shape) != d:
        raise InstanceFormatError(path, 3, f"expected {d} shape entries, got {len(shape)}")
    if any(n < 1 for n in shape):
        raise InstanceFormatError(path, 3, f"shape sides must be positive: {shape}")
    kline = need(3, "kind line")
    if kline == "kind target":
        tline = need(4, "target line")
        if not tline.startswith("target "):
            raise InstanceFormatError(path, 5, f"expected 'target ...', got {tline!r}")
        target = _parse_ints(path, 5, tline[7:], "target")
        if len(target) != d:
            raise InstanceFormatError(path, 5, f"expected {d} target entries")
        if len(lines) > 5:
            raise InstanceFormatError(path, 6, "unexpected trailing content")
        if any(not 1 <= c <= n for c, n in zip(target, shape)):
            raise InstanceFormatError(path, 5, f"target {target} outside grid")
        return Instance(shape=shape, kind=KIND_TARGET, target=target)
    if kline == "kind table":
        volume = 1
        for n in shape:
            volume *= n
        _check_dense(volume, "loading a table instance")
        rows = []
        for i in range(volume):
            lineno = 5 + i
            row = _parse_ints(path, lineno, need(lineno - 1, f"table row {i + 1}"), "table row")
            if len(row) != d:
                raise InstanceFormatError(path, lineno, f"expected {d} values per row")
            if any(not 1 <= c <= n for c, n in zip(row, shape)):
                raise InstanceFormatError(path, lineno, f"value {row} outside grid")
            rows.append(row)
        if len(lines) > 4 + volume:
            raise InstanceFormatError(path, 5 + volume, "unexpected trailing content")
        return Instance(shape=shape, kind=KIND_TABLE, table=tuple(rows))
    raise InstanceFormatError(path, 4, f"expected 'kind target' or 'kind table', got {kline!r}")
