"""Counted, cached query access to grid functions, plus instance tooling.

An Instance is a concrete function F from a grid to itself, either as an
explicit table or in lazy target-sign form. A CountedOracle is the only
query boundary the solvers see: it caches values and counts distinct
evaluations, the cost measure everything here optimizes.

Instances are immutable after construction and may be shared across threads;
a CountedOracle is single-owner.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, count, groupby
from math import gcd, prod
from operator import eq

from .errors import CapacityError, InstanceFormatError, Violation
from .lattice import Point, _check_shape, full_box, iter_box
from .rng import SplitMix64

MAX_DENSE_POINTS = 10**6

KIND_TARGET = "target"
KIND_TABLE = "table"

FORMAT_MAGIC = "tarski-instance v1"
# The numbers of a line in an instance file: decimals without sign or
# leading zero, separated by single spaces.
_NUMBERS = re.compile(r"(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*))*")
# Table rows split at once by load_instance; one token list for a whole
# file would add its size to peak memory.
_CHUNK_ROWS = 1024
# Running maxima make most rows of a generated table repeat, and a sample of
# every _SAMPLE_STEP-th row tells such a table from one whose rows are
# mostly distinct, so neither pays for the other's path. load_instance
# splits a chunk whose sample repeats a line by its distinct lines only;
# save_instance formats a table by runs of equal rows when at least half of
# its sampled adjacent pairs (row i and row i + 1) are equal, stepping by
# the first stride from _SAMPLE_STEP up that shares no factor with the last
# side, so that its pairs fall at every place along the last axis.
_SAMPLE_STEP = 32


@dataclass(frozen=True)
class Instance:
    """A function F: grid -> grid with one of two concrete representations.

    target kind: F(x)_i = x_i + sign(target_i - x_i), monotone with the
    single fixed point ``target``; evaluated lazily so sides can be huge.
    table kind: explicit F-values in lexicographic point order (first
    coordinate slowest); not necessarily monotone.

    shape and target are tuples of ints and table is a tuple of such
    tuples, else ValueError naming the field.

    A table is checked once, one row per point and each row inside the
    grid: by this constructor, for tables from outside the library, or by
    gen_random_monotone and load_instance, which check their own shape and
    rows as they build them and then call _checked_table.
    """

    shape: tuple[int, ...]
    kind: str
    target: Point | None = None
    table: tuple[Point, ...] | None = None

    def __post_init__(self):
        _check_shape(self.shape)
        target, table = self.target, self.table
        if self.kind == KIND_TARGET:
            if target is not None and not _is_point(target):
                raise ValueError(f"target {target!r} is not a tuple of ints")
            if target is None or not self.contains(target):
                raise ValueError(f"target {target} outside grid {self.shape}")
        elif self.kind == KIND_TABLE:
            if table is not None and type(table) is not tuple:
                raise ValueError(f"table is a {type(table).__name__}, not a tuple")
            _check_table(self.shape, table)
        else:
            raise ValueError(f"unknown instance kind {self.kind!r}")

    @property
    def volume(self) -> int:
        return prod(self.shape)

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
    counted. The cache, in insertion order, is the one record of the queries:
    distinct_queries is its size, and transcript, the (point, value) pairs in
    first-query order, is its items, worked out when read (None unless
    record_transcript is set).
    """

    def __init__(self, instance: Instance, record_transcript: bool = False):
        self.instance = instance
        self.cache: dict[Point, Point] = {}
        self._record_transcript = record_transcript
        self._evaluate = _evaluator(instance)

    @property
    def distinct_queries(self) -> int:
        return len(self.cache)

    @property
    def transcript(self) -> list[tuple[Point, Point]] | None:
        return list(self.cache.items()) if self._record_transcript else None

    def query(self, x: Point) -> Point:
        cache = self.cache
        fx = cache.get(x)
        if fx is not None:
            return fx
        fx = self._evaluate(x)
        if fx is None:
            raise ValueError(f"query {x} outside grid {self.instance.shape}")
        cache[x] = fx
        return fx


def _evaluator(inst: Instance):
    """F as one function of a point, returning None for a point outside the
    grid, bounds check included.

    3D grids, where nearly all queries go, get the check and the evaluation
    written out on unpacked coordinates, the unpacking doubling as the
    length check; other dimensions use the instance's own contains and
    value.
    """
    if len(inst.shape) != 3:
        contains, value = inst.contains, inst.value
        return lambda x: value(x) if contains(x) else None
    n0, n1, n2 = inst.shape
    if inst.kind == KIND_TARGET:
        t0, t1, t2 = inst.target

        def evaluate(x):
            try:
                a, b, c = x
            except ValueError:
                return None
            if 1 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:
                # c + sign(t - c) per coordinate, as in Instance.value, by
                # comparisons: CPython's specialized int add takes no bool.
                return (
                    a + 1 if a < t0 else a - 1 if a > t0 else a,
                    b + 1 if b < t1 else b - 1 if b > t1 else b,
                    c + 1 if c < t2 else c - 1 if c > t2 else c,
                )
            return None

        return evaluate
    table = inst.table

    def evaluate(x):
        try:
            a, b, c = x
        except ValueError:
            return None
        if 1 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:
            return table[((a - 1) * n1 + b - 1) * n2 + c - 1]
        return None

    return evaluate


def gen_target(shape, target: Point) -> Instance:
    """Target-sign instance: every value steps one unit toward ``target``."""
    return Instance(shape=tuple(shape), kind=KIND_TARGET, target=tuple(target))


def _check_dense(volume: int, what: str) -> None:
    if volume > MAX_DENSE_POINTS:
        raise CapacityError(
            f"{what} needs {volume} grid points, limit is {MAX_DENSE_POINTS}"
        )


def _strides(shape) -> list[int]:
    """Flat-index step of each axis in lexicographic point order."""
    strides = [1] * len(shape)
    for axis in range(len(shape) - 1, 0, -1):
        strides[axis - 1] = strides[axis] * shape[axis]
    return strides


def _little(words: array) -> array:
    """words, in place, from the host's byte order to little-endian or back."""
    if sys.byteorder == "big":
        words.byteswap()
    return words


class _Lanes:
    """Columns of a grid's points packed into one int each, one lane per
    point, lowest lane first.

    A lane is w = 8, 16 or 32 bits: the smallest width whose top bit, the
    guard, lies above every value of the grid. Values run up to the largest
    side, so that side sets the width for every axis. With the guards free,
    ((x | H) - y) & H, for H the guard bits, holds a lane's guard iff its x
    is at least its y: x_i + 2^(w-1) - y_i stays within 0 and 2^w, so no
    lane borrows from the one above. Columns are read in and out as
    little-endian words, so the lanes do not depend on the host's byte
    order.
    """

    def __init__(self, shape):
        self.shape = shape
        self.volume = prod(shape)
        self.strides = _strides(shape)
        self.size = next(s for s in (1, 2, 4) if max(shape) < 1 << (8 * s - 1))
        self.bits = 8 * self.size
        self.code = next(c for c in "BHIL" if array(c).itemsize == self.size)
        self.guard = bytes(self.size - 1) + b"\x80"
        self.guards = int.from_bytes(self.guard * self.volume, "little")

    def layers(self, stride: int, n: int, lo: int, hi: int, lane: bytes) -> int:
        """The packed int that holds the bytes lane in each lane whose
        coordinate on the axis of this stride and side n lies in [lo, hi),
        and 0 in the others."""
        block = bytes(lo * stride * self.size) + lane * ((hi - lo) * stride)
        block += bytes((n - hi) * stride * self.size)
        return int.from_bytes(block * (self.volume // (stride * n)), "little")

    def _words(self, values):
        """values as little-endian lanes: bytes for one-byte lanes, which
        bytes() builds several times faster than array does, else an array
        of words."""
        if self.size == 1:
            return bytes(values)
        return _little(array(self.code, values))

    def draws(self, col: bytes) -> int:
        """The packed column of a column from SplitMix64.grid_columns,
        whose 128-bit little-endian lanes hold values that fit this width:
        each lane's low size bytes, taken as they sit."""
        return int.from_bytes(memoryview(col).cast(self.code)[:: 16 // self.size], "little")

    def columns(self, rows) -> list[int]:
        """The packed columns of rows of len(shape) values each."""
        d = len(self.shape)
        flat = self._words(chain.from_iterable(rows))
        return [int.from_bytes(flat[axis::d], "little") for axis in range(d)]

    def rows(self, cols: list[int]):
        """The rows of packed columns, as an iterator of tuples."""
        nbytes = self.volume * self.size
        return zip(*[_little(array(self.code, x.to_bytes(nbytes, "little"))) for x in cols])


def _is_point(x) -> bool:
    """Whether x is a tuple of ints."""
    return type(x) is tuple and all(type(c) is int for c in x)


def _check_table(shape: tuple[int, ...], table) -> None:
    """ValueError unless table holds one row per point of the grid, each a
    tuple of ints inside the grid.

    The rows are checked by the sets of their types and lengths, then each
    axis's column, one at a time, by the set of its types and by its min
    and max; the rows are scanned one by one only to name the first that
    fails.
    """
    volume = prod(shape)
    if table is None or len(table) != volume:
        got = None if table is None else len(table)
        raise ValueError(f"table needs {volume} rows, got {got}")
    d = len(shape)
    if set(map(type, table)) == {tuple} and set(map(len, table)) == {d} and all(
        set(map(type, col)) == {int} and 1 <= min(col) and max(col) <= n
        for col, n in zip(zip(*table), shape)
    ):
        return
    for row in table:
        if not _is_point(row):
            raise ValueError(f"table row {row!r} is not a tuple of ints")
        if len(row) != d or any(not 1 <= c <= n for c, n in zip(row, shape)):
            raise ValueError(f"table value {row} outside grid {shape}")


def _checked_table(shape: tuple[int, ...], table: tuple[Point, ...]) -> Instance:
    """The table Instance of a shape and rows the caller has checked as
    Instance would, built without running that check again."""
    inst = object.__new__(Instance)
    object.__setattr__(inst, "shape", shape)
    object.__setattr__(inst, "kind", KIND_TABLE)
    object.__setattr__(inst, "target", None)
    object.__setattr__(inst, "table", table)
    return inst


def _running_max(lanes: _Lanes, cols: list[int]) -> None:
    """Replace each packed column, in place, by its running maxima along
    every axis: afterwards lane x holds the max of the old lanes y <= x.

    A column is one int with a w-bit lane per point (see _Lanes). The top
    bit of a lane is its guard: the width comes from the largest side, so
    no value reaches it. Per axis a log-step prefix max: step k moves each
    column up by k layers (k * stride lanes) and clears the lanes whose
    coordinate on the axis is below k, which leaves 0, below every value.
    Then t = ((x | H) - y) & H keeps the guard of the lanes where x >= y,
    t - (t >> (w - 1)) widens it to a mask of the lane's value bits, and
    the lane-wise max picks x under the mask and y elsewhere.
    """
    h, w = lanes.guards, lanes.bits
    full = b"\xff" * lanes.size
    for n, st in zip(lanes.shape, lanes.strides):
        k = 1
        while k < n:
            keep, shift = lanes.layers(st, n, k, n, full), k * st * w
            for i, x in enumerate(cols):
                y = (x << shift) & keep
                t = ((x | h) - y) & h
                cols[i] = y ^ ((x ^ y) & (t - (t >> (w - 1))))
            k *= 2


def gen_random_monotone(shape, seed: int) -> Instance:
    """Seeded random monotone table.

    Draws a uniform random raw table from a splitmix64 stream (one draw
    1 + below(n) per coordinate, points in lexicographic order), then
    monotonizes it with running maxima. Same seed, same instance, on any
    platform. The draws come from SplitMix64.grid_columns as one packed
    column per axis, which _Lanes narrows to its lane width and
    _running_max monotonizes in place, so no coordinate becomes a Python
    int before the rows are read out. Every draw lies in 1..n for its axis
    and a running max keeps it there, so the table is in the grid without
    a check.
    """
    shape = tuple(shape)
    _check_shape(shape)
    volume = prod(shape)
    _check_dense(volume, "gen_random_monotone")
    lanes = _Lanes(shape)
    cols = list(map(lanes.draws, SplitMix64(seed).grid_columns(shape, volume)))
    _running_max(lanes, cols)
    return _checked_table(shape, tuple(lanes.rows(cols)))


def monotonize_table(shape, table) -> list[Point]:
    """Running componentwise maxima along every axis.

    The result at x is the componentwise max of the input over all y <= x,
    so it is always monotone, and monotone inputs pass through unchanged.
    The shape and the rows must be valid for an Instance, one in-grid
    tuple of ints per point, else ValueError; the table itself may be any
    sequence. The kernel packs each column into one int, a lane per point,
    whose width comes from the largest side so that the lane's top bit, its
    guard, stays clear; a value beyond the grid would spill into the guard
    or the next lane.
    """
    shape = tuple(shape)
    _check_shape(shape)
    _check_table(shape, table)
    lanes = _Lanes(shape)
    cols = lanes.columns(table)
    _running_max(lanes, cols)
    return list(lanes.rows(cols))


def _values(inst: Instance):
    """F's values in point order: the table, or a target instance's values
    evaluated point by point."""
    if inst.kind == KIND_TABLE:
        return inst.table
    return [inst.value(x) for x in iter_box(full_box(inst.shape))]


def verify_monotone(inst: Instance) -> Violation | None:
    """None if F is monotone, else a concrete violating pair.

    Only immediate-successor pairs (y = x + unit vector) are compared; by
    transitivity of the componentwise order that implies full monotonicity.
    The pair returned is the first in point order, then axis order.

    Each column is packed into one int, a lane per point, whose width
    comes from the largest side so that the top bit of every lane, its
    guard, stays clear (see _Lanes). The column is compared with itself
    moved down by one stride, which puts F(y)'s coordinate in x's lane:
    ((y | H) - x) & H keeps the guard where F(y) >= F(x), and no lane
    borrows from the next. Only after the subtract are the guards masked
    to the lanes not on the axis's last layer, whose neighbour lane is the
    next block's first layer or past the end. A guard left clear marks a
    violation, and the lowest one is the axis's first.
    """
    _check_dense(inst.volume, "verify_monotone")
    shape = inst.shape
    table = _values(inst)
    lanes = _Lanes(shape)
    h, w = lanes.guards, lanes.bits
    cols = lanes.columns(table)
    first = None  # (flat index of x, axis)
    for axis, (n, st) in enumerate(zip(shape, lanes.strides)):
        if n == 1:
            continue
        inner = lanes.layers(st, n, 0, n - 1, lanes.guard)
        bad = 0
        for x in cols:
            bad |= ~(((x >> st * w) | h) - x) & inner
        if bad:
            i = ((bad & -bad).bit_length() - 1) // w
            if first is None or i < first[0]:
                first = (i, axis)
    if first is None:
        return None
    i, axis = first
    coords, rest = [], i
    for n in reversed(shape):
        rest, c = divmod(rest, n)
        coords.append(c + 1)
    x = tuple(reversed(coords))
    y = x[:axis] + (x[axis] + 1,) + x[axis + 1 :]
    return Violation(x, y, table[i], table[i + lanes.strides[axis]])


def fixed_points_bruteforce(inst: Instance) -> set[Point]:
    """Exactly the set of points with F(x) = x, by exhaustive scan."""
    _check_dense(inst.volume, "fixed_points_bruteforce")
    return {x for x, fx in zip(iter_box(full_box(inst.shape)), _values(inst)) if x == fx}


def save_instance(inst: Instance, path) -> None:
    """Write the line-based text format (see load_instance).

    A table's rows are formatted one of two ways, which write the same
    bytes. Running maxima leave a generated table as a few hundred runs of
    equal consecutive rows (226 in 13,824 rows at 24^3, seed 7), so when at
    least half of the sampled adjacent pairs (row i and row i + 1, at every
    step-th i, the step sharing no factor with the last side) are equal,
    each run's row is formatted once and its line repeated. Any other
    table, such as a rotation or the identity, whose rows mostly differ
    from their neighbours, is formatted whole in one % operation: run by
    run it would save about three times slower.
    """
    lines = [
        FORMAT_MAGIC,
        f"d {len(inst.shape)}",
        "shape " + " ".join(map(str, inst.shape)),
        f"kind {inst.kind}",
    ]
    if inst.kind == KIND_TARGET:
        lines.append("target " + " ".join(map(str, inst.target)))
    text = "\n".join(lines) + "\n"
    if inst.kind == KIND_TABLE:
        table = inst.table
        row = " ".join(["%d"] * len(inst.shape)) + "\n"
        step = next(s for s in count(_SAMPLE_STEP) if gcd(s, inst.shape[-1]) == 1)
        sampled = table[1::step]
        if 2 * sum(map(eq, table[:-1:step], sampled)) >= len(sampled):
            text += "".join([(row % r) * len(list(g)) for r, g in groupby(table)])
        else:
            text += row * inst.volume % tuple(chain.from_iterable(table))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _parse_ints(path, lineno: int, text: str, label: str) -> tuple[int, ...]:
    """The numbers of a line: canonical decimals separated by single spaces."""
    if _NUMBERS.fullmatch(text):
        try:
            return tuple(map(int, text.split(" ")))
        except ValueError:  # more digits than int() converts
            pass
    raise InstanceFormatError(path, lineno, f"malformed {label}: {text!r}")


def _table_rows(path, shape, lines: list[str], start: int) -> tuple[Point, ...]:
    """The table rows in lines[start : start + volume], as many of them as
    there are lines; InstanceFormatError at the first that is not len(shape)
    canonical decimals, each inside its axis's range.

    Lines are read _CHUNK_ROWS at a time and joined by " \\n " and split
    once. Running maxima saturate the tables gen_random_monotone makes, so
    most of their rows repeat: when a chunk's sample (every _SAMPLE_STEP-th
    line) holds a repeat, only its distinct lines, in the order they first
    occur, are joined and split, and each line of the chunk takes the row
    parsed from its text, so equal lines share one tuple. A chunk whose
    sample holds no repeat is split whole, so a table whose rows are mostly
    distinct does not pay for finding them.
    Each axis's tokens are looked up in a map from the decimals of 1..n to
    their values, so any other token, "\\n" included, is a KeyError. With
    d + 1 tokens per line but the last, that leaves every "\\n" after the
    d-th token of a line, so each line holds d tokens. A chunk thus passes
    exactly when every line it splits, and so every line of it, is a valid
    row: all chunks before the first that fails are clean, and reading
    just that chunk again line by line names the first bad line of the
    file.

    This is the only check on a loaded table's rows: load_instance hands
    them to _checked_table, which does not check them again.
    """
    d = len(shape)
    values = {n: {str(c): c for c in range(1, n + 1)} for n in set(shape)}
    lookups = [values[n].__getitem__ for n in shape]
    rows: list[Point] = []
    stop = min(len(lines), start + prod(shape))
    for i in range(start, stop, _CHUNK_ROWS):
        chunk = lines[i : min(i + _CHUNK_ROWS, stop)]
        sample = chunk[::_SAMPLE_STEP]
        split = dict.fromkeys(chunk) if len(set(sample)) < len(sample) else chunk
        tokens = " \n ".join(split).split(" ")
        if len(tokens) == (d + 1) * len(split) - 1:
            try:
                parsed = zip(*[map(get, tokens[axis :: d + 1]) for axis, get in enumerate(lookups)])
                rows += parsed if split is chunk else map(dict(zip(split, parsed)).__getitem__, chunk)
                continue
            except KeyError:
                pass
        for lineno, text in enumerate(chunk, i + 1):
            row = _parse_ints(path, lineno, text, "table row")
            if len(row) != d:
                raise InstanceFormatError(path, lineno, f"expected {d} values per row")
            if any(not 1 <= c <= n for c, n in zip(row, shape)):
                raise InstanceFormatError(path, lineno, f"value {row} outside grid")
    return tuple(rows)


def load_instance(path) -> Instance:
    """Parse an instance file.

    Format (UTF-8, LF line endings, no trailing whitespace):
        tarski-instance v1
        d <dimension>
        shape <n1> ... <nd>
        kind target | kind table
        target <x1> ... <xd>            (target kind)
        <f1> ... <fd>  x volume lines   (table kind, lexicographic order)

    Every number is a canonical decimal (0 or a digit 1-9 followed by
    digits: no sign, leading zero, underscore or non-ASCII digit), and the
    numbers of a line are separated by single spaces. A file that breaks
    the format raises InstanceFormatError naming its first offending line.
    _table_rows reads the table rows and names the first bad one; a missing
    row and content past the last row are checked after it, as they come
    later in the file.
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

    def numbers(idx: int, word: str, label: str, form: str = "...") -> tuple[int, ...]:
        """The numbers of line idx + 1, which starts with word and a space."""
        text = need(idx, f"{label} line")
        if not text.startswith(word + " "):
            raise InstanceFormatError(path, idx + 1, f"expected '{word} {form}', got {text!r}")
        return _parse_ints(path, idx + 1, text[len(word) + 1 :], label)

    if need(0, "header") != FORMAT_MAGIC:
        raise InstanceFormatError(path, 1, f"expected {FORMAT_MAGIC!r}")
    dims = numbers(1, "d", "dimension", "<dimension>")
    if len(dims) != 1:
        raise InstanceFormatError(path, 2, f"malformed dimension: {lines[1][2:]!r}")
    (d,) = dims
    if d < 1:
        raise InstanceFormatError(path, 2, f"dimension must be positive, got {d}")
    shape = numbers(2, "shape", "shape")
    if len(shape) != d:
        raise InstanceFormatError(path, 3, f"expected {d} shape entries, got {len(shape)}")
    if any(n < 1 for n in shape):
        raise InstanceFormatError(path, 3, f"shape sides must be positive: {shape}")
    kline = need(3, "kind line")
    if kline == "kind target":
        target = numbers(4, "target", "target")
        if len(target) != d:
            raise InstanceFormatError(path, 5, f"expected {d} target entries")
        if len(lines) > 5:
            raise InstanceFormatError(path, 6, "unexpected trailing content")
        if any(not 1 <= c <= n for c, n in zip(target, shape)):
            raise InstanceFormatError(path, 5, f"target {target} outside grid")
        return Instance(shape=shape, kind=KIND_TARGET, target=target)
    if kline == "kind table":
        volume = prod(shape)
        _check_dense(volume, "loading a table instance")
        table = _table_rows(path, shape, lines, 4)
        if len(table) < volume:
            got = len(table)
            raise InstanceFormatError(path, 5 + got, f"missing table row {got + 1}")
        if len(lines) > 4 + volume:
            raise InstanceFormatError(path, 5 + volume, "unexpected trailing content")
        return _checked_table(shape, table)
    raise InstanceFormatError(path, 4, f"expected 'kind target' or 'kind table', got {kline!r}")
