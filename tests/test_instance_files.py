"""load_instance against a line-by-line reference loader, on saved table
files with random edits."""

import os
import re
import tempfile
from itertools import product
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from tarski.errors import CapacityError, InstanceFormatError
from tarski.oracle import (
    FORMAT_MAGIC,
    MAX_DENSE_POINTS,
    Instance,
    gen_random_monotone,
    load_instance,
    save_instance,
)

_NUMBER = re.compile(r"0|[1-9][0-9]*")
# What an edit inserts: digits, the separators, signs, an underscore, a
# carriage return, a tab and an Arabic-Indic digit one, which int() reads.
EDIT_CHARS = "0123456789 \n+-_\r\t\u0661"


def _reject(line, reason):
    return InstanceFormatError("<reference>", line, reason)


def _numbers(lineno, text, label):
    tokens = text.split(" ")
    if not all(_NUMBER.fullmatch(t) for t in tokens):
        raise _reject(lineno, f"malformed {label}: {text!r}")
    return tuple(map(int, tokens))


def _inside(x, shape):
    return all(1 <= c <= n for c, n in zip(x, shape))


def _load_reference(text):
    """The file format read one line at a time, each line checked in full
    before the next is read, so the first line that breaks it names the
    error; the checks of one line come in load_instance's order."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()

    def line(i, what):
        if i >= len(lines):
            raise _reject(i + 1, f"missing {what}")
        return lines[i]

    if line(0, "header") != FORMAT_MAGIC:
        raise _reject(1, f"expected {FORMAT_MAGIC!r}")
    dline = line(1, "dimension line")
    if not dline.startswith("d "):
        raise _reject(2, f"expected 'd <dimension>', got {dline!r}")
    dims = _numbers(2, dline[2:], "dimension")
    if len(dims) != 1:
        raise _reject(2, f"malformed dimension: {dline[2:]!r}")
    (d,) = dims
    if d < 1:
        raise _reject(2, f"dimension must be positive, got {d}")
    sline = line(2, "shape line")
    if not sline.startswith("shape "):
        raise _reject(3, f"expected 'shape ...', got {sline!r}")
    shape = _numbers(3, sline[6:], "shape")
    if len(shape) != d:
        raise _reject(3, f"expected {d} shape entries, got {len(shape)}")
    if any(n < 1 for n in shape):
        raise _reject(3, f"shape sides must be positive: {shape}")
    kline = line(3, "kind line")
    if kline == "kind target":
        tline = line(4, "target line")
        if not tline.startswith("target "):
            raise _reject(5, f"expected 'target ...', got {tline!r}")
        target = _numbers(5, tline[7:], "target")
        if len(target) != d:
            raise _reject(5, f"expected {d} target entries")
        if len(lines) > 5:
            raise _reject(6, "unexpected trailing content")
        if not _inside(target, shape):
            raise _reject(5, f"target {target} outside grid")
        return Instance(shape=shape, kind="target", target=target)
    if kline != "kind table":
        raise _reject(4, f"expected 'kind target' or 'kind table', got {kline!r}")
    volume = prod(shape)
    if volume > MAX_DENSE_POINTS:
        raise CapacityError("table too large")
    rows = []
    for i in range(volume):
        row = _numbers(5 + i, line(4 + i, f"table row {i + 1}"), "table row")
        if len(row) != d:
            raise _reject(5 + i, f"expected {d} values per row")
        if not _inside(row, shape):
            raise _reject(5 + i, f"value {row} outside grid")
        rows.append(row)
    if len(lines) > 4 + volume:
        raise _reject(5 + volume, "unexpected trailing content")
    return Instance(shape=shape, kind="table", table=tuple(rows))


def _outcome(load, arg):
    """The loaded instance, (line, reason) of a format error, or the type
    of a capacity error."""
    try:
        return load(arg)
    except InstanceFormatError as err:
        return (err.line, err.reason)
    except CapacityError:
        return CapacityError


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.data())
def test_load_matches_the_reference_loader(data):
    # a saved random monotone table (d 1-4, sides 1-4) with one to three
    # edits, half of them in the table rows, each replacing up to two
    # characters by up to two others:
    # load_instance gives the reference's instance or its (line, reason),
    # and an accepted file is what save_instance writes for it (the format
    # lets a file omit its final newline, which save_instance writes)
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    seed = data.draw(st.integers(0, 2**64 - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.txt")
        save_instance(gen_random_monotone(shape, seed), path)
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        rows_at = text.index("kind table\n") + len("kind table\n")
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(text)) | st.integers(rows_at, len(text)))
            cut = data.draw(st.integers(0, 2))
            text = text[:at] + data.draw(st.text(EDIT_CHARS, max_size=2)) + text[at + cut :]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        got = _outcome(load_instance, path)
        assert got == _outcome(_load_reference, text)
        if isinstance(got, Instance):
            save_instance(got, path)
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == (text if text.endswith("\n") else text + "\n")


def test_load_names_bad_rows_across_chunk_boundaries(tmp_path):
    # a 33 x 33 table has 1,089 rows, more than one chunk of load_instance's
    # reader (1,024 rows); row r is on line 4 + r. Each case replaces some
    # rows of a table and keeps the first `keep` of them; a case without a
    # reason is a file that both loaders accept. The generated table repeats
    # its rows (22 distinct in the first chunk, all of the second are
    # "33 33"), so the reader splits its chunks by their distinct lines; the
    # identity repeats none, so the reader splits its chunks whole.
    generated = gen_random_monotone((33, 33), 7)
    identity = Instance(shape=(33, 33), kind="table", table=tuple(product(range(1, 34), repeat=2)))
    cases = [
        # the last row of the first chunk and the first of the second
        (generated, {1024: "1 02"}, 1089, 1028, "malformed table row: '1 02'"),
        (generated, {1024: "34 1"}, 1089, 1028, "value (34, 1) outside grid"),
        (generated, {1025: "1 02"}, 1089, 1029, "malformed table row: '1 02'"),
        (generated, {1025: "1"}, 1089, 1029, "expected 2 values per row"),
        # an out-of-grid row in the first chunk before a malformed one in
        # the second
        (generated, {500: "0 1", 1030: "x"}, 1089, 504, "value (0, 1) outside grid"),
        # the file ends inside the second chunk
        (generated, {}, 1050, 1055, "missing table row 1051"),
        # a long row and then a short one: the second chunk has as many
        # tokens as its lines should hold
        (generated, {1040: "1 1 1", 1041: "1"}, 1089, 1044, "expected 2 values per row"),
        # a bad line whose text repeats later in its chunk and in the next
        (generated, {600: "1 02", 800: "1 02", 1050: "1 02"}, 1089, 604, "malformed table row: '1 02'"),
        # row 1's valid text on both sides of the chunk boundary
        (generated, {1024: "25 1", 1025: "25 1"}, 1089, None, None),
        (identity, {1025: "1 34"}, 1089, 1029, "value (1, 34) outside grid"),
        (identity, {1000: "1 02", 1030: "x"}, 1089, 1004, "malformed table row: '1 02'"),
        (identity, {}, 1089, None, None),
    ]
    path = tmp_path / "inst.txt"
    for inst, edits, keep, line, reason in cases:
        save_instance(inst, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        head, rows = lines[:4], lines[4:-1]
        body = [edits.get(r, text) for r, text in enumerate(rows, 1)][:keep]
        text = "\n".join(head + body) + "\n"
        path.write_text(text, encoding="utf-8")
        if reason is None:
            assert _outcome(load_instance, path) == _load_reference(text), edits
        else:
            assert _outcome(load_instance, path) == (line, reason), (edits, keep)
            assert _outcome(_load_reference, text) == (line, reason), (edits, keep)
    assert load_instance(path) == identity
