import copy
import hashlib
import itertools
import operator

import pytest

import tarski.oracle
from tarski.errors import CapacityError, InstanceFormatError, Violation
from tarski.lattice import full_box, iter_box, leq
from tarski.oracle import (
    CountedOracle,
    Instance,
    fixed_points_bruteforce,
    gen_random_monotone,
    gen_target,
    load_instance,
    monotonize_table,
    save_instance,
    verify_monotone,
)
from tarski.rng import _CHUNK, SplitMix64


def test_target_sign_values():
    inst = gen_target((5, 5, 5), (3, 1, 4))
    o = CountedOracle(inst)
    assert o.query((1, 1, 1)) == (2, 1, 2)
    assert o.query((3, 1, 4)) == (3, 1, 4)
    assert o.query((5, 5, 5)) == (4, 4, 4)


def test_query_counting_and_cache():
    o = CountedOracle(gen_target((5, 5, 5), (3, 1, 4)), record_transcript=True)
    a = o.query((2, 2, 2))
    assert o.distinct_queries == 1
    assert o.query((2, 2, 2)) == a
    assert o.distinct_queries == 1
    o.query((1, 1, 1))
    assert o.distinct_queries == 2 == len(o.cache) == len(o.transcript)
    assert o.transcript == list(o.cache.items())


def test_query_replay_is_identical():
    seq = [(1, 1, 1), (2, 3, 1), (1, 1, 1), (5, 5, 5), (2, 3, 1)]
    runs = []
    for _ in range(2):
        o = CountedOracle(gen_target((5, 5, 5), (2, 4, 1)))
        runs.append(([o.query(x) for x in seq], o.distinct_queries))
    assert runs[0] == runs[1]
    assert runs[0][1] == 3


def test_query_outside_grid_rejected():
    o = CountedOracle(gen_target((5, 5, 5), (3, 1, 4)))
    with pytest.raises(ValueError):
        o.query((0, 1, 1))
    with pytest.raises(ValueError):
        o.query((6, 1, 1))
    with pytest.raises(ValueError):
        o.query((1, 1))


def _contract_instances():
    """Target and table instances in d = 1..4 with unequal sides, and target
    instances whose sides outgrow every machine word."""
    rng = SplitMix64(21)
    for shape in ((6,), (4, 7), (3, 5, 4), (3, 2, 4, 3)):
        huge = tuple(n << 40 for n in shape)
        for grid in (shape, huge):
            yield gen_target(grid, tuple(1 + rng.below(n) for n in grid))
        yield gen_random_monotone(shape, rng.next_u64())


def test_query_rejects_each_bound_and_wrong_length_without_a_trace():
    # 0 and n+1 are refused on every axis on its own, and so is a point
    # with one coordinate too few or too many; a refused query changes
    # neither the count, nor the cache, nor the transcript
    for inst in _contract_instances():
        o = CountedOracle(inst, record_transcript=True)
        inside = tuple((n + 1) // 2 for n in inst.shape)
        o.query(inside)
        before = (o.distinct_queries, dict(o.cache), list(o.transcript))
        bad = [inside[:-1], inside + (1,)]
        for axis, n in enumerate(inst.shape):
            bad += [inside[:axis] + (c,) + inside[axis + 1 :] for c in (0, n + 1)]
        for x in bad:
            with pytest.raises(ValueError, match="outside grid"):
                o.query(x)
            assert (o.distinct_queries, o.cache, o.transcript) == before, x


def test_query_values_follow_the_instance():
    # target values step each coordinate one unit toward the target; table
    # values are the rows in point order
    rng = SplitMix64(22)
    for inst in _contract_instances():
        o = CountedOracle(inst)
        if inst.kind == "table":
            rows = dict(zip(iter_box(full_box(inst.shape)), inst.table))
        for _ in range(60):
            x = tuple(1 + rng.below(n) for n in inst.shape)
            if inst.kind == "target":
                want = tuple(c + (t > c) - (t < c) for c, t in zip(x, inst.target))
            else:
                want = rows[x]
            assert o.query(x) == want, (inst.shape, x)


def test_3d_query_values_equal_instance_values_everywhere_on_small_grids():
    # the 3D evaluators are written out apart from Instance.value: every
    # point of small grids, targets at every corner and inside, monotone
    # and raw tables
    from _families import raw_random_table

    rng = SplitMix64(23)
    for shape in ((3, 3, 3), (2, 4, 3), (5, 1, 4)):
        targets = list(itertools.product(*[(1, n) for n in shape]))
        targets.append(tuple((n + 1) // 2 for n in shape))
        instances = [gen_target(shape, t) for t in targets]
        instances.append(gen_random_monotone(shape, rng.next_u64()))
        instances.append(raw_random_table(shape, rng.next_u64()))
        for inst in instances:
            o = CountedOracle(inst)
            for x in iter_box(full_box(shape)):
                assert o.query(x) == inst.value(x), (shape, inst.target, x)


def test_3d_target_query_values_at_the_target_on_huge_sides():
    # sides past every machine word, each coordinate at t - 1, t, t + 1 and
    # both grid edges, which the random sample of
    # test_query_values_follow_the_instance never puts at c == t
    rng = SplitMix64(24)
    for shape in ((3, 5, 4), (7, 7, 7)):
        grid = tuple(n << 40 for n in shape)
        inside = tuple(1 + rng.below(n) for n in grid)
        for target in (inside, (1, 1, 1), grid):
            inst = gen_target(grid, target)
            o = CountedOracle(inst)
            axes = [
                [c for c in (1, t - 1, t, t + 1, n) if 1 <= c <= n]
                for t, n in zip(target, grid)
            ]
            for x in itertools.product(*axes):
                assert o.query(x) == inst.value(x), (grid, target, x)


def test_gen_target_examples():
    inst = gen_target((8, 8, 8), (4, 4, 4))
    assert inst.value((8, 8, 8)) == (7, 7, 7)
    inst = gen_target((2, 2, 2), (1, 1, 1))
    assert inst.value((1, 1, 1)) == (1, 1, 1)


def test_gen_target_unique_fixed_point_bruteforce():
    inst = gen_target((5, 5, 5), (3, 1, 4))
    assert fixed_points_bruteforce(inst) == {(3, 1, 4)}


def test_gen_target_outside_grid_rejected():
    with pytest.raises(ValueError):
        gen_target((5, 5, 5), (6, 1, 1))


def test_gen_target_monotone_and_unique_exhaustive_shapes_up_to_5():
    # every 3D shape with sides <= 5, every target: monotone with exactly
    # one fixed point
    for shape in itertools.product(range(1, 6), repeat=3):
        for target in iter_box(full_box(shape)):
            inst = gen_target(shape, target)
            assert verify_monotone(inst) is None, (shape, target)
            assert fixed_points_bruteforce(inst) == {target}, (shape, target)


def test_monotonize_running_max_1d():
    assert monotonize_table((3,), [(3,), (1,), (2,)]) == [(3,), (3,), (3,)]


def test_monotonize_rejects_tables_that_do_not_fit_the_shape():
    cases = [
        ((3,), [(1,), (2,)], "table needs 3 rows, got 2"),
        ((2, 2), [(1, 1)] * 5, "table needs 4 rows, got 5"),
        ((2, 2), [(1,), (1,), (2,), (2,)], "table value (1,) outside grid (2, 2)"),
        ((2, 2), [(3, 1), (1, 1), (2, 2), (2, 2)], "table value (3, 1) outside grid (2, 2)"),
        ((2,), [[2], (1,)], "table row [2] is not a tuple of ints"),
        ((2,), [(2,), (True,)], "table row (True,) is not a tuple of ints"),
        ((2, 0), [], "invalid shape (2, 0)"),
        ((0,), [], "invalid shape (0,)"),
        ((0, 3), [], "invalid shape (0, 3)"),
        ((-1,), [], "invalid shape (-1,)"),
        ((), [()], "invalid shape ()"),
    ]
    for shape, table, message in cases:
        with pytest.raises(ValueError) as err:
            monotonize_table(shape, table)
        assert str(err.value) == message


def test_every_caller_gives_the_one_shape_message():
    # monotonize_table, Instance, gen_random_monotone and full_box run the
    # same shape check
    for shape in [(2, 0), (0,), (0, 3), (-1,), ()]:
        callers = [
            lambda: monotonize_table(shape, []),
            lambda: Instance(shape=shape, kind="table", table=()),
            lambda: gen_random_monotone(shape, 1),
            lambda: full_box(shape),
        ]
        for call in callers:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"invalid shape {shape}"


def test_monotonize_idempotent():
    for seed in range(20):
        inst = gen_random_monotone((3, 4, 3), seed)
        assert monotonize_table(inst.shape, list(inst.table)) == list(inst.table)


def test_gen_random_monotone_is_monotone():
    for seed in range(50):
        assert verify_monotone(gen_random_monotone((4, 4, 4), seed)) is None


def test_gen_random_monotone_deterministic():
    a = gen_random_monotone((3, 3, 3), 12345)
    b = gen_random_monotone((3, 3, 3), 12345)
    assert a.table == b.table
    c = gen_random_monotone((3, 3, 3), 12346)
    assert c.table != a.table


def test_gen_tables_pass_the_public_constructor():
    # gen builds its Instance without the table check; the public
    # constructor accepts the same table and gives an equal instance with
    # the same fields set (a field left unset would read its class default).
    # The shapes take 1-, 2- and 4-byte lanes.
    for shape in [(1,), (1, 1, 1), (130, 3), (3, 300, 2), (40000,), (24, 24, 24)]:
        for seed in range(3):
            g = gen_random_monotone(shape, seed)
            checked = Instance(shape=shape, kind="table", table=g.table)
            assert checked == g, (shape, seed)
            assert hash(checked) == hash(g), (shape, seed)
            assert vars(checked) == vars(g), (shape, seed)


def test_gen_random_monotone_capacity():
    with pytest.raises(CapacityError):
        gen_random_monotone((101, 101, 101), 0)


def test_verify_monotone_witness():
    inst = Instance(shape=(2,), kind="table", table=((2,), (1,)))
    v = verify_monotone(inst)
    assert v is not None
    assert (v.x, v.y) == ((1,), (2,))
    assert not leq(v.fx, v.fy)


def test_fixed_points_identity_table():
    pts = tuple(iter_box(full_box((2, 2, 2))))
    inst = Instance(shape=(2, 2, 2), kind="table", table=pts)
    assert fixed_points_bruteforce(inst) == set(pts)


def test_monotone_instance_has_fixed_point():
    for seed in range(30):
        inst = gen_random_monotone((4, 3, 4), seed)
        assert fixed_points_bruteforce(inst)


def test_table_instance_validation():
    with pytest.raises(ValueError):
        Instance(shape=(2, 2), kind="table", table=((1, 1),))
    with pytest.raises(ValueError):
        Instance(shape=(2, 2), kind="table", table=(((1, 1),) * 3 + ((3, 1),)))


@pytest.mark.parametrize(
    "fields, message",
    [
        # a list shape breaks the tuple arithmetic of the dqy recursion
        (dict(shape=[9, 9], kind="target", target=(1, 2)), "invalid shape [9, 9]"),
        # verify_monotone cannot pack a float side into lanes
        (dict(shape=(2.0,), kind="table", table=((1,), (2,))), "invalid shape (2.0,)"),
        (dict(shape=(True, 2), kind="target", target=(1, 2)), "invalid shape (True, 2)"),
        (dict(shape=(9, 9), kind="target", target=[1, 2]), "target [1, 2] is not a tuple of ints"),
        (dict(shape=(9, 9), kind="target", target=(1, 2.0)),
         "target (1, 2.0) is not a tuple of ints"),
        (dict(shape=(2,), kind="table", table=[(1,), (2,)]), "table is a list, not a tuple"),
        # list rows never equal their points, so solve finds no fixed point
        (dict(shape=(2, 2, 2), kind="table", table=tuple([[1, 1, 1]] * 8)),
         "table row [1, 1, 1] is not a tuple of ints"),
        # "1" does not compare with the grid bounds
        (dict(shape=(2, 2), kind="table", table=((1, 1), (1, "1"), (2, 2), (2, 2))),
         "table row (1, '1') is not a tuple of ints"),
        (dict(shape=(2,), kind="table", table=((1,), (2.0,))),
         "table row (2.0,) is not a tuple of ints"),
        (dict(shape=(2, 2), kind="bogus"), "unknown instance kind 'bogus'"),
    ],
    ids=[
        "list-shape", "float-side", "bool-side", "list-target", "float-target-coordinate",
        "list-table", "list-row", "str-row-value", "float-row-value", "unknown-kind",
    ],
)
def test_instance_names_each_malformed_field(fields, message):
    with pytest.raises(ValueError) as err:
        Instance(**fields)
    assert str(err.value) == message


def test_save_load_round_trip(tmp_path):
    for inst in [
        gen_target((5, 5, 5), (3, 1, 4)),
        gen_random_monotone((3, 2, 4), 9),
        gen_random_monotone((6,), 1),
    ]:
        path = tmp_path / "inst.txt"
        save_instance(inst, path)
        assert load_instance(path) == inst


def test_saved_format_exact(tmp_path):
    path = tmp_path / "t.txt"
    save_instance(gen_target((5, 6, 7), (3, 1, 4)), path)
    text = path.read_text()
    assert text == (
        "tarski-instance v1\n"
        "d 3\n"
        "shape 5 6 7\n"
        "kind target\n"
        "target 3 1 4\n"
    )


def _write(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body, encoding="utf-8")
    return path


def test_load_errors_carry_line_numbers(tmp_path):
    cases = [
        ("nonsense\n", 1),
        ("tarski-instance v1\nd 3\nshape 2 2\nkind target\ntarget 1 1 1\n", 3),
        ("tarski-instance v1\nd 2\nshape 2 2\nkind cake\n", 4),
        ("tarski-instance v1\nd 1\nshape 2\nkind table\n2\n", 6),
        ("tarski-instance v1\nd 1\nshape 2\nkind table\n2\n1\n9\n", 7),
        ("tarski-instance v1\nd 1\nshape 2\nkind target\ntarget 5\n", 5),
        # numbers are canonical decimals separated by single spaces
        ("tarski-instance v1\nd +1\nshape 2\nkind target\ntarget 1\n", 2),
        ("tarski-instance v1\nd 1\nshape 02\nkind target\ntarget 1\n", 3),
        ("tarski-instance v1\nd 2\nshape 2\t2\nkind target\ntarget 1 1\n", 3),
        ("tarski-instance v1\nd 1\nshape 2\nkind target\ntarget \u0661\n", 5),
        ("tarski-instance v1\nd 1\nshape 2\nkind target\ntarget 1\r\n", 5),
        ("tarski-instance v1\nd 1\nshape 20\nkind target\ntarget 1_0\n", 5),
        ("tarski-instance v1\nd 1\nshape 2\nkind table\n1\n+2\n", 6),
        # canonical, but more digits than int() converts
        ("tarski-instance v1\nd 1\nshape " + "9" * 5000 + "\nkind target\ntarget 1\n", 3),
    ]
    for body, line in cases:
        with pytest.raises(InstanceFormatError) as err:
            load_instance(_write(tmp_path, body))
        assert err.value.line == line, body


def test_load_names_each_header_error(tmp_path):
    head = "tarski-instance v1\n"
    cases = [
        (head, 2, "missing dimension line"),
        (head + "d 0\nshape 2\nkind target\ntarget 1\n", 2, "dimension must be positive, got 0"),
        (head + "d 1\nshape 0\nkind target\ntarget 1\n", 3, "shape sides must be positive: (0,)"),
        (head + "d 2\nshape 2 2\nkind target\ntarget 1\n", 5, "expected 2 target entries"),
        (head + "d 2\nshape 2 2\nkind target\ntarget 1 2 1\n", 5, "expected 2 target entries"),
        (head + "d 1\nshape 2\nkind target\ntarget 1\n1\n", 6, "unexpected trailing content"),
    ]
    for body, line, reason in cases:
        path = _write(tmp_path, body)
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert str(err.value) == f"{path}:{line}: {reason}", body


def test_load_rejects_out_of_grid_table_value(tmp_path):
    body = "tarski-instance v1\nd 1\nshape 2\nkind table\n1\n3\n"
    with pytest.raises(InstanceFormatError) as err:
        load_instance(_write(tmp_path, body))
    assert err.value.line == 6


def test_load_checks_each_axis_range_on_unequal_sides(tmp_path):
    # on a 2 x 5 x 3 grid each axis has its own range: 3 is in range on
    # axis 1 but not on axis 0, 4 is out of range on the last axis. Row r
    # of the table is on line 4 + r.
    shape = (2, 5, 3)
    points = tuple(iter_box(full_box(shape)))
    head = "tarski-instance v1\nd 3\nshape 2 5 3\nkind table\n"
    rows = [" ".join(map(str, x)) for x in points]
    assert rows[-1] == "2 5 3"
    inst = load_instance(_write(tmp_path, head + "\n".join(rows) + "\n"))
    assert inst == Instance(shape=shape, kind="table", table=points)
    cases = [
        ({1: "3 1 1"}, 5, "value (3, 1, 1) outside grid"),
        ({7: "3 1 1"}, 11, "value (3, 1, 1) outside grid"),
        ({12: "1 1 4"}, 16, "value (1, 1, 4) outside grid"),
        ({30: "1 1 4"}, 34, "value (1, 1, 4) outside grid"),
        ({9: "1 1 4", 20: "3 1 1"}, 13, "value (1, 1, 4) outside grid"),
    ]
    for edits, line, reason in cases:
        body = [edits.get(r, text) for r, text in enumerate(rows, 1)]
        with pytest.raises(InstanceFormatError) as err:
            load_instance(_write(tmp_path, head + "\n".join(body) + "\n"))
        assert (err.value.line, err.value.reason) == (line, reason), edits


def test_load_rejects_non_utf8_bytes_with_their_line(tmp_path):
    cases = [
        (b"tarski-instance v1\nd 3\nshape 2 2 2\nkind t\xffrget\n", 4),
        (b"\xfe\xff", 1),
        (b"tarski-instance v1\nd 1\nshape 2\nkind table\n1\n2\xc3\n", 6),
    ]
    for body, line in cases:
        path = tmp_path / "bad.txt"
        path.write_bytes(body)
        with pytest.raises(InstanceFormatError) as err:
            load_instance(path)
        assert err.value.line == line, body
        assert "not UTF-8" in str(err.value)


def test_splitmix64_reference_stream():
    # first outputs for seed 0; pins the generator across refactors
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_below_refuses_a_bound_below_one_without_drawing():
    rng = SplitMix64(0)
    for n in (0, -1):
        with pytest.raises(ValueError, match=r"below\(\) needs a positive bound"):
            rng.below(n)
    assert rng.next_u64() == SplitMix64(0).next_u64()


def test_below_up_to_2_64_reduces_one_word():
    for n in (7, 2**40, 2**64):
        rng, twin = SplitMix64(5), SplitMix64(5)
        assert [rng.below(n) for _ in range(50)] == [twin.next_u64() % n for _ in range(50)]


def test_below_above_2_64_draws_every_word_it_needs():
    # ceil(bit_length / 64) + 1 words, the first one lowest, reduced modulo
    # n. Every draw is in range, and on 2^65 and 2^200 about half of them
    # lie in the top half, which one word alone never reaches.
    for n, words in ((2**64 + 1, 3), (2**65, 3), (2**200, 5)):
        rng, twin = SplitMix64(6), SplitMix64(6)
        draws = [rng.below(n) for _ in range(200)]
        want = [
            sum(twin.next_u64() << (64 * i) for i in range(words)) % n for _ in range(200)
        ]
        assert draws == want, n
        assert all(0 <= x < n for x in draws), n
        if n & (n - 1) == 0:
            assert 60 < sum(x >= n // 2 for x in draws) < 140, n


def _strides(shape):
    """Flat-index step of one unit along each axis, first axis slowest."""
    strides = [1] * len(shape)
    for axis in range(len(shape) - 1, 0, -1):
        strides[axis - 1] = strides[axis] * shape[axis]
    return strides


def _verify_monotone_reference(inst):
    """The point-by-point verify_monotone the column scan replaced: x in
    lexicographic order, then axis; the first violating pair wins.

    Walks flat indices, so the successor of x along an axis sits one stride
    further on; the rows of a table are read directly, a target instance
    is evaluated at every point first."""
    shape = inst.shape
    if inst.kind == "table":
        rows = inst.table
    else:
        rows = [inst.value(x) for x in iter_box(full_box(shape))]
    axes = list(zip(shape, _strides(shape)))
    for idx, fx in enumerate(rows):
        for n, stride in axes:
            if idx // stride % n == n - 1:
                continue
            fy = rows[idx + stride]
            if not all(map(operator.le, fx, fy)):
                x = tuple(idx // st % m + 1 for m, st in axes)
                y = tuple((idx + stride) // st % m + 1 for m, st in axes)
                return Violation(x, y, fx, fy)
    return None


def _monotonize_reference(shape, table):
    """The tuple-by-tuple running maxima the column kernel replaced."""
    vals = list(table)
    strides = _strides(shape)
    for axis, n in enumerate(shape):
        st = strides[axis]
        for idx in range(len(vals)):
            if (idx // st) % n > 0:
                vals[idx] = tuple(max(a, b) for a, b in zip(vals[idx], vals[idx - st]))
    return vals


# The last six sit at the packed kernel's lane widths: sides up to 127 fit
# one-byte lanes with their guard bit, 128 to 32767 two-byte lanes, and
# 32768 needs four-byte lanes.
REFERENCE_SHAPES = [
    (1,), (2,), (7,), (1, 1), (1, 5), (5, 1), (3, 4), (1, 1, 1), (2, 1, 3),
    (3, 3, 3), (4, 2, 5), (1, 3, 1, 2), (2, 2, 2, 2), (3, 1, 2, 3),
    (127,), (128,), (1, 129, 1), (3, 200), (2, 300, 3), (32768,),
]


def test_verify_monotone_matches_reference_on_perturbed_tables():
    rng = SplitMix64(77)
    checked = violations = 0
    for shape in REFERENCE_SHAPES:
        for rep in range(60):
            table = list(gen_random_monotone(shape, rep).table)
            for _ in range(rep % 4):
                table[rng.below(len(table))] = tuple(1 + rng.below(n) for n in shape)
            inst = Instance(shape=shape, kind="table", table=tuple(table))
            want = _verify_monotone_reference(inst)
            assert verify_monotone(inst) == want, (shape, rep)
            checked += 1
            violations += want is not None
    assert checked == 60 * len(REFERENCE_SHAPES)
    assert violations > checked // 3


def test_verify_monotone_matches_reference_on_target_instances():
    for shape in [(1, 4, 2), (5,), (3, 3), (2, 3, 2, 2)]:
        for target in iter_box(full_box(shape)):
            inst = gen_target(shape, target)
            assert verify_monotone(inst) is None is _verify_monotone_reference(inst)


def test_monotonize_matches_reference_on_raw_tables():
    rng = SplitMix64(78)
    for shape in REFERENCE_SHAPES:
        for _ in range(10):
            raw = [tuple(1 + rng.below(n) for n in shape) for _ in range(full_box(shape).volume)]
            assert monotonize_table(shape, raw) == _monotonize_reference(shape, raw), shape


def test_gen_values_match_the_reference_stream_at_every_lane_width():
    # gen's table is the stream of 1 + below(n) per coordinate, in point
    # order, monotonized tuple by tuple; REFERENCE_SHAPES take 1-, 2- and
    # 4-byte lanes
    for shape in REFERENCE_SHAPES:
        for seed in (0, 7, 2**64 - 1):
            rng = SplitMix64(seed)
            raw = [tuple(1 + rng.below(n) for n in shape) for _ in range(full_box(shape).volume)]
            want = _monotonize_reference(shape, raw)
            assert list(gen_random_monotone(shape, seed).table) == want, (shape, seed)


# Sides at which the packed reduction's shift l = (n-1).bit_length() steps
# (powers of two and their neighbours) near the one-, four- and eight-byte
# limits, with 2 and 3, up to the largest side, 2^64.
EDGE_SIDES = [2, 3] + [2**k + e for k in (7, 8, 31, 32, 63) for e in (-1, 0, 1)] + [2**64 - 1, 2**64]


def test_grid_columns_match_repeated_below_calls():
    # counts at and around one and two packed chunks of draws, and a seed
    # whose state wraps to exactly 0 within the first chunk. Each count's
    # columns, 16-byte little-endian lanes, are compared with the first
    # count points of one stream of below calls, and the next draw with the
    # one after them.
    edges = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)
    wrap = -(_CHUNK // 2) * 0x9E3779B97F4A7C15 % 2**64
    shapes = [(1,), (97,), (1, 1, 1), (5, 1, 4), (3, 4, 2, 5), (2**40, 7, 1), (24, 24, 24)]
    shapes += [tuple(EDGE_SIDES[i : i + 5]) for i in range(0, len(EDGE_SIDES), 5)]
    for seed in (0, 1, 2**64 - 1, 0x5EED, wrap):
        for shape in shapes:
            single, rows = SplitMix64(seed), []
            for count in (0, 1, 9, 500) + edges:
                rows += [tuple(1 + single.below(n) for n in shape) for _ in range(count - len(rows))]
                bulk = SplitMix64(seed)
                cols = bulk.grid_columns(shape, count)
                want = [b"".join(row[axis].to_bytes(16, "little") for row in rows) for axis in range(len(shape))]
                assert cols == want, (seed, shape, count)
                assert bulk.next_u64() == copy.copy(single).next_u64()
    with pytest.raises(ValueError):
        SplitMix64(0).grid_columns((3, 0), 2)


def test_load_names_the_first_of_two_bad_rows(tmp_path):
    head = "tarski-instance v1\nd 2\nshape 2 2\nkind table\n"
    cases = [
        ("1 1\n3 1\n1 1\n1 0\n", 6, "value (3, 1) outside grid"),
        ("1 1\n1 1\n0 2\n1 1\n9 9\n", 7, "value (0, 2) outside grid"),
        ("1 1\n1 5\nx y\n", 6, "value (1, 5) outside grid"),
        ("1 1\nx y\n1 5\n", 6, "malformed table row: 'x y'"),
        ("1 3\n1\n", 5, "value (1, 3) outside grid"),
        ("1 1\n1 1 1\n1 3\n", 6, "expected 2 values per row"),
        ("1 1\n2 3\n", 6, "value (2, 3) outside grid"),
        ("1 1\n+1 1\n1 1\n1 1\n", 6, "malformed table row: '+1 1'"),
        ("1 02\n1 1\n1 1\n1 1\n", 5, "malformed table row: '1 02'"),
        ("1 1\n1 1\n\u0661 1\n1 1\n", 7, "malformed table row: '\u0661 1'"),
        ("1 1_0\n1 1\n1 1\n1 1\n", 5, "malformed table row: '1 1_0'"),
        ("1 1\r\n1 1\n1 1\n1 1\n", 5, "malformed table row: '1 1\\r'"),
        ("1 1\n1\t1\n1 1\n1 1\n", 6, "malformed table row: '1\\t1'"),
        ("1 1\n-1 1\n1 3\n", 6, "malformed table row: '-1 1'"),
        ("1 3\n+1 1\n", 5, "value (1, 3) outside grid"),
        ("1 1\n1 1\n1 1\n1\n", 8, "expected 2 values per row"),
        ("1 1 1\n1\n1 1\n1 1\n", 5, "expected 2 values per row"),
    ]
    for body, line, reason in cases:
        with pytest.raises(InstanceFormatError) as err:
            load_instance(_write(tmp_path, head + body))
        assert (err.value.line, err.value.reason) == (line, reason), body


def test_load_rejects_multi_value_dimension_line(tmp_path):
    body = "tarski-instance v1\nd 1 2\nshape 3\nkind target\ntarget 1\n"
    with pytest.raises(InstanceFormatError) as err:
        load_instance(_write(tmp_path, body))
    assert err.value.line == 2


def test_table_instance_names_the_first_of_two_out_of_grid_rows():
    cases = [
        (((1, 1), (3, 1), (1, 1), (1, 0)), "table value (3, 1) outside grid (2, 2)"),
        (((1, 1), (1, 1), (0, 2), (9, 9)), "table value (0, 2) outside grid (2, 2)"),
        (((1, 1), (1,), (1, 1), (1, 3)), "table value (1,) outside grid (2, 2)"),
        (((1, 1), (1, 1), (1, 2, 1), (2, 2)), "table value (1, 2, 1) outside grid (2, 2)"),
        (((1, 1), (3, 1), [1, 1], (2, 2)), "table value (3, 1) outside grid (2, 2)"),
        (((1, 1), [1, 1], (3, 1), (2, 2)), "table row [1, 1] is not a tuple of ints"),
    ]
    for table, message in cases:
        with pytest.raises(ValueError) as err:
            Instance(shape=(2, 2), kind="table", table=table)
        assert str(err.value) == message


# SHA-256 of repr(table) of gen_random_monotone(shape, seed), and of the
# bytes save_instance writes for some of them and for a 130 x 3 table, whose
# side above 127 packs its draws in two-byte lanes. They pin the seeded
# tables and the file format across rewrites of the table layer.
PINNED_TABLES = {
    ((3, 3, 3), 1003): "044c740f589b42f017e06593e6a94475867a198b617708f49af5afefe009f624",
    ((4, 4, 4), 1004): "d8c0592402b4bea51f11c60aaeea6bba12548857ec36ffc973c8397c9862dcde",
    ((5, 5, 5), 1005): "d0412b3ce51ed20b459d738340f2f05dddc922ee2b1b85bab1e675285b7c38d3",
    ((6, 6, 6), 1006): "70bcac614eca8ccdb0785db3b5a169f6166ed86c0c3e9e99c77fae404d9c0deb",
    ((7, 7, 7), 1007): "48215b7ed5aa1e511e093c8555e08c4bd4ef7a9d6db8288b9f0a3d630bb681d0",
    ((8, 8, 8), 1008): "55aaf5e338f445cbe4400b6a7720ffc8ae75728106451b7f09474c397a706367",
    ((9, 9, 9), 1009): "c42b047b020de5cf0d790a023cc56bcf8d358ab1aff2c328623f76315957fe72",
    ((10, 10, 10), 1010): "e061eddeff9b406e35ac0d59abe45b4be1128be6358b13a1dcab1088d7bf8075",
    ((11, 11, 11), 1011): "25621b769f5742e0512ad3c51d6455d21c3deb95170d30eb1be22db60d4926aa",
    ((12, 12, 12), 1012): "060d1fda55c14f59e1d1e69f0499708dce8cadafe8f49587f7cdee8be7b9e2f5",
    ((13, 13, 13), 1013): "a3e7fd52f9b150e9a68242ffebe5fff584a11f7b891a1e10e5d4a87fc6826b2b",
    ((14, 14, 14), 1014): "70ba0f43304f310c5ffb21524d401a9c2b7915971c5594413006700fc848abb6",
    ((15, 15, 15), 1015): "894feafaa547b4b94b4a2493b6861d242eb10ab1da26eaab0472fdb0c9a2ea97",
    ((16, 16, 16), 1016): "15245ea9ebe35ac4ae2482eb259e75b09b84d34219f1615b016133a1c6de1bcf",
    ((17, 17, 17), 1017): "f7ca2048e8be4bbba59a32e139c46791b1d851792bed63760b791c906c94e925",
    ((18, 18, 18), 1018): "b33f0c763a2b81ff93ed786c8533d2ba7fa38006cd8ae17813afdca01007bac2",
    ((19, 19, 19), 1019): "2035cbc90d5c77384b82cf3eb99dbad06adbc132ce2e7f2bccf85a425099a10b",
    ((20, 20, 20), 1020): "94368403fa9d6a57d25ba58d5681e4de16654f82500e6797d4858c0af882e724",
    ((21, 21, 21), 1021): "d136e90df4d8549727b56b4e11c47b1fe9dd22aaf13a81ec5f38796e34ee275d",
    ((22, 22, 22), 1022): "7793a03c8ca869bafe8a042bfbf8e8eff019ce4a08956b22049dffffdb3692ce",
    ((23, 23, 23), 1023): "15177fc25c8e49a4a0d4e32c4cdfe05278a3d59c256ac0672c824e9aa756a71c",
    ((24, 24, 24), 1024): "3c714752a64aaca86fa9ef3dccdb1e933b873973b19609189908ced69bf17078",
    ((3, 4, 5), 7): "6eb507c123541d435cfe7c5466d10ac9fdf4e372dad2e4f3467339fb5b0f8992",
    ((5, 1, 4), 11): "7c3640e0e1bbb06b8eaa1bcfce2d467d29b28c6bed5aa1d13e214c56b834178c",
    ((17,), 3): "475e0a69f9654a5bf681447a4e8f0b3934b9de87113b5eec5c26e89cba165e00",
    ((6, 9), 5): "962c25d2bbff8f01bae4ef03e25199e9e168af9e77af762555a7cebf87ee905c",
    ((3, 4, 2, 5), 13): "757c46b6a986a3427691d7cf132fe0d2b2f5cb8bba28b7dc75f6a0fac7f98003",
    ((1, 1, 1), 2): "89a85041fcc644c58c69094bcaf9a212a0fb6d8c6af2a46e7b1a7153e12de6ba",
}
PINNED_FILES = {
    ((3, 4, 5), 7): "a102dfd651792af00e9a4d7a1a4a46aa2f6f71622a06bd56a4f4a2953f32066e",
    ((5, 1, 4), 11): "eb4bdaa66657f050e76ad1ced0bd291a0dd3ebd8ea7173e607b54f50fbc296ef",
    ((17,), 3): "c4bc0db77224440d9dd72774babfd1313652f9a0d37f0005546a307836d2d869",
    ((3, 4, 2, 5), 13): "792f61b9d2181f22bab45aabae891224790ae0183cbb32adb3ebc76acae6b3a1",
    ((24, 24, 24), 1024): "23b6c396f7be863ca3b35151715278f73185c934f302510b46deda8c3dfc2944",
    ((130, 3), 1): "3eaa7b310a4cb288364433056cd710ecf979d25d881025a5c34fd441bf2e323d",
}


def test_gen_random_monotone_pinned_tables():
    for (shape, seed), digest in PINNED_TABLES.items():
        table = gen_random_monotone(shape, seed).table
        assert hashlib.sha256(repr(table).encode()).hexdigest() == digest, (shape, seed)


def test_save_instance_pinned_bytes(tmp_path):
    path = tmp_path / "pinned.txt"
    for (shape, seed), digest in PINNED_FILES.items():
        inst = gen_random_monotone(shape, seed)
        save_instance(inst, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (shape, seed)
        assert load_instance(path) == inst


def _rows_written(inst):
    """The file of a table instance, written one row at a time."""
    head = f"tarski-instance v1\nd {len(inst.shape)}\nshape {' '.join(map(str, inst.shape))}\nkind table\n"
    return head + "".join(" ".join(map(str, row)) + "\n" for row in inst.table)


def test_save_instance_writes_each_row_whichever_way_it_formats_the_table(tmp_path, monkeypatch):
    # save_instance formats a table by runs of equal rows when at least half
    # of its sampled adjacent pairs are equal, else whole; both must write
    # what a row-by-row writer writes (PINNED_FILES pins the bytes of the
    # generated shapes). At side 16 the pairs start at every 33rd row, so
    # they fall at every place along the last axis. Generated tables take
    # the run path at sides 8, 16 and 32, as does the adversarial rotation,
    # whose every sampled pair is equal while most rows differ from their
    # neighbours. The rotation (7 of 125 sampled pairs equal), the identity,
    # the period-n rows and both half-and-half tables (58 and 62 of 125) take
    # the whole path.
    formatted_by_runs = []
    monkeypatch.setattr(
        tarski.oracle, "groupby", lambda table: formatted_by_runs.append(table) or itertools.groupby(table)
    )
    n = 16
    cube = tuple(itertools.product(range(1, n + 1), repeat=3))
    rotation = tuple((min(y + 1, n), min(z + 1, n), min(x + 1, n)) for x, y, z in cube)
    adversarial = list(rotation)
    for i in range(0, len(adversarial) - 1, 33):
        adversarial[i + 1] = adversarial[i]
    periodic = tuple((1, 1, i % n + 1) for i in range(n**3))
    generated = gen_random_monotone((n, n, n), 5).table
    half = n**3 // 2
    by_runs = [gen_random_monotone((side,) * 3, seed) for side in (8, 16, 32) for seed in range(5)]
    by_runs += [Instance(shape=(n, n, n), kind="table", table=tuple(adversarial))]
    whole = [rotation, cube, periodic, generated[:half] + cube[half:], cube[:half] + generated[half:]]
    whole = [Instance(shape=(n, n, n), kind="table", table=table) for table in whole]
    path = tmp_path / "inst.txt"
    for inst, runs in [(inst, True) for inst in by_runs] + [(inst, False) for inst in whole]:
        formatted_by_runs.clear()
        save_instance(inst, path)
        assert formatted_by_runs == ([inst.table] if runs else []), inst.shape
        assert path.read_bytes() == _rows_written(inst).encode(), inst.shape
        assert load_instance(path) == inst
    # a loaded generated table holds one tuple per distinct row in each of
    # its four 1,024-line chunks, and saves the same bytes
    save_instance(Instance(shape=(n, n, n), kind="table", table=generated), path)
    loaded = load_instance(path)
    assert len({id(row) for row in loaded.table}) <= 4 * len(set(generated)) < n**3 // 8
    save_instance(loaded, path)
    assert path.read_bytes() == _rows_written(loaded).encode()
