import itertools

import pytest

from tarski.errors import CapacityError, InstanceFormatError
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
from tarski.rng import SplitMix64


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
    path.write_text(body)
    return path


def test_load_errors_carry_line_numbers(tmp_path):
    cases = [
        ("nonsense\n", 1),
        ("tarski-instance v1\nd 3\nshape 2 2\nkind target\ntarget 1 1 1\n", 3),
        ("tarski-instance v1\nd 2\nshape 2 2\nkind cake\n", 4),
        ("tarski-instance v1\nd 1\nshape 2\nkind table\n2\n", 6),
        ("tarski-instance v1\nd 1\nshape 2\nkind table\n2\n1\n9\n", 7),
        ("tarski-instance v1\nd 1\nshape 2\nkind target\ntarget 5\n", 5),
    ]
    for body, line in cases:
        with pytest.raises(InstanceFormatError) as err:
            load_instance(_write(tmp_path, body))
        assert err.value.line == line, body


def test_load_rejects_out_of_grid_table_value(tmp_path):
    body = "tarski-instance v1\nd 1\nshape 2\nkind table\n1\n3\n"
    with pytest.raises(InstanceFormatError) as err:
        load_instance(_write(tmp_path, body))
    assert err.value.line == 6


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
