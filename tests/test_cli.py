import errno
import io
import os
import re

import pytest
from click.testing import CliRunner

from tarski import cli
from tarski.cli import main
from tarski.errors import CapacityError
from tarski.oracle import CountedOracle, gen_random_monotone, load_instance, save_instance
from tarski.rng import SplitMix64


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_solve_target_instance():
    res = run("solve", "--shape", "32,32,32", "--target", "7,19,2")
    assert res.exit_code == 0, res.output
    assert "fixed_point = (7,19,2)" in res.output
    assert re.search(r"queries = \d+", res.output)


def test_solve_algo_choices():
    for algo in ("levelset", "dqy", "brute"):
        res = run("solve", "--shape", "6,6,6", "--target", "2,5,3", "--algo", algo)
        assert res.exit_code == 0, (algo, res.output)
        assert "fixed_point = (2,5,3)" in res.output


def test_solve_usage_errors_exit_2():
    assert run("solve").exit_code == 2
    assert run("solve", "--shape", "4,4,4").exit_code == 2
    assert run("solve", "--shape", "4,x,4", "--target", "1,1,1").exit_code == 2
    assert run("solve", "--shape", "4,4,4", "--target", "9,1,1").exit_code == 2


def test_solve_levelset_on_4d_grid_matches_dqy(tmp_path):
    # levelset hands a grid that is not 3D to dqy whole: the same point and
    # the same query count, from --shape and from --instance alike.
    path = tmp_path / "t4.txt"
    assert run(
        "gen", "--shape", "4,4,4,4", "--kind", "target", "--target", "1,2,3,4",
        "-o", str(path),
    ).exit_code == 0
    for source in (("--shape", "4,4,4,4", "--target", "1,2,3,4"), ("--instance", str(path))):
        res = run("solve", *source)
        want = run("solve", *source, "--algo", "dqy")
        assert res.exit_code == want.exit_code == 0, res.output
        assert "fixed_point = (1,2,3,4)" in res.output
        assert res.output == want.output


def test_solve_dqy_on_4d_grid():
    res = run("solve", "--shape", "4,4,4,4", "--target", "1,2,3,4", "--algo", "dqy")
    assert res.exit_code == 0, res.output
    assert "fixed_point = (1,2,3,4)" in res.output


def test_solve_malformed_instance_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("tarski-instance v1\nd 3\nshape 2 2\nkind target\ntarget 1 1 1\n")
    res = run("solve", "--instance", str(bad))
    assert res.exit_code == 2
    assert ":3:" in res.output  # line-numbered parse error


def test_solve_and_verify_non_utf8_instance_exit_2(tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"tarski-instance v1\nd 3\nshape 2 2 2\nkind t\xe4rget\n")
    for command in ("solve", "verify"):
        res = run(command, "--instance", str(bad))
        assert res.exit_code == 2, (command, res.output)
        assert ":4: not UTF-8" in res.output


def test_solve_and_verify_oversized_table_instance_exit_2(tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("tarski-instance v1\nd 3\nshape 1000 1000 1000\nkind table\n1 1 1\n")
    for command in ("solve", "verify"):
        res = run(command, "--instance", str(big))
        assert res.exit_code == 2, (command, res.output)
        assert "limit is 1000000" in res.output
        assert "Traceback" not in res.output
        assert not isinstance(res.exception, CapacityError)
    # a lazy target file loads at any size, but verify scans the whole grid
    target = tmp_path / "target.txt"
    target.write_text("tarski-instance v1\nd 3\nshape 200 200 200\nkind target\ntarget 5 5 5\n")
    res = run("verify", "--instance", str(target))
    assert res.exit_code == 2, res.output
    assert "verify_monotone needs 8000000 grid points, limit is 1000000" in res.output
    assert "Traceback" not in res.output
    assert not isinstance(res.exception, CapacityError)


def test_solve_and_verify_multi_value_dimension_line_exit_2(tmp_path):
    bad = tmp_path / "d.txt"
    bad.write_text("tarski-instance v1\nd 1 2\nshape 3\nkind target\ntarget 1\n")
    for command in ("solve", "verify"):
        res = run(command, "--instance", str(bad))
        assert res.exit_code == 2, (command, res.output)
        assert ":2: malformed dimension" in res.output


def test_solve_trace_into_missing_directory_exit_2(tmp_path):
    trace = tmp_path / "missing" / "trace.tsv"
    res = run("solve", "--shape", "8,8,8", "--target", "3,5,2", "--trace", str(trace))
    assert res.exit_code == 2, res.output
    assert f"cannot write {trace}" in res.output


class _FullDiskFile(io.StringIO):
    """A trace file whose writes fail as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_solve_trace_write_failure_exit_2(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "open", lambda *args, **kw: _FullDiskFile(), raising=False)
    trace = tmp_path / "trace.tsv"
    res = run("solve", "--shape", "8,8,8", "--target", "3,5,2", "--trace", str(trace))
    assert res.exit_code == 2, res.output
    assert f"cannot write {trace}: {os.strerror(errno.ENOSPC)}" in res.output
    assert "fixed_point" not in res.output


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_solve_trace_to_full_device_exit_2():
    # The short trace fits the write buffer, so here the final close fails.
    res = run("solve", "--shape", "8,8,8", "--target", "3,5,2", "--trace", "/dev/full")
    assert res.exit_code == 2, res.output
    assert "cannot write /dev/full: No space left on device" in res.output
    assert "fixed_point" not in res.output


def test_solve_trace_and_verify_flags_need_levelset(tmp_path):
    trace = tmp_path / "t.tsv"
    for algo in ("dqy", "brute"):
        for flags in (("--trace", str(trace)), ("--verify-certificates",)):
            res = run("solve", "--shape", "6,6,6", "--target", "2,5,3", "--algo", algo, *flags)
            assert res.exit_code == 2, (algo, flags, res.output)
            assert "applies to --algo levelset only" in res.output
            assert not trace.exists()


def test_solve_violation_exit_3(tmp_path):
    bad = tmp_path / "cycle.txt"
    bad.write_text("tarski-instance v1\nd 1\nshape 2\nkind table\n2\n1\n")
    res = run("solve", "--instance", str(bad), "--algo", "dqy")
    assert res.exit_code == 3
    assert "monotonicity violation" in res.output


def test_solve_trace_file(tmp_path):
    trace = tmp_path / "trace.tsv"
    res = run(
        "solve", "--shape", "16,16,16", "--target", "3,9,14", "--trace", str(trace)
    )
    assert res.exit_code == 0
    lines = trace.read_text().splitlines()
    assert lines
    for line in lines:
        assert len(line.split("\t")) == 5


def test_solve_verify_certificates_flag():
    res = run(
        "solve", "--shape", "64,64,64", "--target", "10,60,31",
        "--verify-certificates",
    )
    assert res.exit_code == 0
    assert "fixed_point = (10,60,31)" in res.output


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    r1 = run("gen", "--shape", "3,3,3", "--kind", "random", "--seed", "1", "-o", str(a))
    r2 = run("gen", "--shape", "3,3,3", "--kind", "random", "--seed", "1", "-o", str(b))
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_then_solve_round_trip(tmp_path):
    path = tmp_path / "t.txt"
    assert run(
        "gen", "--shape", "5,5,5", "--kind", "target", "--target", "3,1,4",
        "-o", str(path),
    ).exit_code == 0
    res = run("solve", "--instance", str(path))
    assert res.exit_code == 0
    assert "fixed_point = (3,1,4)" in res.output


def test_gen_random_passes_verify(tmp_path):
    path = tmp_path / "r.txt"
    assert run(
        "gen", "--shape", "4,4,4", "--kind", "random", "--seed", "5", "-o", str(path)
    ).exit_code == 0
    res = run("verify", "--instance", str(path))
    assert res.exit_code == 0
    assert "monotone: yes" in res.output


def test_gen_capacity_exit_2(tmp_path):
    res = run(
        "gen", "--shape", "101,101,101", "--kind", "random", "--seed", "1",
        "-o", str(tmp_path / "x.txt"),
    )
    assert res.exit_code == 2


def test_gen_into_missing_directory_exit_2(tmp_path):
    out = tmp_path / "missing" / "r.txt"
    res = run("gen", "--shape", "3,3,3", "--kind", "random", "-o", str(out))
    assert res.exit_code == 2, res.output
    assert f"cannot write {out}" in res.output


def test_gen_usage_errors_exit_2_with_their_message(tmp_path):
    out = tmp_path / "x.txt"
    cases = [
        (("--shape", "3,3,3", "--kind", "target"), "--kind target needs --target"),
        (("--shape", "0,3", "--kind", "random"), "invalid shape (0, 3)"),
    ]
    for args, message in cases:
        res = run("gen", *args, "-o", str(out))
        assert res.exit_code == 2, (args, res.output)
        assert message in res.output
        assert not out.exists()


def test_verify_target_and_violating_table(tmp_path):
    t = tmp_path / "t.txt"
    save_instance(gen_random_monotone((3, 3, 3), 2), t)
    res = run("verify", "--instance", str(t))
    assert "monotone: yes" in res.output

    bad = tmp_path / "bad.txt"
    bad.write_text("tarski-instance v1\nd 1\nshape 2\nkind table\n2\n1\n")
    res = run("verify", "--instance", str(bad))
    assert res.exit_code == 0
    assert "monotone: no" in res.output
    assert "violation:" in res.output


def test_verify_lists_fixed_points(tmp_path):
    path = tmp_path / "t.txt"
    save_instance(gen_random_monotone((3, 3, 3), 7), path)
    inst = load_instance(path)
    from tarski.oracle import fixed_points_bruteforce

    res = run("verify", "--instance", str(path))
    count = len(fixed_points_bruteforce(inst))
    assert f"fixed_points: {count}" in res.output


def test_bench_header_and_determinism(tmp_path):
    args = (
        "bench", "--sides", "8,16", "--reps", "3", "--seed", "7",
        "--algos", "levelset,dqy",
    )
    r1, r2 = run(*args), run(*args)
    assert r1.exit_code == 0 and r2.exit_code == 0
    head1, *rows1 = r1.output.splitlines()
    head2, *rows2 = r2.output.splitlines()
    assert head1 == head2 == "algo,shape,N,seed,queries,verified,wall_time_ms"
    assert len(rows1) == 2 * 2 * 3

    def stable(rows):
        # wall_time_ms is measured, everything else must reproduce exactly
        return [r.rsplit(",", 1)[0] for r in rows]

    assert stable(rows1) == stable(rows2)
    for row in rows1:
        algo, shape, n, seed, queries, verified, wall = row.split(",")
        assert algo in ("levelset", "dqy")
        assert verified == "true"
        assert int(queries) > 0
        assert int(n) == 3 * int(shape.split("x")[0])


def test_bench_rows_ordered_and_written_to_file(tmp_path):
    out = tmp_path / "out.csv"
    res = run(
        "bench", "--sides", "8,16", "--reps", "2", "--seed", "1",
        "--algos", "levelset", "-o", str(out),
    )
    assert res.exit_code == 0
    rows = out.read_text().splitlines()[1:]
    shapes = [r.split(",")[1] for r in rows]
    assert shapes == ["8x8x8", "8x8x8", "16x16x16", "16x16x16"]


def test_bench_into_missing_directory_exit_2(tmp_path):
    out = tmp_path / "missing" / "out.csv"
    res = run("bench", "--sides", "8", "--reps", "1", "-o", str(out))
    assert res.exit_code == 2, res.output
    assert f"cannot write {out}" in res.output


def test_bench_brute_on_oversized_cube_exit_2():
    for args in (
        ("bench", "--sides", "200", "--reps", "1", "--algos", "brute"),
        ("solve", "--algo", "brute", "--shape", "200,200,200", "--target", "5,5,5"),
    ):
        res = run(*args)
        assert res.exit_code == 2, (args, res.output)
        assert "brute_solve needs 8000000 grid points, limit is 1000000" in res.output
        assert "Traceback" not in res.output
        assert not isinstance(res.exception, CapacityError)


def test_bench_rejects_non_positive_reps():
    for reps in ("0", "-2"):
        res = run("bench", "--sides", "8", "--reps", reps)
        assert res.exit_code == 2, res.output
        assert "--reps must be >= 1" in res.output


def test_bench_random_kind_solves_one_seeded_table_per_side_and_rep():
    # each (side, rep), side-major, draws its table's seed from the --seed stream
    res = run(
        "bench", "--sides", "4,5", "--kind", "random", "--reps", "2", "--seed", "3",
        "--algos", "levelset,dqy",
    )
    assert res.exit_code == 0, res.output
    head, *rows = res.output.splitlines()
    assert head == cli.BENCH_HEADER
    rng = SplitMix64(3)
    tables = [gen_random_monotone((side,) * 3, rng.next_u64()) for side in (4, 5) for _ in range(2)]
    want = []
    for algo in ("levelset", "dqy"):
        for inst in tables:
            counted = CountedOracle(inst)
            cli._run_algo(algo, counted, False, None)
            side = inst.shape[0]
            want.append(f"{algo},{side}x{side}x{side},{3 * side},3,{counted.distinct_queries},true")
    assert [row.rsplit(",", 1)[0] for row in rows] == want


def test_bench_rejects_unknown_algo():
    assert run("bench", "--sides", "8", "--algos", "quantum").exit_code == 2
    assert run("bench", "--sides", "8", "--algos", ",").exit_code == 2


def test_bench_rejects_non_positive_sides():
    for kind in ("target", "random"):
        for sides in ("0", "8,-3"):
            res = run("bench", "--sides", sides, "--kind", kind)
            assert res.exit_code == 2, (kind, sides, res.output)
            assert "--sides must be positive" in res.output


def test_solve_huge_grid_within_query_budget():
    res = run(
        "solve", "--shape", "1048576,1048576,1048576", "--target", "1,1,1",
        "--algo", "levelset",
    )
    assert res.exit_code == 0
    assert "fixed_point = (1,1,1)" in res.output
    queries = int(re.search(r"queries = (\d+)", res.output).group(1))
    # same normalized budget the acceptance scaling sweep enforces
    import math

    assert queries <= 1.25 * math.ceil(math.log2(3 * 1048576)) ** 2


def test_bench_dqy_needs_more_queries_at_large_side():
    # at side 2^16 the separation is stable; at smaller sides the two
    # solvers trade places depending on the sampled targets
    res = run(
        "bench", "--sides", "65536", "--reps", "10", "--seed", "2",
        "--algos", "levelset,dqy",
    )
    assert res.exit_code == 0
    sums = {}
    for row in res.output.splitlines()[1:]:
        cols = row.split(",")
        sums[cols[0]] = sums.get(cols[0], 0) + int(cols[4])
    assert sums["levelset"] < sums["dqy"]
