import re

from click.testing import CliRunner

from tarski.cli import main
from tarski.oracle import gen_random_monotone, load_instance, save_instance


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


def test_solve_levelset_on_4d_grid_is_usage_error(tmp_path):
    res = run("solve", "--shape", "4,4,4,4", "--target", "1,2,3,4")
    assert res.exit_code == 2, res.output
    assert "at most 3 dimensions" in res.output
    assert "Traceback" not in res.output
    path = tmp_path / "t4.txt"
    assert run(
        "gen", "--shape", "4,4,4,4", "--kind", "target", "--target", "1,2,3,4",
        "-o", str(path),
    ).exit_code == 0
    res = run("solve", "--instance", str(path))
    assert res.exit_code == 2, res.output
    assert "at most 3 dimensions" in res.output


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


def test_bench_rejects_unknown_algo():
    assert run("bench", "--sides", "8", "--algos", "quantum").exit_code == 2


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
