"""Command-line front door: solve, gen, bench, verify.

Exit codes: 0 success, 2 usage, parse or capacity error, 3 monotonicity
violation.
Each solver returns a point that its own last oracle query answered with
itself, so every printed fixed point has been checked.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext

import click

from . import baseline, levelset, oracle as orc
from .errors import CapacityError, InstanceFormatError, MonotonicityViolation
from .lattice import full_box
from .rng import SplitMix64

ALGOS = ("levelset", "dqy", "brute")

BENCH_HEADER = "algo,shape,N,seed,queries,verified,wall_time_ms"


def _parse_coords(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"{label} must be comma-separated integers, got {text!r}")


def _fmt_point(p) -> str:
    return "(" + ",".join(str(c) for c in p) + ")"


def _dump_violation(exc: MonotonicityViolation) -> None:
    click.echo(f"monotonicity violation: {exc}", err=True)
    for pt, val in exc.implicated:
        click.echo(f"  queried {_fmt_point(pt)} -> {_fmt_point(val)}", err=True)
    w = exc.witness
    if w is not None:
        click.echo(
            f"  witness: {_fmt_point(w.x)} <= {_fmt_point(w.y)} but "
            f"F{_fmt_point(w.x)} = {_fmt_point(w.fx)} !<= F{_fmt_point(w.y)} = {_fmt_point(w.fy)}",
            err=True,
        )


def _cannot_write(path, exc: OSError):
    click.echo(f"cannot write {path}: {exc.strerror or exc}", err=True)
    sys.exit(2)


def _load_or_build(instance_path, shape, target) -> orc.Instance:
    if instance_path is not None:
        return orc.load_instance(instance_path)
    if shape is None or target is None:
        raise click.UsageError("provide --instance, or both --shape and --target")
    shape_t = _parse_coords(shape, "--shape")
    target_t = _parse_coords(target, "--target")
    try:
        return orc.gen_target(shape_t, target_t)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _run_algo(algo: str, counted, verify_certificates: bool, trace):
    if algo == "levelset":
        return levelset.solve(counted, verify_certificates=verify_certificates, trace=trace)
    if algo == "dqy":
        return baseline.dqy_solve(counted).fixed_point
    return baseline.brute_solve(counted)


class _Main(click.Group):
    """The command group; it turns the library's typed errors into exit
    codes for every command: a monotonicity violation into its dump and 3,
    an oversized grid or a malformed instance file into its message and 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MonotonicityViolation as exc:
            _dump_violation(exc)
            sys.exit(3)
        except (CapacityError, InstanceFormatError) as exc:
            click.echo(str(exc), err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Tarski fixed point tools: solvers, generators, benchmarks."""


@main.command(name="solve")
@click.option("--instance", "instance_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--shape", default=None, help="grid sides, e.g. 32,32,32")
@click.option("--target", default=None, help="target point of a target-sign instance")
@click.option("--algo", type=click.Choice(ALGOS), default="levelset", show_default=True)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="write one tab-separated record per query")
@click.option("--verify-certificates", is_flag=True,
              help="confirm every implied certificate with a real query")
def cmd_solve(instance_path, shape, target, algo, trace_path, verify_certificates):
    """Solve one instance and print the fixed point and query count."""
    if algo != "levelset" and (trace_path or verify_certificates):
        flag = "--trace" if trace_path else "--verify-certificates"
        raise click.UsageError(f"{flag} applies to --algo levelset only")
    inst = _load_or_build(instance_path, shape, target)
    counted = orc.CountedOracle(inst)
    try:
        with open(trace_path, "w", encoding="utf-8") if trace_path else nullcontext() as trace:
            point = _run_algo(algo, counted, verify_certificates, trace)
    except OSError as exc:
        # Only the trace file does I/O: opening it, writing it during a solve, closing it.
        _cannot_write(trace_path, exc)
    click.echo(f"fixed_point = {_fmt_point(point)}")
    click.echo(f"queries = {counted.distinct_queries}")


@main.command(name="gen")
@click.option("--shape", required=True)
@click.option("--kind", type=click.Choice(["target", "random"]), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--target", default=None)
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def cmd_gen(shape, kind, seed, target, output):
    """Generate an instance file (target-sign or seeded random monotone)."""
    shape_t = _parse_coords(shape, "--shape")
    try:
        if kind == "target":
            if target is None:
                raise click.UsageError("--kind target needs --target")
            inst = orc.gen_target(shape_t, _parse_coords(target, "--target"))
        else:
            inst = orc.gen_random_monotone(shape_t, seed)
    except CapacityError:
        raise  # not a usage error: main reports it and exits 2
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        orc.save_instance(inst, output)
    except OSError as exc:
        _cannot_write(output, exc)
    click.echo(f"wrote {output}")


@main.command(name="verify")
@click.option("--instance", "instance_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def cmd_verify(instance_path):
    """Check monotonicity of an instance and list its fixed points."""
    inst = orc.load_instance(instance_path)
    witness = orc.verify_monotone(inst)
    fixed = sorted(orc.fixed_points_bruteforce(inst))
    click.echo(f"monotone: {'no' if witness else 'yes'}")
    if witness is not None:
        click.echo(
            f"violation: x={_fmt_point(witness.x)} y={_fmt_point(witness.y)} "
            f"F(x)={_fmt_point(witness.fx)} F(y)={_fmt_point(witness.fy)}"
        )
    click.echo(f"fixed_points: {len(fixed)}")
    for p in fixed:
        click.echo(f"  {_fmt_point(p)}")


@main.command(name="bench")
@click.option("--sides", required=True, help="cube sides, e.g. 16,32,64")
@click.option("--kind", type=click.Choice(["target", "random"]), default="target",
              show_default=True)
@click.option("--reps", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--algos", default="levelset,dqy", show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="CSV file (default: stdout)")
def cmd_bench(sides, kind, reps, seed, algos, output):
    """Query-count sweep over cube instances; one CSV row per (algo, side, rep).

    Instances are sampled deterministically from --seed, so every algorithm
    sees the same inputs and reruns reproduce the same counts.
    """
    side_list = _parse_coords(sides, "--sides")
    if min(side_list) < 1:
        raise click.UsageError(f"--sides must be positive, got {sides!r}")
    algo_list = tuple(a.strip() for a in algos.split(",") if a.strip())
    if not algo_list:
        raise click.UsageError(f"--algos names no algo, got {algos!r}")
    for a in algo_list:
        if a not in ALGOS:
            raise click.UsageError(f"unknown algo {a!r}")
    if reps < 1:
        raise click.UsageError("--reps must be >= 1")
    rng = SplitMix64(seed)
    instances: dict[tuple[int, int], orc.Instance] = {}
    for side in side_list:
        for rep in range(reps):
            if kind == "target":
                target = tuple(1 + rng.below(side) for _ in range(3))
                instances[(side, rep)] = orc.gen_target((side,) * 3, target)
            else:
                instances[(side, rep)] = orc.gen_random_monotone((side,) * 3, rng.next_u64())
    rows = [BENCH_HEADER]
    for algo in algo_list:
        for side in side_list:
            for rep in range(reps):
                inst = instances[(side, rep)]
                counted = orc.CountedOracle(inst)
                t0 = time.perf_counter()
                _run_algo(algo, counted, False, None)
                wall_ms = int(round((time.perf_counter() - t0) * 1000))
                # Every column but wall_time_ms is reproducible.
                rows.append(
                    f"{algo},{side}x{side}x{side},{full_box(inst.shape).size},{seed},"
                    f"{counted.distinct_queries},true,{wall_ms}"
                )
    text = "\n".join(rows) + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            _cannot_write(output, exc)


if __name__ == "__main__":
    main()
