#!/usr/bin/env python3
"""Benchmark of the tarski library: one workload, one seed, one JSON result.

    python3 benchmarks/run.py --workload target_sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the library from the
checkout's ``src/`` and reads metric names and units from ``BENCHMARK.json``.
A run is one process and one thread in a closed loop: each op starts when
the previous one has returned. It builds its inputs from ``--seed``, sets
up (timed, repeated), makes an untimed check pass that records query
transcripts and exact counts, then loops over the workload's ops for
``--seconds``. Every answer is checked outside the timed interval.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is the JSON result; the line before
it carries the SHA-256 digest of the check pass's query transcripts.
``--out FILE`` also writes the full report, digest included, as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("target_sweep", "small_tables", "table_pipeline")
# One import is a large share of a short set-up and swings with the
# machine, so setup_s takes the median of several.
IMPORT_REPEATS = 9


def import_library(cal) -> list[tuple[float, int]]:
    """Import tarski from the checkout's src/ IMPORT_REPEATS times, each time
    afresh, and return the seconds each import took with the index of the
    calibration tick taken before it. The last import is the one in use."""
    if not os.path.isfile(os.path.join(SRC, "tarski", "__init__.py")):
        sys.exit(f"run.py: no library source under {SRC}")
    sys.path.insert(0, SRC)
    imports = []
    for _ in range(IMPORT_REPEATS):
        for name in [n for n in sys.modules if n == "tarski" or n.startswith("tarski.")]:
            del sys.modules[name]
        tick = cal.tick()
        t0 = time.perf_counter()
        tarski = importlib.import_module("tarski")
        imports.append((time.perf_counter() - t0, tick))
    if os.path.dirname(os.path.abspath(tarski.__file__)) != os.path.join(SRC, "tarski"):
        sys.exit(f"run.py: imported tarski from {tarski.__file__}, not from {SRC}")
    return imports


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics this run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="also write the full report to this JSON file")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    units = metric_units(args.trace)
    sys.path.insert(0, HERE)
    cal = importlib.import_module("calibrate").Calibrator()
    imports = import_library(cal)
    measure = importlib.import_module("measure")

    work_dir = os.path.join(HERE, ".work")
    os.makedirs(work_dir, exist_ok=True)
    size = "tiny" if args.tiny else "full"
    run = measure.Run(args.workload, args.seed, args.seconds, size, work_dir, cal, imports)
    try:
        collect = measure.per_layer if args.trace else measure.end_to_end
        values, info = collect(run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, **info, **result}, fh, indent=1)
    gate = info.get("criterion6")
    print(
        f"# {args.workload} seed={args.seed} ops={info['ops']} kernel_us={info['kernel_us']:.0f}"
        f" transcripts_sha256={info['digest']}"
        + (f" criterion6_queries={gate[0]:g}/{gate[1]:g}" if gate else "")
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
