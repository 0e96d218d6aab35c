#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size; exits non-zero on failure.

    python3 benchmarks/smoke.py

Checks, for every workload, that every metric named in BENCHMARK.json is
emitted with its unit and that every answer was correct; that the exact
counts and the transcript digest repeat across two invocations with the
same seed and change with another seed; and that the benchmark refuses to
run, printing no result, in a directory that holds only BENCHMARK.json and
the benchmark itself.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("target_sweep", "small_tables", "table_pipeline")
EXACT = ("queries_per_solve", "dqy_queries_per_solve", "query_ratio", "witness_rate")
# What must differ between seeds. Tiny inputs give witness_rate 1.0 for
# almost every seed. Running maxima saturate table_pipeline's tables, so its
# query counts are the same for every seed and only the values it reads
# (the digest) differ.
SEED_SENSITIVE = {
    "target_sweep": ("digest", "queries_per_solve", "query_ratio"),
    "small_tables": ("digest", "queries_per_solve", "query_ratio"),
    "table_pipeline": ("digest",),
}


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


def parse(out) -> tuple[dict, dict]:
    """(result JSON, exact counts and digest) of a successful run."""
    if out.returncode != 0:
        raise AssertionError(f"exit {out.returncode}: {out.stderr[-2000:]}")
    info_line, result_line = out.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    digest = info_line.split("transcripts_sha256=")[1].split()[0]
    exact = {name: result["metrics"][name]["value"] for name in EXACT if name in result["metrics"]}
    exact["digest"] = digest
    return result, exact


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, exact = parse(bench(workload, 1, trace))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{workload} trace={trace}: {result['failed']} failed ops")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
            if bad:
                errors.append(f"{workload} trace={trace}: non-numeric values {bad}")
            if trace == 0:
                _, again = parse(bench(workload, 1, 0))
                _, other = parse(bench(workload, 2, 0))
                if again != exact:
                    errors.append(f"{workload}: same seed, different counts {exact} vs {again}")
                for name in SEED_SENSITIVE[workload]:
                    if other[name] == exact[name]:
                        errors.append(f"{workload}: {name} did not change with the seed")

    bare = os.path.join(HERE, ".smoke")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns(".smoke", ".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = bench(WORKLOADS[0], 1, 0, cwd=bare)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            errors.append("the benchmark ran without the library's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print("FAIL:", error)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
