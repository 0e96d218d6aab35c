#!/usr/bin/env python3
"""Check that the tests still kill the mutants they were written against.

    python3 tools/mutants.py

Run it from anywhere; it reads src/, tests/ and pyproject.toml of the
checkout it sits in. Each mutant below replaces one exact piece of text in
one library file and names the tests that must fail on it. The script first
runs every named test on an unmutated copy, which must pass. Then, for each
mutant, it applies the replacement in a fresh copy and runs only that
mutant's tests, stopping at the first failure. Each pytest run has a
timeout; a mutant whose run times out, such as a binary search that no
longer narrows its bracket, counts as killed. It exits 1 when a mutant
survives, when a mutant's old text is not found exactly once (a refactor
that moves the text must update the list here), or when the unmutated copy
fails or times out. Stdlib only; pytest runs in a subprocess with the
interpreter that runs this script.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 120.0


class Mutant(NamedTuple):
    """One replacement and the tests that must fail on it. A mutant that
    hangs costs its whole timeout, so it names a quick test and a short
    timeout."""

    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    timeout: float = TIMEOUT_S


def _clamp(line: str) -> Mutant:
    """search_space without one of its six clamps of a bound to the box."""
    return Mutant(
        f"search_space without the clamp {line.strip()!r}",
        "src/tarski/levelset.py",
        line + "\n",
        "",
        ("tests/test_levelset.py::test_search_space_matches_bruteforce",),
    )


MUTANTS = (
    Mutant(
        "_Lanes picks a lane width without room for the guard bit",
        "src/tarski/oracle.py",
        "if max(shape) < 1 << (8 * s - 1))",
        "if max(shape) < 1 << (8 * s))",
        (
            "tests/test_oracle.py::test_verify_monotone_matches_reference_on_perturbed_tables",
            "tests/test_oracle.py::test_monotonize_matches_reference_on_raw_tables",
        ),
    ),
    Mutant(
        "_checked_table leaves the target field unset",
        "src/tarski/oracle.py",
        '    object.__setattr__(inst, "target", None)\n',
        "",
        ("tests/test_oracle.py::test_gen_tables_pass_the_public_constructor",),
    ),
    Mutant(
        "_table_rows looks every axis up in the largest side's range",
        "src/tarski/oracle.py",
        "lookups = [values[n].__getitem__ for n in shape]",
        "lookups = [values[max(shape)].__getitem__ for n in shape]",
        ("tests/test_oracle.py::test_load_checks_each_axis_range_on_unequal_sides",),
    ),
    Mutant(
        "the shrink probe is the greedy level point, not the central one",
        "src/tarski/levelset.py",
        "        q0 = a0 + deficit * (b0 - a0) // width\n"
        "        q1 = a1 + deficit * (b1 - a1) // width\n"
        "        q2 = a2 + deficit * (b2 - a2) // width\n",
        "        q0, q1, q2 = a0, a1, a2\n",
        (
            "tests/test_levelset.py::test_shrink_probe_spec_example",
            "tests/test_levelset.py::test_shrink_probe_is_central_inside_the_sixth_step_bounds",
        ),
    ),
    _clamp("    a0 = a0 if a0 > lo0 else lo0"),
    _clamp("    a1 = a1 if a1 > lo1 else lo1"),
    _clamp("    a2 = a2 if a2 > lo2 else lo2"),
    _clamp("    b0 = b0 if b0 < hi0 else hi0"),
    _clamp("    b1 = b1 if b1 < hi1 else hi1"),
    _clamp("    b2 = b2 if b2 < hi2 else hi2"),
    Mutant(
        "dqy's bisection raises its floor without updating the floor evidence",
        "src/tarski/baseline.py",
        "            floor_ev = (y, fy)\n",
        "",
        (
            "tests/test_baseline.py::test_dqy_violations_on_raw_tables_implicate_a_violating_pair",
            "tests/test_transcripts.py::test_dqy_query_calls_are_pinned",
        ),
    ),
    Mutant(
        "dqy's bisection does not step past a midpoint below the answer",
        "src/tarski/baseline.py",
        "            a = m + 1\n",
        "            a = m\n",
        ("tests/test_baseline.py::test_dqy_1d_binary_search",),
        timeout=5.0,
    ),
    Mutant(
        "the 3D table evaluator lets the first coordinate be 0",
        "src/tarski/oracle.py",
        "            if 1 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:\n"
        "                return table[",
        "            if 0 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:\n"
        "                return table[",
        ("tests/test_oracle.py::test_query_rejects_each_bound_and_wrong_length_without_a_trace",),
    ),
    Mutant(
        "the 3D target evaluator lets the first coordinate be 0",
        "src/tarski/oracle.py",
        "                if 1 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:\n"
        "                    # c + sign",
        "                if 0 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:\n"
        "                    # c + sign",
        ("tests/test_oracle.py::test_query_rejects_each_bound_and_wrong_length_without_a_trace",),
    ),
    Mutant(
        "the evaluator of grids that are not 3D skips the bounds check",
        "src/tarski/oracle.py",
        "return lambda x: value(x) if contains(x) else None",
        "return lambda x: value(x)",
        ("tests/test_oracle.py::test_query_rejects_each_bound_and_wrong_length_without_a_trace",),
    ),
    Mutant(
        "_check_table passes a column without testing its types",
        "src/tarski/oracle.py",
        "set(map(type, col)) == {int} and 1 <= min(col)",
        "1 <= min(col)",
        ("tests/test_oracle.py::test_instance_names_each_malformed_field",),
    ),
    Mutant(
        "_check_table passes rows without testing their type",
        "src/tarski/oracle.py",
        "if set(map(type, table)) == {tuple} and set(map(len, table)) == {d} and all(",
        "if set(map(len, table)) == {d} and all(",
        ("tests/test_oracle.py::test_instance_names_each_malformed_field",),
    ),
    Mutant(
        "Instance takes a target without testing its type",
        "src/tarski/oracle.py",
        "            if target is not None and not _is_point(target):\n"
        "                raise ValueError(f\"target {target!r} is not a tuple of ints\")\n",
        "",
        ("tests/test_oracle.py::test_instance_names_each_malformed_field",),
    ),
    Mutant(
        "solve runs the level path on grids of more than 3 dimensions",
        "src/tarski/levelset.py",
        "if len(shape) != 3 or lo[0] == hi[0]",
        "if len(shape) < 3 or lo[0] == hi[0]",
        ("tests/test_levelset.py::test_solve_above_3d_is_dqy_call_for_call",),
    ),
    Mutant(
        "an init search misses a downward point whose own axis F keeps",
        "src/tarski/levelset.py",
        "if si <= 0 and sj <= 0 and sp <= 0:",
        "if si < 0 and sj <= 0 and sp <= 0:",
        ("tests/test_levelset.py::test_init_direction_sweep_small_grids",),
    ),
    Mutant(
        "_corner_pairs queries past the trace",
        "src/tarski/levelset.py",
        "return ((lo, self._oracle.query(lo)), (hi, self._oracle.query(hi)))",
        "return ((lo, self.oracle.query(lo)), (hi, self.oracle.query(hi)))",
        ("tests/test_levelset.py::test_trace_has_one_record_per_query_call",),
    ),
    Mutant(
        "_tighten traces its queries under the context the last level left",
        "src/tarski/levelset.py",
        "        self._context = (PHASE_OUTER, -1)\n        u, fu = out.point, out.fvalue\n",
        "        u, fu = out.point, out.fvalue\n",
        ("tests/test_levelset.py::test_tighten_confirms_image_as_outer_query_in_verify_mode",),
    ),
    Mutant(
        "certificate payloads read verified as False only under python -O",
        "src/tarski/levelset.py",
        '"verified": verified}',
        '"verified": verified and __debug__}',
        ("tests/test_transcripts.py::test_pinned_digest_holds_under_python_O",),
    ),
)


def _copy(dest: str) -> None:
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        else:
            shutil.copy2(src, dest)


def _pytest(root: str, tests, timeout: float) -> int | None:
    """Run the given test node IDs under root with root/src on the path;
    pytest's exit code, or None when the run outlasts timeout seconds and
    is stopped. The hypothesis plugin stays unloaded: importing it costs
    most of a run's start-up, and the property tests set their own
    settings without it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-p", "no:hypothesispytest", *tests]
    try:
        return subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    start = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = os.path.join(tmp, "clean")
        _copy(clean)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code = _pytest(clean, tests, TIMEOUT_S)
        if code != 0:
            failed = "time out" if code is None else "fail"
            print(f"the named tests {failed} on the unmutated code; nothing to check")
            return 1
        for i, m in enumerate(MUTANTS):
            with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
                text = fh.read()
            found = text.count(m.old)
            if found != 1:
                problems.append(f"{m.name}: old text found {found} times in {m.path}")
                print(f"{'MISSING':16} {m.name}")
                continue
            root = os.path.join(tmp, f"mutant{i}")
            _copy(root)
            with open(os.path.join(root, m.path), "w", encoding="utf-8") as fh:
                fh.write(text.replace(m.old, m.new))
            code = _pytest(root, m.tests, m.timeout)
            killed = code != 0
            shutil.rmtree(root)
            verdict = "SURVIVED" if not killed else "killed (timeout)" if code is None else "killed"
            print(f"{verdict:16} {m.name}")
            if not killed:
                problems.append(f"{m.name}: survives {', '.join(m.tests)}")
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems, {time.perf_counter() - start:.1f} s")
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
