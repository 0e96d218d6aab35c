#!/usr/bin/env python3
"""Check that the tests still kill the mutants they were written against.

    python3 tools/mutants.py

Run it from anywhere; it reads src/, tests/ and pyproject.toml of the
checkout it sits in. Each mutant below replaces one exact piece of text in
one library file and names the tests that must fail on it. The script
copies the checkout once and compiles that copy's modules. For each mutant
it applies the replacement in a fresh copy of that and runs only that
mutant's tests, stopping at the first failure, and prints the verdict with
the run's seconds. Alongside that loop, in a second process, every named
test runs on an unmutated copy, where it must pass. Each pytest run has a
timeout; a mutant whose run times out, such as a binary search that no
longer narrows its bracket, counts as killed. It exits 1 when a mutant
survives, when every test that fails on a mutant fails by a NameError (its
new text names something the code no longer has, so no assertion judged
it), when a mutant's old text is not found exactly once (a refactor that
moves the text must update the list here), or when the unmutated copy
fails or times out; it then prints pytest's FAILED lines of that copy, or
that it timed out. Stdlib only; pytest runs in a subprocess with the
interpreter that runs this script.
"""

from __future__ import annotations

import glob
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
    hangs costs the whole timeout, so it names tests whose oracles cap
    their query calls."""

    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


def _unclamped(what: str, clamped: str, bare: str) -> Mutant:
    """search_space without one of its four clamps, each of which covers
    all three axes."""
    return Mutant(
        f"search_space does not clamp {what}",
        "src/tarski/levelset.py",
        clamped,
        bare,
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
        "grid_columns takes the reduction's shift from n's bit length, not n - 1's",
        "src/tarski/rng.py",
        "ell = (n - 1).bit_length()",
        "ell = n.bit_length()",
        ("tests/test_oracle.py::test_grid_columns_match_repeated_below_calls",),
    ),
    Mutant(
        "grid_columns keeps the lane above's spill in the reduction's high product",
        "src/tarski/rng.py",
        "t = ((w * magic) >> 64) & low",
        "t = (w * magic) >> 64",
        ("tests/test_oracle.py::test_grid_columns_match_repeated_below_calls",),
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
        "                    q0 = u0 + deficit * (v0 - u0) // width\n"
        "                    q1 = u1 + deficit * (v1 - u1) // width\n"
        "                    q2 = u2 + deficit * (v2 - u2) // width\n",
        "                    q0, q1, q2 = u0, u1, u2\n",
        (
            "tests/test_levelset.py::test_shrink_probe_spec_example",
            "tests/test_levelset.py::test_shrink_probe_is_central_inside_the_sixth_step_bounds",
        ),
    ),
    Mutant(
        "the single probe hands its remainder to axis 1 before axis 0",
        "src/tarski/levelset.py",
        "                    step = v0 - q0 if v0 - q0 < rest else rest\n"
        "                    q0, rest = q0 + step, rest - step\n"
        "                    step = v1 - q1 if v1 - q1 < rest else rest\n"
        "                    probes = ((q0, q1 + step, q2 + rest - step),)\n",
        "                    step = v1 - q1 if v1 - q1 < rest else rest\n"
        "                    q1, rest = q1 + step, rest - step\n"
        "                    step = v0 - q0 if v0 - q0 < rest else rest\n"
        "                    probes = ((q0 + step, q1, q2 + rest - step),)\n",
        ("tests/test_levelset.py::test_shrink_probe_is_central_inside_the_sixth_step_bounds",),
    ),
    Mutant(
        "a level whose pulled-in bounds meet in one point takes the corner triple",
        "src/tarski/levelset.py",
        "if 0 <= deficit <= width:",
        "if 0 < deficit <= width:",
        ("tests/test_levelset.py::test_small_case_interior_probe_spec_example",),
    ),
    Mutant(
        "a step whose largest diameter is 6 is labelled small",
        "src/tarski/levelset.py",
        "phase = shrink if d0 >= 6 or d1 >= 6 or d2 >= 6 else small",
        "phase = shrink if d0 >= 7 or d1 >= 7 or d2 >= 7 else small",
        ("tests/test_levelset.py::test_levels_of_diameter_6_to_9_open_with_their_central_shrink_probe",),
    ),
    _unclamped("a to the box's lo", "max(state.up[i][0][i], lo[i])", "state.up[i][0][i]"),
    _unclamped("b to the box's hi", "min(state.down[i][0][i], hi[i])", "state.down[i][0][i]"),
    _unclamped("ell to a", "max(a[i], k - b[j] - b[p])", "k - b[j] - b[p]"),
    _unclamped("r to b", "min(b[i], k - a[j] - a[p])", "k - a[j] - a[p]"),
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
        "dqy's bisection asks for its slice's answer again after the slice returned it",
        "src/tarski/baseline.py",
        ") if rest else (y, query(y))\n",
        ") if rest else (y, query(y))\n        fy = query(y) if rest else fy\n",
        ("tests/test_baseline.py::test_dqy_asks_for_no_point_twice",),
    ),
    Mutant(
        "dqy asks for its answer again to check it",
        "src/tarski/baseline.py",
        "    if fp != point:\n",
        "    fp = query(point)\n    if fp != point:\n",
        (
            "tests/test_baseline.py::test_dqy_asks_for_no_point_twice",
            "tests/test_baseline.py::test_levelset_delegations_to_dqy_ask_for_no_point_twice",
        ),
    ),
    Mutant(
        "dqy's bisection does not step past a midpoint below the answer",
        "src/tarski/baseline.py",
        "            a = m + 1\n",
        "            a = m\n",
        ("tests/test_baseline.py::test_dqy_1d_binary_search",),
    ),
    Mutant(
        "a violation keeps every implicated pair, duplicate points included",
        "src/tarski/errors.py",
        "self.implicated = _each_point_once(implicated)",
        "self.implicated = tuple(implicated)",
        (
            "tests/test_cli.py::test_solve_violation_exit_3",
            "tests/test_baseline.py::test_dqy_violations_on_raw_tables_implicate_a_violating_pair",
        ),
    ),
    Mutant(
        "iter_box stops each side's range short of its upper bound",
        "src/tarski/lattice.py",
        "range(a, b + 1)",
        "range(a, b)",
        (
            "tests/test_baseline.py::test_brute_solve_examples",
            "tests/test_lattice.py::test_iter_box_order_on_sub_boxes",
        ),
    ),
    Mutant(
        "the 3D table evaluator lets the first coordinate be 0",
        "src/tarski/oracle.py",
        "        if 1 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:\n"
        "            return table[",
        "        if 0 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:\n"
        "            return table[",
        ("tests/test_oracle.py::test_query_rejects_each_bound_and_wrong_length_without_a_trace",),
    ),
    Mutant(
        "the 3D target evaluator lets the first coordinate be 0",
        "src/tarski/oracle.py",
        "            if 1 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:\n"
        "                # c + sign",
        "            if 0 <= a <= n0 and 1 <= b <= n1 and 1 <= c <= n2:\n"
        "                # c + sign",
        ("tests/test_oracle.py::test_query_rejects_each_bound_and_wrong_length_without_a_trace",),
    ),
    Mutant(
        "the 3D target evaluator steps a coordinate above the target up",
        "src/tarski/oracle.py",
        "a - 1 if a > t0",
        "a + 1 if a > t0",
        ("tests/test_oracle.py::test_3d_query_values_equal_instance_values_everywhere_on_small_grids",),
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
        "if len(lo) != 3 or ",
        "if len(lo) < 3 or ",
        ("tests/test_levelset.py::test_solve_is_dqy_call_for_call_above_3d_and_on_span_6_grids",),
    ),
    Mutant(
        "solve's tail test does not test the grid's dimension",
        "src/tarski/levelset.py",
        "if len(lo) != 3 or ",
        "if ",
        ("tests/test_levelset.py::test_solve_is_dqy_call_for_call_above_3d_and_on_span_6_grids",),
    ),
    Mutant(
        "solve runs a level on boxes of coordinate-sum span 6",
        "src/tarski/levelset.py",
        "sums[1] - sums[0] <= 6:",
        "sums[1] - sums[0] <= 5:",
        ("tests/test_levelset.py::test_solve_on_every_3x3x3_target_is_dqy_cheap",),
    ),
    Mutant(
        "an init search misses a downward point whose own axis F keeps",
        "src/tarski/levelset.py",
        "if si <= 0 and sj <= 0 and sp <= 0:",
        "if si < 0 and sj <= 0 and sp <= 0:",
        ("tests/test_levelset.py::test_extreme_search_sweep_small_grids",),
    ),
    Mutant(
        "an s = -1 init bracket reads as adjacent as soon as both ends are placed",
        "src/tarski/levelset.py",
        "if -1 <= b - a <= 1:",
        "if b - a <= 1:",
        (
            "tests/test_levelset.py::test_extreme_search_downward_orientation_bisects_to_adjacent_ends",
            "tests/test_levelset.py::test_extreme_search_sweep_small_grids",
        ),
    ),
    Mutant(
        "the third-configuration bisection stops at ends two apart",
        "src/tarski/levelset.py",
        "if b - a <= 1:",
        "if b - a <= 2:",
        ("tests/test_levelset.py::test_resolve_third_bisects_past_a_low_midpoint_to_the_meet_when_f_high_keeps_p",),
    ),
    Mutant(
        "the third-configuration bisection moves its low end without moving a",
        "src/tarski/levelset.py",
        "                low, a = (q, fq), cj\n            if b - a <= 1:",
        "                low = q, fq\n            if b - a <= 1:",
        ("tests/test_levelset.py::test_resolve_third_bisects_past_a_low_midpoint_to_the_meet_when_f_high_keeps_p",),
    ),
    Mutant(
        "the third configuration's adjacent ends take the join when F(high) keeps the third axis",
        "src/tarski/levelset.py",
        "if high[1][p] <= high[0][p]:",
        "if high[1][p] < high[0][p]:",
        ("tests/test_levelset.py::test_resolve_third_bisects_past_a_low_midpoint_to_the_meet_when_f_high_keeps_p",),
    ),
    Mutant(
        "a probe moves up(0) without the sign test of axis 2",
        "src/tarski/levelset.py",
        "if m1 <= 0 and m2 <= 0:\n                        up[0]",
        "if m1 <= 0:\n                        up[0]",
        (
            "tests/test_levelset.py::test_probe_moves_the_bounds_classify_selects",
            "tests/test_levelset.py::test_shrink_strictly_decreases_phi",
        ),
    ),
    Mutant(
        "a probe moves down(0) without the sign test of axis 2",
        "src/tarski/levelset.py",
        "if m1 >= 0 and m2 >= 0:\n                        down[0]",
        "if m1 >= 0:\n                        down[0]",
        (
            "tests/test_levelset.py::test_probe_moves_the_bounds_classify_selects",
            "tests/test_levelset.py::test_find_configuration_definitions_hold",
        ),
    ),
    Mutant(
        "a probe stores its down(2) pair without moving the bound b2 of S",
        "src/tarski/levelset.py",
        "down[2], b2 = pair, q2",
        "down[2] = pair",
        (
            "tests/test_levelset.py::test_probe_moves_the_bounds_classify_selects",
            "tests/test_levelset.py::test_shrink_probe_spec_example",
        ),
    ),
    Mutant(
        "a level whose largest starting diameter is 10 puts its init searches off",
        "src/tarski/levelset.py",
        "_SEARCHES_FIRST = 10\n",
        "_SEARCHES_FIRST = 11\n",
        (
            "tests/test_levelset.py::test_level_of_diameter_10_opens_with_the_init_searches",
            "tests/test_levelset.py::test_a_level_searches_first_exactly_when_some_diameter_of_its_level_is_10",
        ),
    ),
    Mutant(
        "a level whose largest starting diameter is 9 runs its init searches first",
        "src/tarski/levelset.py",
        "_SEARCHES_FIRST = 10\n",
        "_SEARCHES_FIRST = 9\n",
        (
            "tests/test_levelset.py::test_levels_of_diameter_6_to_9_open_with_their_central_shrink_probe",
            "tests/test_levelset.py::test_a_level_searches_first_exactly_when_some_diameter_of_its_level_is_10",
        ),
    ),
    Mutant(
        "the init searches skip the up bounds, late ones too",
        "src/tarski/levelset.py",
        "flavors = self._extreme_search, ((1, down), (-1, up))",
        "flavors = self._extreme_search, ((1, down),)",
        ("tests/test_levelset.py::test_lazy_level_searches_exactly_the_bounds_its_probes_left_unset",),
    ),
    Mutant(
        "_corner_pairs queries past the trace",
        "src/tarski/levelset.py",
        "return ((lo, self._query(lo)), (hi, self._query(hi)))",
        "return ((lo, self.oracle.query(lo)), (hi, self.oracle.query(hi)))",
        ("tests/test_levelset.py::test_trace_has_one_record_per_query_call",),
    ),
    Mutant(
        "the tail delegation asks F past the trace",
        "src/tarski/levelset.py",
        "_dqy_point(self._query, lo, hi)",
        "_dqy_point(self.oracle.query, lo, hi)",
        ("tests/test_levelset.py::test_trace_has_one_record_per_query_call",),
    ),
    Mutant(
        "_tighten traces its queries under the context the last level left",
        "src/tarski/levelset.py",
        "        self._context = _OUTER\n        u, fu = out.point, out.fvalue\n",
        "        u, fu = out.point, out.fvalue\n",
        ("tests/test_levelset.py::test_tighten_confirms_image_as_outer_query_in_verify_mode",),
    ),
    Mutant(
        "a level's observer box is built from swapped corners",
        "src/tarski/levelset.py",
        "            box = Box(lo, hi)\n            before =",
        "            box = Box(hi, lo)\n            before =",
        (
            "tests/test_levelset.py::test_observed_solves_end_in_a_fixed_point_or_a_violation",
            "tests/test_levelset.py::test_solve_tightens_queried_corner_before_the_next_level",
        ),
    ),
    Mutant(
        "_tighten certifies the new corner only when an observer is attached",
        "src/tarski/levelset.py",
        "if self.verify_certificates or self.observer is not None:\n            self._certify(",
        "if self.observer is not None:\n            self._certify(",
        ("tests/test_levelset.py::test_tighten_failures_raise_witnessed_violations",),
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


def _compile(root: str, tests) -> None:
    """Write the bytecode of root's modules, and of the test modules as
    pytest rewrites them, so that copies of root import them without
    compiling, which is most of a short pytest run."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "tests"],
                   cwd=root, capture_output=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
                    "-p", "no:hypothesispytest", *tests], cwd=root, env=env, capture_output=True)


def _pytest(root: str, tests, out=subprocess.DEVNULL) -> subprocess.Popen:
    """Start a run of the given test node IDs under root with root/src on
    the path, its output going to out. The hypothesis plugin stays
    unloaded: importing it costs most of a run's start-up, and the
    property tests set their own settings without it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-p", "no:hypothesispytest", *tests]
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT)


def _failed_lines(log: str) -> list[str]:
    """pytest's FAILED and ERROR summary lines in the run output at log."""
    with open(log, encoding="utf-8") as fh:
        return [line.rstrip() for line in fh if line.startswith(("FAILED", "ERROR"))]


def _exit_code(run: subprocess.Popen, timeout: float) -> int | None:
    """The run's exit code, or None when it outlasts timeout more seconds
    and is stopped."""
    try:
        return run.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        run.kill()
        run.wait()
        return None


def main() -> int:
    start = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        base, clean = os.path.join(tmp, "base"), os.path.join(tmp, "clean")
        tests = sorted({t for m in MUTANTS for t in m.tests})
        _copy(base)
        _compile(base, tests)
        shutil.copytree(base, clean)
        clean_log = os.path.join(tmp, "clean.log")
        clean_start = time.perf_counter()
        with open(clean_log, "w", encoding="utf-8") as out:
            clean_run = _pytest(clean, tests, out)
        try:
            for i, m in enumerate(MUTANTS):
                if clean_run.poll() not in (None, 0):
                    break  # the unmutated copy failed: no further verdict would mean anything
                with open(os.path.join(base, m.path), encoding="utf-8") as fh:
                    text = fh.read()
                found = text.count(m.old)
                if found != 1:
                    problems.append(f"{m.name}: old text found {found} times in {m.path}")
                    print(f"{'MISSING':16} {m.name}")
                    continue
                root = os.path.join(tmp, f"mutant{i}")
                shutil.copytree(base, root)
                path = os.path.join(root, m.path)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text.replace(m.old, m.new))
                # The mutated module's bytecode holds the unmutated text.
                stem = os.path.splitext(os.path.basename(path))[0]
                for pyc in glob.glob(os.path.join(os.path.dirname(path), "__pycache__", stem + ".*")):
                    os.remove(pyc)
                log = os.path.join(tmp, "mutant.log")
                t0 = time.perf_counter()
                with open(log, "w", encoding="utf-8") as out:
                    code = _exit_code(_pytest(root, m.tests, out), TIMEOUT_S)
                seconds = time.perf_counter() - t0
                shutil.rmtree(root)
                failed = _failed_lines(log) if code else []
                name_error = bool(failed) and all("NameError" in line for line in failed)
                verdict = ("SURVIVED" if code == 0 else "killed (timeout)" if code is None
                           else "NameError" if name_error else "killed")
                print(f"{verdict:16} {seconds:5.1f} s  {m.name}")
                if code == 0:
                    problems.append(f"{m.name}: survives {', '.join(m.tests)}")
                elif name_error:
                    problems.append(f"{m.name}: killed only by a NameError: {failed[0]}")
            code = _exit_code(clean_run, TIMEOUT_S - (time.perf_counter() - clean_start))
        finally:
            clean_run.kill()  # a no-op once the run has ended
            clean_run.wait()
        if code != 0:
            if code is None:
                print("the named tests timed out on the unmutated code, so no verdict above holds")
            else:
                print("the named tests fail on the unmutated code, so no verdict above holds:")
                for line in _failed_lines(clean_log):
                    print(f"  {line}")
            return 1
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems, {time.perf_counter() - start:.1f} s")
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
