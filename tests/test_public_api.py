"""The top-level package exports exactly what its users import from it: the
README's quick start (its import line and the solver entry points it lists)
and the benchmark scripts under benchmarks/."""

import ast
import pathlib
import re

import tarski

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC = [
    "CountedOracle",
    "Instance",
    "LevelState",
    "MonotonicityViolation",
    "SplitMix64",
    "brute_solve",
    "classify",
    "dqy_solve",
    "extreme_level_point",
    "fixed_points_bruteforce",
    "full_box",
    "gen_random_monotone",
    "gen_target",
    "iter_box",
    "leq",
    "level_point",
    "load_instance",
    "monotonize_table",
    "save_instance",
    "search_space",
    "solve",
    "verify_monotone",
]


def _names_users_import():
    names = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "tarski":
                names.update(alias.name for alias in node.names)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    for line in re.findall(r"^from tarski import (.+)$", quick_start, re.M):
        names.update(name.strip() for name in line.split(","))
    names.update(re.findall(r"^- `(\w+)\(", quick_start, re.M))
    return names


def test_all_is_what_readme_and_benchmarks_import():
    assert sorted(tarski.__all__) == PUBLIC
    assert set(PUBLIC) == _names_users_import()


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert hasattr(tarski, name), name
