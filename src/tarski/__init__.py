"""Tarski fixed points of monotone functions on integer grids.

A levelset-based solver finding a fixed point of a monotone F: grid -> grid
in O(log^2 N) distinct queries on 3D grids, together with classic baselines,
verified instance generators, and a query-counting benchmark harness.
"""

from .baseline import brute_solve, dqy_solve
from .errors import MonotonicityViolation
from .lattice import (
    classify,
    extreme_level_point,
    full_box,
    iter_box,
    leq,
    level_point,
)
from .levelset import LevelState, search_space, solve
from .oracle import (
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
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
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
