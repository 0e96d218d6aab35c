"""Instance families and brute-force helpers shared by the test suite."""

import itertools
from types import SimpleNamespace

from tarski.lattice import classify, full_box, iter_box
from tarski.oracle import CountedOracle, Instance, gen_target
from tarski.rng import SplitMix64


class CallLog(CountedOracle):
    """CountedOracle that also logs every query call, cache hits included,
    as (point, value) in call order."""

    def __init__(self, instance):
        super().__init__(instance)
        self.calls = []

    def query(self, x):
        fx = super().query(x)
        self.calls.append((x, fx))
        return fx


def rotation_instance(n, deltas, rot=1):
    """Monotone table F(x)_i = clamp(x_{(i+rot) mod 3} + deltas_i).

    Coordinates chase each other around a cycle, which floods levelsets with
    i-upward/i-downward points and exercises the configuration machinery far
    harder than target-sign or random running-max tables do.
    """
    shape = (n, n, n)
    vals = []
    for x in iter_box(full_box(shape)):
        fx = tuple(min(n, max(1, x[(i + rot) % 3] + deltas[i])) for i in range(3))
        vals.append(fx)
    return Instance(shape=shape, kind="table", table=tuple(vals))


class LazyRotation:
    """rotation_instance's F on the n-cube, worked out per query instead of
    read from a table, so that sides no table fits can be solved. It has
    the surface the solvers read: instance.shape, query, distinct_queries
    and cache."""

    def __init__(self, n, deltas, rot):
        self.instance = SimpleNamespace(shape=(n, n, n))
        self.cache = {}
        self._n, self._deltas, self._rot = n, deltas, rot

    @property
    def distinct_queries(self):
        return len(self.cache)

    def query(self, x):
        fx = self.cache.get(x)
        if fx is None:
            n = self._n
            if len(x) != 3 or not all(1 <= c <= n for c in x):
                raise ValueError(f"query {x} outside grid {self.instance.shape}")
            fx = tuple(min(n, max(1, x[(i + self._rot) % 3] + self._deltas[i])) for i in range(3))
            self.cache[x] = fx
        return fx


def rotation_batch(count, seed, n_lo=5, n_hi=9):
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        n = n_lo + rng.below(n_hi - n_lo + 1)
        deltas = tuple(int(rng.below(5)) - 2 for _ in range(3))
        out.append(rotation_instance(n, deltas, rot=1 + rng.below(2)))
    return out


def sparse_monotone_instance(shape, seeds):
    """Monotone table that is (1,..,1) except for the running max of a few
    planted raw values; used to plant specific label patterns."""
    from tarski.oracle import monotonize_table

    box = full_box(shape)
    d = len(shape)
    raw = {p: (1,) * d for p in iter_box(box)}
    raw.update(seeds)
    table = monotonize_table(shape, [raw[p] for p in iter_box(box)])
    return Instance(shape=shape, kind="table", table=tuple(table))


def raw_random_table(shape, seed):
    """Uniform random table, not monotonized; usually violates monotonicity."""
    rng = SplitMix64(seed)
    box = full_box(shape)
    return Instance(
        shape=shape,
        kind="table",
        table=tuple(
            tuple(1 + rng.below(n) for n in shape) for _ in range(box.volume)
        ),
    )


def perturbed_target_table(n, seed):
    """Target-sign n-cube with about one point in ten redrawn as q + s,
    s in {-1, 0, 1}^3, clipped to the grid; not monotone. The target, then
    each point's draws in point order, come from one SplitMix64."""
    rng = SplitMix64(seed)
    shape = (n, n, n)
    base = gen_target(shape, tuple(1 + rng.below(n) for _ in range(3)))
    table = []
    for q in iter_box(full_box(shape)):
        if rng.below(10):
            table.append(base.value(q))
        else:
            table.append(tuple(min(n, max(1, c + rng.below(3) - 1)) for c in q))
    return Instance(shape=shape, kind="table", table=tuple(table))


def jump_target_table(n, seed):
    """Target-sign n-cube, n >= 3, aimed at (n/3, n/2, n - 1), with about
    one point q in four sent to a uniform point above q or below it; not
    monotone. Each point's draws come from one SplitMix64 in point order."""
    rng = SplitMix64(seed)
    shape = (n, n, n)
    base = gen_target(shape, (n // 3, n // 2, n - 1))
    table = []
    for q in iter_box(full_box(shape)):
        if rng.below(4):
            table.append(base.value(q))
        elif rng.below(2):
            table.append(tuple(c + rng.below(n - c + 1) for c in q))
        else:
            table.append(tuple(1 + rng.below(c) for c in q))
    return Instance(shape=shape, kind="table", table=tuple(table))


def levelset_points(inst, k):
    return [p for p in iter_box(full_box(inst.shape)) if sum(p) == k]


def labels_on_level(inst, k):
    return {p: classify(p, inst.value(p))[1] for p in levelset_points(inst, k)}


def planted_third_configs(inst, k):
    """All (x, y, axis) third configurations on one levelset."""
    labs = labels_on_level(inst, k)
    out = []
    for x, lx in labs.items():
        for i in lx.i_upward:
            for y, ly in labs.items():
                if i in ly.i_downward and x[i] <= y[i] <= x[i] + 1:
                    out.append((x, y, i))
    return out


def planted_first_configs(inst, k):
    """All ((x, y), flavor) first configurations on one levelset."""
    labs = labels_on_level(inst, k)
    out = []
    for (x, lx), (y, ly) in itertools.permutations(labs.items(), 2):
        for i in lx.i_upward:
            for j in ly.i_upward:
                if i != j and x[i] >= y[i] and x[j] <= y[j]:
                    out.append(((x, y), "upward"))
        for i in lx.i_downward:
            for j in ly.i_downward:
                if i != j and x[i] <= y[i] and x[j] >= y[j]:
                    out.append(((x, y), "downward"))
    return out


def planted_second_configs(inst, k):
    """All ((x, y, z), flavor) second configurations on one levelset."""
    labs = labels_on_level(inst, k)
    out = []
    for (x, lx), (y, ly), (z, lz) in itertools.permutations(labs.items(), 3):
        for i in lx.i_upward:
            for j in ly.i_upward:
                for p in lz.i_upward:
                    if {i, j, p} == {0, 1, 2} and x[i] >= y[i] and y[j] >= z[j] and z[p] >= x[p]:
                        out.append(((x, y, z), "upward"))
        for i in lx.i_downward:
            for j in ly.i_downward:
                for p in lz.i_downward:
                    if {i, j, p} == {0, 1, 2} and x[i] <= y[i] and y[j] <= z[j] and z[p] <= x[p]:
                        out.append(((x, y, z), "downward"))
    return out


def reflected_instance(inst):
    """Mirror through the grid center: swaps upward and downward structure."""
    shape = inst.shape
    box = full_box(shape)

    def reflect(p):
        return tuple(n + 1 - c for c, n in zip(p, shape))

    table = [reflect(inst.value(reflect(x))) for x in iter_box(box)]
    return Instance(shape=shape, kind="table", table=tuple(table))
