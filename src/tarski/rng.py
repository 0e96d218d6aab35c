"""Seeded, portable pseudo-random generator for reproducible instances.

splitmix64: the state advances by the golden-ratio increment
0x9E3779B97F4A7C15 per draw; the output is the state mixed by two
multiply-xorshift rounds (multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, shifts 30/27/31). Bounded draws reduce next_u64()
modulo n; grid_columns makes the same draws in bulk. The sequence depends
only on the seed, never on the platform.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Draw from {0, ..., n-1}."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def grid_columns(self, shape, count: int) -> list[list[int]]:
        """Draw count grid points, one column per axis.

        The stream is the one of count * d calls 1 + below(n) in point order
        (axis fastest); axis a's draws are every d-th state from the a-th
        on, so each column is drawn on its own.
        """
        if any(n <= 0 for n in shape):
            raise ValueError("below() needs a positive bound")
        d = len(shape)
        first = self._state + _GAMMA
        step = d * _GAMMA
        stop = first + count * step
        cols = []
        for axis, n in enumerate(shape):
            col = []
            for s in range(first + axis * _GAMMA, stop, step):
                z = s & _MASK64
                z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                col.append(1 + (z ^ (z >> 31)) % n)
            cols.append(col)
        self._state = (self._state + count * step) & _MASK64
        return cols
