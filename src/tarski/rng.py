"""Seeded, portable pseudo-random generator for reproducible instances.

splitmix64: the state advances by the golden-ratio increment
0x9E3779B97F4A7C15 per draw; the output is the state mixed by two
multiply-xorshift rounds (multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, shifts 30/27/31). A bounded draw below n <= 2^64
reduces next_u64() modulo n, and one below a larger n reduces enough words
for every value to be reachable. grid_columns makes draws of the first kind
in bulk, with the states of up to _CHUNK draws packed into one integer, one
128-bit lane each, so that every shift, multiply and mask of the two rounds
acts on all lanes at once.
The sequence depends only on the seed, never on the platform.
"""

from __future__ import annotations

import sys
from array import array

_WORD = 1 << 64
_MASK64 = _WORD - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Draws per packed integer in grid_columns.
_CHUNK = 1024


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
        """Draw from {0, ..., n-1}.

        For n <= 2^64 this is next_u64() % n. A larger n takes
        ceil(n.bit_length() / 64) + 1 words, the first one lowest, and
        reduces the number they form modulo n: it has at least 64 bits
        more than n, so each value's probability is within 2^-64/n of 1/n.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n <= _WORD:
            return self.next_u64() % n
        x = 0
        for shift in range(0, n.bit_length() + 64, 64):
            x |= self.next_u64() << shift
        return x % n

    def grid_columns(self, shape, count: int) -> list[list[int]]:
        """Draw count grid points, one column per axis.

        Each side n must be at most 2^64, as it is on any grid that a table
        fits on. The stream is the one of count * d calls 1 + below(n) in
        point order (axis fastest); axis a's draws are every d-th state from
        the a-th on, so each column is drawn on its own.

        A column's states are packed _CHUNK at a time into one integer, one
        per 128-bit lane, lowest lane first. A lane holds its 64-bit value in
        its low half and is masked back to it before each multiply, so a
        product (under 128 bits) and a right shift (whose spill from the lane
        above lands only in the high half) never change a lane's low 64
        bits: each lane ends with exactly next_u64()'s output. The lanes are
        read back as little-endian 64-bit words, so the stream does not
        depend on the host's byte order.
        """
        if any(n <= 0 for n in shape):
            raise ValueError("below() needs a positive bound")
        d = len(shape)
        step = d * _GAMMA & _MASK64
        width = max(min(count, _CHUNK), 1)
        low = int.from_bytes((b"\xff" * 8 + bytes(8)) * width, "little")
        ones = int.from_bytes((b"\x01" + bytes(15)) * width, "little")
        ramp = int.from_bytes(b"".join(k.to_bytes(16, "little") for k in range(width)), "little")
        advance = width * step * ones
        cols = []
        for axis, n in enumerate(shape):
            col = []
            first = (self._state + (axis + 1) * _GAMMA) & _MASK64
            states = (first * ones + step * ramp) & low
            for done in range(0, count, width):
                z = states
                z = ((z ^ (z >> 30)) & low) * _MIX1 & low
                z = ((z ^ (z >> 27)) & low) * _MIX2 & low
                words = _little(array("Q", (z ^ (z >> 31)).to_bytes(16 * width, "little")))
                col += [1 + w % n for w in words[: 2 * min(width, count - done) : 2]]
                states = (states + advance) & low
            cols.append(col)
        self._state = (self._state + count * step) & _MASK64
        return cols


def _little(words: array) -> array:
    """words, in place, from the host's byte order to little-endian or back."""
    if sys.byteorder == "big":
        words.byteswap()
    return words
