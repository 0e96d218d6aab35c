"""Seeded, portable pseudo-random generator for reproducible instances.

splitmix64: the state advances by the golden-ratio increment
0x9E3779B97F4A7C15 per draw; the output is the state mixed by two
multiply-xorshift rounds (multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB, shifts 30/27/31). A bounded draw below n <= 2^64
reduces next_u64() modulo n, and one below a larger n reduces enough words
for every value to be reachable.

grid_columns makes draws of the first kind in bulk, with up to _CHUNK draws
packed into one integer, one 128-bit lane each, so that every shift,
multiply and mask acts on all lanes at once: the two mixing rounds, and
then the reduction modulo n, which is Granlund and Montgomery's division by
an invariant integer ("Division by invariant integers using
multiplication", PLDI 1994). With l = (n-1).bit_length(), so that
2^(l-1) < n <= 2^l, and m = ceil(2^(64+l) / n), floor(w/n) equals
floor(m*w / 2^(64+l)) for every w < 2^64, as m*n exceeds 2^(64+l) by less
than n <= 2^l. Then 2^64 <= m < 2^65, so m*w >> 64 is w + ((m - 2^64)*w >> 64),
and m - 2^64 is m's low 64 bits: below 2^64, like every other multiplier,
which keeps each product inside its lane.

The sequence depends only on the seed, never on the platform.
"""

from __future__ import annotations

_WORD = 1 << 64
_MASK64 = _WORD - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Draws per packed integer in grid_columns.
_CHUNK = 1024
# The lane constants of _CHUNK 128-bit lanes: 2^64 - 1 in every lane, 1 in
# every lane, and k in lane k.
_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _CHUNK, "little")
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _CHUNK, "little")
_RAMP = int.from_bytes(b"".join(k.to_bytes(16, "little") for k in range(_CHUNK)), "little")


def _lane_constants(width: int) -> tuple[int, int, int]:
    """low, ones and ramp for width <= _CHUNK lanes: the lowest width lanes
    of _LOW, _ONES and _RAMP. grid_columns asks for its count split evenly
    over the fewest chunks of at most _CHUNK lanes, so each count above
    _CHUNK has a width of its own, and a cache of widths misses on every
    call of a caller that cycles more counts than it holds. Masking is
    about 17 times cheaper than building a width's constants from bytes."""
    keep = (1 << 128 * width) - 1
    return _LOW & keep, _ONES & keep, _RAMP & keep


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

    def grid_columns(self, shape, count: int) -> list[bytes]:
        """Draw count grid points, one packed column per axis.

        Each side n must be at most 2^64, as it is on any grid that a table
        fits on. The stream is the one of count * d calls 1 + below(n) in
        point order (axis fastest); axis a's draws are every d-th state from
        the a-th on, so each column is drawn on its own.

        A column comes back as count little-endian 128-bit lanes, one per
        point: lane k holds the k-th point's 1 + below(n), from 1 to n.

        The states are packed _CHUNK or fewer at a time, one per lane, lowest
        lane first. A lane holds its 64-bit value in its low half and is masked
        back to it after each right shift and before each multiply. So a
        right shift (by at most 64, whose spill from the lane above lands
        only in the high half) and a product (of two factors below 2^64, or
        q*n <= w) never change a lane's low 64 bits, and each lane ends the
        mixing rounds with exactly next_u64()'s output w. The reduction (see
        the module docstring) then takes t = (m - 2^64)*w >> 64 and
        q = (t + w) >> l = floor(w/n), masked to 64 bits each, and keeps
        w - q*n + 1, where no lane borrows.
        """
        if any(n <= 0 for n in shape):
            raise ValueError("below() needs a positive bound")
        d = len(shape)
        step = d * _GAMMA & _MASK64
        # The fewest chunks of at most _CHUNK lanes that hold count, all of one width: together
        # they compute fewer lanes past count than there are chunks.
        width = -(-count // -(-count // _CHUNK)) if count else 1
        low, ones, ramp = _lane_constants(width)
        advance = width * step * ones
        cols = []
        for axis, n in enumerate(shape):
            # The reduction's shift l and multiplier m - 2^64 (module docstring).
            ell = (n - 1).bit_length()
            magic = ((1 << (64 + ell)) + n - 1) // n & _MASK64
            first = (self._state + (axis + 1) * _GAMMA) & _MASK64
            states = (first * ones + step * ramp) & low
            chunks = []
            for done in range(0, count, width):
                z = states
                z = ((z ^ (z >> 30)) & low) * _MIX1 & low
                z = ((z ^ (z >> 27)) & low) * _MIX2 & low
                w = (z ^ (z >> 31)) & low
                t = ((w * magic) >> 64) & low
                q = ((t + w) >> ell) & low
                chunks.append((w - q * n + ones).to_bytes(16 * width, "little")[: 16 * (count - done)])
                states = (states + advance) & low
            cols.append(b"".join(chunks))
        self._state = (self._state + count * step) & _MASK64
        return cols
