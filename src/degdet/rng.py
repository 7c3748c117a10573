"""Seeded random generation for reproducible verification sweeps.

The generator is SplitMix64, chosen because the whole algorithm fits in a
few lines of documented 64-bit arithmetic, so an independent implementation
of this tool can reproduce identical trial streams from the same seed:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output z XOR (z >> 31)

Outputs are made 256 at a time: the next 256 states sit in the 128-bit
lanes of one packed int, and the recurrence runs on all of them at once.
A lane holds a 64-bit value and its product with a 64-bit constant, so no
lane carries into the next; masking each lane back to 64 bits after every
step keeps the stream exactly the one above, output for output.

Bounded draws use rejection sampling (discard outputs at or above the
largest multiple of the bound), so they are exactly uniform.  Random
rationals are numerator/denominator pairs with the numerator uniform in
[-9, 9] and the denominator uniform in [1, 4].
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Outputs per _fill(), one per 128-bit lane of a packed int; _LANE_WORDS
# reads (and writes) the low 64 bits of each lane, lane 0 first.
_BLOCK = 256
_LANE_WORDS = struct.Struct("<" + "Q8x" * _BLOCK)
_ONES = int.from_bytes(_LANE_WORDS.pack(*[1] * _BLOCK), "little")
_LANES = int.from_bytes(_LANE_WORDS.pack(*[_MASK64] * _BLOCK), "little")
# Lane i steps the state by (_BLOCK - i) gammas, so the block unpacks last
# output first and list.pop() returns the outputs in stream order.
_STEPS = int.from_bytes(_LANE_WORDS.pack(*[(n * _GAMMA) & _MASK64 for n in range(_BLOCK, 0, -1)]), "little")
_BLOCK_STEP = (_BLOCK * _GAMMA) & _MASK64

# Every value a random rational can take, built once: _RATIONALS[n + 9][d - 1]
# is Fraction(n, d) for n in [-9, 9] and d in [1, 4].
_RATIONALS = tuple(tuple(Fraction(n, d) for d in range(1, 5)) for n in range(-9, 10))
# The integer form of each: _PAIRS[i][j] is _RATIONALS[i][j].as_integer_ratio().
_PAIRS = tuple(tuple(q.as_integer_ratio() for q in row) for row in _RATIONALS)
# How many distinct values rational() and rationals(..., positive=True) can
# take: 51 and 25.
_DISTINCT_SIGNED = len({q for row in _RATIONALS for q in row})
_DISTINCT_POSITIVE = len({q for row in _RATIONALS[10:] for q in row})
# The rejection limit 2^64 - (2^64 mod bound) of each bound below() has seen.
_LIMITS: dict[int, int] = {}
# The limits of the numerator draws of rational() and of
# rationals(..., positive=True); a denominator draw, below(4), never
# rejects, since 4 divides 2^64.
_LIMIT_19 = (1 << 64) - (1 << 64) % 19
_LIMIT_9 = (1 << 64) - (1 << 64) % 9


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK64
        # outputs already computed, next one last; _state is the state of
        # the last of them
        self._buffer: list[int] = []

    def _fill(self) -> list[int]:
        """Compute the next _BLOCK outputs into the (empty) buffer, in place,
        and return the buffer."""
        z = (self._state * _ONES + _STEPS) & _LANES
        self._state = (self._state + _BLOCK_STEP) & _MASK64
        # a right shift pulls the low bits of the lane above into the top of
        # each lane; the mask clears them before the multiply
        z = (((z ^ (z >> 30)) & _LANES) * 0xBF58476D1CE4E5B9) & _LANES
        z = (((z ^ (z >> 27)) & _LANES) * 0x94D049BB133111EB) & _LANES
        # the unpack reads only each lane's low 64 bits, so no final mask
        self._buffer.extend(_LANE_WORDS.unpack((z ^ (z >> 31)).to_bytes(16 * _BLOCK, "little")))
        return self._buffer

    def next_u64(self) -> int:
        return (self._buffer or self._fill()).pop()

    def below(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound); rejection on the top remainder band."""
        limit = _LIMITS.get(bound)
        if limit is None:
            if bound < 1:
                raise ValueError(f"bound must be positive, got {bound}")
            limit = _LIMITS[bound] = (1 << 64) - ((1 << 64) % bound)
        buffer = self._buffer
        while True:
            z = (buffer or self._fill()).pop()
            if z < limit:
                return z % bound

    def rational(self) -> Fraction:
        """Numerator uniform in [-9, 9], denominator uniform in [1, 4]:
        _RATIONALS[below(19)][below(4)], with both draws inline."""
        buffer = self._buffer
        while True:
            z = (buffer or self._fill()).pop()
            if z < _LIMIT_19:
                return _RATIONALS[z % 19][(buffer or self._fill()).pop() % 4]

    def nonzero_rational(self) -> Fraction:
        """rational() redrawn until nonzero, with both draws inline: a zero
        numerator (z % 19 == 9) still takes its denominator draw, then
        redraws."""
        buffer = self._buffer
        while True:
            z = (buffer or self._fill()).pop()
            if z < _LIMIT_19:
                d = (buffer or self._fill()).pop() % 4
                if z % 19 != 9:
                    return _RATIONALS[z % 19][d]

    def rationals(self, count: int, nonzero: bool = False, positive: bool = False,
                  distinct: bool = False) -> tuple[tuple[Fraction, ...], int, list[int], list[tuple[int, int]]]:
        """count draws of rational(), or of nonzero_rational(), the same
        stream output for output, or with positive of the same scheme
        restricted to positive numerators (uniform in [1, 9]):
        _RATIONALS[10 + below(9)][below(4)].  They come in integer form:
        (values, L, N, pairs), with values the drawn _RATIONALS entries, L
        the lcm of their denominators, values[i] = N[i] / L, and pairs[i] =
        (p, q), values[i] in lowest terms, read off _PAIRS.  With distinct, a
        draw equal to an earlier one is redrawn; the draws can take only 51
        distinct values (50 nonzero, 25 positive), so a larger count would
        redraw forever and is refused."""
        if positive:
            limit, bound, offset, pool = _LIMIT_9, 9, 10, _DISTINCT_POSITIVE
        else:  # nonzero leaves zero out of the pool
            limit, bound, offset, pool = _LIMIT_19, 19, 0, _DISTINCT_SIGNED - nonzero
        if distinct and count > pool:
            raise ValueError(f"cannot draw {count} distinct values from a pool of {pool}")
        buffer = self._buffer
        zero = 9 if nonzero else -1  # the index of numerator 0, redrawn when nonzero
        values, pairs = [], []
        common = 1
        while len(values) < count:
            z = (buffer or self._fill()).pop()
            if z < limit:
                d = (buffer or self._fill()).pop() % 4
                n = offset + z % bound
                if n != zero:
                    pair = _PAIRS[n][d]
                    if distinct and pair in pairs:
                        continue
                    values.append(_RATIONALS[n][d])
                    pairs.append(pair)
                    if common % pair[1]:
                        common = math.lcm(common, pair[1])
        numerators = []
        for p, q in pairs:
            numerators.append(p * (common // q))
        return tuple(values), common, numerators, pairs

    def distinct_rationals(self, count: int) -> tuple[Fraction, ...]:
        """Pairwise distinct rationals by redrawing collisions."""
        return self.rationals(count, distinct=True)[0]
