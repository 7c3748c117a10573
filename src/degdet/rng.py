"""Seeded random generation for reproducible verification sweeps.

The generator is SplitMix64, chosen because the whole algorithm fits in a
few lines of documented 64-bit arithmetic, so an independent implementation
of this tool can reproduce identical trial streams from the same seed:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output z XOR (z >> 31)

Bounded draws use rejection sampling (discard outputs at or above the
largest multiple of the bound), so they are exactly uniform.  Random
rationals are numerator/denominator pairs with the numerator uniform in
[-9, 9] and the denominator uniform in [1, 4].
"""

from __future__ import annotations

from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Every value a random rational can take, built once: _RATIONALS[n + 9][d - 1]
# is Fraction(n, d) for n in [-9, 9] and d in [1, 4].
_RATIONALS = tuple(tuple(Fraction(n, d) for d in range(1, 5)) for n in range(-9, 10))
# How many distinct values rational() and positive_rational() can take: 51
# and 25.
_DISTINCT_SIGNED = len({q for row in _RATIONALS for q in row})
_DISTINCT_POSITIVE = len({q for row in _RATIONALS[10:] for q in row})
# The rejection limit 2^64 - (2^64 mod bound) of each bound below() has seen.
_LIMITS: dict[int, int] = {}


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound); rejection on the top remainder band."""
        limit = _LIMITS.get(bound)
        if limit is None:
            if bound < 1:
                raise ValueError(f"bound must be positive, got {bound}")
            limit = _LIMITS[bound] = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % bound

    def int_between(self, lo: int, hi: int) -> int:
        """Exactly uniform integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.below(hi - lo + 1)

    def rational(self) -> Fraction:
        """Numerator uniform in [-9, 9], denominator uniform in [1, 4]."""
        return _RATIONALS[self.below(19)][self.below(4)]

    def nonzero_rational(self) -> Fraction:
        while True:
            value = self.rational()
            if value != 0:
                return value

    def positive_rational(self) -> Fraction:
        """Same scheme restricted to positive numerators (uniform in [1, 9])."""
        return _RATIONALS[10 + self.below(9)][self.below(4)]

    def distinct_rationals(self, count: int) -> tuple[Fraction, ...]:
        """Pairwise distinct rationals by redrawing collisions."""
        return self._distinct(self.rational, _DISTINCT_SIGNED, count)

    def distinct_positive_rationals(self, count: int) -> tuple[Fraction, ...]:
        return self._distinct(self.positive_rational, _DISTINCT_POSITIVE, count)

    @staticmethod
    def _distinct(draw, pool: int, count: int) -> tuple[Fraction, ...]:
        """count pairwise distinct draws; the draw can take only pool distinct
        values, so a larger count would redraw forever and is refused."""
        if count > pool:
            raise ValueError(f"cannot draw {count} distinct values from a pool of {pool}")
        seen: dict[tuple[int, int], Fraction] = {}
        while len(seen) < count:
            value = draw()
            seen.setdefault((value.numerator, value.denominator), value)
        return tuple(seen.values())
