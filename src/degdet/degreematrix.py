"""The degree-detection matrix family: the (ell+1)x(ell+1) matrix whose first
ell rows are consecutive integer powers and whose last row carries the weighted
value vector, its square submatrices, and their closed-form determinants."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .exactnum import last_row_cofactors, over_common_denominator, rat


def _checked_values(ell: int, s: int, a) -> tuple[Fraction, ...]:
    """The value vector of one determinant instance (ell, s, a) as
    rationals, after checking ell >= 1, s >= 0 and len(a) == ell + 1; s
    above ell is legal, the alternating sum is still well defined."""
    if ell < 1:
        raise ValueError(f"degree matrix needs ell >= 1, got {ell}")
    if s < 0:
        raise ValueError(f"degree matrix needs s >= 0, got {s}")
    values = tuple(map(rat, a))
    if len(values) != ell + 1:
        raise ValueError(f"value vector must have ell+1 = {ell + 1} entries, got {len(values)}")
    return values


def weighted_value_row(s: int, a) -> list[Fraction]:
    """The last row of the degree matrix: j^s * a_j for j = 0..ell, with the
    0^0 = 1 convention."""
    return [j**s * aj for j, aj in enumerate(a)]


def _power_rows(ell: int, offsets) -> list[list[int]]:
    """Rows i = 1..ell of the integers ((i-1)(ell+1) + offset)^(ell-1), one
    column per offset."""
    return [[((i - 1) * (ell + 1) + j) ** (ell - 1) for j in offsets] for i in range(1, ell + 1)]


def build_A(ell: int, s: int, a) -> list[list[Fraction]]:
    """The rows of the (ell+1)x(ell+1) matrix: row i in 1..ell holds the
    (ell-1)-th powers of the consecutive integers (i-1)(ell+1)+1 .. i(ell+1),
    as ints; the last row is weighted_value_row(s, a)."""
    values = _checked_values(ell, s, a)
    return _power_rows(ell, range(1, ell + 2)) + [weighted_value_row(s, values)]


def power_row_cofactors(ell: int) -> list[int]:
    """The last-row cofactors of build_A(ell, s, a), the same integers for
    every s and a: one Bareiss elimination of the ell power rows."""
    if ell < 1:
        raise ValueError(f"degree matrix needs ell >= 1, got {ell}")
    return last_row_cofactors(_power_rows(ell, range(1, ell + 2)))


def det_A_from_cofactors(cofactors: list[int], s: int, a) -> Fraction:
    """det build_A(ell, s, a) by Laplace expansion along the last row, from
    power_row_cofactors(ell): sum_j c_j j^s N_j / L in plain ints, with N / L
    the values a over the lcm L of their denominators."""
    common, nums = over_common_denominator(_checked_values(len(cofactors) - 1, s, a))
    return Fraction(sum(map(operator.mul, cofactors, weighted_value_row(s, nums))), common)


def det_A_sub_from_cofactors(cofactors: list[int], kappa: int) -> int:
    """det build_A_sub(ell, kappa), build_A without its last row and column
    kappa: the signed cofactor (-1)^(ell+1+kappa) c_kappa of power_row_cofactors(ell)."""
    ell = len(cofactors) - 1
    if not 1 <= kappa <= ell + 1:
        raise ValueError(f"column index kappa={kappa} outside [1, {ell + 1}]")
    return (-1) ** (ell + 1 + kappa) * cofactors[kappa - 1]


def build_A_sub(ell: int, kappa: int) -> list[list[int]]:
    """The integer rows of the ell x ell submatrix left after removing the
    last row and the kappa-th column; independent of s and a."""
    if ell < 1:
        raise ValueError(f"submatrix needs ell >= 1, got {ell}")
    if not 1 <= kappa <= ell + 1:
        raise ValueError(f"column index kappa={kappa} outside [1, {ell + 1}]")
    return _power_rows(ell, [j for j in range(1, ell + 2) if j != kappa])


def sigma_ell(ell: int) -> int:
    """The size-only constant carried by every determinant in this family:

        (-1)^(ell(ell+1)/2) * (ell+1)^(ell(ell-1)/2)
          * prod_{j=0}^{ell-1} C(ell-1, j) * prod_{j=1}^{ell-1} (j!)^2

    computed as (-1)^(ell(ell+1)/2) (ell+1)^(ell(ell-1)/2) ((ell-1)!)^ell,
    since prod_{j=0}^{n} C(n, j) = (n!)^(n+1) / (prod_{j=0}^{n} j!)^2.
    """
    if ell < 1:
        raise ValueError(f"sigma_ell needs ell >= 1, got {ell}")
    sign = -1 if (ell * (ell + 1) // 2) % 2 else 1
    return sign * (ell + 1) ** (ell * (ell - 1) // 2) * math.factorial(ell - 1) ** ell


def det_A_sub_closed_form(ell: int, kappa: int) -> int:
    """Closed form (-1)^ell * sigma_ell * C(ell, kappa-1) for the submatrix
    determinant."""
    if ell < 1:
        raise ValueError(f"submatrix needs ell >= 1, got {ell}")
    if not 1 <= kappa <= ell + 1:
        raise ValueError(f"column index kappa={kappa} outside [1, {ell + 1}]")
    return (-1) ** ell * sigma_ell(ell) * math.comb(ell, kappa - 1)


def alternating_weighted_sum(ell: int, s: int, a) -> Fraction:
    """The combinatorial core sum_{j=0}^{ell} (-1)^j C(ell, j) j^s a_j,
    with 0^0 = 1, summed term by term in Fractions.  At s = 0 this is
    (-1)^ell times the ell-th forward difference of a.  The reference the
    tests check AlternatingSums against; no production route calls it."""
    values = _checked_values(ell, s, a)
    return sum((Fraction((-1) ** j * math.comb(ell, j) * j**s) * aj for j, aj in enumerate(values)), Fraction(0))


@lru_cache(maxsize=128)
def _signed_binomials(ell: int) -> tuple[int, ...]:
    """(-1)^j C(ell, j) for j = 0..ell; the last 128 ells are kept."""
    return tuple((-1) ** j * math.comb(ell, j) for j in range(ell + 1))


_ZERO = Fraction(0)


class AlternatingSums:
    """self[s], s >= 0, is the integer L * alternating_weighted_sum(ell, s, a),
    with L (common) the lcm of the denominators of the checked rationals a_j
    and numerators the a_j = N_j / L as ints: sum(w) for the weights
    w_j = (-1)^j C(ell, j) L a_j j^s.  In-order reads step w_j <- j w_j and keep
    each sum; a read further on takes ell + 1 powers j^s and keeps nothing."""

    def __init__(self, ell: int, a):
        self._set(ell, *over_common_denominator(_checked_values(ell, 0, a)))

    def _set(self, ell, common, numerators):
        self.ell, self.common, self.numerators = ell, common, numerators
        self._weights = self._base = list(map(operator.mul, _signed_binomials(ell), numerators))
        self._sums = [sum(self._weights)]
        self._sigma = None  # sigma_ell(ell), set by the first nonzero det

    def __getitem__(self, s: int) -> int:
        if s < 0:
            raise ValueError(f"degree matrix needs s >= 0, got {s}")
        if s > len(self._sums):
            return sum(map(operator.mul, self._base, (j**s for j in range(self.ell + 1))))
        if s == len(self._sums):
            self._weights = list(map(operator.mul, range(len(self._weights)), self._weights))
            self._sums.append(sum(self._weights))
        return self._sums[s]

    def det(self, s: int) -> Fraction:
        """det build_A(ell, s, a) = sigma_ell(ell) * S_s (Theorem 1) as one
        Fraction.  A zero S_s reads _ZERO; sigma_ell is computed on the
        first nonzero read and kept."""
        total = self[s]  # first, so that s < 0 fails before sigma_ell runs
        if not total:
            return _ZERO
        if self._sigma is None:
            self._sigma = sigma_ell(self.ell)
        return Fraction(total * self._sigma, self.common)
