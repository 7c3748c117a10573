"""Integer combinatorics: elementary symmetric sums and the excluded-value
symmetric sums (tau) built on them.  Binomial coefficients are math.comb,
which every caller asks only for C(n, k) with 0 <= k <= n."""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache


def _check_tau_indices(ell: int, m: int, j: int) -> None:
    """tau is defined for ell >= 1 and 0 <= m, j <= ell; reject the rest."""
    if ell < 1:
        raise ValueError(f"tau needs ell >= 1, got ell={ell}")
    if not 0 <= m <= ell:
        raise ValueError(f"tau index m={m} outside [0, {ell}]")
    if not 0 <= j <= ell:
        raise ValueError(f"tau index j={j} outside [0, {ell}]")


def elementary_symmetric(values: Sequence) -> list:
    """All elementary symmetric sums e_0..e_n of the n given values (ints or
    Fractions), read off prod(t + v) expanded one factor at a time, O(n^2)."""
    sums = [1] + [0] * len(values)
    for top, v in enumerate(values, start=1):
        for m in range(top, 0, -1):
            sums[m] += v * sums[m - 1]
    return sums


@lru_cache(maxsize=None)
def _sym_sums_product(ell: int, j: int) -> tuple[int, ...]:
    """Elementary symmetric sums of {1..ell} minus the value j, from
    elementary_symmetric, padded with zeros to ell+1 entries."""
    sums = elementary_symmetric([i for i in range(1, ell + 1) if i != j])
    return tuple(sums + [0] * (ell + 1 - len(sums)))


def tau(ell: int, m: int, j: int = 0) -> int:
    """Sum of products of m distinct values from {1..ell} with the value j excluded.

    By convention the empty product makes m = 0 evaluate to 1 for every j,
    and m = ell with j > 0 evaluates to 0 (no admissible subset is left).
    """
    _check_tau_indices(ell, m, j)
    return _sym_sums_product(ell, j)[m]


def tau_via_recurrence(ell: int, m: int, j: int) -> int:
    """Evaluate tau through the alternating expansion in powers of j:

        tau(ell, m, j) = sum_{k=0}^{m} (-1)^k tau(ell, m-k, 0) j^k

    Valid for j > 0 with m != ell; j = 0 falls back to the direct value.
    """
    _check_tau_indices(ell, m, j)
    if j == 0:
        return tau(ell, m, 0)
    if m == ell:
        raise ValueError("the alternating expansion is not valid at m = ell with j > 0")
    return sum((-1) ** k * tau(ell, m - k, 0) * j**k for k in range(m + 1))
