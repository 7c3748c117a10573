"""Integer combinatorics: binomials, excluded-value symmetric sums (tau),
and strictly increasing index sequences with their complements."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 whenever k falls outside [0, n]."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_tau_indices(ell: int, m: int, j: int) -> None:
    """tau is defined for ell >= 1 and 0 <= m, j <= ell; reject the rest."""
    if ell < 1:
        raise ValueError(f"tau needs ell >= 1, got ell={ell}")
    if not 0 <= m <= ell:
        raise ValueError(f"tau index m={m} outside [0, {ell}]")
    if not 0 <= j <= ell:
        raise ValueError(f"tau index j={j} outside [0, {ell}]")


def _sym_sums_subset(ell: int, j: int) -> tuple[int, ...]:
    """Elementary symmetric sums of {1..ell} minus the value j, by definition:
    entry m is the sum over all m-element subsets of the product of elements.
    Exponential cost; kept as the oracle for _sym_sums_product, which tau uses."""
    values = [i for i in range(1, ell + 1) if i != j]
    sums = [0] * (ell + 1)
    sums[0] = 1
    for m in range(1, len(values) + 1):
        sums[m] = sum(math.prod(c) for c in itertools.combinations(values, m))
    return tuple(sums)


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
    """Same sums from elementary_symmetric of {1..ell} minus j, padded with
    zeros to ell+1 entries."""
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


@dataclass(frozen=True)
class IndexSeq:
    """Strictly increasing sequence of indices inside [0, ell-1]."""

    ell: int
    entries: tuple[int, ...]

    def __init__(self, ell: int, entries):
        items = tuple(int(e) for e in entries)
        if ell < 1:
            raise ValueError(f"index sequence needs ell >= 1, got {ell}")
        if not 1 <= len(items) <= ell:
            raise ValueError(f"index sequence length {len(items)} outside [1, {ell}]")
        if any(b <= a for a, b in zip(items, items[1:])):
            raise ValueError(f"index sequence must be strictly increasing: {items}")
        if items[0] < 0 or items[-1] > ell - 1:
            raise ValueError(f"index sequence entries {items} outside [0, {ell - 1}]")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "entries", items)

    @property
    def k(self) -> int:
        return len(self.entries)

    def complement(self) -> "IndexSeq":
        """Reflect every entry through (ell-1)/2 and reverse; an involution."""
        return IndexSeq(self.ell, tuple(self.ell - 1 - e for e in reversed(self.entries)))


def enumerate_index_seqs(ell: int, k: int) -> list[IndexSeq]:
    """All C(ell, k) strictly increasing sequences in [0, ell-1], lexicographic."""
    if ell < 1:
        raise ValueError(f"enumeration needs ell >= 1, got {ell}")
    if not 1 <= k <= ell:
        raise ValueError(f"enumeration needs 1 <= k <= ell, got k={k}, ell={ell}")
    return [IndexSeq(ell, combo) for combo in itertools.combinations(range(ell), k)]
