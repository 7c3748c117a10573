"""Test-only oracles: by-definition routes, some of factorial or
exponential cost, that the tests check degdet's production routes against.
No degdet code path calls them."""

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from degdet.combinat import binomial, tau
from degdet.exactnum import Poly, Rational, RationalLike, det_fraction_free, format_rational, rat
from degdet.interp import poly_K
from degdet.rng import _RATIONALS


def sym_sums_subset(ell: int, j: int) -> tuple[int, ...]:
    """Elementary symmetric sums of {1..ell} minus the value j, by definition:
    entry m is the sum over all m-element subsets of the product of elements.
    Exponential cost; the oracle for combinat._sym_sums_product, which tau uses."""
    values = [i for i in range(1, ell + 1) if i != j]
    sums = [0] * (ell + 1)
    sums[0] = 1
    for m in range(1, len(values) + 1):
        sums[m] = sum(math.prod(c) for c in itertools.combinations(values, m))
    return tuple(sums)


def divide_linear(p: Poly, root: RationalLike) -> Poly:
    """Exact synthetic division of p by (t - root); root must actually be a root."""
    r = rat(root)
    if p.is_zero:
        return Poly()
    quotient = [Fraction(0)] * (len(p.coeffs) - 1)
    carry = Fraction(0)
    for k in range(len(p.coeffs) - 1, 0, -1):
        carry = p.coeffs[k] + r * carry
        quotient[k - 1] = carry
    remainder = p.coeffs[0] + r * carry
    if remainder != 0:
        raise ValueError(
            f"{format_rational(r)} is not a root (remainder {format_rational(remainder)}); "
            "exact division is impossible"
        )
    return Poly(quotient)


def trimmed(coeffs: Sequence[RationalLike]) -> tuple[Rational, ...]:
    """coeffs as a tuple of Fractions without its trailing zeros: the
    coefficient tuple every reference below returns."""
    out = [rat(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def coeffs_sum(a: Sequence[Rational], b: Sequence[Rational]) -> tuple[Rational, ...]:
    """The coefficients of a + b, Fraction by Fraction."""
    n = max(len(a), len(b))
    return trimmed([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def coeffs_product(a: Sequence[Rational], b: Sequence[Rational]) -> tuple[Rational, ...]:
    """The coefficients of a * b by the Cauchy product, Fraction by Fraction."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def coeffs_derivative(a: Sequence[Rational], n: int) -> tuple[Rational, ...]:
    """The coefficients of the n-th derivative: t^k becomes k (k-1) ... (k-n+1) t^(k-n)."""
    return trimmed([math.prod(range(k - n + 1, k + 1)) * c for k, c in enumerate(a) if k >= n])


def coeffs_value(a: Sequence[Rational], x: Rational) -> Rational:
    """sum_k a_k x^k, term by term in Fractions."""
    return sum((c * x**k for k, c in enumerate(a)), Fraction(0))


def coeffs_shift_scale(a: Sequence[Rational], xi: Rational, h: Rational) -> tuple[Rational, ...]:
    """The coefficients of t -> sum_k a_k (xi + h t)^k, each power expanded
    by the binomial theorem, Fraction by Fraction."""
    out = [Fraction(0)] * len(a)
    for k, c in enumerate(a):
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * xi ** (k - j) * h**j
    return trimmed(out)


def lagrange_basis_hat(ell: int, j: int) -> Poly:
    """The j-th cardinal basis polynomial on the integer grid 0..ell:
    degree ell, value 1 at t = j and 0 at the other grid integers."""
    if not 0 <= j <= ell:
        raise ValueError(f"basis index j={j} outside [0, {ell}]")
    quotient = divide_linear(poly_K(ell), j)
    sign = -1 if (ell - j) % 2 else 1
    return quotient * Fraction(sign * binomial(ell, j), math.factorial(ell))


def det_cofactor(rows: Sequence[Sequence[Rational]]) -> Rational:
    """Determinant of the square matrix with these rows by first-row
    cofactor expansion.

    Factorial cost; kept as the independent small-size oracle for
    det_fraction_free, not for production use.
    """
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError(f"determinant requires a square matrix, got rows of lengths {[len(r) for r in rows]}")

    def expand(rows: Sequence[Sequence[Rational]]) -> Rational:
        size = len(rows)
        if size == 1:
            return rows[0][0]
        total = Fraction(0)
        for j, top in enumerate(rows[0]):
            if top == 0:
                continue
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = top * expand(minor)
            total += term if j % 2 == 0 else -term
        return total

    return expand(rows)


def sigma_lsk(ell: int, s: int, k: int) -> Rational:
    """The eq. 10 derivative weights as Fractions, the form that
    interp.derivative_at_left_node sums in ints:

        (-1)^(ell-s+k) * (ell-s)! / ell! * tau(ell, s-k, 0)
    """
    if not 0 <= s <= ell:
        raise ValueError(f"derivative index s={s} outside [0, {ell}]")
    if not 0 <= k <= s:
        raise ValueError(f"weight index k={k} outside [0, {s}]")
    sign = -1 if (ell - s + k) % 2 else 1
    return Fraction(sign * math.factorial(ell - s), math.factorial(ell)) * tau(ell, s - k, 0)


def gen_vandermonde_det(nu: Sequence[RationalLike], mu: Sequence[int]) -> Rational:
    """Determinant of the power matrix (nu_i ^ mu_j) by definition: the
    Fraction matrix through det_fraction_free, 1 for an empty mu.  The
    oracle of the eq. 5/5c power-table minors in degdet.vandermonde."""
    if not mu:
        return Fraction(1)
    return det_fraction_free([[rat(x) ** e for e in mu] for x in nu])


def vandermonde_product(nu: Sequence[RationalLike]) -> Rational:
    """The classical pairwise-difference product prod_{i<j} (nu_j - nu_i)."""
    points = [rat(x) for x in nu]
    return math.prod(
        (points[j] - points[i] for i in range(len(points)) for j in range(i + 1, len(points))),
        start=Fraction(1),
    )


def schur_eval(nu: Sequence[RationalLike], mu: Sequence[int]) -> Rational:
    """The symmetric quotient gen_vandermonde_det(nu, mu) / vandermonde_product(nu),
    evaluated at pairwise distinct sample points."""
    points = [rat(x) for x in nu]
    if len(set(points)) != len(points):
        raise ValueError("Schur evaluation needs pairwise distinct points (0/0 otherwise)")
    return gen_vandermonde_det(points, mu) / vandermonde_product(points)


def splitmix64_scalar(seed: int) -> Iterator[int]:
    """The SplitMix64 stream of seed, one output at a time: the recurrence
    in degdet.rng's docstring on a single 64-bit state, without end."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def nonzero_rational_reference(rng) -> Fraction:
    """rng.rational() redrawn until it is nonzero: the two-step definition
    that SplitMix64.rational(nonzero=True) draws inline."""
    while True:
        value = rng.rational()
        if value != 0:
            return value


def positive_rational_reference(rng) -> Fraction:
    """A positive numerator uniform in [1, 9] over a denominator uniform in
    [1, 4], as two bounded draws: the two-step definition of what
    SplitMix64.rationals(..., positive=True) draws inline, the same
    _RATIONALS entry."""
    return _RATIONALS[10 + rng.below(9)][rng.below(4)]


def int_between(rng, lo: int, hi: int) -> int:
    """An exactly uniform integer in [lo, hi], inclusive, from one bounded draw."""
    return lo + rng.below(hi - lo + 1)
