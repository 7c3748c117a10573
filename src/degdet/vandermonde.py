"""Affine-power matrices, generalized Vandermonde determinants, and the
expansion/regularity identities connecting them."""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from fractions import Fraction

from .exactnum import (
    Rational,
    Record,
    det_integer_rows,
    format_rational,
    over_common_denominator,
    rat,
)


class HypothesisViolation(ValueError):
    """A named hypothesis of the regularity statement failed on the given data."""

    def __init__(self, hypothesis: str, message: str):
        super().__init__(f"hypothesis '{hypothesis}' violated: {message}")
        self.hypothesis = hypothesis


def affine_row(a: Rational, b: Rational, pair_a: tuple[int, int], pair_b: tuple[int, int]):
    """The row (alpha_i, beta_i, A_i, B_i, D_i) of AffineData's integer form
    for alpha_i = a and beta_i = b, given with their (numerator,
    denominator) pairs: D_i is the lcm of the two denominators."""
    (p, da), (q, db) = pair_a, pair_b
    d = math.lcm(da, db)
    return a, b, p * (d // da), q * (d // db), d


class AffineData(Record):
    """Input triple (alpha, beta, r) for a k x k matrix of (ell-1)-th powers
    of the affine combinations alpha_i + r_j beta_i.  r must be injective.

    integer_form, derived from the fields and so not compared, is (A, B, D,
    Q, R) in plain ints with alpha_i = A_i/D_i and beta_i = B_i/D_i (D_i the
    lcm of their two denominators) and r_j = R_j/Q (Q the lcm of r's)."""

    _fields = ("k", "ell", "alpha", "beta", "r")
    __slots__ = _fields + ("integer_form",)

    def __init__(self, k: int, ell: int, alpha, beta, r):
        if k < 1:
            raise ValueError(f"affine data needs k >= 1, got {k}")
        if ell < 1:
            raise ValueError(f"affine data needs ell >= 1, got {ell}")
        alpha_t = tuple(map(rat, alpha))
        beta_t = tuple(map(rat, beta))
        r_t = tuple(map(rat, r))
        for name, seq in (("alpha", alpha_t), ("beta", beta_t), ("r", r_t)):
            if len(seq) != k:
                raise ValueError(f"{name} must have k = {k} entries, got {len(seq)}")
        Q, R = over_common_denominator(r_t)
        if len(set(R)) != k:
            raise ValueError(f"r must be injective, got {tuple(map(format_rational, r_t))}")
        pairs_a, pairs_b = map(Fraction.as_integer_ratio, alpha_t), map(Fraction.as_integer_ratio, beta_t)
        self._set(k, ell, map(affine_row, alpha_t, beta_t, pairs_a, pairs_b), r_t, Q, R)

    def _set(self, k, ell, rows, r, Q, R):  # rows (alpha_i, beta_i, A_i, B_i, D_i)
        alpha, beta, A, B, D = zip(*rows)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "integer_form", (A, B, D, Q, R))

    def rho(self) -> tuple[Rational, ...]:
        """The ratios beta_i / alpha_i; defined only when every alpha_i is nonzero."""
        if not all(self.alpha):
            raise ValueError("rho needs every alpha_i nonzero")
        return tuple(b / a for a, b in zip(self.alpha, self.beta))

    def inverse_rho(self) -> tuple[Rational, ...]:
        """The ratios alpha_i / beta_i; defined only when every beta_i is nonzero."""
        if not all(self.beta):
            raise ValueError("inverse rho needs every beta_i nonzero")
        return tuple(a / b for a, b in zip(self.alpha, self.beta))


def _scaled_B_rows(data: AffineData) -> list[list[int]]:
    """Row i of B times (D_i Q)^(ell-1): the integers (A_i Q + R_j B_i)^(ell-1)."""
    A, B, _, Q, R = data.integer_form
    return [[(a * Q + rj * b) ** (data.ell - 1) for rj in R] for a, b in zip(A, B)]


def build_B(data: AffineData) -> list[list[Rational]]:
    """The rows of the k x k matrix with entries (alpha_i + r_j beta_i)^(ell-1);
    0^0 = 1."""
    _, _, D, Q, _ = data.integer_form
    scales = [(d * Q) ** (data.ell - 1) for d in D]
    return [[Fraction(e, s) for e in row] for row, s in zip(_scaled_B_rows(data), scales)]


def det_B(data: AffineData) -> Rational:
    """det build_B(data) by Bareiss on _scaled_B_rows, over the product of
    their scales (D_i Q)^(ell-1): one Fraction, and no k x k matrix of them."""
    _, _, D, Q, _ = data.integer_form
    return Fraction(det_integer_rows(_scaled_B_rows(data)), math.prod(d * Q for d in D) ** (data.ell - 1))


def _power_table(points: Sequence[Rational], ell: int) -> tuple[int, list[list[int]]]:
    """With the points written as N_i / Q over the lcm Q of their
    denominators: Q and the integer powers N_i^e, e < ell."""
    Q, N = over_common_denominator(points)
    return Q, [[n**e for e in range(ell)] for n in N]


def _power_minor(table: list[list[int]], exponents: Sequence[int]) -> int:
    """det(N_i ^ exponents_j), Q^(sum exponents) times the determinant of the
    power matrix (x_i ^ exponents_j): column j carries Q^exponents_j."""
    return det_integer_rows([[row[e] for e in exponents] for row in table])


def _binomial_vandermonde_sum(data: AffineData, lead: Sequence[Rational], second: Sequence[Rational],
                              columns: Callable[[int, tuple[int, ...]], tuple[int, ...]]) -> Rational:
    """prod lead_i^(ell-1) * sum_mu prod_j C(ell-1, mu_j) V(r, mu) V(second, columns(ell, mu))
    over all C(ell, k) strictly increasing exponent tuples mu in [0, ell-1]
    (itertools.combinations), term by term in ints: with r and second over
    the lcms Q and S of their denominators, each V is a power-table minor
    over Q or S to at most top = (ell-1) + ... + (ell-k), so every term is
    an integer over (Q S)^top."""
    ell = data.ell
    Q, r_table = _power_table(data.r, ell)
    S, second_table = _power_table(second, ell)
    # C(ell-1, e) = C(ell-1, e-1) (ell-e) / e, where a math.comb per e grows with e
    weights = list(itertools.accumulate(range(1, ell), lambda w, e: w * (ell - e) // e, initial=1))
    top = data.k * (2 * ell - data.k - 1) // 2
    total = 0
    for mu in itertools.combinations(range(ell), data.k):
        nu = columns(ell, mu)
        minor = _power_minor(second_table, nu)
        if minor:
            total += (math.prod(weights[e] for e in mu) * _power_minor(r_table, mu) * minor
                      * Q ** (top - sum(mu)) * S ** (top - sum(nu)))
    numerator = math.prod(x.numerator ** (ell - 1) for x in lead)
    denominator = math.prod(x.denominator ** (ell - 1) for x in lead)
    return Fraction(numerator * total, denominator * (Q * S) ** top)


def expansion_cost(data: AffineData) -> int:
    """det_B_expansion's work in digit steps, estimated as fitted to measured
    runs (k <= ell, alpha nonzero): C(ell, k) terms of k^2 (k + 3) + 16
    products (two k x k minors, the weights, the lcm powers) at n^1.5 steps
    each, n the 30-bit digits of top * (bits of r + bits of rho) on a term."""
    ell, k = data.ell, data.k
    bits = sum(max(abs(x).bit_length() for x in (d, *nums))
               for d, nums in map(over_common_denominator, (data.r, data.rho())))
    n = 1 + k * (2 * ell - k - 1) // 2 * bits // 30
    return math.comb(ell, k) * (k * k * (k + 3) + 16) * n * math.isqrt(n)


def elimination_cost(data: AffineData) -> int:
    """det_B's work in the digit steps of expansion_cost, estimated as fitted
    to measured runs: n 30-bit digits an entry, (ell-1) times the bits of the
    largest |A_i Q + R_j B_i|; (k-t)^2 updates at Bareiss step t = 1 ..
    min(k-1, ell), the rank bound, each dominated by an exact division of
    t n digits at (t n)^2 steps; k^2 powers at n^2; and the final Fraction's
    gcd at 3 (m n)^2, m = min(k, ell)."""
    A, B, _, Q, R = data.integer_form
    ell, k = data.ell, data.k
    bits = max(abs(a * Q + rj * b).bit_length() for a, b in zip(A, B) for rj in (min(R), max(R)))
    n = 1 + (ell - 1) * bits // 30
    updates = sum((k - t) ** 2 * (t * n) ** 2 for t in range(1, min(k - 1, ell) + 1))
    return updates + (k * n) ** 2 + 3 * (min(k, ell) * n) ** 2


def det_B_expansion(data: AffineData) -> Rational:
    """Expansion of det(B) as a binomial-weighted sum over all C(ell, k)
    increasing exponent sequences:

        prod alpha_i^(ell-1) * sum_mu prod_j C(ell-1, mu_j)
            * V(r, mu) * V(rho, mu)

    Needs k <= ell and every alpha_i nonzero (rho must exist); beta is
    unconstrained.
    """
    if data.k > data.ell:
        raise ValueError("expansion needs k <= ell (the determinant is 0 for k > ell; see det_B_zero_check)")
    return _binomial_vandermonde_sum(data, data.alpha, data.rho(), lambda ell, mu: mu)


def _complement(ell: int, mu: tuple[int, ...]) -> tuple[int, ...]:
    """Reflect every exponent through (ell-1)/2 and reverse, so the result is
    again strictly increasing in [0, ell-1]; an involution."""
    return tuple(ell - 1 - e for e in reversed(mu))


def det_B_expansion_complement(data: AffineData) -> Rational:
    """Complementary-index expansion of det(B):

        (-1)^(k(k-1)/2) * prod beta_i^(ell-1) * sum_mu prod_j C(ell-1, mu_j)
            * V(r, mu) * V(1/rho, _complement(ell, mu))

    Needs k <= ell and every alpha_i and beta_i nonzero.
    """
    if data.k > data.ell:
        raise ValueError("expansion needs k <= ell (the determinant is 0 for k > ell; see det_B_zero_check)")
    if not all(data.alpha):
        raise ValueError("complementary expansion needs every alpha_i nonzero")
    total = _binomial_vandermonde_sum(data, data.beta, data.inverse_rho(), _complement)
    return -total if (data.k * (data.k - 1) // 2) % 2 else total


def det_B_zero_check(data: AffineData) -> bool:
    """For k > ell the power matrix cannot have full rank; confirm det(B) = 0."""
    if data.k <= data.ell:
        raise ValueError("zero check applies only to k > ell")
    return det_B(data) == 0


def regularity_check(data: AffineData) -> bool:
    """Decide det(B) != 0 under the regularity hypotheses, which are enforced
    strictly: every ratio alpha_i/beta_i positive, all cross products
    alpha_i beta_j - beta_i alpha_j nonzero for i != j, and r positive
    (injectivity is already a type invariant).  Under these hypotheses the
    result equals (k <= ell).

    The hypotheses are decided on data.integer_form: with alpha_i = A_i/D_i
    and beta_i = B_i/D_i over one positive D_i, the ratio is positive iff
    A_i B_i > 0, and the cross product vanishes iff A_i B_j - B_i A_j does.
    So is det(B) != 0, on det_B's integer rows: their scales are positive."""
    A, B, _, _, R = data.integer_form
    for i, (a, b) in enumerate(zip(data.alpha, data.beta)):
        if A[i] * B[i] <= 0:
            raise HypothesisViolation(
                "ratio-positive",
                f"alpha_{i + 1}/beta_{i + 1} = {format_rational(a)}/{format_rational(b)} is not positive",
            )
    for i in range(data.k):
        for j in range(i + 1, data.k):
            if A[i] * B[j] - B[i] * A[j] == 0:
                raise HypothesisViolation(
                    "pairwise-independence",
                    f"alpha_{i + 1} beta_{j + 1} - beta_{i + 1} alpha_{j + 1} = 0",
                )
    for i, value in enumerate(data.r):
        if R[i] <= 0:
            raise HypothesisViolation("r-positive", f"r_{i + 1} = {format_rational(value)} is not positive")
    return det_integer_rows(_scaled_B_rows(data)) != 0
