"""Exact scalar, polynomial, and matrix arithmetic.

Everything is built on arbitrary-precision rationals (fractions.Fraction);
no floating point enters any code path.  All values are immutable, all
operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Rational:
    """Coerce an int, "p/q" string, or Fraction to an exact rational.

    Floats are rejected: they would smuggle binary rounding into paths
    whose whole point is exact equality.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}: {value!r}")


def parse_rational(text: str) -> Rational:
    """Parse "p" or "p/q" (q > 0 after reduction); anything else is an error."""
    s = text.strip()
    body = s[1:] if s[:1] in "+-" else s
    num_part, sep, den_part = body.partition("/")
    if not num_part.isdigit() or (sep and not den_part.isdigit()):
        raise ValueError(f"not a rational literal (expected 'p' or 'p/q'): {text!r}")
    if sep and int(den_part) == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(s)


def format_rational(value: Rational) -> str:
    """Serialize exactly: "p" for integers, "p/q" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class NegativeInfinity:
    """Sentinel for the degree of the zero polynomial.

    Distinct from every integer, smaller than all of them, and never
    valid in arithmetic.  There is a single shared instance, NEG_INF.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        if isinstance(other, int) or other is self:
            return other is not self
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, int) or other is self:
            return True
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, int) or other is self:
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, int) or other is self:
            return other is self
        return NotImplemented

    def __repr__(self):
        return "-inf"


NEG_INF = NegativeInfinity()

Degree = Union[int, NegativeInfinity]


def degree_to_str(degree: Degree) -> str:
    return "-inf" if isinstance(degree, NegativeInfinity) else str(degree)


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over exact rationals.

    coeffs[k] multiplies t**k; trailing zeros are never stored, so the
    zero polynomial has an empty coefficient tuple and degree NEG_INF.
    """

    coeffs: tuple[Rational, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        items = [rat(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def constant(c: RationalLike) -> "Poly":
        return Poly([c])

    @staticmethod
    def linear_root(root: RationalLike) -> "Poly":
        """The monic linear factor t - root."""
        return Poly([-rat(root), 1])

    @property
    def degree(self) -> Degree:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Rational:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, power: int) -> Rational:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __call__(self, x: RationalLike) -> Rational:
        point = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __add__(self, other):
        if isinstance(other, (Fraction, int, str)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coefficient(k) + other.coefficient(k) for k in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (Fraction, int, str)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int, str)):
            scalar = rat(other)
            return Poly([c * scalar for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def derivative(self, n: int = 1) -> "Poly":
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        coeffs = self.coeffs
        for _ in range(n):
            coeffs = tuple(k * c for k, c in enumerate(coeffs))[1:]
            if not coeffs:
                break
        return Poly(coeffs)

    def divide_linear(self, root: RationalLike) -> "Poly":
        """Exact synthetic division by (t - root); root must actually be a root."""
        r = rat(root)
        if self.is_zero:
            return Poly.zero()
        quotient = [Fraction(0)] * (len(self.coeffs) - 1)
        carry = Fraction(0)
        for k in range(len(self.coeffs) - 1, 0, -1):
            carry = self.coeffs[k] + r * carry
            quotient[k - 1] = carry
        remainder = self.coeffs[0] + r * carry
        if remainder != 0:
            raise ValueError(
                f"{format_rational(r)} is not a root (remainder {format_rational(remainder)}); "
                "exact division is impossible"
            )
        return Poly(quotient)


def poly_shift_scale(p: Poly, xi: RationalLike, h: RationalLike) -> Poly:
    """Return p̂ with p̂(t) = p(xi + t*h); h must be nonzero so the substitution inverts.

    With p's coefficients n_k / d over one denominator and xi + t*h =
    (start + slope t) / m in integers, Horner's rule expands
    sum_k n_k m^(n-k) (start + slope t)^k in plain ints, and coefficient j
    of p̂ is that sum's coefficient j over d m^n, the only Fraction
    arithmetic.
    """
    step = rat(h)
    if step == 0:
        raise ValueError("shift-scale substitution needs h != 0")
    if p.is_zero:
        return Poly.zero()
    shift = rat(xi)
    m = shift.denominator * step.denominator
    start, slope = shift.numerator * step.denominator, step.numerator * shift.denominator
    d, nums = over_common_denominator(p.coeffs)
    acc = [nums[-1]]
    power = 1
    for c in reversed(nums[:-1]):
        power *= m
        acc = [start * acc[0] + c * power] + [
            start * high + slope * low for low, high in zip(acc, acc[1:])
        ] + [slope * acc[-1]]
    scale = d * power
    return Poly([Fraction(c, scale) for c in acc])


@dataclass(frozen=True)
class ExactMatrix:
    """Dense matrix over exact rationals, stored row-major and immutable."""

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __init__(self, rows: int, cols: int, entries: Iterable[RationalLike]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        items = tuple(rat(e) for e in entries)
        if len(items) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(items)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", items)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]]) -> "ExactMatrix":
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("all rows must have the same length")
        flat = [e for r in rows for e in r]
        return ExactMatrix(len(rows), width, flat)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Rational:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Rational]]:
        return [list(self.row(i)) for i in range(self.rows)]


def over_common_denominator(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """The lcm d of the denominators and the numerators over d, as plain ints:
    values[i] = nums[i] / d.  An entry p/q becomes p * (d // q), exact because
    q divides d; an entry already over d keeps its numerator, so integer
    entries are reused, not copied."""
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator if v.denominator == d else v.numerator * (d // v.denominator) for v in values]


def det_fraction_free(m: ExactMatrix) -> Rational:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Each row is first scaled to integers by the lcm of its denominators,
    the integer determinant comes from det_integer_rows, and the single
    rational division by the product of those lcms happens at the end.
    """
    if not m.is_square:
        raise ValueError(f"determinant requires a square matrix, got {m.rows}x{m.cols}")
    scale = 1
    rows: list[list[int]] = []
    for i in range(m.rows):
        d, row = over_common_denominator(m.row(i))
        scale *= d
        rows.append(row)
    return Fraction(det_integer_rows(rows), scale)


def _bareiss(rows: list[list[int]], width: int) -> tuple[int, list[int], int] | None:
    """Fraction-free (Bareiss) elimination, in place, of integer rows of
    length width >= len(rows).

    The Bareiss recurrence keeps every intermediate value an exact integer
    (its divisions are exact), which controls coefficient swell.  A zero
    pivot is replaced by a later column with a nonzero entry in the pivot
    row, swapped in every row.  Returns (sign, perm, pivot): the parity of
    the swaps, perm[k] the original column now at position k, and the last
    pivot, the leading minor of the permuted rows.  None means some row has
    no nonzero entry left, so the rows are linearly dependent.
    """
    perm = list(range(width))
    sign = 1
    prev = 1
    for k, top in enumerate(rows):
        if top[k] == 0:
            for j in range(k + 1, width):
                if top[j] != 0:
                    for r in rows:
                        r[k], r[j] = r[j], r[k]
                    perm[k], perm[j] = perm[j], perm[k]
                    sign = -sign
                    break
            else:
                return None
        pivot = top[k]
        for row in rows[k + 1 :]:
            head = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - head * top[j]) // prev
            row[k] = 0  # frees the eliminated entry, which is never read again
        prev = pivot
    return sign, perm, prev


def det_integer_rows(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination;
    the rows are modified in place."""
    eliminated = _bareiss(rows, len(rows))
    if eliminated is None:
        return 0
    sign, _, pivot = eliminated
    return sign * pivot


def last_row_cofactors(rows: list[list[int]]) -> list[int]:
    """The cofactors c_j of the last row of the n x n integer matrix whose
    first n-1 rows are rows, so that its determinant is sum_j c_j r_j for
    every last row r (Laplace expansion); the rows are modified in place.

    The rows go through one Bareiss elimination.  With the last pivot D (the
    leading minor of the permuted rows), the cofactor vector in permuted
    columns is the null vector of the rows whose last entry is D; it is
    integral, so the back substitution divides exactly.  Dependent rows make
    every cofactor 0.
    """
    n = len(rows) + 1
    if any(len(r) != n for r in rows):
        raise ValueError(f"cofactors of a {n}x{n} matrix need {n - 1} rows of length {n}")
    eliminated = _bareiss(rows, n)
    if eliminated is None:
        return [0] * n
    sign, perm, pivot = eliminated
    x = [0] * n
    x[n - 1] = pivot
    for k in range(n - 2, -1, -1):
        x[k] = -sum(rows[k][j] * x[j] for j in range(k + 1, n)) // rows[k][k]
    cofactors = [0] * n
    for k, j in enumerate(perm):
        cofactors[j] = sign * x[k]
    return cofactors


def det_cofactor(m: ExactMatrix) -> Rational:
    """Determinant by first-row cofactor expansion.

    Factorial cost; kept as the independent small-size oracle for
    det_fraction_free, not for production use.
    """
    if not m.is_square:
        raise ValueError(f"determinant requires a square matrix, got {m.rows}x{m.cols}")
    grid = m.to_rows()

    def expand(rows: list[list[Rational]]) -> Rational:
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

    return expand(grid)
