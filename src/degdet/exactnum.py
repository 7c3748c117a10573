"""Exact scalar, polynomial, and matrix arithmetic.

A rational is a fractions.Fraction and an integer a plain int; the kernels
clear denominators and work in plain ints, and no floating point enters any
code path.  Text becomes a number only in parse_integer and parse_rational,
and a computed value becomes report text only in format_rational.  Poly is
immutable: integer numerators over one denominator.  A matrix is a list of
its rows: the integer Bareiss kernels (det_integer_rows, last_row_cofactors)
work in place on the integer rows they are given, and det_fraction_free, the
rational route that only the tests call, clears each row of rationals over
its lcm first; every other function returns new values.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import total_ordering

RationalLike = Fraction | int


def rat(value: RationalLike) -> Fraction:
    """Coerce an int or Fraction to a Fraction.

    Floats are rejected: they would smuggle binary rounding into paths
    whose whole point is exact equality.  So is text, which only
    parse_rational reads.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}: {value!r}")


def parse_integer(text: str) -> int:
    """Parse an optional sign, then decimal digits; anything else, such as
    the "0_2" that int() would take, is an error."""
    s = text.strip()
    if not (s[1:] if s[:1] in "+-" else s).isdecimal():
        raise ValueError(f"not an integer: {text!r}")
    return int(s)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (q > 0 after reduction); anything else is an error.
    The Fraction is built from the ints of the checked digits."""
    s = text.strip()
    body = s[1:] if s[:1] in "+-" else s
    num_part, sep, den_part = body.partition("/")
    if not num_part.isdecimal() or (sep and not den_part.isdecimal()):
        raise ValueError(f"not a rational literal (expected 'p' or 'p/q'): {text!r}")
    den = int(den_part) if sep else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    num = int(num_part)
    return Fraction(-num if s[:1] == "-" else num, den)


def format_rational(value: Fraction | int) -> str:
    """Serialize exactly: "p" for integers, "p/q" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@total_ordering
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

    def __repr__(self):
        return "-inf"


NEG_INF = NegativeInfinity()

Degree = int | NegativeInfinity


class Record:
    """An immutable value.  A subclass names its fields, in constructor
    order, in _fields and every attribute it stores in __slots__.  Equality,
    hashing, repr, copying and pickling read the fields alone, not the
    attributes derived from them.  __init__ stores the fields; a record
    built on a hot path stores each itself with object.__setattr__, without
    the loop.  Any later assignment or deletion raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


def trusted(cls, *parts):
    """The cls built by cls._set(*parts) alone, from parts a drawer made
    valid and cleared as the checked constructor would: nothing is converted
    or re-checked.  Callers name the class, trusted(AffineData, ...), for a
    class whose checked constructor checks, clears once and calls _set."""
    value = object.__new__(cls)
    value._set(*parts)
    return value


class Poly(Record):
    """Dense univariate polynomial over exact rationals, stored as integer
    numerators over one denominator: t**k has the coefficient nums[k] / den,
    with den > 0, gcd(den, *nums) == 1 and no trailing zero, so the zero
    polynomial is (1, ()), of degree NEG_INF.  The field coeffs, one
    Fraction per coefficient, is derived on each read.
    """

    _fields = ("coeffs",)
    __slots__ = ("den", "nums")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        den, nums = over_common_denominator([rat(c) for c in coeffs])
        while nums and not nums[-1]:
            nums.pop()
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(nums))

    @staticmethod
    def over(den: int, nums: Iterable[int]) -> "Poly":
        """The coefficients nums[k] / den, den a nonzero int, in lowest terms."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        p = object.__new__(Poly)
        object.__setattr__(p, "den", den // g)
        object.__setattr__(p, "nums", tuple([n // g for n in nums]) if g != 1 else tuple(nums))
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def __eq__(self, other):
        if other.__class__ is not Poly:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    @staticmethod
    def linear_root(root: RationalLike) -> "Poly":
        """The monic linear factor t - root."""
        return Poly([-rat(root), 1])

    @property
    def degree(self) -> Degree:
        return len(self.nums) - 1 if self.nums else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x: RationalLike) -> Fraction:
        """Horner's rule in plain ints: with x = X / m, the value is
        sum_k nums[k] X^k m^(n-k) / (den m^n)."""
        point = rat(x)
        X, m = point.numerator, point.denominator
        acc, power = 0, 1
        for c in reversed(self.nums):
            acc = acc * X + c * power
            power *= m
        return Fraction(acc * m, self.den * power)

    def __add__(self, other):
        if isinstance(other, (Fraction, int)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        d = math.lcm(self.den, other.den)
        a, b = sorted(([n * (d // p.den) for n in p.nums] for p in (self, other)), key=len)
        return Poly.over(d, [x + y for x, y in zip(a, b)] + b[len(a):])

    def __neg__(self):
        return Poly.over(self.den, [-n for n in self.nums])

    def __sub__(self, other):
        return -(-self + other)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            scalar = rat(other)
            return Poly.over(self.den * scalar.denominator, [n * scalar.numerator for n in self.nums])
        if not isinstance(other, Poly):
            return NotImplemented
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums, i):
                    out[j] += a * b
        return Poly.over(self.den * other.den, out)

    def derivative(self, n: int = 1) -> "Poly":
        """The n-th derivative in one pass: t^k becomes k!/(k-n)! t^(k-n)."""
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        return Poly.over(self.den, [math.perm(k, n) * c for k, c in enumerate(self.nums)][n:])


def poly_shift_scale(p: Poly, xi: RationalLike, h: RationalLike) -> Poly:
    """Return p̂ with p̂(t) = p(xi + t*h); h must be nonzero so the substitution inverts.

    With xi + t*h = (start + slope t) / m in integers, Horner's rule expands
    sum_k nums[k] m^(n-k) (start + slope t)^k in plain ints, and p̂ is that
    sum over den m^n.
    """
    step = rat(h)
    if step == 0:
        raise ValueError("shift-scale substitution needs h != 0")
    if p.is_zero:
        return Poly()
    shift = rat(xi)
    m = shift.denominator * step.denominator
    start, slope = shift.numerator * step.denominator, step.numerator * shift.denominator
    nums = p.nums
    acc = [nums[-1]]
    power = 1
    for c in reversed(nums[:-1]):
        power *= m
        acc = [start * acc[0] + c * power] + [
            start * high + slope * low for low, high in zip(acc, acc[1:])
        ] + [slope * acc[-1]]
    return Poly.over(p.den * power, acc)


def over_common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm d of the denominators and the numerators over d, as plain ints:
    values[i] = nums[i] / d, and gcd(d, *nums) == 1.  An entry p/q becomes
    p * (d // q), exact because q divides d; an entry already over d keeps
    its numerator, so integer entries are reused, not copied."""
    denominators = [v.denominator for v in values]
    d = math.lcm(*denominators)
    return d, [v.numerator if q == d else v.numerator * (d // q) for v, q in zip(values, denominators)]


def det_fraction_free(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix of rationals, given as its rows,
    by fraction-free (Bareiss) elimination.

    Each row is first scaled to integers by the lcm of its denominators,
    the integer determinant comes from det_integer_rows, and the single
    rational division by the product of those lcms happens at the end.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        lengths = sorted({len(r) for r in rows})
        raise ValueError(f"determinant requires a square matrix, n >= 1 rows of length n; "
                         f"got {n} rows of lengths {lengths}")
    scales, integer_rows = zip(*map(over_common_denominator, rows))
    return Fraction(det_integer_rows(list(integer_rows)), math.prod(scales))


# Pivot rows whose pivot is wider than this many bits lose their content (the
# gcd of their entries) to the row's scale.  The power rows of the degree
# matrix cross it at step 2 to 6 for ell 16..64 and then share thousands of
# bits; the content step halves their elimination time at ell 28..48 (2-vCPU
# x86-64 VM).  verify's 3,724 eliminations per `--suite all` at seed 42 (its
# other 14,076 determinants are 1x1, 2x2 or 3x3 and skip _bareiss), with
# pivots of at most 161 bits, never reach it; a 64-bit gate, which fired on
# about 1,100 of the 17,800 eliminations before those base cases, gained
# nothing.
CONTENT_BITS = 512


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

    Row i is held as an integer scale s_i times the stored row (Collins's
    primitive remainder sequences, applied to Bareiss's rows).  A pivot row
    whose pivot is wider than CONTENT_BITS is divided by the gcd g of its
    entries, and s_k <- s_k g.  With the true previous pivot P, a later row
    takes u = row * pivot - head * top on the stored values, and its true
    Bareiss row is s_i s_k u / P, an integer.  With c = gcd(P, s_i s_k),
    s_i s_k / c and P / c are coprime, so P / c divides u: the stored row
    becomes u // (P / c) and s_i <- s_i s_k / c.  The rows below the pivot
    all start at scale 1 and every step updates them alike, so they share
    one scale, and each step takes one gcd, none while that scale and the
    pivot row's are 1: then the divisor is P, as in plain Bareiss.  On
    return the rows hold these stored rows, each a nonzero multiple of the
    true one.
    """
    perm = list(range(width))
    below = 1  # the one scale of the rows not yet used as pivots
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
        scale = below  # the pivot row's
        if top[k].bit_length() > CONTENT_BITS:
            g = math.gcd(*top[k:])
            if g > 1:
                top[k:] = [x // g for x in top[k:]]
                scale *= g
        pivot = top[k]
        divisor = prev
        if scale != 1:
            product = below * scale
            c = math.gcd(prev, product)
            divisor = prev // c
            below = product // c
        for i in range(k + 1, len(rows)):
            row = rows[i]
            head = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - head * top[j]) // divisor
            row[k] = 0  # frees the eliminated entry, which is never read again
        prev = scale * pivot
    return sign, perm, prev


def det_integer_rows(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination.
    The rows are modified in place: they are left holding _bareiss's stored
    rows, each a nonzero multiple of its eliminated row.  A 1x1, 2x2 or 3x3
    matrix is its own base case, a, ad - bc or the cofactor expansion along
    the first row, and is left unmodified."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    eliminated = _bareiss(rows, n)
    if eliminated is None:
        return 0
    sign, _, pivot = eliminated
    return sign * pivot


def last_row_cofactors(rows: list[list[int]]) -> list[int]:
    """The cofactors c_j of the last row of the n x n integer matrix whose
    first n-1 rows are rows, so that its determinant is sum_j c_j r_j for
    every last row r (Laplace expansion).  The rows are modified in place:
    they are left holding _bareiss's stored rows, each a nonzero multiple of
    its eliminated row.

    The rows go through one Bareiss elimination.  With the last pivot D (the
    leading minor of the permuted rows), the cofactor vector in permuted
    columns is the null vector of the rows whose last entry is D; it is
    integral, so the back substitution divides exactly.  It runs on the
    stored rows: a row's scale multiplies both sides of its equation, so it
    drops out.  Dependent rows make every cofactor 0.
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
