"""Test-only oracles: by-definition routes with factorial or quadratic
Fraction cost that the tests check degdet's production routes against.
No degdet code path calls them."""

import math
from fractions import Fraction
from typing import Sequence

from degdet.combinat import IndexSeq
from degdet.exactnum import ExactMatrix, Rational, RationalLike, rat
from degdet.vandermonde import gen_vandermonde_det


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


def vandermonde_product(nu: Sequence[RationalLike]) -> Rational:
    """The classical pairwise-difference product prod_{i<j} (nu_j - nu_i)."""
    points = [rat(x) for x in nu]
    return math.prod(
        (points[j] - points[i] for i in range(len(points)) for j in range(i + 1, len(points))),
        start=Fraction(1),
    )


def schur_eval(nu: Sequence[RationalLike], mu: IndexSeq) -> Rational:
    """The symmetric quotient gen_vandermonde_det(nu, mu) / vandermonde_product(nu),
    evaluated at pairwise distinct sample points."""
    points = [rat(x) for x in nu]
    if len(set(points)) != len(points):
        raise ValueError("Schur evaluation needs pairwise distinct points (0/0 otherwise)")
    return gen_vandermonde_det(points, mu) / vandermonde_product(points)
