"""Interpolation machinery: the exact Newton divided-difference oracle with
its Lagrange cross-check, the nodal polynomial with its symmetric-sum
expansions, closed-form derivatives at the left node, the determinant-based
degree detector, and the general-base-point expansion with its structured
comparison against the interpolation oracle."""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from fractions import Fraction

from .combinat import elementary_symmetric, tau
from .degreematrix import AlternatingSums, _checked_values, det_A_from_cofactors, power_row_cofactors
from .exactnum import (
    NEG_INF,
    Degree,
    Poly,
    Rational,
    RationalLike,
    Record,
    format_rational,
    over_common_denominator,
    rat,
    trusted,
)

MODE_CLOSED_FORM = "closed-form"
MODE_MATRIX = "matrix"
DETECTION_MODES = (MODE_CLOSED_FORM, MODE_MATRIX)


def _integer_grid(ell: int, xi: Rational, h: Rational) -> tuple[int, list[int]]:
    """The grid xi + i*h, i = 0..ell, as (Q, X) in plain ints: with xi = p/q
    and h = r/t, node i is X_i / Q for Q = q*t and X_i = p*t + i*r*q.  Q is
    a common denominator of the nodes, not always their least one."""
    p, q = xi.numerator, xi.denominator
    r, t = h.numerator, h.denominator
    start, step = p * t, r * q
    return q * t, [start + i * step for i in range(ell + 1)]


def equidistant_nodes(ell: int, xi: Rational, h: Rational) -> tuple[Rational, ...]:
    """The grid xi + i*h, i = 0..ell, as the Fractions X_i / Q of the
    integer grid (Q, X) from _integer_grid."""
    den, grid = _integer_grid(ell, xi, h)
    return tuple(Fraction(x, den) for x in grid)


class EquidistantProblem(Record):
    """One interpolation instance on the grid x_i = xi + i*h, i = 0..ell.

    sums, derived from a and so not compared, is the AlternatingSums of the
    values, built here and shared by every closed form below; integer_form
    gives the grid and the values in plain ints to the Newton oracle."""

    _fields = ("ell", "xi", "h", "a")
    __slots__ = _fields + ("sums",)

    def __init__(self, ell: int, xi: RationalLike, h: RationalLike, a):
        if ell < 1:
            raise ValueError(f"problem needs ell >= 1, got {ell}")
        step = rat(h)
        if step == 0:
            raise ValueError("problem needs a nonzero step h")
        values = _checked_values(ell, 0, a)
        self._set(ell, rat(xi), step, values, *over_common_denominator(values))

    def _set(self, ell, xi, h, values, common, numerators):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "a", values)
        object.__setattr__(self, "sums", trusted(AlternatingSums, ell, common, numerators))

    @property
    def integer_form(self) -> tuple[tuple[int, list[int]], tuple[int, list[int]]]:
        """((Q, X), (L, N)) in plain ints for newton_from_integer_form: the
        nodes X_i / Q (_integer_grid) and the values N_i / L over their lcm
        L, as sums cleared them once.  Built on each read, so a problem that
        never reads it pays nothing."""
        return _integer_grid(self.ell, self.xi, self.h), (self.sums.common, self.sums.numerators)


class GeneralProblem(Record):
    """An interpolation instance on arbitrary pairwise-distinct nodes."""

    __slots__ = _fields = ("nodes", "a")

    def __init__(self, nodes, a):
        node_t = tuple(rat(x) for x in nodes)
        values = tuple(rat(x) for x in a)
        if len(node_t) < 2:
            raise ValueError("general problem needs at least two nodes")
        if len(set(node_t)) != len(node_t):
            raise ValueError(f"nodes must be pairwise distinct, got {tuple(map(format_rational, node_t))}")
        if len(values) != len(node_t):
            raise ValueError(f"need one value per node: {len(values)} values for {len(node_t)} nodes")
        super().__init__(node_t, values)

    @property
    def ell(self) -> int:
        return len(self.nodes) - 1


def poly_K(ell: int) -> Poly:
    """The monic nodal polynomial of degree ell+1 with roots exactly 0..ell."""
    if ell < 1:
        raise ValueError(f"nodal polynomial needs ell >= 1, got {ell}")
    return math.prod((Poly.linear_root(i) for i in range(ell + 1)), start=Poly([1]))


def K_quotient_via_tau(ell: int, j: int) -> Poly:
    """Closed form of the nodal polynomial divided by (t - j):

        sum_{m=0}^{ell} (-1)^m tau(ell, m, j) t^(ell-m)

    Must agree with exact synthetic division of poly_K(ell) by (t - j).
    """
    if not 0 <= j <= ell:
        raise ValueError(f"root index j={j} outside [0, {ell}]")
    return Poly.over(1, [(-1) ** m * tau(ell, m, j) for m in range(ell, -1, -1)])


def lagrange_interpolate(nodes: Sequence[RationalLike], values: Sequence[RationalLike]) -> Poly:
    """Unique polynomial of degree <= len(nodes)-1 through the given points,
    built directly from the Lagrange basis with exact arithmetic.  O(ell^3)
    Fraction work; kept as the small-ell cross-check of newton_interpolate."""
    points = [rat(x) for x in nodes]
    data = [rat(v) for v in values]
    if len(points) != len(data):
        raise ValueError("need one value per node")
    total = Poly()
    for j, (xj, vj) in enumerate(zip(points, data)):
        if vj == 0:
            continue
        numer = Poly([1])
        denom = Fraction(1)
        for i, xi in enumerate(points):
            if i == j:
                continue
            numer = numer * Poly.linear_root(xi)
            denom *= xj - xi
        total = total + numer * (vj / denom)
    return total


def newton_interpolate(nodes: Sequence[RationalLike], values: Sequence[RationalLike]) -> Poly:
    """Unique polynomial of degree <= len(nodes)-1 through the given points,
    from Newton divided differences in plain integers: the nodes and the
    values are cleared over the lcms of their denominators and handed to
    newton_from_integer_form, which expands the table by Horner's rule.
    The equidistant suites skip this front and hand a problem's
    integer_form to that kernel, or to newton_degree, which reads only the
    degree off the same table."""
    points = [rat(x) for x in nodes]
    data = [rat(v) for v in values]
    if len(points) != len(data):
        raise ValueError("need one value per node")
    q, xs = over_common_denominator(points)
    if len(set(xs)) != len(xs):
        raise ValueError("nodes must be pairwise distinct")
    if not xs:
        return Poly()
    return newton_from_integer_form((q, xs), over_common_denominator(data))


def _divided_differences(xs: Sequence[int], column: Sequence[int]) -> tuple[list[int], list[int]]:
    """The divided-difference table on the distinct integer nodes X_i of the
    values V_i / D: level k is kept as integer numerators over one
    denominator E_k = E_(k-1) * lcm_i |X_(i+k) - X_i|, and its first entry
    n_k gives Newton coefficient k, n_k / (E_k D), the coefficient of
    prod_(j<k) (u - X_j), of degree exactly k.  Returns (n, E)."""
    leading = [column[0]]
    denominators = [1]
    for k in range(1, len(xs)):
        gaps = [b - a for a, b in zip(xs, xs[k:])]
        step = math.lcm(*gaps)
        column = [(b - a) * (step // g) for a, b, g in zip(column, column[1:], gaps)]
        leading.append(column[0])
        denominators.append(denominators[-1] * step)
    return leading, denominators


def newton_from_integer_form(grid: tuple[int, Sequence[int]], values: tuple[int, Sequence[int]]) -> Poly:
    """The interpolant through the nodes x_i = X_i / Q with the values
    v_i = V_i / D, given as grid = (Q, X) and values = (D, V) in plain ints,
    the X_i pairwise distinct and at least one of them.

    Every E_k of the table (_divided_differences) divides L = E_ell, so the
    Newton coefficients are n_k (L / E_k) / L.  Horner's rule expands
    sum_k n_k (L / E_k) prod_(j<k) (u - X_j) = sum_j c_j u^j in integers,
    and with u = Q x the coefficient of x^j is c_j Q^j / (L D), and
    Poly.over reduces it, so any common denominator Q gives the same Poly.
    It shares no code with the closed forms it is the oracle for.
    """
    q, xs = grid
    d, column = values
    leading, denominators = _divided_differences(xs, column)
    common = denominators[-1]
    acc = [leading[-1]]
    for k in range(len(xs) - 2, -1, -1):
        root = xs[k]
        acc = [-root * acc[0] + leading[k] * (common // denominators[k])] + [
            low - root * high for low, high in zip(acc, acc[1:])
        ] + [acc[-1]]
    return Poly.over(common * d, [c * q**j for j, c in enumerate(acc)])


def newton_degree(grid: tuple[int, Sequence[int]], values: tuple[int, Sequence[int]]) -> Degree:
    """newton_from_integer_form(grid, values).degree without the expansion:
    the index of the last nonzero Newton coefficient of the same table, or
    NEG_INF when every value is zero."""
    leading = _divided_differences(grid[1], values[1])[0]
    for k in range(len(leading) - 1, -1, -1):
        if leading[k]:
            return k
    return NEG_INF


def interpolate_eq14(problem: EquidistantProblem) -> Poly:
    """The interpolant in the normalized variable t = (x - xi)/h, assembled
    coefficient by coefficient from symmetric sums and alternating binomial
    sums of the values:

        (-1)^ell / ell! * sum_{m=0}^{ell} sum_{k=0}^{m}
            (-1)^(k+m) tau(ell, m-k, 0) S_k  t^(ell-m)

    where S_k = sum_j (-1)^j C(ell, j) j^k a_j, read from problem.sums as
    L * S_k and summed in plain ints, over one denominator.
    Shifting the direct interpolant by (xi, h) reproduces this polynomial
    exactly.
    """
    ell, sums = problem.ell, problem.sums
    sym = [tau(ell, m, 0) for m in range(ell + 1)]
    scale = (-1) ** ell * sums.common * math.factorial(ell)
    return Poly.over(scale, _eq14_double_sum(sym, [sums[k] for k in range(ell + 1)]))


def _eq14_double_sum(sym: Sequence, inner: Sequence) -> list:
    """The coefficients of sum_{m=0}^{ell} sum_{k=0}^{m} (-1)^(k+m)
    sym[m-k] inner[k] t^(ell-m), in increasing powers of t (ell =
    len(inner) - 1); the double sum shared by eq. 14 and its general-node
    analogue.  Since (-1)^(k+m) = (-1)^(m-k), the sign rides on sym."""
    ell = len(inner) - 1
    signed = [-x if i % 2 else x for i, x in enumerate(sym[: ell + 1])]
    return [sum(map(operator.mul, signed[m::-1], inner)) for m in range(ell, -1, -1)]


def derivative_at_left_node(problem: EquidistantProblem, s: int) -> Rational:
    """The (ell-s)-th derivative of the interpolant at x = xi by eq. 10,
    h^(s-ell) sum_k (-1)^(ell-s+k) (ell-s)!/ell! tau(ell, s-k, 0) S_k; must
    equal the symbolic derivative of the direct interpolant evaluated at xi.
    Summed in plain ints as L * S_k, with one division at the end."""
    ell = problem.ell
    if not 0 <= s <= ell:
        raise ValueError(f"derivative index s={s} outside [0, {ell}]")
    sums, order = problem.sums, ell - s
    total = sum((-1) ** (order + k) * tau(ell, s - k, 0) * sums[k] for k in range(s + 1))
    p, q = problem.h.numerator, problem.h.denominator
    return Fraction(total * math.factorial(order) * q**order, sums.common * math.factorial(ell) * p**order)


class DegreeDetection(Record):
    """Full detector output: the degree, the witness index m at which the
    determinant family first becomes nonzero (None when every determinant
    vanishes, i.e. the zero value vector), and the determinant values that
    were inspected, in order of s = 0, 1, ..."""

    __slots__ = _fields = ("degree", "witness_m", "determinants")

    def __init__(self, degree: Degree, witness_m: int | None, determinants: tuple[Rational, ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "witness_m", witness_m)
        object.__setattr__(self, "determinants", determinants)


def _determinant_route(problem: EquidistantProblem, mode: str) -> Callable[[int], Rational]:
    """The map s -> determinant for one detection.

    Closed-form mode reads problem.sums.det, sigma_ell (computed on the
    first nonzero read and kept) times an alternating binomial sum.  Matrix mode,
    the cross-check on the explicit matrices, eliminates the ell power
    rows, which every s shares, once (power_row_cofactors); each
    determinant is then their Laplace expansion along the last row,
    det_A_from_cofactors, and sigma_ell is never computed.
    """
    if mode == MODE_CLOSED_FORM:
        return problem.sums.det
    if mode == MODE_MATRIX:
        cofactors, a = power_row_cofactors(problem.ell), problem.a
        return lambda s: det_A_from_cofactors(cofactors, s, a)
    raise ValueError(f"unknown detection mode {mode!r}; choose one of {DETECTION_MODES}")


def detect_degree(problem: EquidistantProblem, mode: str = MODE_CLOSED_FORM) -> DegreeDetection:
    """Degree of the interpolant read off the determinant family: the degree
    is ell - m for the smallest m with a nonzero determinant, each one read
    in O(ell) by the mode's route (_determinant_route).  Only the all-zero
    value vector makes every determinant vanish, which is the zero
    interpolant."""
    ell = problem.ell
    determinant = _determinant_route(problem, mode)
    dets: list[Rational] = []
    for s in range(ell + 1):
        value = determinant(s)
        dets.append(value)
        if value != 0:
            return DegreeDetection(ell - s, s, tuple(dets))
    if any(problem.a):
        raise AssertionError("unreachable: a nonzero value vector always yields a nonzero determinant")
    return DegreeDetection(NEG_INF, None, tuple(dets))


def general_expansion(problem: GeneralProblem) -> Poly:
    """The general-base-point analogue of the normalized coefficient
    expansion, computed verbatim:

        sum_{m=0}^{ell} sum_{k=0}^{m} (-1)^(k+m) T_{m-k}
            (sum_j lambda_j x_j^k a_j) x^(ell-m)

    with lambda_j = 1 / prod_{i != j} (x_i - x_j) and T_m the elementary
    symmetric sums of the nodes x_1..x_ell (the leftmost node excluded, in
    analogy with the equidistant symbols that never involve the value 0).

    The formula is implemented exactly as stated and NOT adjusted; use
    compare_general_expansion to see how it relates to the interpolation oracle.
    """
    xs = problem.nodes
    ell = problem.ell
    lam = [1 / math.prod((xi - xj for i, xi in enumerate(xs) if i != j), start=Fraction(1))
           for j, xj in enumerate(xs)]
    inner = [
        sum((lam[j] * xs[j] ** k * problem.a[j] for j in range(ell + 1)), start=Fraction(0))
        for k in range(ell + 1)
    ]
    return Poly(_eq14_double_sum(elementary_symmetric(xs[1:]), inner))


class GeneralExpansionComparison(Record):
    """Structured comparison of the verbatim general expansion against the
    direct interpolant (newton_interpolate): either they match, or they
    differ by an exact constant ratio, or only the exact difference
    polynomial is reported.  Nothing is corrected silently."""

    __slots__ = _fields = ("formula", "oracle", "match", "ratio", "difference")

    @property
    def outcome(self) -> str:
        if self.match:
            return "match"
        if self.ratio is not None:
            return f"proportional ratio={format_rational(self.ratio)}"
        return "difference coeffs=" + ",".join(map(format_rational, self.difference.coeffs))


def compare_general_expansion(problem: GeneralProblem) -> GeneralExpansionComparison:
    formula = general_expansion(problem)
    oracle = newton_interpolate(problem.nodes, problem.a)
    if formula == oracle:
        ratio = Fraction(1) if not oracle.is_zero else None
        return GeneralExpansionComparison(formula, oracle, True, ratio, Poly())
    ratio = None
    if not oracle.is_zero and formula.degree == oracle.degree:
        candidate = formula.coeffs[-1] / oracle.coeffs[-1]
        if formula == oracle * candidate:
            ratio = candidate
    return GeneralExpansionComparison(formula, oracle, False, ratio, formula - oracle)
