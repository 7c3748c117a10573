import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degdet.exactnum import (
    NEG_INF,
    ExactMatrix,
    Poly,
    det_cofactor,
    det_fraction_free,
    det_integer_rows,
    format_rational,
    last_row_cofactors,
    over_common_denominator,
    parse_rational,
    poly_shift_scale,
    rat,
)
from degdet.rng import SplitMix64

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
nonzero_rationals = small_rationals.filter(lambda q: q != 0)


def shift_scale_by_poly_products(p, xi, h):
    """Reference for poly_shift_scale: Horner's rule on Poly products,
    acc <- acc * (xi + h t) + c_k, all in Fraction arithmetic."""
    line = Poly([xi, h])
    acc = Poly.zero()
    for c in reversed(p.coeffs):
        acc = acc * line + c
    return acc


def square_matrices(max_size):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(
            st.lists(small_rationals, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(ExactMatrix.from_rows)
    )


class TestRationals:
    @given(small_rationals)
    def test_format_parse_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize("text,expected", [("3/4", Fraction(3, 4)), ("-6/4", Fraction(-3, 2)), ("7", 7), ("+2/6", Fraction(1, 3))])
    def test_parse_accepts_p_over_q(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "", "a/b", "1/0", "1/", "/2", "1e3", "1 / 2"])
    def test_parse_rejects_non_rational(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_rat_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.1)

    @given(small_rationals, small_rationals)
    def test_arithmetic_stays_canonical(self, a, b):
        for value in (a + b, a - b, a * b):
            assert value.denominator > 0
            assert math.gcd(abs(value.numerator), value.denominator) == 1
        assert a - a == Fraction(0, 1)

    @given(small_rationals, small_rationals, small_rationals)
    def test_field_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestDegreeSentinel:
    def test_below_every_integer(self):
        assert NEG_INF < 0
        assert NEG_INF < -(10**9)
        assert not NEG_INF > 0
        assert NEG_INF <= 5

    def test_equal_only_to_itself(self):
        assert NEG_INF == NEG_INF
        assert NEG_INF != 0
        assert NEG_INF != -1

    def test_repr(self):
        assert repr(NEG_INF) == "-inf"


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0, 0]).is_zero

    def test_zero_degree_is_sentinel(self):
        assert Poly.zero().degree is NEG_INF
        assert not isinstance(Poly.zero().degree, int)
        assert Poly([7]).degree == 0

    def test_derivative_power_rule(self):
        p = Poly([0, 2, -3, 1])  # t^3 - 3t^2 + 2t
        assert p.derivative(1) == Poly([2, -6, 3])

    def test_derivative_order_zero_is_identity(self):
        p = Poly([5, 0, 7])
        assert p.derivative(0) == p

    def test_derivative_kills_constants(self):
        assert Poly([5]).derivative(1).is_zero
        assert Poly([1, 1]).derivative(3).is_zero

    @given(st.lists(small_rationals, min_size=1, max_size=7), st.integers(min_value=0, max_value=6))
    def test_derivative_degree_drop(self, coeffs, n):
        p = Poly(coeffs)
        if p.is_zero:
            assert p.derivative(n).is_zero
        elif n <= p.degree:
            assert p.derivative(n).degree == p.degree - n
        else:
            assert p.derivative(n).is_zero

    def test_shift_scale_examples(self):
        assert poly_shift_scale(Poly([0, 0, 1]), 0, 2) == Poly([0, 0, 4])
        assert poly_shift_scale(Poly([0, 1]), 1, 1) == Poly([1, 1])

    @given(st.lists(small_rationals, max_size=6))
    def test_shift_scale_identity_substitution(self, coeffs):
        p = Poly(coeffs)
        assert poly_shift_scale(p, 0, 1) == p

    def test_shift_scale_rejects_zero_step(self):
        with pytest.raises(ValueError):
            poly_shift_scale(Poly([1, 1]), 2, 0)

    @given(st.lists(small_rationals, max_size=5), small_rationals, nonzero_rationals)
    def test_shift_scale_inverts(self, coeffs, xi, h):
        p = Poly(coeffs)
        assert poly_shift_scale(poly_shift_scale(p, xi, h), -xi / h, 1 / h) == p

    @given(st.lists(small_rationals, max_size=5), small_rationals, nonzero_rationals)
    def test_shift_scale_agrees_with_evaluation(self, coeffs, xi, h):
        p = Poly(coeffs)
        shifted = poly_shift_scale(p, xi, h)
        for t in (-2, 0, 1, Fraction(1, 3)):
            assert shifted(t) == p(xi + rat(t) * h)

    def test_shift_scale_matches_poly_product_horner(self):
        rng = SplitMix64(41)
        polys = [Poly.zero()] + [Poly([rng.rational() for _ in range(d)] + [rng.nonzero_rational()]) for d in range(41)]
        for p in polys:
            xi, h = rng.rational(), rng.nonzero_rational()
            for step in (h, -h):
                assert poly_shift_scale(p, xi, step) == shift_scale_by_poly_products(p, xi, step)

    def test_divide_linear_examples(self):
        assert Poly([0, 2, -3, 1]).divide_linear(1) == Poly([0, -2, 1])
        assert Poly([-5, 1]).divide_linear(5) == Poly([1])
        assert Poly([0, 0, 1]).divide_linear(0) == Poly([0, 1])

    @given(st.lists(small_rationals, min_size=1, max_size=5), small_rationals)
    def test_divide_linear_remultiplies(self, coeffs, root):
        product = Poly(coeffs) * Poly.linear_root(root)
        assert product.divide_linear(root) * Poly.linear_root(root) == product

    def test_divide_linear_rejects_non_root(self):
        with pytest.raises(ValueError):
            Poly([1, 1]).divide_linear(5)


class TestExactMatrix:
    def test_entry_count_enforced(self):
        with pytest.raises(ValueError):
            ExactMatrix(2, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([[1, 2], [3]])

    def test_dimensions_positive(self):
        with pytest.raises(ValueError):
            ExactMatrix(0, 1, [])

    def test_det_2x2_example(self):
        m = ExactMatrix.from_rows([[2, 3], [5, 6]])
        assert det_fraction_free(m) == -3
        assert det_cofactor(m) == -3

    @pytest.mark.parametrize("n", range(1, 6))
    def test_det_identity(self, n):
        identity = ExactMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])
        assert det_fraction_free(identity) == 1

    def test_det_repeated_row_vanishes(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert det_fraction_free(m) == 0

    def test_det_rejects_non_square(self):
        m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            det_fraction_free(m)
        with pytest.raises(ValueError):
            det_cofactor(m)

    @given(square_matrices(4))
    def test_bareiss_matches_cofactor(self, m):
        assert det_fraction_free(m) == det_cofactor(m)

    def test_bareiss_matches_cofactor_at_size_five(self):
        # pivoting gets exercised by the zero diagonal
        m = ExactMatrix.from_rows(
            [
                [0, 2, Fraction(1, 2), -1, 3],
                [1, 0, 4, Fraction(-2, 3), 0],
                [2, 2, 0, 1, -5],
                [Fraction(3, 4), -1, 1, 0, 2],
                [0, 1, -3, 2, 0],
            ]
        )
        assert det_fraction_free(m) == det_cofactor(m)

    def test_bareiss_matches_cofactor_on_seeded_sweep(self):
        rng = SplitMix64(17)
        for n in range(1, 6):
            for _ in range(10):
                m = ExactMatrix(n, n, [rng.rational() for _ in range(n * n)])
                assert det_fraction_free(m) == det_cofactor(m)

    def test_singular_via_elimination(self):
        m = ExactMatrix.from_rows([[1, 2], [2, 4]])
        assert det_fraction_free(m) == 0


class TestDetIntegerRows:
    """det_integer_rows, the Bareiss loop behind det_fraction_free, against
    the cofactor oracle on plain integer matrices."""

    @staticmethod
    def assert_matches_cofactor(rows):
        expected = det_cofactor(ExactMatrix.from_rows(rows))
        value = det_integer_rows([list(r) for r in rows])
        assert isinstance(value, int)
        assert value == expected
        return value

    def test_seeded_sweep_with_zero_entries(self):
        rng = SplitMix64(41)
        for n in range(1, 7):
            for _ in range(12):
                # a third of the entries are 0, so pivots vanish and rows swap
                rows = [[0 if rng.below(3) == 0 else rng.int_between(-9, 9) for _ in range(n)] for _ in range(n)]
                self.assert_matches_cofactor(rows)

    def test_zero_pivot_needs_a_swap(self):
        assert self.assert_matches_cofactor([[0, 2, 1], [3, 1, 4], [1, 5, 9]]) != 0
        assert self.assert_matches_cofactor([[1, 2, 3], [2, 4, 7], [5, 1, 0]]) != 0

    def test_permutation_matrices_give_their_sign(self):
        # every 4x4 permutation matrix, so pivots vanish in every position
        # and each column swap must flip the sign
        for perm in itertools.permutations(range(4)):
            inversions = sum(1 for i, j in itertools.combinations(range(4), 2) if perm[i] > perm[j])
            rows = [[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)]
            assert det_integer_rows(rows) == (-1) ** inversions

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2], [2, 4]],
            [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [[2, -1, 0, 3], [1, 1, 1, 1], [3, 0, 1, 4], [0, 0, 0, 0]],
            [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [1, 0, 1, 0, 1], [3, 5, 7, 9, 11], [0, 1, 0, 1, 0]],
        ],
    )
    def test_singular(self, rows):
        assert self.assert_matches_cofactor(rows) == 0


def integer_head(head):
    """The head rows, each multiplied by the lcm of its denominators, as
    plain ints, and the product of those lcms."""
    scale, rows = 1, []
    for row in head:
        d, nums = over_common_denominator([Fraction(x) for x in row])
        scale *= d
        rows.append(nums)
    return scale, rows


class TestLastRowCofactors:
    """last_row_cofactors against both determinant oracles: det(m) must equal
    the dot product of the cofactors with any last row, over the scale that
    cleared the head's denominators."""

    def assert_matches_oracles(self, head, last_rows):
        n = len(head) + 1
        scale, rows = integer_head(head)
        cofactors = last_row_cofactors(rows)
        assert len(cofactors) == n
        assert all(type(c) is int for c in cofactors)
        for last_row in last_rows:
            m = ExactMatrix.from_rows(head + [list(last_row)])
            value = Fraction(sum((c * r for c, r in zip(cofactors, last_row)), Fraction(0)), scale)
            assert value == det_fraction_free(m)
            if n <= 6:
                assert value == det_cofactor(m)
        return cofactors

    def test_2x2_example(self):
        assert last_row_cofactors([[2, 3]]) == [-3, 2]

    def test_1x1_has_unit_cofactor(self):
        assert last_row_cofactors([]) == [1]

    def test_seeded_sweep_with_zero_entries(self):
        rng = SplitMix64(33)

        def entry():
            # a third of the entries are 0, so pivots vanish and columns swap
            return Fraction(0) if rng.below(3) == 0 else rng.rational()

        for n in range(1, 9):
            for _ in range(8):
                head = [[entry() for _ in range(n)] for _ in range(n - 1)]
                last_rows = [[entry() for _ in range(n)] for _ in range(3)]
                self.assert_matches_oracles(head, last_rows)

    def test_head_needing_a_column_swap(self):
        head = [[0, 2, Fraction(1, 3)], [0, 5, -1]]
        cofactors = self.assert_matches_oracles(head, [[1, 0, 0], [2, -3, Fraction(5, 7)]])
        assert cofactors[0] != 0

    def test_zero_leading_minor_with_full_rank(self):
        # the leading 2x2 minor of the head is 0, the 2x2 minors on columns
        # (0, 2) and (1, 2) are not
        head = [[1, 2, 3], [2, 4, Fraction(13, 2)]]
        cofactors = self.assert_matches_oracles(head, [[0, 0, 1], [1, 1, 1], [Fraction(-1, 2), 3, 4]])
        assert cofactors[2] == 0
        assert cofactors[0] != 0 and cofactors[1] != 0

    @pytest.mark.parametrize(
        "head",
        [
            [[1, 2, 3], [2, 4, 6]],
            [[0, 0, 0], [1, 2, 3]],
            [[1, 0, 2, 1], [0, 1, 1, 1], [1, 1, 3, 2]],
            [[Fraction(1, 2), 1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]],
        ],
    )
    def test_rank_deficient_head_gives_zero_cofactors(self, head):
        cofactors = self.assert_matches_oracles(head, [[1] * len(head[0]), list(range(len(head[0])))])
        assert cofactors == [0] * len(head[0])

    def test_rejects_non_square(self):
        # two rows need width 3; a ragged head is rejected too
        for rows in ([[1, 2], [3, 4]], [[1, 2, 3], [4, 5]]):
            with pytest.raises(ValueError):
                last_row_cofactors(rows)
