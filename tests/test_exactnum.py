import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degdet.exactnum import (
    CONTENT_BITS,
    NEG_INF,
    Poly,
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

from oracles import (
    coeffs_derivative,
    coeffs_product,
    coeffs_shift_scale,
    coeffs_sum,
    coeffs_value,
    det_cofactor,
    divide_linear,
    int_between,
    trimmed,
)

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
nonzero_rationals = small_rationals.filter(lambda q: q != 0)


def shift_scale_by_poly_products(p, xi, h):
    """Reference for poly_shift_scale: Horner's rule on Poly products,
    acc <- acc * (xi + h t) + c_k, all in Fraction arithmetic."""
    line = Poly([xi, h])
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = acc * line + c
    return acc


def square_matrices(max_size):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(
            st.lists(small_rationals, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


class TestRationals:
    @given(small_rationals)
    def test_format_parse_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize("text,expected", [("3/4", Fraction(3, 4)), ("-6/4", Fraction(-3, 2)), ("7", 7), ("+2/6", Fraction(1, 3))])
    def test_parse_accepts_p_over_q(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1.5", "", "a/b", "1/0", "1/", "/2", "1e3", "1 / 2", "²", "1/²"])
    def test_parse_rejects_non_rational(self, text):
        with pytest.raises(ValueError, match="rational literal"):
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
        assert Poly().degree is NEG_INF
        assert not isinstance(Poly().degree, int)
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

    def test_derivative_matches_repeated_first_derivatives(self):
        def first_derivative(p):  # the power rule, one order at a time
            return Poly([k * c for k, c in enumerate(p.coeffs)][1:])

        rng = SplitMix64(41)
        polys = [Poly()] + [Poly([rng.rational() for _ in range(d)] + [rng.nonzero_rational()]) for d in range(9)]
        for p in polys:
            top = 0 if p.is_zero else p.degree
            repeated = p
            for n in range(top + 3):
                assert p.derivative(n) == repeated
                repeated = first_derivative(repeated)

    def test_evaluation_matches_fraction_horner(self):
        def horner(p, x):  # Fraction by Fraction, as Poly.__call__ once did
            acc = Fraction(0)
            for c in reversed(p.coeffs):
                acc = acc * x + c
            return acc

        rng = SplitMix64(43)
        polys = [Poly()] + [
            Poly([rng.rational() for _ in range(d)] + [rng.nonzero_rational()]) for d in range(9) for _ in range(3)
        ]
        points = [Fraction(0), Fraction(1), Fraction(6), Fraction(-4), Fraction(-1, 2), Fraction(-7, 3),
                  Fraction(-9, 4), Fraction(5, 12)] + [rng.rational() for _ in range(8)]
        for p in polys:
            for x in points:
                value = p(x)
                assert type(value) is Fraction
                assert value == horner(p, x)
        assert Poly([Fraction(1, 2), Fraction(-2, 3), 3])("-3/4") == horner(Poly(["1/2", "-2/3", 3]), Fraction(-3, 4))
        assert Poly([Fraction(1, 2), 0, 1])(-3) == Fraction(19, 2)

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
        polys = [Poly()] + [Poly([rng.rational() for _ in range(d)] + [rng.nonzero_rational()]) for d in range(41)]
        for p in polys:
            xi, h = rng.rational(), rng.nonzero_rational()
            for step in (h, -h):
                assert poly_shift_scale(p, xi, step) == shift_scale_by_poly_products(p, xi, step)

    def test_divide_linear_examples(self):
        assert divide_linear(Poly([0, 2, -3, 1]), 1) == Poly([0, -2, 1])
        assert divide_linear(Poly([-5, 1]), 5) == Poly([1])
        assert divide_linear(Poly([0, 0, 1]), 0) == Poly([0, 1])

    @given(st.lists(small_rationals, min_size=1, max_size=5), small_rationals)
    def test_divide_linear_remultiplies(self, coeffs, root):
        product = Poly(coeffs) * Poly.linear_root(root)
        assert divide_linear(product, root) * Poly.linear_root(root) == product

    def test_divide_linear_rejects_non_root(self):
        with pytest.raises(ValueError):
            divide_linear(Poly([1, 1]), 5)


def assert_canonical(p):
    """p holds its value in lowest terms: den > 0, gcd(den, *nums) == 1 and
    no trailing zero, with coeffs the Fractions nums[k] / den."""
    assert type(p.den) is int and all(type(n) is int for n in p.nums)
    assert p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.coeffs == tuple(Fraction(n, p.den) for n in p.nums)


# numerator lists that end in zeros as often as not, and the empty list
padded_numerators = st.tuples(
    st.lists(st.integers(min_value=-60, max_value=60), max_size=6),
    st.integers(min_value=0, max_value=3),
).map(lambda pair: pair[0] + [0] * pair[1])
nonzero_denominators = st.integers(min_value=-36, max_value=36).filter(lambda d: d != 0)
rational_lists = st.lists(small_rationals, max_size=6)


class TestPolyCanonicalForm:
    @given(nonzero_denominators, padded_numerators)
    def test_over_equals_the_public_constructor(self, den, nums):
        p = Poly.over(den, nums)
        q = Poly([Fraction(n, den) for n in nums])
        assert p == q and hash(p) == hash(q)
        assert (p.den, p.nums) == (q.den, q.nums)
        assert_canonical(p)
        assert_canonical(q)
        assert p.coeffs == trimmed([Fraction(n, den) for n in nums])

    @pytest.mark.parametrize(
        "den,nums,form",
        [(-6, [4, 2, 0], (3, (-2, -1))), (-5, [0, 0], (1, ())), (7, [], (1, ())), (4, (2, 6), (2, (1, 3))),
         (1, [0, 5], (1, (0, 5)))],
    )
    def test_over_examples(self, den, nums, form):
        p = Poly.over(den, nums)
        assert (p.den, p.nums) == form
        assert p == Poly([Fraction(n, den) for n in nums])

    def test_equal_values_from_different_spellings_hash_equal(self):
        values = [Poly([Fraction(1, 2), 1]), Poly.over(2, [1, 2]), Poly.over(-4, [-2, -4, 0]), Poly(["1/2", "2/2", 0])]
        assert len(set(values)) == 1
        assert Poly.over(2, [1, 2]) != Poly.over(2, [1, 3])

    @given(rational_lists, rational_lists, small_rationals)
    def test_sum_difference_and_products(self, a, b, scalar):
        p, q = Poly(a), Poly(b)
        cases = [
            (p + q, coeffs_sum(a, b)),
            (p - q, coeffs_sum(a, [-c for c in b])),
            (-p, trimmed([-c for c in a])),
            (p * q, coeffs_product(a, b)),
            (p * scalar, coeffs_product(a, [scalar])),
            (p + scalar, coeffs_sum(a, [scalar])),
        ]
        for result, reference in cases:
            assert_canonical(result)
            assert result.coeffs == reference

    @given(rational_lists, st.integers(min_value=0, max_value=7))
    def test_derivative(self, a, n):
        result = Poly(a).derivative(n)
        assert_canonical(result)
        assert result.coeffs == coeffs_derivative(a, n)

    @given(rational_lists, small_rationals)
    def test_evaluation(self, a, x):
        value = Poly(a)(x)
        assert type(value) is Fraction
        assert value == coeffs_value(a, x)

    @given(rational_lists, small_rationals, nonzero_rationals)
    def test_shift_scale(self, a, xi, h):
        result = poly_shift_scale(Poly(a), xi, h)
        assert_canonical(result)
        assert result.coeffs == coeffs_shift_scale(a, xi, h)


class TestDetFractionFree:
    """det_fraction_free on rows of rationals, against the cofactor oracle."""

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], [5]]])
    def test_rejects_ragged_rows(self, rows):
        with pytest.raises(ValueError, match="square matrix"):
            det_fraction_free(rows)

    def test_rejects_the_empty_matrix(self):
        with pytest.raises(ValueError, match="square matrix"):
            det_fraction_free([])

    def test_det_2x2_example(self):
        m = [[2, 3], [5, 6]]
        assert det_fraction_free(m) == -3
        assert det_cofactor(m) == -3

    @pytest.mark.parametrize("n", range(1, 6))
    def test_det_identity(self, n):
        identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert det_fraction_free(identity) == 1

    def test_det_repeated_row_vanishes(self):
        m = [[1, 2, 3], [4, 5, 6], [1, 2, 3]]
        assert det_fraction_free(m) == 0

    def test_det_rejects_non_square(self):
        m = [[1, 2, 3], [4, 5, 6]]
        with pytest.raises(ValueError):
            det_fraction_free(m)
        with pytest.raises(ValueError):
            det_cofactor(m)

    @given(square_matrices(4))
    def test_bareiss_matches_cofactor(self, m):
        assert det_fraction_free(m) == det_cofactor(m)

    def test_bareiss_matches_cofactor_at_size_five(self):
        # pivoting gets exercised by the zero diagonal
        m = [
            [0, 2, Fraction(1, 2), -1, 3],
            [1, 0, 4, Fraction(-2, 3), 0],
            [2, 2, 0, 1, -5],
            [Fraction(3, 4), -1, 1, 0, 2],
            [0, 1, -3, 2, 0],
        ]
        assert det_fraction_free(m) == det_cofactor(m)

    def test_bareiss_matches_cofactor_on_seeded_sweep(self):
        rng = SplitMix64(17)
        for n in range(1, 6):
            for _ in range(10):
                m = [[rng.rational() for _ in range(n)] for _ in range(n)]
                assert det_fraction_free(m) == det_cofactor(m)

    def test_singular_via_elimination(self):
        m = [[1, 2], [2, 4]]
        assert det_fraction_free(m) == 0


class TestDetIntegerRows:
    """det_integer_rows, the Bareiss loop behind det_fraction_free, against
    the cofactor oracle on plain integer matrices."""

    @staticmethod
    def assert_matches_cofactor(rows):
        expected = det_cofactor(rows)
        value = det_integer_rows([list(r) for r in rows])
        assert isinstance(value, int)
        assert value == expected
        return value

    def test_seeded_sweep_with_zero_entries(self):
        rng = SplitMix64(41)
        for n in range(1, 7):
            for _ in range(12):
                # a third of the entries are 0, so pivots vanish and rows swap
                rows = [[0 if rng.below(3) == 0 else int_between(rng, -9, 9) for _ in range(n)] for _ in range(n)]
                self.assert_matches_cofactor(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0]], [[-7]], [[3]], [[-(2**200)]],
            [[0, 0], [0, 0]], [[0, 5], [-3, 0]], [[0, 1], [1, 0]], [[-2, 3], [4, -6]],
            [[-4, -1], [7, -9]], [[2**100, -3], [5, -(2**90)]],
        ],
    )
    def test_one_by_one_and_two_by_two(self, rows):
        # the base cases a and ad - bc, with zero (so no pivot) and
        # negative entries, against the permutation expansion
        self.assert_matches_cofactor(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0, 0], [1, 2, 3], [4, 5, 6]], [[0, 2, 1], [3, 1, 4], [1, 5, 9]], [[1, 2, 3], [2, 4, 7], [5, 1, 0]],
            [[-3, 0, 7], [0, 0, 5], [2, -9, -1]], [[2**100, 3, -(2**90)], [5, -(2**80), 7], [2**70, 1, 2**60]],
        ],
    )
    def test_three_by_three(self, rows):
        # the base case, the cofactor expansion along the first row, with
        # zero pivots, negative and wide entries; the rows are left as given
        given = [list(r) for r in rows]
        self.assert_matches_cofactor(rows)
        det_integer_rows(given)
        assert given == rows

    def test_zero_pivot_needs_a_swap(self):
        # 3x3 is a base case, so Bareiss's column swaps need 4x4: the first
        # pivot is 0, then the second pivot vanishes after the first step
        assert self.assert_matches_cofactor([[0, 2, 1], [3, 1, 4], [1, 5, 9]]) != 0
        assert self.assert_matches_cofactor([[1, 2, 3], [2, 4, 7], [5, 1, 0]]) != 0
        assert self.assert_matches_cofactor([[0, 2, 1, 3], [3, 1, 4, 1], [1, 5, 9, 2], [6, 5, 3, 5]]) != 0
        assert self.assert_matches_cofactor([[1, 2, 3, 4], [2, 4, 7, 1], [5, 1, 0, 2], [3, 3, 1, 1]]) != 0

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
            m = head + [list(last_row)]
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


class TestContentStep:
    """The Bareiss content step fires on pivots wider than CONTENT_BITS, which
    the small-entry sweeps above never reach: the same oracles on entries
    wider than that."""

    BITS = CONTENT_BITS + 88

    def wide(self, rng):
        """A signed integer of exactly BITS bits."""
        words = (self.BITS + 63) // 64
        value = sum(rng.next_u64() << (64 * w) for w in range(words)) >> (64 * words - self.BITS)
        value |= 1 << (self.BITS - 1)
        return -value if rng.below(2) else value

    @staticmethod
    def det_and_cofactors_match_oracle(rows):
        """det_integer_rows of rows, and last_row_cofactors of all rows but
        the last, against det_cofactor; returns the determinant."""
        expected = det_cofactor(rows)
        assert det_integer_rows([list(r) for r in rows]) == expected
        cofactors = last_row_cofactors([list(r) for r in rows[:-1]])
        assert sum(c * x for c, x in zip(cofactors, rows[-1])) == expected
        return expected

    def test_seeded_sweep_with_zero_entries(self):
        rng = SplitMix64(59)
        for n in range(1, 7):
            for _ in range(8):
                # a third of the entries are 0, so pivots after a content
                # step vanish and columns swap
                rows = [[0 if rng.below(3) == 0 else self.wide(rng) for _ in range(n)] for _ in range(n)]
                self.det_and_cofactors_match_oracle(rows)

    def test_column_swap_after_a_content_step(self):
        rng = SplitMix64(61)
        a, b, c, d, e = (self.wide(rng) for _ in range(5))
        factor = self.wide(rng)
        # row 0 loses its content at step 0, then row 1's pivot is 0
        rows = [[factor * a, factor * b, factor * c], [0, 0, d], [e, a, b]]
        assert self.det_and_cofactors_match_oracle(rows) != 0

    def test_rows_sharing_a_wide_factor(self):
        rng = SplitMix64(67)
        factor = self.wide(rng)
        for n in range(1, 7):
            for _ in range(8):
                rows = [[factor * int_between(rng, -9, 9) for _ in range(n)] for _ in range(n)]
                self.det_and_cofactors_match_oracle(rows)
                # g > 1 at step 0: the pivot row is left without its content
                head = [[factor * int_between(rng, 1, 9) for _ in range(n + 1)]] + [
                    [factor * int_between(rng, -9, 9) for _ in range(n + 1)] for _ in range(n - 1)
                ]
                last_row_cofactors(head)
                assert math.gcd(*head[0]) == 1

    def test_content_steps_at_consecutive_pivots(self):
        # each row is its own wide factor times small entries, and every
        # elimination step keeps a row's factor in the rows below the pivot:
        # each pivot row still carries it when its step comes and loses it
        # there, so content steps fire at every pivot in turn
        rng = SplitMix64(73)
        for n in (4, 5, 6):
            factors = [self.wide(rng) for _ in range(n)]
            rows = [[f * int_between(rng, 1, 9) * (-1) ** rng.below(2) for _ in range(n)] for f in factors]
            assert self.det_and_cofactors_match_oracle(rows) != 0
            stored = [list(r) for r in rows]
            det_integer_rows(stored)
            for k in range(n - 1):
                assert math.gcd(*stored[k][k:]) == 1

    def test_wide_dependent_rows(self):
        rng = SplitMix64(71)
        for n in range(2, 7):
            for i, j in itertools.permutations(range(n), 2):
                rows = [[self.wide(rng) for _ in range(n)] for _ in range(n)]
                rows[j] = [x << self.BITS for x in rows[i]]
                assert self.det_and_cofactors_match_oracle(rows) == 0
                if n - 1 not in (i, j):
                    assert last_row_cofactors([list(r) for r in rows[:-1]]) == [0] * n
