import math
from fractions import Fraction

import pytest

from degdet.combinat import tau
from degdet.degreematrix import alternating_weighted_sum, sigma_ell
from degdet.exactnum import (
    NEG_INF,
    Poly,
    det_fraction_free,
    last_row_cofactors,
    poly_shift_scale,
)
from degdet.interp import (
    MODE_CLOSED_FORM,
    MODE_MATRIX,
    EquidistantProblem,
    GeneralProblem,
    K_quotient_via_tau,
    compare_general_expansion,
    derivative_at_left_node,
    detect_degree,
    general_expansion,
    interpolate_eq14,
    lagrange_basis_hat,
    lagrange_interpolate,
    newton_interpolate,
    poly_K,
    sigma_lsk,
)
from degdet.rng import SplitMix64
from degdet.verify import run_suite


def random_problem(rng, ell):
    return EquidistantProblem(
        ell, rng.rational(), rng.nonzero_rational(), [rng.rational() for _ in range(ell + 1)]
    )


def forward_difference_degree(values):
    """A third degree route, sharing no code with the detector: the classical
    rule that the interpolant through a_0..a_ell on an equidistant grid is
    sum_d C(t, d) Delta^d a_0 (Newton's forward form), so its degree is the
    largest d with Delta^d a_0 != 0.  The differences run in plain ints on
    the values over the lcm L of their denominators."""
    common = math.lcm(*(v.denominator for v in values))
    column = [v.numerator * (common // v.denominator) for v in values]
    degree = NEG_INF
    for d in range(len(values)):
        if column[0]:
            degree = d
        column = [b - a for a, b in zip(column, column[1:])]
    return degree


class TestNodalPolynomial:
    def test_small_cases(self):
        assert poly_K(2) == Poly([0, 2, -3, 1])
        assert poly_K(1) == Poly([0, -1, 1])

    def test_roots_and_shape(self):
        for ell in range(1, 8):
            k = poly_K(ell)
            assert k.degree == ell + 1
            assert k.leading_coefficient == 1
            for j in range(ell + 1):
                assert k(j) == 0

    def test_rejects_ell_zero(self):
        with pytest.raises(ValueError):
            poly_K(0)


class TestKQuotient:
    @pytest.mark.parametrize(
        "ell,j,expected",
        [
            (2, 1, Poly([0, -2, 1])),
            (2, 0, Poly([2, -3, 1])),
            (1, 0, Poly([-1, 1])),
        ],
    )
    def test_examples(self, ell, j, expected):
        assert K_quotient_via_tau(ell, j) == expected

    def test_matches_synthetic_division(self):
        for ell in range(1, 9):
            nodal = poly_K(ell)
            for j in range(ell + 1):
                assert K_quotient_via_tau(ell, j) == nodal.divide_linear(j)

    def test_remultiplication_recovers_nodal_polynomial(self):
        for ell in range(1, 9):
            nodal = poly_K(ell)
            for j in range(ell + 1):
                assert K_quotient_via_tau(ell, j) * Poly.linear_root(j) == nodal

    def test_rejects_j_out_of_range(self):
        with pytest.raises(ValueError):
            K_quotient_via_tau(2, 3)


class TestLagrangeBasis:
    def test_linear_pair(self):
        assert lagrange_basis_hat(1, 0) == Poly([1, -1])
        assert lagrange_basis_hat(1, 1) == Poly([0, 1])

    def test_kronecker_property(self):
        for ell in range(1, 7):
            for j in range(ell + 1):
                basis = lagrange_basis_hat(ell, j)
                assert basis.degree == ell
                for i in range(ell + 1):
                    assert basis(i) == (1 if i == j else 0)

    def test_rejects_j_out_of_range(self):
        with pytest.raises(ValueError):
            lagrange_basis_hat(3, -1)


class TestDirectInterpolation:
    def test_parabola_unit_grid(self):
        p = EquidistantProblem(2, 0, 1, [0, 1, 4])
        assert newton_interpolate(p.nodes(), p.a) == Poly([0, 0, 1])

    def test_parabola_stretched_grid(self):
        p = EquidistantProblem(2, 0, 2, [0, 4, 16])
        assert newton_interpolate(p.nodes(), p.a) == Poly([0, 0, 1])

    def test_constant_data(self):
        p = EquidistantProblem(3, 5, Fraction(1, 2), [7, 7, 7, 7])
        assert newton_interpolate(p.nodes(), p.a) == Poly([7])

    def test_interpolation_property(self):
        rng = SplitMix64(21)
        for ell in range(1, 9):
            p = random_problem(rng, ell)
            q = lagrange_interpolate(p.nodes(), p.a)
            assert q.degree <= ell or q.is_zero
            for i, node in enumerate(p.nodes()):
                assert q(node) == p.a[i]

    def test_nodes_are_the_grid(self):
        rng = SplitMix64(31)
        for ell in (1, 2, 7, 30):
            for _ in range(5):
                p = random_problem(rng, ell)
                assert p.nodes() == tuple(p.xi + i * p.h for i in range(ell + 1))
        assert EquidistantProblem(3, Fraction(-1, 6), Fraction(-3, 4), [0] * 4).nodes() == (
            Fraction(-1, 6), Fraction(-11, 12), Fraction(-5, 3), Fraction(-29, 12))

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            EquidistantProblem(2, 0, 0, [1, 2, 3])
        with pytest.raises(ValueError):
            EquidistantProblem(2, 0, 1, [1, 2])


def exact_degree_poly(rng, degree):
    return Poly([rng.rational() for _ in range(degree)] + [rng.nonzero_rational()])


def value_vectors(rng, nodes):
    """Random, all-zero and all-equal values, plus values of a polynomial of
    every degree below len(nodes) - 1 (a constructed degree drop)."""
    count = len(nodes)
    vectors = [[rng.rational() for _ in range(count)], [0] * count, [rng.nonzero_rational()] * count]
    vectors += [[q(x) for x in nodes] for q in (exact_degree_poly(rng, d) for d in range(count - 1))]
    return vectors


class TestNewtonOracle:
    def test_equals_lagrange_on_equidistant_nodes(self):
        rng = SplitMix64(71)
        for ell in range(1, 9):
            for trial in range(3):
                h = rng.nonzero_rational()
                h = -abs(h) if trial == 1 else h
                p = EquidistantProblem(ell, rng.rational(), h, [0] * (ell + 1))
                for values in value_vectors(rng, p.nodes()):
                    assert newton_interpolate(p.nodes(), values) == lagrange_interpolate(p.nodes(), values)

    def test_equals_lagrange_on_general_nodes(self):
        rng = SplitMix64(72)
        grids = [(3, Fraction(-1, 2), 0, Fraction(-7, 3), Fraction(5, 4)), (-4, -9, -1, Fraction(-5, 2))]
        grids += [rng.distinct_rationals(ell + 1) for ell in range(1, 9) for _ in range(3)]
        assert any(list(nodes) != sorted(nodes) and min(nodes) < 0 for nodes in grids[2:])
        for nodes in grids:
            for values in value_vectors(rng, nodes):
                assert newton_interpolate(nodes, values) == lagrange_interpolate(nodes, values)

    def test_constructed_degree_drop_is_exact(self):
        rng = SplitMix64(73)
        nodes = [Fraction(-3, 2) + i * Fraction(-2, 5) for i in range(8)]
        for degree in range(7):
            q = exact_degree_poly(rng, degree)
            assert newton_interpolate(nodes, [q(x) for x in nodes]) == q

    @pytest.mark.parametrize("ell", [16, 32, 48])
    def test_reproduces_values_at_large_ell(self, ell):
        rng = SplitMix64(ell)
        equidistant = random_problem(rng, ell)
        for nodes, values in [(equidistant.nodes(), equidistant.a), (rng.distinct_rationals(ell + 1), equidistant.a)]:
            q = newton_interpolate(nodes, values)
            assert q.degree <= ell
            assert [q(x) for x in nodes] == list(values)

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError):
            newton_interpolate([0, 1], [1])
        with pytest.raises(ValueError):
            newton_interpolate([0, Fraction(1, 2), Fraction(2, 4)], [1, 2, 3])

    def test_independent_of_the_closed_forms(self, monkeypatch):
        rng = SplitMix64(74)
        p = random_problem(rng, 7)
        expected = lagrange_interpolate(p.nodes(), p.a)

        def forbidden(*args, **kwargs):
            raise AssertionError("the interpolation oracle must not use the closed forms")

        for name in (
            "degdet.combinat.tau",
            "degdet.degreematrix.AlternatingSums",
            "degdet.degreematrix.alternating_weighted_sum",
            "degdet.degreematrix.sigma_ell",
            "degdet.interp.AlternatingSums",
            "degdet.interp.sigma_ell",
            "degdet.interp.poly_K",
            "degdet.interp.tau",
        ):
            monkeypatch.setattr(name, forbidden)
        assert newton_interpolate(p.nodes(), p.a) == expected

    def test_verify_suites_never_call_lagrange(self, monkeypatch):
        calls = []

        def counting_lagrange(nodes, values):
            calls.append(len(nodes))
            return lagrange_interpolate(nodes, values)

        monkeypatch.setattr("degdet.interp.lagrange_interpolate", counting_lagrange)
        for suite in ("eq10", "eq14", "theorem1", "remark5"):
            assert run_suite(suite, max_ell=4, trials=2, seed=5).passed
        assert calls == []


class TestCoefficientFormula:
    def test_linear_closed_form(self):
        rng = SplitMix64(22)
        for _ in range(20):
            a0, a1 = rng.rational(), rng.rational()
            p = EquidistantProblem(1, rng.rational(), rng.nonzero_rational(), [a0, a1])
            assert interpolate_eq14(p) == Poly([a0, a1 - a0])

    def test_parabola(self):
        p = EquidistantProblem(2, 0, 1, [0, 1, 4])
        assert interpolate_eq14(p) == Poly([0, 0, 1])

    def test_zero_vector(self):
        p = EquidistantProblem(3, 1, 2, [0, 0, 0, 0])
        assert interpolate_eq14(p).is_zero

    def test_matches_shifted_direct_interpolant(self):
        rng = SplitMix64(23)
        for ell in range(1, 6):
            for _ in range(10):
                p = random_problem(rng, ell)
                shifted = poly_shift_scale(newton_interpolate(p.nodes(), p.a), p.xi, p.h)
                assert interpolate_eq14(p) == shifted

    @pytest.mark.parametrize("ell", [64, 96])
    def test_reproduces_every_value_at_large_ell(self, ell):
        rng = SplitMix64(200 + ell)
        p = random_problem(rng, ell)
        normalized = interpolate_eq14(p)
        assert normalized.degree <= ell
        assert [normalized(i) for i in range(ell + 1)] == list(p.a)
        assert normalized == poly_shift_scale(newton_interpolate(p.nodes(), p.a), p.xi, p.h)

    @pytest.mark.parametrize("ell", [13, 24, 40])
    def test_matches_shifted_direct_interpolant_past_subset_limit(self, ell):
        # tau switches from subset enumeration to the product expansion above
        # ell = 12, and the degree report takes its b[k] from this formula
        rng = SplitMix64(100 + ell)
        for _ in range(2):
            p = random_problem(rng, ell)
            assert interpolate_eq14(p) == poly_shift_scale(newton_interpolate(p.nodes(), p.a), p.xi, p.h)


class TestDerivativeWeights:
    @pytest.mark.parametrize(
        "ell,s,k,expected",
        [(2, 0, 0, Fraction(1)), (2, 1, 1, Fraction(1, 2)), (3, 1, 0, Fraction(2))],
    )
    def test_examples(self, ell, s, k, expected):
        assert sigma_lsk(ell, s, k) == expected

    def test_index_validation(self):
        with pytest.raises(ValueError):
            sigma_lsk(2, 3, 0)
        with pytest.raises(ValueError):
            sigma_lsk(2, 1, 2)


class TestDerivativeAtLeftNode:
    def test_second_derivative_of_parabola(self):
        p = EquidistantProblem(2, 0, 1, [0, 1, 4])
        assert derivative_at_left_node(p, 0) == 2

    def test_grid_scaling(self):
        p = EquidistantProblem(2, 0, 2, [0, 4, 16])
        assert derivative_at_left_node(p, 0) == 2

    def test_constant_data_kills_lower_orders(self):
        p = EquidistantProblem(3, 2, Fraction(-1, 3), [4, 4, 4, 4])
        for s in range(3):
            assert derivative_at_left_node(p, s) == 0

    def test_matches_symbolic_oracle(self):
        rng = SplitMix64(24)
        for ell in range(1, 6):
            for s in range(ell + 1):
                for _ in range(5):
                    p = random_problem(rng, ell)
                    oracle = newton_interpolate(p.nodes(), p.a).derivative(ell - s)(p.xi)
                    assert derivative_at_left_node(p, s) == oracle

    def test_matches_fraction_weight_formula(self):
        # the integer route against the formula as stated, in Fractions
        rng = SplitMix64(26)
        for ell in (1, 2, 5, 9, 17):
            p = random_problem(rng, ell)
            for s in range(ell + 1):
                weighted = sum(sigma_lsk(ell, s, k) * alternating_weighted_sum(ell, k, p.a) for k in range(s + 1))
                assert derivative_at_left_node(p, s) == p.h ** (s - ell) * weighted

    @pytest.mark.parametrize("ell", [16, 24])
    def test_matches_symbolic_oracle_at_larger_ell(self, ell):
        rng = SplitMix64(300 + ell)
        p = random_problem(rng, ell)
        oracle = newton_interpolate(p.nodes(), p.a)
        for s in range(ell + 1):
            assert derivative_at_left_node(p, s) == oracle.derivative(ell - s)(p.xi)

    def test_worked_low_order_expansions(self):
        # rearranged low-order forms: (-1)^(ell-s) ell!/(ell-s)! times the
        # (ell-s)-th derivative of the normalized interpolant at 0 equals the
        # alternating combination of symmetric sums and moment sums
        rng = SplitMix64(25)
        for ell in range(1, 6):
            p = random_problem(rng, ell)
            normalized = poly_shift_scale(newton_interpolate(p.nodes(), p.a), p.xi, p.h)
            sums = [alternating_weighted_sum(ell, k, p.a) for k in range(3)]
            for s in range(min(2, ell) + 1):
                lhs = (
                    (-1) ** (ell - s)
                    * Fraction(math.factorial(ell), math.factorial(ell - s))
                    * normalized.derivative(ell - s)(0)
                )
                if s == 0:
                    rhs = tau(ell, 0, 0) * sums[0]
                elif s == 1:
                    rhs = tau(ell, 1, 0) * sums[0] - tau(ell, 0, 0) * sums[1]
                else:
                    rhs = (
                        tau(ell, 2, 0) * sums[0]
                        - tau(ell, 1, 0) * sums[1]
                        + tau(ell, 0, 0) * sums[2]
                    )
                assert lhs == rhs

    def test_rejects_s_out_of_range(self):
        p = EquidistantProblem(2, 0, 1, [0, 1, 4])
        with pytest.raises(ValueError):
            derivative_at_left_node(p, 3)


class TestDegreeDetection:
    def test_linear_data_on_cubic_grid(self):
        p = EquidistantProblem(3, 0, 1, [0, 1, 2, 3])
        detection = detect_degree(p)
        assert detection.degree == 1
        assert detection.witness_m == 2
        assert detection.determinants == (0, 0, -3072)

    def test_constant_data(self):
        assert detect_degree(EquidistantProblem(2, 0, 1, [5, 5, 5])).degree == 0

    def test_full_degree_data(self):
        assert detect_degree(EquidistantProblem(2, 0, 1, [0, 1, 4])).degree == 2

    def test_zero_vector(self):
        detection = detect_degree(EquidistantProblem(2, 3, 2, [0, 0, 0]))
        assert detection.degree is NEG_INF
        assert detection.witness_m is None
        assert detection.determinants == (0, 0, 0)

    def test_modes_agree(self):
        rng = SplitMix64(26)
        for ell in range(1, 5):
            for _ in range(5):
                p = random_problem(rng, ell)
                closed = detect_degree(p, MODE_CLOSED_FORM)
                matrix = detect_degree(p, MODE_MATRIX)
                assert closed == matrix

    def test_modes_agree_up_to_ell_20(self):
        rng = SplitMix64(34)
        for ell in range(1, 21):
            value = rng.nonzero_rational()
            target = rng.below(ell + 1)
            poly = Poly([rng.rational() for _ in range(target)] + [rng.nonzero_rational()])
            xi, h = rng.rational(), rng.nonzero_rational()
            problems = [
                random_problem(rng, ell),
                EquidistantProblem(ell, xi, h, [poly(xi + i * h) for i in range(ell + 1)]),
                EquidistantProblem(ell, xi, h, [value] * (ell + 1)),
            ]
            for p in problems:
                assert detect_degree(p, MODE_MATRIX) == detect_degree(p, MODE_CLOSED_FORM)

    def test_modes_agree_on_all_equal_scan_at_ell_32(self):
        p = EquidistantProblem(32, Fraction(-5, 3), Fraction(7, 4), [Fraction(-11, 6)] * 33)
        matrix = detect_degree(p, MODE_MATRIX)
        assert matrix.witness_m == 32
        assert matrix == detect_degree(p, MODE_CLOSED_FORM)

    @pytest.mark.parametrize("mode,expected_cofactor_calls", [(MODE_CLOSED_FORM, 0), (MODE_MATRIX, 1)])
    def test_matrix_mode_eliminates_once_per_detection(self, monkeypatch, mode, expected_cofactor_calls):
        det_calls = []
        cofactor_calls = []

        def counting_det(m):
            det_calls.append(m)
            return det_fraction_free(m)

        def counting_cofactors(rows):
            cofactor_calls.append(len(rows))
            return last_row_cofactors(rows)

        for module in ("degdet.exactnum", "degdet.degreematrix", "degdet.interp"):
            monkeypatch.setattr(f"{module}.det_fraction_free", counting_det, raising=False)
        monkeypatch.setattr("degdet.degreematrix.last_row_cofactors", counting_cofactors)
        problems = [EquidistantProblem(10, 0, 1, [3] * 11), EquidistantProblem(6, 1, 2, [0, 1, 4, 9, 16, 25, 36])]
        detections = [detect_degree(p, mode) for p in problems]
        assert [d.witness_m for d in detections] == [10, 4]
        assert det_calls == []
        assert len(cofactor_calls) == expected_cofactor_calls * len(problems)

    @pytest.mark.parametrize("mode,expected_calls", [(MODE_CLOSED_FORM, 1), (MODE_MATRIX, 0)])
    def test_sigma_ell_once_per_detection(self, monkeypatch, mode, expected_calls):
        calls = []

        def counting_sigma_ell(ell):
            calls.append(ell)
            return sigma_ell(ell)

        monkeypatch.setattr("degdet.interp.sigma_ell", counting_sigma_ell)
        detection = detect_degree(EquidistantProblem(10, 0, 1, [3] * 11), mode)
        assert detection.witness_m == 10
        assert len(calls) == expected_calls

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            detect_degree(EquidistantProblem(1, 0, 1, [1, 2]), "fast")

    def test_detection_ignores_the_grid(self):
        rng = SplitMix64(27)
        for ell in range(1, 6):
            a = [rng.rational() for _ in range(ell + 1)]
            p1 = EquidistantProblem(ell, rng.rational(), rng.nonzero_rational(), a)
            p2 = EquidistantProblem(ell, rng.rational(), rng.nonzero_rational(), a)
            assert detect_degree(p1).degree == detect_degree(p2).degree

    def test_round_trip_with_constructed_degrees(self):
        rng = SplitMix64(28)
        for ell in range(1, 6):
            for target in (NEG_INF, *range(ell + 1)):
                if target is NEG_INF:
                    poly = Poly.zero()
                else:
                    poly = Poly([rng.rational() for _ in range(target)] + [rng.nonzero_rational()])
                xi, h = rng.rational(), rng.nonzero_rational()
                p = EquidistantProblem(ell, xi, h, [poly(xi + i * h) for i in range(ell + 1)])
                assert detect_degree(p).degree == target

    def test_matches_interpolant_degree(self):
        rng = SplitMix64(29)
        for ell in range(1, 6):
            for _ in range(10):
                p = random_problem(rng, ell)
                assert detect_degree(p).degree == newton_interpolate(p.nodes(), p.a).degree

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6, 8, 11, 16, 20, 32, 50, 100, 200])
    def test_matches_forward_differences(self, ell):
        # matrix mode costs one O(ell^3) elimination, so it runs to ell = 20
        rng = SplitMix64(400 + ell)
        xi, h = rng.rational(), rng.nonzero_rational()
        target = rng.below(ell + 1)
        poly = Poly([rng.rational() for _ in range(target)] + [rng.nonzero_rational()])
        constructed = EquidistantProblem(ell, xi, h, [poly(xi + i * h) for i in range(ell + 1)])
        all_equal = EquidistantProblem(ell, xi, h, [rng.nonzero_rational()] * (ell + 1))
        assert forward_difference_degree(constructed.a) == target
        assert forward_difference_degree(all_equal.a) == 0
        assert forward_difference_degree([Fraction(0)] * (ell + 1)) is NEG_INF
        modes = (MODE_CLOSED_FORM, MODE_MATRIX) if ell <= 20 else (MODE_CLOSED_FORM,)
        for p in (random_problem(rng, ell), constructed, all_equal):
            expected = forward_difference_degree(p.a)
            for mode in modes:
                assert detect_degree(p, mode).degree == expected


class TestGeneralExpansion:
    def test_zero_vector_gives_zero(self):
        p = GeneralProblem([0, 1, Fraction(5, 2)], [0, 0, 0])
        assert general_expansion(p).is_zero
        assert compare_general_expansion(p).match

    def test_repeated_nodes_rejected(self):
        with pytest.raises(ValueError):
            GeneralProblem([1, 1], [0, 0])

    def test_even_grid_starting_at_zero_matches(self):
        rng = SplitMix64(30)
        for ell in (2, 4):
            a = [rng.rational() for _ in range(ell + 1)]
            comparison = compare_general_expansion(GeneralProblem(list(range(ell + 1)), a))
            assert comparison.match
            assert comparison.formula == interpolate_eq14(EquidistantProblem(ell, 0, 1, a))

    def test_odd_grid_starting_at_zero_flips_sign(self):
        rng = SplitMix64(31)
        for ell in (1, 3):
            a = [rng.rational() for _ in range(ell)] + [rng.nonzero_rational()]
            comparison = compare_general_expansion(GeneralProblem(list(range(ell + 1)), a))
            assert not comparison.match
            assert comparison.ratio == -1

    def test_shifted_line_differs_by_more_than_a_ratio(self):
        # nodes (1, 2), values (1, 0): the formula yields x - 1 while the
        # line through the points is 2 - x
        comparison = compare_general_expansion(GeneralProblem([1, 2], [1, 0]))
        assert comparison.formula == Poly([-1, 1])
        assert comparison.oracle == Poly([2, -1])
        assert not comparison.match
        assert comparison.ratio is None
        assert comparison.difference == Poly([-3, 2])

    def test_line_through_two_points_oracle(self):
        rng = SplitMix64(32)
        for _ in range(10):
            x0, x1 = rng.distinct_rationals(2)
            a0, a1 = rng.rational(), rng.rational()
            comparison = compare_general_expansion(GeneralProblem([x0, x1], [a0, a1]))
            slope = (a1 - a0) / (x1 - x0)
            assert comparison.oracle == Poly([a0 - slope * x0, slope])
            # the verbatim formula is reported as-is, never corrected
            assert comparison.formula == comparison.oracle + comparison.difference

    def test_outcome_strings(self):
        match = compare_general_expansion(GeneralProblem([0, 1, 2], [0, 0, 0]))
        assert match.outcome == "match"
        flipped = compare_general_expansion(GeneralProblem([0, 1], [0, 1]))
        assert flipped.outcome == "proportional ratio=-1"
        shifted = compare_general_expansion(GeneralProblem([1, 2], [1, 0]))
        assert shifted.outcome == "difference coeffs=-3,2"
