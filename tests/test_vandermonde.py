import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degdet.combinat import binomial
from degdet.exactnum import det_fraction_free
from degdet.rng import SplitMix64
from degdet.verify import _random_affine, _random_regular_data, run_suite
from degdet.vandermonde import (
    AffineData,
    HypothesisViolation,
    _binomial_vandermonde_sum,
    _complement,
    build_B,
    det_B,
    det_B_expansion,
    det_B_expansion_complement,
    det_B_zero_check,
    elimination_cost,
    regularity_check,
)

from oracles import det_cofactor, gen_vandermonde_det, positive_rational_reference, schur_eval, vandermonde_product

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def random_affine(rng, k, ell, nonzero_alpha=False, nonzero_beta=False):
    alpha = [rng.rational(nonzero=True) if nonzero_alpha else rng.rational() for _ in range(k)]
    beta = [rng.rational(nonzero=True) if nonzero_beta else rng.rational() for _ in range(k)]
    return AffineData(k, ell, alpha, beta, rng.rationals(k, distinct=True)[0])


class TestAffineData:
    def test_r_must_be_injective(self):
        with pytest.raises(ValueError):
            AffineData(2, 2, [1, 2], [1, 1], [3, 3])

    def test_equal_r_in_different_spellings_is_not_injective(self):
        for r in (["1/2", 5, "1/2"], ["1/2", 5, "2/4"], [Fraction(1, 2), "10/2", Fraction(3, 6)]):
            with pytest.raises(ValueError) as exc:
                AffineData(3, 2, [1, 2, 3], [1, 1, 1], r)
            assert str(exc.value) == "r must be injective, got ('1/2', '5', '1/2')"

    def test_lengths_enforced(self):
        with pytest.raises(ValueError):
            AffineData(2, 2, [1], [1, 1], [0, 1])

    def test_rho_needs_nonzero_alpha(self):
        data = AffineData(2, 2, [0, 1], [1, 1], [0, 1])
        with pytest.raises(ValueError):
            data.rho()


class TestBuildB:
    def test_exponent_zero_gives_all_ones(self):
        data = AffineData(2, 1, [3, -2], [1, 5], [0, 1])
        assert build_B(data) == [[1, 1], [1, 1]]

    def test_squared_offsets(self):
        data = AffineData(2, 3, [0, 3], [1, 1], [2, 3])
        assert build_B(data) == [[4, 9], [25, 36]]

    def test_single_entry(self):
        data = AffineData(1, 2, [1], [1], [5])
        assert build_B(data) == [[6]]

    @pytest.mark.parametrize("ell", [1, 2, 3, 5])
    def test_entries_match_the_rational_powers(self, ell):
        # mixed denominators, negative values, and bases alpha_i + r_j beta_i
        # that are 0 (1/2 + 1*(-1/2), -3/4 + (3/2)(1/2), 0 + 0*b)
        alpha = [Fraction(1, 2), Fraction(-3, 4), 0, Fraction(7, 3)]
        beta = [Fraction(-1, 2), Fraction(1, 2), Fraction(5, 6), -2]
        r = [1, Fraction(3, 2), 0, Fraction(-2, 5)]
        data = AffineData(4, ell, alpha, beta, r)
        expected = [[(a + rj * b) ** (ell - 1) for rj in r] for a, b in zip(alpha, beta)]
        assert build_B(data) == expected
        assert expected[0][0] == expected[1][1] == expected[2][2] == (1 if ell == 1 else 0)

    def test_seeded_entries_match_the_rational_powers(self):
        rng = SplitMix64(21)
        for ell in range(1, 6):
            for k in range(1, 5):
                data = random_affine(rng, k, ell)
                expected = [[(a + rj * b) ** (ell - 1) for rj in data.r] for a, b in zip(data.alpha, data.beta)]
                assert build_B(data) == expected


class TestDetB:
    """det_B, Bareiss on the integer-scaled rows of B, against elimination
    of the Fraction matrix build_B."""

    def test_matches_elimination_of_build_B(self):
        # alpha and beta may be 0, and k runs past ell, where det(B) = 0
        rng = SplitMix64(17)
        for ell in range(1, 6):
            for k in range(1, ell + 3):
                for _ in range(6):
                    data = random_affine(rng, k, ell)
                    value = det_B(data)
                    assert isinstance(value, Fraction)
                    assert value == det_fraction_free(build_B(data))
                    if k > ell:
                        assert value == 0

    def test_zero_alpha_and_beta_entries(self):
        # a zero row (alpha_i = beta_i = 0, ell > 1), then a zero alpha_i and a zero beta_i
        data = AffineData(3, 3, [0, 1, 0], [0, Fraction(-1, 2), 3], [Fraction(1, 3), 2, -1])
        assert det_B(data) == det_fraction_free(build_B(data)) == 0
        data = AffineData(2, 3, [0, Fraction(2, 3)], [Fraction(5, 4), 0], [1, Fraction(-3, 2)])
        value = det_B(data)
        assert value == det_fraction_free(build_B(data)) == det_cofactor(build_B(data))
        assert value != 0


class TestEliminationCost:
    """elimination_cost, det_B's estimated work in digit steps."""

    @pytest.mark.parametrize("k", [1, 2, 5, 40])
    def test_stops_at_the_rank_bound(self, k):
        # at ell = 1 every entry is 1 (n = 1 digit) and the rank is 1, so one
        # step of (k-1)^2 updates, k^2 powers and the final gcd's 3 remain
        data = AffineData(k, 1, range(k), [1] * k, range(k))
        assert elimination_cost(data) == (k - 1) ** 2 + k * k + 3

    def test_entries_are_sized_by_the_largest_base(self):
        # bases A_i Q + R_j B_i = 7 + 2j for j < 3 (Q = 1): at most 11, 4 bits;
        # with ell - 1 = 15 an entry has 1 + 60 // 30 = 3 digits, and
        # steps 1 and 2 take 4 and 1 updates of 3 and 6 digits
        data = AffineData(3, 16, [7] * 3, [2] * 3, range(3))
        assert elimination_cost(data) == 4 * 3**2 + 1 * 6**2 + (3 * 3) ** 2 + 3 * (3 * 3) ** 2


class TestGenVandermonde:
    @given(small_rationals, small_rationals)
    def test_consecutive_exponents_reduce_to_difference(self, x, y):
        assert gen_vandermonde_det([x, y], (0, 1)) == y - x

    def test_gap_exponents(self):
        assert gen_vandermonde_det([1, 2], (0, 2)) == 3

    def test_vanishes_on_repeated_points(self):
        assert gen_vandermonde_det([2, 2], (1, 3)) == 0

    def test_empty_matrix_has_determinant_one(self):
        assert gen_vandermonde_det([], ()) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gen_vandermonde_det([1, 2, 3], (0, 1))

    @pytest.mark.parametrize(
        "nu,entries",
        [
            ([Fraction(-1, 2), 0, Fraction(2, 3)], (0, 1, 3)),
            ([Fraction(3, 4), Fraction(-5, 6), Fraction(1, 3)], (0, 2, 4)),
            ([0, Fraction(7, 2)], (1, 2)),
            ([Fraction(-9, 4), Fraction(1, 4), 3, Fraction(-1, 3)], (0, 1, 2, 4)),
            ([Fraction(5, 2)], (0,)),
            ([Fraction(-5, 3)], (3,)),
        ],
    )
    def test_matches_cofactor_of_the_power_matrix(self, nu, entries):
        powers = [[Fraction(x) ** e for e in entries] for x in nu]
        assert gen_vandermonde_det(nu, entries) == det_cofactor(powers)

    def test_seeded_sweep_matches_cofactor(self):
        rng = SplitMix64(23)
        for ell in range(1, 6):
            for k in range(1, ell + 1):
                for mu in itertools.islice(itertools.combinations(range(ell), k), 4):
                    nu = [rng.rational() for _ in range(k)]
                    powers = [[x**e for e in mu] for x in nu]
                    assert gen_vandermonde_det(nu, mu) == det_cofactor(powers)

    def test_initial_exponents_match_product_formula(self):
        rng = SplitMix64(5)
        for k in range(1, 5):
            nu = rng.rationals(k, distinct=True)[0]
            assert gen_vandermonde_det(nu, tuple(range(k))) == vandermonde_product(nu)


class TestSchur:
    def test_example_value(self):
        assert schur_eval([1, 2], (0, 2)) == 3

    def test_identity_exponents_give_one(self):
        rng = SplitMix64(6)
        for k in range(1, 5):
            nu = rng.rationals(k, distinct=True)[0]
            assert schur_eval(nu, tuple(range(k))) == 1

    def test_symmetric_under_all_permutations(self):
        rng = SplitMix64(8)
        for k in (2, 3, 4):
            nu = rng.rationals(k, distinct=True)[0]
            mu = tuple(sorted({0, k, k + 1} | set(range(k - 2)))[:k])
            reference = schur_eval(nu, mu)
            for perm in itertools.permutations(nu):
                assert schur_eval(list(perm), mu) == reference

    def test_rejects_repeated_points(self):
        with pytest.raises(ValueError):
            schur_eval([1, 1], (0, 1))

    def test_quotient_times_denominator_recovers_determinant(self):
        rng = SplitMix64(9)
        for entries in ((1, 3), (0, 2, 4), (1, 2, 4)):
            nu = rng.rationals(len(entries), distinct=True)[0]
            assert schur_eval(nu, entries) * vandermonde_product(nu) == gen_vandermonde_det(nu, entries)


class TestComplement:
    def test_example(self):
        assert _complement(4, (0, 2)) == (1, 3)

    def test_full_sequence_self_complementary(self):
        assert _complement(3, (0, 1, 2)) == (0, 1, 2)

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_is_an_involution_on_increasing_sequences(self, ell, data):
        k = data.draw(st.integers(min_value=1, max_value=ell))
        mu = tuple(sorted(data.draw(
            st.sets(st.integers(min_value=0, max_value=ell - 1), min_size=k, max_size=k)
        )))
        nu = _complement(ell, mu)
        assert _complement(ell, nu) == mu
        assert len(nu) == k
        assert nu == tuple(sorted(set(nu))) and set(nu) <= set(range(ell))


class TestExponentWalk:
    """The expansions visit every strictly increasing exponent tuple in
    [0, ell-1] exactly once, in lexicographic order."""

    @staticmethod
    def walk(ell, k):
        data = AffineData(k, ell, range(1, k + 1), range(2, k + 2), range(1, k + 1))
        seen = []

        def record(ell_arg, mu):
            assert ell_arg == ell and isinstance(mu, tuple)
            seen.append(mu)
            return mu

        total = _binomial_vandermonde_sum(data, data.alpha, data.rho(), record)
        assert total == det_B_expansion(data)
        return seen

    @pytest.mark.parametrize("ell,k,expected", [
        (3, 2, [(0, 1), (0, 2), (1, 2)]),
        (2, 2, [(0, 1)]),
        (4, 1, [(0,), (1,), (2,), (3,)]),
    ], ids=["ell3-k2", "ell2-k2", "ell4-k1"])
    def test_listing(self, ell, k, expected):
        assert self.walk(ell, k) == expected

    @given(st.integers(min_value=1, max_value=7), st.data())
    def test_every_tuple_once_in_lexicographic_order(self, ell, data):
        k = data.draw(st.integers(min_value=1, max_value=ell))
        seen = self.walk(ell, k)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen) == math.comb(ell, k)
        assert all(mu == tuple(sorted(set(mu))) and set(mu) <= set(range(ell)) for mu in seen)


class TestExpansion:
    def test_single_row_reduces_to_matrix_entry(self):
        rng = SplitMix64(10)
        for _ in range(10):
            alpha, beta, r = rng.rational(nonzero=True), rng.rational(), rng.rational()
            data = AffineData(1, 2, [alpha], [beta], [r])
            assert det_B_expansion(data) == alpha + r * beta

    def test_two_by_two_instance(self):
        data = AffineData(2, 2, [1, 1], [1, 2], [0, 1])
        assert det_fraction_free(build_B(data)) == 1
        assert det_B_expansion(data) == 1

    def test_all_beta_zero_collapses_rank(self):
        data = AffineData(2, 2, [1, 4], [0, 0], [0, 1])
        assert det_B_expansion(data) == 0
        assert det_fraction_free(build_B(data)) == 0

    def test_rejects_k_above_ell(self):
        with pytest.raises(ValueError):
            det_B_expansion(AffineData(2, 1, [1, 1], [1, 2], [0, 1]))

    def test_rejects_zero_alpha(self):
        with pytest.raises(ValueError):
            det_B_expansion(AffineData(2, 2, [0, 1], [1, 2], [0, 1]))


class TestExpansionComplement:
    def test_single_row_case(self):
        rng = SplitMix64(12)
        for _ in range(10):
            alpha, beta, r = rng.rational(nonzero=True), rng.rational(nonzero=True), rng.rational()
            data = AffineData(1, 2, [alpha], [beta], [r])
            assert det_B_expansion_complement(data) == alpha + r * beta

    def test_matches_primary_expansion(self):
        data = AffineData(2, 2, [1, 1], [1, 2], [0, 1])
        assert det_B_expansion_complement(data) == det_B_expansion(data) == 1

    def test_square_case_single_term(self):
        # at k = ell only the full exponent sequence survives, so the sum
        # collapses to a product of two classical Vandermonde factors
        rng = SplitMix64(14)
        for ell in (2, 3, 4):
            data = random_affine(rng, ell, ell, nonzero_alpha=True, nonzero_beta=True)
            weight = 1
            for j in range(ell):
                weight *= binomial(ell - 1, j)
            sign = (-1) ** (ell * (ell - 1) // 2)
            lead = 1
            for b in data.beta:
                lead *= b ** (ell - 1)
            single = sign * lead * weight * vandermonde_product(data.r) * vandermonde_product(data.inverse_rho())
            assert det_B_expansion_complement(data) == single

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            det_B_expansion_complement(AffineData(2, 2, [1, 1], [0, 2], [0, 1]))


class TestZeroBand:
    def test_all_ones_matrix(self):
        data = AffineData(2, 1, [5, -1], [2, 3], [0, 1])
        assert det_B_zero_check(data) is True

    def test_random_wide_cases(self):
        rng = SplitMix64(15)
        for k, ell in ((3, 2), (4, 3), (5, 2)):
            data = random_affine(rng, k, ell)
            assert det_B_zero_check(data) is True

    def test_rejects_k_at_most_ell(self):
        with pytest.raises(ValueError):
            det_B_zero_check(AffineData(2, 2, [1, 2], [1, 1], [0, 1]))


class TestRegularity:
    def test_square_admissible_case_is_regular(self):
        data = AffineData(2, 2, [3, 6], [1, 1], [2, 3])
        assert det_fraction_free(build_B(data)) == -3
        assert regularity_check(data) is True

    def test_wide_admissible_case_is_singular(self):
        data = AffineData(3, 2, [1, 2, 3], [1, 1, 1], [1, 2, 3])
        assert regularity_check(data) is False

    def test_single_row(self):
        assert regularity_check(AffineData(1, 3, [2], [1], [5])) is True

    def test_named_violations(self):
        with pytest.raises(HypothesisViolation) as exc:
            regularity_check(AffineData(2, 2, [-1, 2], [1, 1], [1, 2]))
        assert exc.value.hypothesis == "ratio-positive"
        with pytest.raises(HypothesisViolation) as exc:
            regularity_check(AffineData(2, 2, [1, 2], [1, 2], [1, 2]))
        assert exc.value.hypothesis == "pairwise-independence"
        for r in ([-1, 2], [0, 2], [1, 0]):  # r_i = 0 is not positive either
            with pytest.raises(HypothesisViolation) as exc:
                regularity_check(AffineData(2, 2, [1, 2], [1, 1], r))
            assert exc.value.hypothesis == "r-positive"

    def test_equal_ratios_over_different_denominators(self):
        # alpha_1/beta_1 = (1/2)/(1/4) = 2 = alpha_2/beta_2
        data = AffineData(2, 2, [Fraction(1, 2), 2], [Fraction(1, 4), 1], [1, 2])
        with pytest.raises(HypothesisViolation) as exc:
            regularity_check(data)
        assert exc.value.hypothesis == "pairwise-independence"
        assert str(exc.value) == (
            "hypothesis 'pairwise-independence' violated: alpha_1 beta_2 - beta_1 alpha_2 = 0"
        )

    @pytest.mark.parametrize(
        "alpha,beta",
        [([1, 0], [1, 2]), ([Fraction(1, 3), 1], [Fraction(1, 3), 0]), ([2, Fraction(-1, 2)], [1, Fraction(1, 2)])],
    )
    def test_ratio_not_positive(self, alpha, beta):
        with pytest.raises(HypothesisViolation) as exc:
            regularity_check(AffineData(2, 2, alpha, beta, [1, 2]))
        assert exc.value.hypothesis == "ratio-positive"
        assert str(exc.value).startswith("hypothesis 'ratio-positive' violated: alpha_2/beta_2 = ")

    def test_both_negative_is_a_positive_ratio(self):
        data = AffineData(2, 2, [Fraction(-3, 2), -6], [Fraction(-1, 2), -1], [Fraction(2, 3), 3])
        assert regularity_check(data) is True
        assert det_fraction_free(build_B(data)) != 0

    def test_theorem4_suite_never_builds_B(self, monkeypatch):
        calls = []

        def forbidden(name):
            def record(*args):
                calls.append(name)
                raise AssertionError(f"{name} called")

            return record

        for module in ("degdet.exactnum", "degdet.vandermonde", "degdet.verify"):
            monkeypatch.setattr(f"{module}.det_fraction_free", forbidden("det_fraction_free"), raising=False)
            monkeypatch.setattr(f"{module}.build_B", forbidden("build_B"), raising=False)
        report = run_suite("theorem4")
        assert calls == []
        assert report.passed
        assert report.cases_run == 5000


def regular_data_by_the_checked_constructor(rng, k, ell):
    """theorem4's drawer as it read through the checked AffineData(...):
    the same draws in the same order, a ratio kept only when it is new, and
    every value converted and checked again by the constructor."""
    alpha, beta, ratios = [], [], set()
    while len(alpha) < k:
        negative = rng.below(2) == 1
        a = positive_rational_reference(rng)
        b = positive_rational_reference(rng)
        if a / b in ratios:
            continue
        ratios.add(a / b)
        alpha.append(-a if negative else a)
        beta.append(-b if negative else b)
    return AffineData(k, ell, alpha, beta, rng.rationals(k, positive=True, distinct=True)[0])


class TestDrawnRegularData:
    def test_the_drawn_data_is_the_checked_constructors(self):
        # the drawer builds its AffineData on a trusted path that checks
        # nothing; the checked constructor must give the same value, the
        # same integer form, from the same stream, left in the same state
        drawing, reference = SplitMix64(2022), SplitMix64(2022)
        for k in range(1, 9):
            for ell in range(1, 6):
                for _ in range(12):
                    drawn = _random_regular_data(drawing, k, ell)
                    expected = regular_data_by_the_checked_constructor(reference, k, ell)
                    assert drawn == expected and hash(drawn) == hash(expected)
                    assert drawn.integer_form == expected.integer_form
                    rebuilt = AffineData(k, ell, drawn.alpha, drawn.beta, drawn.r)
                    assert rebuilt == drawn and rebuilt.integer_form == drawn.integer_form
                    assert all(type(x) is Fraction for x in drawn.alpha + drawn.beta + drawn.r)
                    assert regularity_check(drawn) is (k <= ell)
                    assert drawing.next_u64() == reference.next_u64()


class TestDrawnAffineData:
    @pytest.mark.parametrize("nonzero_alpha", [True, False])
    @pytest.mark.parametrize("nonzero_beta", [True, False])
    def test_the_drawn_data_is_the_checked_constructors(self, nonzero_alpha, nonzero_beta):
        # eq5, eq5c and eq5's zero band draw their AffineData on the trusted
        # path too; the checked constructor must give the same value, the
        # same integer form, from the same stream, left in the same state
        drawing, reference = SplitMix64(2027), SplitMix64(2027)
        for k in range(1, 9):
            for ell in range(1, 6):
                for _ in range(12):
                    drawn = _random_affine(drawing, k, ell, nonzero_alpha, nonzero_beta)
                    expected = random_affine(reference, k, ell, nonzero_alpha, nonzero_beta)
                    assert drawn == expected and hash(drawn) == hash(expected)
                    assert drawn.integer_form == expected.integer_form
                    assert all(type(x) is Fraction for x in drawn.alpha + drawn.beta + drawn.r)
                    assert drawing.next_u64() == reference.next_u64()


def expansion_as_fraction_sum(data):
    """eq. 5 as det_B_expansion computed it before its integer kernel: one
    Fraction product of two gen_vandermonde_det values per mu."""
    rho = data.rho()
    total = Fraction(0)
    for mu in itertools.combinations(range(data.ell), data.k):
        weight = math.prod(binomial(data.ell - 1, e) for e in mu)
        total += weight * gen_vandermonde_det(data.r, mu) * gen_vandermonde_det(rho, mu)
    return math.prod((a ** (data.ell - 1) for a in data.alpha), start=Fraction(1)) * total


def complement_as_fraction_sum(data):
    """The complementary-index expansion in the same per-mu Fraction form."""
    inv_rho = data.inverse_rho()
    total = Fraction(0)
    for mu in itertools.combinations(range(data.ell), data.k):
        weight = math.prod(binomial(data.ell - 1, e) for e in mu)
        total += weight * gen_vandermonde_det(data.r, mu) * gen_vandermonde_det(inv_rho, _complement(data.ell, mu))
    sign = -1 if (data.k * (data.k - 1) // 2) % 2 else 1
    return sign * math.prod((b ** (data.ell - 1) for b in data.beta), start=Fraction(1)) * total


class TestExpansionKernel:
    @pytest.mark.parametrize("ell", range(1, 7))
    def test_matches_the_per_mu_fraction_sum(self, ell):
        rng = SplitMix64(100 + ell)
        mixed_r = [Fraction(n, d) for n, d in [(1, 2), (-2, 3), (3, 4), (5, 1), (-7, 6), (9, 8)]]
        for k in range(1, ell + 1):
            for trial in range(6):
                alpha = [rng.rational(nonzero=True) for _ in range(k)]
                beta = [rng.rational(nonzero=True) for _ in range(k)]
                r = mixed_r[:k] if trial == 0 else rng.rationals(k, distinct=True)[0]
                data = AffineData(k, ell, alpha, beta, r)
                assert det_B_expansion(data) == expansion_as_fraction_sum(data)
                assert det_B_expansion_complement(data) == complement_as_fraction_sum(data)
                # eq. 5's regime leaves beta unconstrained: zero some, or all, of it
                zeroed = [0 if (i + trial) % 2 or trial == 1 else b for i, b in enumerate(beta)]
                data = AffineData(k, ell, alpha, zeroed, r)
                assert det_B_expansion(data) == expansion_as_fraction_sum(data)


class TestExpansionSweep:
    def test_both_expansions_match_direct_determinant(self):
        rng = SplitMix64(16)
        for ell in range(1, 5):
            for k in range(1, ell + 1):
                for _ in range(5):
                    data = random_affine(rng, k, ell, nonzero_alpha=True, nonzero_beta=True)
                    direct = det_fraction_free(build_B(data))
                    assert det_B_expansion(data) == direct
                    assert det_B_expansion_complement(data) == direct
                    if k <= 4:
                        assert det_cofactor(build_B(data)) == direct
