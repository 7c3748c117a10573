import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degdet.combinat import (
    _sym_sums_product,
    binomial,
    elementary_symmetric,
    tau,
    tau_via_recurrence,
)
from degdet.rng import SplitMix64

from oracles import int_between, sym_sums_subset


class TestBinomial:
    def test_standard_value(self):
        assert binomial(5, 2) == 10

    @pytest.mark.parametrize("n", [0, 1, 4, 17])
    def test_choose_zero(self, n):
        assert binomial(n, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(4, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=-2, max_value=32))
    def test_pascal_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestTau:
    @pytest.mark.parametrize(
        "ell,m,j,expected",
        [(3, 1, 0, 6), (3, 3, 0, 6), (3, 2, 2, 3), (3, 3, 1, 0), (4, 0, 3, 1), (2, 1, 1, 2)],
    )
    def test_values(self, ell, m, j, expected):
        assert tau(ell, m, j) == expected

    def test_m_one_closed_form(self):
        for ell in range(1, 9):
            for j in range(ell + 1):
                assert tau(ell, 1, j) == ell * (ell + 1) // 2 - j

    def test_full_product_is_factorial(self):
        for ell in range(1, 9):
            assert tau(ell, ell, 0) == math.factorial(ell)

    def test_excluding_one_value_from_full_product(self):
        for ell in range(1, 9):
            for j in range(1, ell + 1):
                assert tau(ell, ell - 1, j) * j == math.factorial(ell)

    def test_m_zero_is_one_for_every_j(self):
        for ell in range(1, 6):
            for j in range(ell + 1):
                assert tau(ell, 0, j) == 1

    @pytest.mark.parametrize("ell,m,j", [(3, 4, 0), (3, 0, 4), (3, -1, 0), (3, 0, -1), (0, 0, 0)])
    def test_indices_outside_table_rejected(self, ell, m, j):
        with pytest.raises(ValueError):
            tau(ell, m, j)

    def test_tau_key_carries_validation(self):
        with pytest.raises(ValueError):
            tau(2, 3, 0)
        assert tau(2, 2, 1) == 0  # legal: evaluates to 0

    def test_backends_agree(self):
        for ell in range(1, 13):
            for j in range(ell + 1):
                assert sym_sums_subset(ell, j) == _sym_sums_product(ell, j)


class TestElementarySymmetric:
    def test_matches_subset_enumeration(self):
        rng = SplitMix64(29)
        for n in range(8):
            rationals = [rng.rational() for _ in range(n)]
            integers = [int_between(rng, -9, 9) for _ in range(n)]
            for values in (rationals, integers):
                expected = [sum(math.prod(c) for c in itertools.combinations(values, m)) for m in range(n + 1)]
                assert elementary_symmetric(values) == expected
            assert all(isinstance(e, int) for e in elementary_symmetric(integers))


class TestTauRecurrence:
    def test_worked_example(self):
        # tau(3,2,0)=11, tau(3,1,0)=6, tau(3,0,0)=1: 11 - 6*2 + 1*4 = 3
        assert tau(3, 2, 0) == 11
        assert tau_via_recurrence(3, 2, 2) == 3

    def test_m_zero_single_term(self):
        for ell in range(1, 6):
            for j in range(1, ell + 1):
                assert tau_via_recurrence(ell, 0, j) == 1

    def test_small_case(self):
        assert tau_via_recurrence(2, 1, 1) == 3 - 1 == tau(2, 1, 1)

    def test_matches_direct_exhaustively(self):
        for ell in range(1, 9):
            for m in range(ell):
                for j in range(1, ell + 1):
                    assert tau_via_recurrence(ell, m, j) == tau(ell, m, j)

    def test_j_zero_passthrough(self):
        for ell in range(1, 6):
            for m in range(ell + 1):
                assert tau_via_recurrence(ell, m, 0) == tau(ell, m, 0)

    def test_rejected_at_m_equal_ell_with_positive_j(self):
        with pytest.raises(ValueError):
            tau_via_recurrence(3, 3, 1)

    def test_stepping_identity(self):
        # removing j from the pool splits each subset by whether it contained j
        for ell in range(1, 9):
            for m in range(1, ell):
                for j in range(1, ell + 1):
                    assert tau(ell, m, j) == tau(ell, m, 0) - j * tau(ell, m - 1, j)
