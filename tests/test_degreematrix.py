import math
import tracemalloc
from fractions import Fraction

import pytest

from degdet.combinat import binomial
from degdet.degreematrix import (
    AlternatingSums,
    alternating_weighted_sum,
    build_A,
    build_A_sub,
    det_A_from_cofactors,
    det_A_sub_closed_form,
    power_row_cofactors,
    sigma_ell,
    sub_column_offsets,
)
from degdet.exactnum import det_fraction_free, trusted
from degdet.rng import SplitMix64

from oracles import det_cofactor, int_between, vandermonde_product


def forward_difference(values, order):
    out = list(values)
    for _ in range(order):
        out = [b - a for a, b in zip(out, out[1:])]
    return out[0]


class TestBuildA:
    def test_power_block_and_value_row(self):
        m = build_A(2, 0, [1, 1, 1])
        assert m == [[1, 2, 3], [4, 5, 6], [1, 1, 1]]

    def test_exponent_zero_collapses_power_block(self):
        m = build_A(1, 0, [Fraction(2, 3), -5])
        assert m == [[1, 1], [Fraction(2, 3), -5]]

    def test_weighted_last_row(self):
        m = build_A(2, 1, [1, 1, 1])
        assert m[2] == [0, 1, 2]

    def test_zero_to_the_zero_is_one(self):
        m = build_A(2, 0, [7, 0, 0])
        assert m[2][0] == 7

    def test_value_vector_length_enforced(self):
        with pytest.raises(ValueError):
            build_A(2, 0, [1, 1])

    def test_ell_zero_rejected(self):
        with pytest.raises(ValueError):
            build_A(0, 0, [1])


def det_A_by_cofactors(ell, s, a):
    return det_A_from_cofactors(power_row_cofactors(ell), s, a)


def det_A_by_sums(ell, s, a):
    return AlternatingSums(ell, a).det(s)


@pytest.mark.parametrize("fn", [build_A, det_A_by_sums, alternating_weighted_sum, det_A_by_cofactors])
@pytest.mark.parametrize(
    "ell,s,a,message",
    [
        (0, 0, [1], "degree matrix needs ell >= 1, got 0"),
        (2, -1, [1, 1, 1], "degree matrix needs s >= 0, got -1"),
        (2, 0, [1, 1], "value vector must have ell+1 = 3 entries, got 2"),
    ],
)
def test_degree_matrix_arguments_checked(fn, ell, s, a, message):
    with pytest.raises(ValueError) as exc:
        fn(ell, s, a)
    assert str(exc.value) == message


class TestBuildASub:
    @pytest.mark.parametrize(
        "ell,kappa,rows",
        [
            (2, 1, [[2, 3], [5, 6]]),
            (2, 2, [[1, 3], [4, 6]]),
            (1, 1, [[1]]),
        ],
    )
    def test_examples(self, ell, kappa, rows):
        assert build_A_sub(ell, kappa) == rows

    def test_kappa_range_enforced(self):
        with pytest.raises(ValueError):
            build_A_sub(2, 0)
        with pytest.raises(ValueError):
            build_A_sub(2, 4)

    def test_matches_column_deletion(self):
        # removing the last row and the kappa-th column of the full matrix
        for ell in range(1, 5):
            full = build_A(ell, 0, [0] * (ell + 1))
            for kappa in range(1, ell + 2):
                expected = [
                    [x for j, x in enumerate(full[i]) if j != kappa - 1]
                    for i in range(ell)
                ]
                assert build_A_sub(ell, kappa) == expected


class TestSigmaEll:
    @pytest.mark.parametrize("ell,expected", [(1, -1), (2, -3), (3, 512)])
    def test_frozen_values(self, ell, expected):
        assert sigma_ell(ell) == expected

    def test_cross_validated_against_brute_determinant(self):
        # at kappa = 1 the binomial weight is 1, so the minor determinant
        # recovers sigma_ell up to the parity sign
        for ell in range(1, 6):
            assert sigma_ell(ell) == (-1) ** ell * det_cofactor(build_A_sub(ell, 1))

    def test_matches_the_binomial_and_factorial_product(self):
        # the product form of the definition, as an oracle for the closed form
        for ell in range(1, 61):
            sign = -1 if (ell * (ell + 1) // 2) % 2 else 1
            value = sign * (ell + 1) ** (ell * (ell - 1) // 2)
            for j in range(ell):
                value *= binomial(ell - 1, j)
            for j in range(1, ell):
                value *= math.factorial(j) ** 2
            assert sigma_ell(ell) == value

    def test_rejects_ell_zero(self):
        with pytest.raises(ValueError):
            sigma_ell(0)


class TestSubDeterminant:
    @pytest.mark.parametrize("ell,kappa,expected", [(2, 1, -3), (2, 2, -6), (1, 1, 1)])
    def test_examples(self, ell, kappa, expected):
        assert det_A_sub_closed_form(ell, kappa) == expected
        assert det_fraction_free(build_A_sub(ell, kappa)) == expected

    @pytest.mark.parametrize("kappa", [1, 0, 5])
    def test_closed_form_checks_ell_first(self, kappa):
        # the family's own message, as build_A_sub gives it, and not
        # sigma_ell's or the kappa range's
        with pytest.raises(ValueError) as exc:
            det_A_sub_closed_form(0, kappa)
        assert str(exc.value) == "submatrix needs ell >= 1, got 0"
        with pytest.raises(ValueError) as exc:
            build_A_sub(0, kappa)
        assert str(exc.value) == "submatrix needs ell >= 1, got 0"

    def test_closed_form_matches_elimination_exhaustively(self):
        for ell in range(1, 7):
            for kappa in range(1, ell + 2):
                assert det_fraction_free(build_A_sub(ell, kappa)) == det_A_sub_closed_form(ell, kappa)

    def test_closed_form_matches_cofactor_oracle(self):
        for ell in range(1, 6):
            for kappa in range(1, ell + 2):
                assert det_cofactor(build_A_sub(ell, kappa)) == det_A_sub_closed_form(ell, kappa)

    def test_single_term_vandermonde_factorization(self):
        # the minor equals the parity sign times the binomial-weight product
        # times the two classical Vandermonde products of its defining data
        for ell in range(1, 6):
            alpha = [(i - 1) * (ell + 1) for i in range(1, ell + 1)]
            weight = 1
            for j in range(ell):
                weight *= binomial(ell - 1, j)
            sign = (-1) ** (ell * (ell - 1) // 2)
            for kappa in range(1, ell + 2):
                offsets = sub_column_offsets(ell, kappa)
                expected = sign * weight * vandermonde_product(alpha) * vandermonde_product(offsets)
                assert det_fraction_free(build_A_sub(ell, kappa)) == expected


class TestAlternatingWeightedSum:
    def test_linear_data_killed_by_third_difference(self):
        assert alternating_weighted_sum(3, 0, [0, 1, 2, 3]) == 0

    def test_cubic_moment(self):
        assert alternating_weighted_sum(3, 2, [0, 1, 2, 3]) == -6

    def test_only_j_zero_term_survives(self):
        assert alternating_weighted_sum(2, 0, [1, 0, 0]) == 1

    def test_forward_difference_oracle(self):
        rng = SplitMix64(2024)
        for ell in range(1, 9):
            for _ in range(10):
                a = [rng.rational() for _ in range(ell + 1)]
                assert alternating_weighted_sum(ell, 0, a) == (-1) ** ell * forward_difference(a, ell)

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            alternating_weighted_sum(2, 0, [1, 2])


class TestAlternatingSums:
    """The integer vector route against the term-by-term reference sum."""

    @staticmethod
    def assert_matches_single_sums(ell, a):
        sums = AlternatingSums(ell, a)
        assert sums.common == math.lcm(*(Fraction(x).denominator for x in a))
        for s in range(ell + 1):
            assert isinstance(sums[s], int)
            assert Fraction(sums[s], sums.common) == alternating_weighted_sum(ell, s, a)

    @pytest.mark.parametrize("ell", [*range(1, 41), 64, 96, 128])
    def test_mixed_denominators(self, ell):
        rng = SplitMix64(3000 + ell)
        a = [Fraction(int_between(rng, -50, 50), int_between(rng, 1, 12)) if j % 4 else rng.rational()
             for j in range(ell + 1)]
        self.assert_matches_single_sums(ell, a)

    @pytest.mark.parametrize("ell", [1, 2, 7, 40, 96])
    def test_zero_vector_and_single_entries(self, ell):
        self.assert_matches_single_sums(ell, [0] * (ell + 1))
        for j in sorted({0, 1, ell // 2, ell}):
            a = [Fraction(0)] * (ell + 1)
            a[j] = Fraction(-7, 3)
            self.assert_matches_single_sums(ell, a)

    @pytest.mark.parametrize("ell", [3, 64, 128])
    def test_numerators_past_5000_digits(self, ell):
        # built from powers, never from decimal strings, so the interpreter's
        # limit on int/str conversion never applies
        big = 7**6000
        assert big > 10**5000
        rng = SplitMix64(4000 + ell)
        a = [Fraction(int_between(rng, -9, 9) * big + rng.below(10), int_between(rng, 1, 5)) for _ in range(ell + 1)]
        self.assert_matches_single_sums(ell, a)

    def test_matches_the_reference_past_ell(self):
        # unrelated denominators, integers and zeros among the values, and
        # s up to ell + 3
        rng = SplitMix64(2025)
        for ell in (1, 2, 7, 20, 40):
            a = [rng.rational() if j % 3 else Fraction(rng.below(5)) for j in range(ell + 1)]
            sums = AlternatingSums(ell, a)
            for s in (0, 1, ell, ell + 3):
                assert Fraction(sums[s], sums.common) == alternating_weighted_sum(ell, s, a)

    def test_reading_order_does_not_matter(self):
        a = [Fraction(1, 2), -3, Fraction(5, 7), 0, 11]
        backwards = AlternatingSums(4, a)
        read = {s: backwards[s] for s in (6, 4, 0, 2)}
        forwards = AlternatingSums(4, a)
        assert read == {s: forwards[s] for s in (0, 2, 4, 6)}
        # s above ell is legal, as for the single sum
        assert Fraction(read[6], backwards.common) == alternating_weighted_sum(4, 6, a)

    def test_one_large_s_keeps_no_sums(self):
        # a read past the next sum is ell + 1 powers, not every sum up to s:
        # stepping to s = 20000 would keep about 25 MB of sums here
        tracemalloc.start()
        try:
            sums = AlternatingSums(2, [1, 1, 1])
            big = sums[20000]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert big == 2**20000 - 2
        assert peak < 1_000_000
        # in-order reads still step from the kept sums
        assert [sums[s] for s in range(4)] == [0, 0, 2, 6]

    @pytest.mark.parametrize("read_first", [(), (0,), (0, 1, 2)])
    def test_negative_s_rejected(self, read_first):
        # on a fresh vector and on one with sums already kept, whose last
        # one a negative index would otherwise return
        sums = AlternatingSums(2, [1, 2, 4])
        for s in read_first:
            sums[s]
        for read in (sums.__getitem__, sums.det):
            with pytest.raises(ValueError) as exc:
                read(-1)
            assert str(exc.value) == "degree matrix needs s >= 0, got -1"

    def test_det_computes_sigma_ell_once(self, monkeypatch):
        calls = []

        def counting_sigma_ell(ell):
            calls.append(ell)
            return sigma_ell(ell)

        monkeypatch.setattr("degdet.degreematrix.sigma_ell", counting_sigma_ell)
        a = [Fraction(1, 2), -3, Fraction(5, 7), 0, 11]
        sums = AlternatingSums(4, a)
        sums[3]
        assert calls == []
        dets = [sums.det(s) for s in (2, 0, 6, 2)]
        assert calls == [4]
        assert dets == [sigma_ell(4) * alternating_weighted_sum(4, s, a) for s in (2, 0, 6, 2)]

    def test_zero_sums_read_zero_without_sigma_ell(self, monkeypatch):
        calls = []

        def counting_sigma_ell(ell):
            calls.append(ell)
            return sigma_ell(ell)

        monkeypatch.setattr("degdet.degreematrix.sigma_ell", counting_sigma_ell)
        # all values equal: S_s = 0 for every s < ell
        a = [Fraction(2, 3)] * 6
        sums = AlternatingSums(5, a)
        zeros = [sums.det(s) for s in range(5)]
        assert zeros == [Fraction(0)] * 5
        assert all(type(z) is Fraction for z in zeros)
        assert calls == []
        assert sums.det(5) == sigma_ell(5) * alternating_weighted_sum(5, 5, a) != 0
        assert calls == [5]
        assert sums.det(3) == 0
        assert sums.det(7) == sigma_ell(5) * alternating_weighted_sum(5, 7, a)
        assert calls == [5]

    def test_every_read_is_sigma_ell_times_the_single_sum(self):
        # random, zero, constant and quadratic value vectors, so that zero
        # and nonzero reads mix in one instance
        rng = SplitMix64(2026)
        for ell in (1, 2, 3, 5, 8):
            vectors = (
                [rng.rational() for _ in range(ell + 1)],
                [Fraction(0)] * (ell + 1),
                [rng.rational(nonzero=True)] * (ell + 1),
                [Fraction(j * j, 3) - 1 for j in range(ell + 1)],
            )
            for a in vectors:
                sums = AlternatingSums(ell, a)
                for s in range(ell + 3):
                    assert sums.det(s) == sigma_ell(ell) * alternating_weighted_sum(ell, s, a)

    def test_rejects_what_the_single_sum_rejects(self):
        with pytest.raises(ValueError, match="degree matrix needs ell >= 1"):
            AlternatingSums(0, [1])
        with pytest.raises(ValueError, match="value vector must have ell"):
            AlternatingSums(2, [1, 2])


class TestDrawnSums:
    def test_the_drawn_sums_are_the_checked_constructors(self):
        # prop2 draws its value vectors with their integer form and builds
        # their sums on a trusted path that checks nothing; the checked
        # constructor must give the same values, the same sums, from the same
        # stream, left in the same state
        drawing, reference = SplitMix64(2026), SplitMix64(2026)
        for ell in range(1, 9):
            for _ in range(40):
                a, common, numerators, _ = drawing.rationals(ell + 1)
                values = tuple(reference.rational() for _ in range(ell + 1))
                drawn = trusted(AlternatingSums, ell, common, numerators)
                expected = AlternatingSums(ell, values)
                assert a == values and hash(a) == hash(values)
                assert (drawn.common, drawn.numerators) == (expected.common, expected.numerators)
                assert all(type(x) is Fraction for x in a)
                for s in range(ell + 2):
                    assert drawn[s] == expected[s] and drawn.det(s) == expected.det(s)
                assert drawing.next_u64() == reference.next_u64()


class TestFullDeterminant:
    @pytest.mark.parametrize(
        "ell,s,a,expected",
        [
            (2, 0, [1, 1, 1], 0),
            (2, 2, [1, 1, 1], -6),
            (2, 0, [0, 1, 4], -6),
        ],
    )
    def test_examples(self, ell, s, a, expected):
        assert det_A_by_sums(ell, s, a) == expected
        assert det_fraction_free(build_A(ell, s, a)) == expected

    def test_closed_form_matches_elimination_on_random_vectors(self):
        rng = SplitMix64(7)
        for ell in range(1, 5):
            for s in range(ell + 1):
                for _ in range(10):
                    a = [rng.rational() for _ in range(ell + 1)]
                    assert det_fraction_free(build_A(ell, s, a)) == det_A_by_sums(ell, s, a)

    def test_last_row_cofactor_expansion(self):
        # expanding along the value row writes the determinant as a signed
        # combination of the s-independent minors
        rng = SplitMix64(11)
        for ell in range(1, 6):
            for s in (0, 1, ell):
                a = [rng.rational() for _ in range(ell + 1)]
                total = Fraction(0)
                for j in range(1, ell + 2):
                    entry = (j - 1) ** s * a[j - 1]
                    term = entry * det_fraction_free(build_A_sub(ell, j))
                    total += term if (ell + 1 + j) % 2 == 0 else -term
                assert det_fraction_free(build_A(ell, s, a)) == total

    def test_last_row_cofactors_are_signed_sub_determinants(self):
        for ell in range(1, 7):
            expected = [(-1) ** (ell + 1 + j) * det_fraction_free(build_A_sub(ell, j)) for j in range(1, ell + 2)]
            assert power_row_cofactors(ell) == expected

    def test_power_row_cofactors_are_sigma_times_signed_binomials(self):
        # Theorem 1 read off the cofactors: c_j = (-1)^j sigma_ell C(ell, j),
        # checked beyond the ell <= 16 that the prop3 suite reaches
        for ell in range(1, 25):
            expected = [(-1) ** j * sigma_ell(ell) * binomial(ell, j) for j in range(ell + 1)]
            assert power_row_cofactors(ell) == expected

    def test_det_A_from_cofactors_matches_elimination(self):
        rng = SplitMix64(17)
        for ell in range(1, 6):
            cofactors = power_row_cofactors(ell)
            mixed = [Fraction((-1) ** j * (j + 1), j + 2) if j % 2 else j - 1 for j in range(ell + 1)]
            for a in ([rng.rational() for _ in range(ell + 1)], mixed, [0] * (ell + 1)):
                for s in (0, 1, ell, ell + 3):
                    assert det_A_from_cofactors(cofactors, s, a) == det_fraction_free(build_A(ell, s, a))

    def test_linear_in_the_value_vector(self):
        rng = SplitMix64(13)
        for ell in range(1, 5):
            a = [rng.rational() for _ in range(ell + 1)]
            assert det_A_by_sums(ell, 1, [2 * x for x in a]) == 2 * det_A_by_sums(ell, 1, a)
        assert det_A_by_sums(3, 0, [0, 0, 0, 0]) == 0

    def test_s_above_ell_is_legal(self):
        a = [1, Fraction(1, 2), -3]
        assert det_fraction_free(build_A(2, 5, a)) == det_A_by_sums(2, 5, a)
