import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloosterlab.arith import factorize
from kloosterlab.divisor_ap import (
    HYPERBOLA_X_CAP,
    ApQuery,
    coprime_tau_sum,
    divisor_main_term,
    divisor_sum_ap,
    divisor_sum_ap_all,
    error_term,
    tau_table,
)
from kloosterlab.errors import DomainError, NotCoprime
from kloosterlab.oracle import Q_CAP, split_divisor_sum_ap, split_main_term

from brute import coprime_tau_sum_split, divisor_sum_brute, divisor_sum_split, tau_brute


class TestDivisorSum:
    def test_total_to_ten(self):
        assert divisor_sum_ap(ApQuery(10, 1, 0)) == 27

    def test_progression_example(self):
        q = ApQuery(10, 3, 1)
        assert divisor_sum_ap(q, "hyperbola") == 10
        assert divisor_sum_ap(q, "sieve") == 10

    def test_empty_progression(self):
        assert divisor_sum_ap(ApQuery(2, 5, 3)) == 0

    def test_bad_query(self):
        with pytest.raises(DomainError):
            ApQuery(0, 3, 1)
        with pytest.raises(DomainError):
            ApQuery(10, 0, 1)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            divisor_sum_ap(ApQuery(10, 3, 1), "closed-form")

    def test_against_brute(self):
        cases = [(50, 7, 3), (100, 12, 0), (73, 10, 9), (40, 41, 1)]
        # the hyperbola splits at y = isqrt(x): x = k^2 - 1, k^2, k^2 + k
        cases += [(x, q, a) for x in (168, 169, 182) for q, a in ((10, 3), (12, 8), (9, 6))]
        cases += [(120, 7, -3), (99, 12, -4)]
        for x, q, a in cases:
            want = divisor_sum_brute(x, q, a)
            assert divisor_sum_ap(ApQuery(x, q, a), "hyperbola") == want
            assert divisor_sum_ap(ApQuery(x, q, a), "sieve") == want

    @given(st.integers(1, 3000), st.integers(1, 120), st.integers(-5, 200))
    @settings(max_examples=80, deadline=None)
    def test_methods_agree(self, x, q, a):
        query = ApQuery(x, q, a)
        assert divisor_sum_ap(query, "hyperbola") == divisor_sum_ap(query, "sieve")

    def test_modulus_beyond_int64_products(self):
        # q^2 >= 2^63, so a * inv(u) mod q would overflow int64; the hyperbola
        # inverts only residues mod u/g and never forms it
        q = 10**10 + 19
        x = 10**6
        for a in (1, 720720, 997920, 10**6 + 1, -5, q - 1):
            query = ApQuery(x, q, a)
            assert divisor_sum_ap(query, "hyperbola") == divisor_sum_ap(query, "sieve")
        # q is a prime above x, so every n <= x is coprime to q
        assert coprime_tau_sum(x, q) == int(tau_table(x).sum())

    @pytest.mark.parametrize("q", [210, 30030, 3037000493, 3037000499, 10**10 + 19, 10**12 + 39])
    def test_hyperbola_against_the_split_counts(self, q):
        # q^2 below and above 2^63; 3037000499 = 13 * 233615423 and 720720 = 13 * 55440,
        # so u = 13k divides the residue by g = 13.  Past the oracle's Q_CAP the
        # test-side split count stands in.
        for x in (1, 2, 10**6):
            for a in (0, 1, -5, q - 1, 720720):
                if q <= Q_CAP:
                    want = split_divisor_sum_ap(x, q, a)
                else:
                    want = divisor_sum_split(x, q, a, math.isqrt(x) + 1)
                assert divisor_sum_ap(ApQuery(x, q, a)) == want, (x, a)

    @pytest.mark.parametrize("q", [3037000493, 3037000499, 10**10 + 19])
    def test_hyperbola_past_int64_products_term_by_term(self, q):
        # x > q, so every class of v counts: D(x, q, a) adds tau over the
        # x/q or so terms a + jq <= x, each factorized
        x = 4 * 10**10
        for a in (1, q - 1, 720720, random.Random(q).randrange(q)):
            terms = range(a % q or q, x + 1, q)
            want = sum(math.prod(e + 1 for _, e in factorize(n).factors) for n in terms)
            assert divisor_sum_ap(ApQuery(x, q, a)) == want, a

    def test_second_split_point(self):
        x, y = 10**10, 70000  # isqrt(x) = 100000
        # 4000000007 is a prime with q^2 > 2^63 and q < x, so a * inv(u)
        # would wrap in int64 on residues that do occur
        for q, a in ((210210, 1), (210210, 143), (210210, 210209),
                     (4000000007, 4000000006), (4000000007, 12345)):
            assert divisor_sum_ap(ApQuery(x, q, a)) == divisor_sum_split(x, q, a, y)
        assert coprime_tau_sum(x, 210210) == coprime_tau_sum_split(x, 210210, y)

    def test_split_count_against_the_sieve(self):
        # the split point isqrt(x) + 1 around squares, and x below it
        for x in (1, 2, 3, 35, 36, 37, 168, 169, 182, 2000):
            for q in (1, 2, 12, 15, 97, 210):
                for a in range(q):
                    want = divisor_sum_ap(ApQuery(x, q, a), "sieve")
                    assert split_divisor_sum_ap(x, q, a) == want, (x, q, a)
                assert split_main_term(x, q) == divisor_main_term(x, q, "sieve").rational

    def test_split_count_above_the_sieve_cap(self):
        x = 10**9 + 7
        for q, a in ((210, 1), (210, 209), (9699690, 1), (9699690, 4849843)):
            assert split_divisor_sum_ap(x, q, a) == divisor_sum_ap(ApQuery(x, q, a))
        assert split_main_term(x, 9699690) == divisor_main_term(x, 9699690).rational

    def test_main_term_against_the_coprime_split_count(self):
        # x below q, square x and x around them; the test oracle counts
        # coprime n by one period of q, with no Mobius inversion
        for q in (1, 2, 4, 6, 12, 30, 97, 210, 1001, 2310, 4096):
            phi = sum(math.gcd(t, q) == 1 for t in range(1, q + 1))
            for x in (1, 2, 3, 4, 9, 10, 48, 49, 50, 120, 121, 500, 1000, 3600, 3601):
                want = Fraction(coprime_tau_sum_split(x, q, math.isqrt(x)), phi)
                assert split_main_term(x, q) == want, (x, q)

    def test_split_count_caps(self):
        for x, q in ((0, 7), (HYPERBOLA_X_CAP + 1, 7), (1000, 0), (1000, 10**12 + 1)):
            with pytest.raises(DomainError):
                split_divisor_sum_ap(x, q, 1)
            with pytest.raises(DomainError):
                split_main_term(x, q)

    def test_hyperbola_cap(self):
        assert divisor_sum_ap(ApQuery(HYPERBOLA_X_CAP, 9699690, 1)) > 0
        with pytest.raises(DomainError):
            divisor_sum_ap(ApQuery(HYPERBOLA_X_CAP + 1, 7, 1))
        with pytest.raises(DomainError):
            coprime_tau_sum(HYPERBOLA_X_CAP + 1, 7)

    def test_partition_over_residues(self):
        for x, q in ((1000, 7), (500, 12), (2000, 97)):
            total = divisor_sum_ap(ApQuery(x, 1, 0))
            assert sum(divisor_sum_ap_all(x, q)) == total

    def test_monotone_in_x(self):
        prev = 0
        for x in range(1, 200):
            d = divisor_sum_ap(ApQuery(x, 4, 1))
            assert d >= prev
            prev = d

    def test_tau_table(self):
        # the table loops over d <= isqrt(x): x = k^2 - 1, k^2, k^2 + 1 for k = 13
        for x in (100, 168, 169, 170):
            tau = tau_table(x)
            assert len(tau) == x + 1 and tau[0] == 0
            for n in range(1, x + 1):
                assert tau[n] == tau_brute(n)


class TestMainTerm:
    def test_q_one(self):
        assert divisor_main_term(10, 1).rational == 27

    def test_q_three(self):
        v = divisor_main_term(10, 3)
        assert v.rational == Fraction(9)
        assert v.real == 9.0

    def test_empty(self):
        assert divisor_main_term(0, 5).rational == 0

    def test_denominator_divides_phi(self):
        for x, q in ((100, 12), (57, 30), (1000, 97)):
            from kloosterlab.arith import factorize, totient

            phi = totient(factorize(q))
            v = divisor_main_term(x, q)
            assert phi % v.rational.denominator == 0

    def test_coprime_tau_sum_matches_sieve(self):
        tau = tau_table(2000)
        for q in (2, 3, 12, 35, 97):
            for x in (1, 10, 573, 2000):
                want = sum(
                    int(tau[n]) for n in range(1, x + 1) if math.gcd(n, q) == 1
                )
                assert coprime_tau_sum(x, q) == want


class TestErrorTerm:
    def test_trivial_modulus(self):
        for x in (1, 10, 100, 10**4):
            assert error_term(ApQuery(x, 1, 0)).rational == 0

    def test_worked_example(self):
        assert error_term(ApQuery(10, 3, 1)).rational == 1

    def test_pair_cancels(self):
        assert (
            error_term(ApQuery(10, 3, 1)).rational
            + error_term(ApQuery(10, 3, 2)).rational
            == 0
        )

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            error_term(ApQuery(10, 6, 3))

    @pytest.mark.parametrize("q", [3, 8, 30, 101])
    @pytest.mark.parametrize("x", [50, 1234])
    def test_zero_sum_exact(self, x, q):
        total = sum(
            (
                error_term(ApQuery(x, q, a)).rational
                for a in range(1, q)
                if math.gcd(a, q) == 1
            ),
            start=Fraction(0),
        )
        assert total == 0
