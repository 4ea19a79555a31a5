import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloosterlab import cli, divisor_ap
from kloosterlab.arith import factorize
from kloosterlab.cli import SweepConfig
from kloosterlab.divisor_ap import (
    HYPERBOLA_X_CAP,
    ApQuery,
    coprime_tau_sum,
    divisor_main_term,
    divisor_sum_ap,
    divisor_sum_ap_all,
    divisor_sums_ap,
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
        assert divisor_sum_ap(q, "progression") == 10
        assert divisor_sum_ap(q, "sieve") == 10

    def test_empty_progression(self):
        assert divisor_sum_ap(ApQuery(2, 5, 3)) == 0

    def test_bad_query(self):
        with pytest.raises(DomainError):
            ApQuery(0, 3, 1)
        with pytest.raises(DomainError):
            ApQuery(10, 0, 1)

    def test_unknown_method(self):
        # the hyperbola no longer counts D; only the main term takes it
        for method in ("closed-form", "hyperbola"):
            with pytest.raises(DomainError):
                divisor_sum_ap(ApQuery(10, 3, 1), method)

    def test_against_brute(self):
        cases = [(50, 7, 3), (100, 12, 0), (73, 10, 9), (40, 41, 1)]
        # the count sieves p <= isqrt(x): x = k^2 - 1, k^2, k^2 + k
        cases += [(x, q, a) for x in (168, 169, 182) for q, a in ((10, 3), (12, 8), (9, 6))]
        cases += [(120, 7, -3), (99, 12, -4)]
        for x, q, a in cases:
            want = divisor_sum_brute(x, q, a)
            assert divisor_sum_ap(ApQuery(x, q, a), "progression") == want
            assert divisor_sum_ap(ApQuery(x, q, a), "sieve") == want

    @given(st.integers(1, 3000), st.integers(1, 120), st.integers(-5, 200))
    @settings(max_examples=80, deadline=None)
    def test_methods_agree(self, x, q, a):
        query = ApQuery(x, q, a)
        assert divisor_sum_ap(query, "progression") == divisor_sum_ap(query, "sieve")

    def test_modulus_beyond_int64_products(self):
        # q^2 >= 2^63, so a product of two residues mod q would overflow
        # int64; the count inverts q only modulo primes p <= sqrt(x)
        q = 10**10 + 19
        x = 10**6
        for a in (1, 720720, 997920, 10**6 + 1, -5, q - 1):
            query = ApQuery(x, q, a)
            assert divisor_sum_ap(query, "progression") == divisor_sum_ap(query, "sieve")
        # q is a prime above x, so every n <= x is coprime to q
        assert coprime_tau_sum(x, q) == int(tau_table(x).sum())

    @pytest.mark.parametrize("q", [210, 30030, 3037000493, 3037000499, 10**10 + 19, 10**12 + 39])
    def test_hyperbola_against_the_split_counts(self, q):
        # q^2 below and above 2^63; 3037000499 = 13 * 233615423 and 720720 = 13 * 55440,
        # so 13 divides q, a and every member of the progression.  Past the
        # oracle's Q_CAP the test-side split count stands in.
        for x in (1, 2, 10**6):
            for a in (0, 1, -5, q - 1, 720720):
                if q <= Q_CAP:
                    want = split_divisor_sum_ap(x, q, a)
                else:
                    want = divisor_sum_split(x, q, a, math.isqrt(x) + 1)
                assert divisor_sum_ap(ApQuery(x, q, a)) == want, (x, a)

    @pytest.mark.parametrize("q", [3037000493, 3037000499, 10**10 + 19])
    def test_hyperbola_past_int64_products_term_by_term(self, q):
        # x > q: D(x, q, a) adds tau over the x/q or so terms a + jq <= x,
        # each factorized here by arith.factorize
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


@pytest.fixture(scope="module")
def taus():
    """tau(n) by trial division for n = 0..2000 (tau(0) = 0)."""
    return [0] + [tau_brute(n) for n in range(1, 2001)]


def _brute_sums(taus, x, q, residues):
    return [sum(taus[a % q or q : x + 1 : q]) for a in residues]


class TestDivisorSums:
    def test_every_residue_against_brute(self, taus):
        # every a mod q, so units, non-units and a = 0, for q = 1 and for q
        # above x; the split point y = isqrt(x) around squares; residues
        # given out of [0, q) and out of order
        for x in (1, 2, 3, 35, 36, 37, 168, 169, 182, 1000, 2000):
            for q in range(1, 61):
                residues = [*range(q), -1, 3 * q + 2, -q]
                got = divisor_sums_ap(x, q, residues)
                assert got == _brute_sums(taus, x, q, residues), (x, q)

    def test_modulus_above_x(self, taus):
        # each class holds at most one n <= x: tau(a) for 1 <= a <= x, else 0
        q = 10**10 + 19
        residues = [0, 1, 12, 1999, 2000, 2001, q - 1, -(q - 12), 720720]
        assert divisor_sums_ap(2000, q, residues) == _brute_sums(taus, 2000, q, residues)

    def test_residues_in_many_blocks(self, taus, monkeypatch):
        # rows of 34 members: two rows a band and 3 primes a chunk, across
        # every gcd(a, q) of q = 60
        monkeypatch.setattr(divisor_ap, "MEMBER_BLOCK", 100)
        monkeypatch.setattr(divisor_ap, "START_BLOCK", 6)
        residues = [*range(60), *range(59, -1, -1)]
        assert divisor_sums_ap(2000, 60, residues) == _brute_sums(taus, 2000, 60, residues)

    def test_no_residues(self):
        assert divisor_sums_ap(10**6, 15, []) == []

    def test_a_cell_at_1e12_against_the_split_count(self):
        # a 20-residue cell of the paper's range (q = 3 * 5 * ... * 23 = x^0.67),
        # two of its rows recomputed by the oracle
        x, q = 10**12, 111546435
        rng = random.Random(q)
        residues = sorted(a for a in rng.sample(range(q), 100) if math.gcd(a, q) == 1)[:20]
        sums = divisor_sums_ap(x, q, residues)
        assert len(sums) == 20
        for i in (0, 19):
            assert sums[i] == split_divisor_sum_ap(x, q, residues[i]), residues[i]

    def test_bad_arguments(self):
        for x, q in ((0, 5), (10, 0), (HYPERBOLA_X_CAP + 1, 5), (10, 1 << 63)):
            with pytest.raises(DomainError):
                divisor_sums_ap(x, q, [1])


# D(x, q, a) of the hyperbola kernel (`divisor_sums_ap` before it
# factored the progression), pinned on seeded cells: per x a prime, a smooth
# squarefree and a rough q (a prime factor above x^0.2) near x^0.67, six
# seeded residues each (units and non-units) with a = 0 and a = q - 1
HYPERBOLA_PINS = [
    (10**8, 229093, [7372, 60643, 88294, 98707, 104352, 180346, 0, 229092],
     [7960, 8156, 8104, 7970, 8312, 8298, 5444, 7900]),
    (10**8, 255255, [53851, 86622, 130245, 143056, 145483, 230206, 0, 255254],
     [6056, 7146, 14396, 3163, 5818, 3104, 108384, 3212]),
    (10**8, 229101, [106996, 155790, 173222, 191813, 215465, 226281, 0, 229100],
     [5648, 12906, 5592, 5638, 5760, 12994, 9388, 5688]),
    (10**10, 5011879, [683357, 1058443, 1182606, 1915274, 2619041, 3776032, 0, 5011878],
     [46344, 46674, 46292, 46186, 46370, 46392, 30944, 46254]),
    (10**10, 4849845, [86189, 454831, 1474778, 2366805, 2558462, 2805332, 0, 4849844],
     [19328, 36088, 19272, 177310, 19264, 19062, 1389216, 19080]),
    (10**10, 5011887, [810595, 1417253, 1945048, 2110413, 3620822, 4090856, 0, 5011886],
     [32068, 32184, 32178, 74258, 32208, 32432, 53030, 32002]),
    (10**12, 109647821,
     [31746343, 46326266, 63155878, 68639143, 73001774, 109143741, 0, 109647820],
     [253286, 253106, 253062, 254392, 253866, 252028, 169198, 254034]),
    (10**12, 111546435,
     [503465, 20318343, 43254925, 93993255, 94274073, 99462356, 0, 111546434],
     [197986, 221640, 716680, 847942, 220794, 189296, 13910288, 94576]),
    (10**12, 109647849,
     [7237659, 18998798, 19483987, 42599326, 48583690, 79435347, 0, 109647848],
     [406022, 175588, 175508, 175284, 175412, 410254, 288670, 175952]),
]


def _c11_cells():
    """The (x, q, residues) cells of the acceptance sweep c11."""
    config = SweepConfig(x_values=[10**5, 3 * 10**5, 10**6], q_lo_exp=0.60, q_hi_exp=0.64,
                         eta=0.25, residues={"sample": 20}, seed=20260809)
    moduli = [(x, q) for x in config.x_values for q in cli._cell_moduli(config, x)]
    return [(x, q, cli._cell_residues(idx, factorize(q), config))
            for idx, (x, q) in enumerate(moduli)]


class TestProgressionCount:
    """The count of D by factoring each progression, against the split
    counts (oracle and tests/brute.py), brute force and pinned values."""

    def test_every_c11_cell_against_the_split_counts(self):
        cells = _c11_cells()
        assert len(cells) == 104 and sum(len(r) for _, _, r in cells) == 2080
        for x, q, residues in cells:
            sums = divisor_sums_ap(x, q, residues)
            assert sums == [split_divisor_sum_ap(x, q, a) for a in residues], (x, q)
            # the brute split at another point, on the cell's first and last row
            for i in (0, -1):
                assert sums[i] == divisor_sum_split(x, q, residues[i], math.isqrt(x) // 3)

    @pytest.mark.parametrize("q", [2**10, 3**7, 5**4 * 7, 2**5 * 3**3, 9699690, 49])
    def test_non_units_and_prime_powers(self, taus, q):
        # every residue, so a = 0 and every gcd(a, q); the primes of q divide
        # each member of a row with their own varying valuations
        residues = range(q) if q < 5000 else [0, 1, 2, 15, 210, 4849845, q - 1]
        assert divisor_sums_ap(2000, q, residues) == _brute_sums(taus, 2000, q, residues)
        x = 10**6
        assert divisor_sums_ap(x, q, residues[:60]) == [
            split_divisor_sum_ap(x, q, a) for a in residues[:60]]

    def test_progressions_of_zero_and_one_member(self, taus):
        # q > x: K = 1 for 1 <= a mod q <= x, else K = 0 (a = 0 starts at q > x)
        for x, q in ((2000, 2001), (2000, 10**6), (1, 2), (10**12, 10**12 + 39)):
            residues = [0, 1, 2, x, x + 1, q - 1]
            want = [_brute_sums(taus, x, q, [a])[0] if x <= 2000 else None for a in residues]
            got = divisor_sums_ap(x, q, residues)
            assert all(w is None or g == w for g, w in zip(got, want)), (x, q)
            assert got[0] == got[4] == 0 and got[-1] == (tau_brute(x) if q == x + 1 else 0)
        # K = 1 at a huge x: tau of the one member a itself; 2 * 10^11 = 2^12 * 5^11
        assert divisor_sums_ap(10**12, 10**12 + 39, [999999999989, 2 * 10**11]) == [2, 156]
        # q = 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657 is the largest int64 modulus
        q = 2**63 - 1
        assert divisor_sums_ap(10**12, q, [1, 49, 10**12, 0, q - 1]) == [1, 3, 169, 0, 0]
        assert divisor_sums_ap(10**12, q, [999999999989, 2**62]) == [2, 0]  # a prime; 2^62 > x

    def test_pinned_hyperbola_values(self):
        for x, q, residues, want in HYPERBOLA_PINS:
            assert divisor_sums_ap(x, q, residues) == want, (x, q)

    def test_small_blocks(self, monkeypatch):
        # windows of 7 members and chunks of 40 primes: rows split across
        # windows, every start recomputed from the window's first member
        cases = [(10**6, 4003, [1, 2, 4002, 0, 2001]), (10**6, 6000, [0, 1, 6, 30, 5999]),
                 (10**8, 255255, [145483, 0])]
        want = [divisor_sums_ap(x, q, r) for x, q, r in cases]
        monkeypatch.setattr(divisor_ap, "MEMBER_BLOCK", 7)
        monkeypatch.setattr(divisor_ap, "START_BLOCK", 40)
        assert [divisor_sums_ap(x, q, r) for x, q, r in cases] == want
        assert want[2] == [5818, 108384]

    def test_member_cap(self, monkeypatch):
        # x = 10^12, q = 7 has 1.4 * 10^11 members a row; the cap says so
        with pytest.raises(DomainError, match="mod q = 7 up to x = 1000000000000 holds 142857142858 members"):
            divisor_sum_ap(ApQuery(10**12, 7, 1))
        monkeypatch.setattr(divisor_ap, "MEMBER_CAP", 100)
        assert divisor_sums_ap(1000, 10, [0, 5]) == divisor_sums_ap(1000, 10, [10, 5])
        with pytest.raises(DomainError, match="holds 112 members"):
            divisor_sums_ap(1000, 9, [1])
        assert divisor_sums_ap(1000, 9, []) == []


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
