import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloosterlab import arith, kloosterman
from kloosterlab.arith import factorize, inverse_table
from kloosterlab.errors import DomainError, NotCoprime
from kloosterlab.kloosterman import (
    IntegerInterval,
    SumValue,
    _direct_sum,
    complete_kloosterman,
    incomplete_kloosterman,
    kloosterman_table,
    table_err,
)

from brute import incomplete_brute, kloosterman_brute, kloosterman_brute_grid, mobius_brute


def _python_int_sum(a: int, q: int, m: int, n: int) -> SumValue:
    """The incomplete sum to q with its phases a * nbar mod q formed in Python ints."""
    units = [v % q for v in range(m, m + n) if math.gcd(v, q) == 1]
    phases = np.array([a * pow(v, -1, q) % q for v in units], dtype=np.int64)
    z = complex(np.exp(2j * np.pi * phases / q).sum())
    return SumValue(z.real, z.imag, 4 * float(np.finfo(np.float64).eps) * len(units))


def close(value: SumValue, target: complex, slack: float = 1e-9) -> bool:
    return abs(value.as_complex - target) <= value.err + slack


class TestCompleteKloosterman:
    def test_mu_identity_small(self):
        assert close(complete_kloosterman(1, 0, 6), 1)

    def test_minus_one(self):
        assert close(complete_kloosterman(1, 1, 3), -1)

    def test_q_one(self):
        assert complete_kloosterman(5, 3, 1).as_complex == 1

    def test_q_zero_rejected(self):
        with pytest.raises(DomainError):
            complete_kloosterman(1, 1, 0)

    def test_weil_prime_101(self):
        bound = 2 * math.sqrt(101)
        for a in range(1, 101):
            tab = kloosterman_table(a, 101)
            assert np.abs(tab[1:]).max() <= bound + table_err(101)

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 12, 30, 97, 100, 210])
    def test_crt_equals_brute(self, q):
        for a in (0, 1, 5, q - 1):
            for b in (0, 1, 7):
                got = complete_kloosterman(a, b, q)
                want = kloosterman_brute(a, b, q)
                assert close(got, want), (a, b, q)

    def test_direct_mode_matches_crt(self):
        for q in (6, 35, 101, 143):
            for a, b in ((1, 2), (4, 9)):
                c = complete_kloosterman(a, b, q)
                d = _direct_sum(a, b, q)
                assert abs(c.as_complex - d.as_complex) <= c.err + d.err + 1e-12

    def test_reality(self):
        # conjugation symmetry n -> -n forces real values
        for q in range(1, 200):
            v = complete_kloosterman(3, 5, q)
            assert abs(v.im) <= v.err + 1e-12

    def test_swap_symmetry(self):
        # S(a, b; q) = S(b, a; q) through n -> nbar
        for q in range(2, 301):
            for a, b in ((1, 2), (3, 10), (0, 4)):
                s1 = complete_kloosterman(a, b, q)
                s2 = complete_kloosterman(b, a, q)
                assert abs(s1.as_complex - s2.as_complex) <= s1.err + s2.err + 1e-10

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_reduction_invariance(self, a, b, q):
        v1 = complete_kloosterman(a, b, q)
        v2 = complete_kloosterman(a % q, b % q, q)
        assert v1 == v2


class TestKloostermanTable:
    def test_matches_pointwise(self):
        for q in (2, 5, 6, 30, 97):
            for a in (1, 3):
                if math.gcd(a, q) != 1:
                    continue
                tab = kloosterman_table(a, q)
                for b in range(q):
                    want = kloosterman_brute(a, b, q)
                    assert abs(complex(tab[b]) - want) <= table_err(q)
        for a, q in ((0, 5), (3, 6), (3, 30)):
            with pytest.raises(NotCoprime):
                kloosterman_table(a, q)
        # above the inverse-table cap: DomainError before any O(q) array
        with pytest.raises(DomainError):
            kloosterman_table(1, 999999999989)
        # residues are reduced in int64 only: one past it fails, not wraps
        for residues in ([1, 2**63], [-(2**63) - 1], [2**70 + 1]):
            with pytest.raises(DomainError, match="int64"):
                kloosterman.kloosterman_tables(residues, 11)
        assert np.array_equal(kloosterman.kloosterman_tables([2**63 - 1, -(2**63)], 11),
                              kloosterman.kloosterman_tables([7, 3], 11))

    def test_unsigned_residues_past_int64_fail(self):
        # 2^64 - 1 = 4 (mod 11); an int64 cast would wrap it to -1 = 10
        with pytest.raises(DomainError, match="int64"):
            kloosterman.kloosterman_tables(np.array([2**64 - 1], dtype=np.uint64), 11)
        with pytest.raises(DomainError, match="int64"):
            kloosterman.kloosterman_tables(np.array([3, 2**63], dtype=np.uint64), 11)
        assert np.array_equal(
            kloosterman.kloosterman_tables(np.array([4, 2**63 - 1], dtype=np.uint64), 11),
            kloosterman.kloosterman_tables([4, 7], 11))

    def test_read_only(self):
        tab = kloosterman_table(1, 13)
        with pytest.raises(ValueError):
            tab[0] = 0


class TestKloostermanCrt:
    """complete_kloosterman's CRT evaluation over composite moduli."""

    def test_trivial_second_factor(self):
        # a prime modulus is one part, twisted by the inverse of 1
        s = complete_kloosterman(4, 9, 13)
        assert close(s, kloosterman_brute(4, 9, 13))

    def test_three_by_five(self):
        got = complete_kloosterman(1, 1, 15)
        assert close(got, kloosterman_brute(1, 1, 15))

    def test_mu_via_crt(self):
        got = complete_kloosterman(1, 0, 105)
        assert close(got, mobius_brute(105))
        assert mobius_brute(105) == -1

    def test_twisted_multiplicativity_grid(self):
        for q in range(2, 400):
            fq = factorize(q)
            if not fq.squarefree or len(fq.factors) < 2:
                continue
            for a, b in ((1, 0), (2, 3)):
                got = complete_kloosterman(a, b, q)
                want = _direct_sum(a, b, q)
                assert abs(got.as_complex - want.as_complex) <= got.err + want.err


class TestPrimePowerParts:
    """Each prime-power part is read from its FFT table once the common
    factors of p are scaled out of a and b; exact values where the table
    is not needed."""

    @pytest.mark.parametrize(
        "q", [4, 8, 9, 16, 25, 27, 32, 49, 81, 121, 125, 128, 12, 72, 200, 675]
    )
    def test_every_pair_against_brute(self, q):
        want = kloosterman_brute_grid(q)
        for a, b in ((1, 1), (0, 3), (q - 1, q // 2)):
            assert abs(want[a, b] - kloosterman_brute(a, b, q)) <= 1e-9
        for a in range(q):
            for b in range(q):
                assert close(complete_kloosterman(a, b, q), want[a, b]), (a, b, q)

    def test_no_production_route_calls_the_oracle(self, monkeypatch):
        def direct_sum(a, b, q):
            raise AssertionError(f"S({a}, {b}; {q}) summed over all units")

        monkeypatch.setattr(kloosterman, "_direct_sum", direct_sum)
        for q in range(1, 301):
            assert close(complete_kloosterman(3, 5, q), kloosterman_brute(3, 5, q)), q

    def test_squarefree_values_pinned(self):
        # Prime parts are table reads and exact values, as they were when
        # this digest was recorded: every squarefree sum is bitwise fixed.
        values = [
            repr(complete_kloosterman(a, b, q))
            for q in range(1, 301)
            if factorize(q).squarefree
            for a, b in ((0, 0), (1, 0), (0, 1), (1, 1), (3, 5), (7, 2), (q - 1, 6))
        ]
        digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
        assert digest == "46ff6725bdb5a33d6d4aef7b811699533716b450a8e05a40da3d585fa2c7b2e3"


class TestIncomplete:
    def test_empty(self):
        assert incomplete_kloosterman(1, 6, IntegerInterval(4, 0)).as_complex == 0

    def test_worked_example(self):
        v = incomplete_kloosterman(1, 6, IntegerInterval(4, 4))
        assert close(v, 1)

    def test_full_period_is_mu(self):
        for q in (2, 3, 6, 30, 105, 210):
            v = incomplete_kloosterman(1, q, IntegerInterval(0, q))
            assert close(v, mobius_brute(q)), q

    def test_against_brute(self):
        for q, m, n in ((7, 0, 5), (12, -3, 12), (101, 50, 60), (30, 5, 25)):
            v = incomplete_kloosterman(1, q, IntegerInterval(m, n))
            assert abs(v.as_complex - incomplete_brute(1, q, m, n)) <= v.err + 1e-10

    def test_interval_inverses_match_the_inverse_table(self):
        # the interval's own inverses are the inverse table's entries, in
        # the same order, so the sum is bitwise the inverse-table sum
        for q, m, n, a in ((101, 50, 60, 1), (30030, -7, 5000, 17), (999983, 12345, 700, 3)):
            inv = inverse_table(q)[(m + np.arange(n)) % q]
            inv = inv[inv >= 0]
            z = complex(np.exp(2j * np.pi * (inv * a % q) / q).sum())
            want = SumValue(z.real, z.imag, 4 * float(np.finfo(np.float64).eps) * len(inv))
            assert incomplete_kloosterman(a, q, IntegerInterval(m, n)) == want

    def test_huge_modulus_against_brute(self):
        for q, m, n in ((999999999989, 4, 4), (10**12 + 39, -300, 500), (2**41 - 21, 10**15, 64)):
            v = incomplete_kloosterman(5, q, IntegerInterval(m, n))
            assert abs(v.as_complex - incomplete_brute(5, q, m, n)) <= v.err + 1e-10
        # above 2^41 the limb products would leave int64
        with pytest.raises(DomainError, match=r"q <= 2\^41"):
            incomplete_kloosterman(5, 2**61 - 1, IntegerInterval(10**15, 64))

    @pytest.mark.parametrize("q", [2**41 + 1, 2**62 + 1])
    @pytest.mark.parametrize("n", [0, 1])
    def test_modulus_past_the_cap_fails_at_any_length(self, q, n):
        with pytest.raises(DomainError, match=r"q <= 2\^41"):
            incomplete_kloosterman(1, q, IntegerInterval(0, n))

    @pytest.mark.parametrize("q", [97, 3037000499, 10**10 + 19, 10**12 + 39])
    def test_phases_at_any_product_size_against_brute(self, q):
        # a * nbar reaches q^2, below 2^63 up to q = 3037000499 and above it past
        rng = random.Random(q)
        m, n = rng.randrange(-q, q), min(q, 200)
        for a in (1, q - 1, q - 2, rng.randrange(q)):
            if math.gcd(a, q) != 1:
                continue
            v = incomplete_kloosterman(a, q, IntegerInterval(m, n))
            assert abs(v.as_complex - incomplete_brute(a, q, m, n)) <= v.err + 1e-10, a

    @pytest.mark.parametrize("q", [2**31 - 1, 2**31 + 11, 3037000499, 3037000507,
                                   2**40 + 15, 2**41 - 21, 2**41])
    def test_limb_phases_are_the_python_int_phases(self, q):
        # a one-term sum is e_q(phase) for one phase < q <= 2^41; phases a
        # step 1/q apart give different float sums, so equality pins the phase
        rng = random.Random(q)
        ns = [1, 2, q - 1, q - 2] + [rng.randrange(q) for _ in range(4)]
        for a in (1, 2**20 - 1, 2**20, 2**20 + 1, q - 1, rng.randrange(q)):
            for n in ns:
                if math.gcd(a, q) == 1 and math.gcd(n, q) == 1:
                    got = incomplete_kloosterman(a, q, IntegerInterval(n, 1))
                    assert got == _python_int_sum(a, q, n, 1), (a, n)

    def test_sums_equal_the_python_int_sums(self):
        # log-uniform q up to 2^41, a seeded unit a and offset: SumValue for SumValue
        rng = random.Random(41)
        for k in range(1, 42):
            q = rng.randrange(2**(k - 1), 2**k) + 1
            a = rng.randrange(q)
            if math.gcd(a, q) != 1:
                continue
            m, n = rng.randrange(-10**15, 10**15), min(q, 300)
            assert incomplete_kloosterman(a, q, IntegerInterval(m, n)) == _python_int_sum(a, q, m, n)

    @pytest.mark.parametrize("q", [10000019, 999999999989])
    def test_blocked_inverses_keep_the_sum_and_bound_the_peak(self, q, monkeypatch):
        # 2^18 terms inverted 2^12 at a time: the sum is bitwise the one-block
        # sum, and the peak is the phases' arrays (48 bytes a term); Euclid's
        # temporaries over the whole interval would take about 100
        interval = IntegerInterval(123456789, 1 << 18)
        whole = incomplete_kloosterman(3, q, interval)
        monkeypatch.setattr(arith, "INVERSE_BLOCK", 1 << 12)
        tracemalloc.start()
        try:
            blocked = incomplete_kloosterman(3, q, interval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocked == whole
        assert peak < 56 * interval.length, peak / interval.length

    def test_too_long(self):
        with pytest.raises(DomainError):
            incomplete_kloosterman(1, 6, IntegerInterval(0, 7))

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            incomplete_kloosterman(6, 15, IntegerInterval(0, 5))

    @given(
        st.integers(1, 300),
        st.integers(-500, 500),
        st.integers(0, 300),
        st.integers(1, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_trivial_bound(self, q, m, n, a):
        if math.gcd(a, q) != 1:
            return
        n = min(n, q)
        interval = IntegerInterval(m, n)
        v = incomplete_kloosterman(a, q, interval)
        coprime = sum(math.gcd(k, q) == 1 for k in range(m, m + n))
        assert v.magnitude <= coprime + v.err


class TestSumValue:
    def test_product_error_propagation(self):
        u = SumValue(3.0, 4.0, 1e-3)
        w = SumValue(1.0, 0.0, 2e-3)
        prod = u.mul(w)
        assert prod.as_complex == complex(3, 4)
        assert prod.err == pytest.approx(5 * 2e-3 + 1 * 1e-3 + 2e-6)

    def test_negative_err_rejected(self):
        with pytest.raises(DomainError):
            SumValue(0.0, 0.0, -1.0)
