import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloosterlab import vdc_lab
from kloosterlab.arith import factorize, primes_up_to
from kloosterlab.cli import check_completion, completion_grid_intervals
from kloosterlab.errors import DomainError, NotCoprime, NotSquarefree
from kloosterlab.kloosterman import IntegerInterval, incomplete_kloosterman, kloosterman_table
from kloosterlab.vdc_lab import (
    PINNED_COMPLETEEXP_EVEN_B0,
    PINNED_COMPLETEEXP_GENERIC,
    PINNED_ONEDIFF_RATIO,
    _completion_sides,
    _interval_indicator,
    all_even_multiplicities,
    completeexp_scan,
    completeexp_shift_grid,
    completion_check,
    completion_deviations,
    onediff_ratio,
    partial_sum_max,
    shifted_product_complete_sum,
    shifted_product_sum_squarefree,
    vanishing_lemma_check,
)

from oracles import e_q, interval_fourier_brute, kloosterman_brute


def _interval_dfts(q, intervals):
    """f(k) for every k mod q, one row per interval, as completion_deviations
    takes it: one FFT along the rows of the batched indicator."""
    return np.fft.fft(_interval_indicator(q, intervals), axis=1)


class TestIntervalFourier:
    def test_zero_frequency_counts(self):
        f = _interval_dfts(12, [IntegerInterval(3, 9), IntegerInterval(-5, 0)])
        assert f[0, 0] == 9 and f[1, 0] == 0

    def test_full_period_vanishes(self):
        for q in (5, 12, 30):
            f = _interval_dfts(q, [IntegerInterval(0, q), IntegerInterval(-7, q)])
            for k in (1, 2, q - 1):
                assert np.abs(f[:, k]).max() <= 1e-12

    def test_against_brute(self):
        for q, m, n, k in ((11, 4, 7, 3), (30, -6, 13, 17), (7, 2, 7, 5)):
            f = _interval_dfts(q, [IntegerInterval(m, n), IntegerInterval(m + q, n)])
            for row in f:
                assert abs(row[k % q] - interval_fourier_brute(m, n, q, k)) <= 1e-10

    @given(st.integers(2, 200), st.integers(-300, 300), st.integers(0, 200),
           st.integers(1, 400))
    @settings(max_examples=100, deadline=None)
    def test_geometric_bound(self, q, m, n, k):
        # |f(k)| <= min(N, 1/(2 ||k/q||)) for k not 0 mod q; the DFT
        # takes intervals of length N <= q, as the completion grid does
        if k % q == 0:
            return
        n = min(n, q)
        f = _interval_dfts(q, [IntegerInterval(m, n)])[0]
        # ||k/q|| = min(k mod q, -k mod q) / q
        cap = min(float(n), q / (2 * min(k % q, -k % q)))
        assert abs(f[k % q]) <= cap + 1e-9

    def test_parseval(self):
        # sum_k |f(k)|^2 = q * N for intervals of length N <= q
        for q, m, n in ((13, 2, 5), (24, -7, 24), (60, 11, 31)):
            totals = (np.abs(_interval_dfts(q, [IntegerInterval(m, n)] * 2)) ** 2).sum(axis=1)
            assert totals == pytest.approx([q * n] * 2, rel=1e-10)


class TestCompletion:
    def test_worked_example(self):
        assert completion_check(1, 6, IntegerInterval(4, 4)) <= 1e-9

    def test_empty(self):
        assert completion_check(1, 6, IntegerInterval(4, 0)) == 0.0

    def test_grid(self):
        worst = 0.0
        for q in range(2, 61):
            for a in (1, q - 1):
                if math.gcd(a, q) != 1:
                    continue
                for m, n in ((0, q // 2), (-q, q), (3, 1)):
                    worst = max(worst, completion_check(a, q, IntegerInterval(m, n)))
        assert worst <= 1e-8

    def test_rejects_bad_input(self):
        with pytest.raises(NotCoprime):
            completion_check(3, 6, IntegerInterval(0, 4))
        with pytest.raises(DomainError):
            completion_check(1, 6, IntegerInterval(0, 7))
        with pytest.raises(DomainError):
            completion_check(1, 0, IntegerInterval(0, 0))
        with pytest.raises(NotCoprime):
            completion_deviations(10, [IntegerInterval(0, 4)], [1, 5])


def _units(q):
    return [0] if q == 1 else [a for a in range(1, q) if math.gcd(a, q) == 1]


class TestCompletionDeviations:
    """The batched grid against the per-cell evaluations it replaced."""

    def test_direct_side_is_incomplete_kloosterman(self):
        for q in range(1, 41):
            intervals = completion_grid_intervals(q)
            residues = _units(q)
            direct, _ = _completion_sides(q, intervals, residues)
            for i, interval in enumerate(intervals):
                for j, a in enumerate(residues):
                    value = incomplete_kloosterman(a, q, interval)
                    assert abs(direct[i, j] - value.as_complex) <= value.err, (q, a, interval)

    def test_completed_side_is_the_table_sum(self):
        for q in range(1, 41):
            intervals = completion_grid_intervals(q)
            residues = _units(q)
            _, completed = _completion_sides(q, intervals, residues)
            for i, interval in enumerate(intervals):
                # f from a per-interval indicator built without _interval_indicator
                ind = np.zeros(q)
                ind[(interval.offset + np.arange(len(interval))) % q] = 1.0
                f = np.fft.fft(ind)
                for j, a in enumerate(residues):
                    want = (f * kloosterman_table(a, q)).sum() / q
                    assert abs(completed[i, j] - want) <= 1e-12, (q, a, interval)

    @pytest.mark.parametrize("mutation", ["next-residue", "shifted-index"])
    def test_a_wrong_table_fails_the_check(self, monkeypatch, mutation):
        tables = vdc_lab.kloosterman_tables

        def wrong(residues, q):
            if mutation == "shifted-index":
                return np.roll(tables(residues, q), 1, axis=1)
            return tables([a + 1 if math.gcd(a + 1, q) == 1 else a for a in residues], q)

        assert check_completion("small").ok
        monkeypatch.setattr(vdc_lab, "kloosterman_tables", wrong)
        assert not check_completion("small").ok


class TestPartialSumMax:
    def test_single_term_block(self):
        got = partial_sum_max(1, 7, 0, 1, 4)
        want = abs(kloosterman_brute(1, 4, 7))
        assert got == pytest.approx(want, abs=1e-9)

    def test_brute_force_example(self):
        a, q, M, K, r = 1, 15, 0, 3, 1
        best = 0.0
        for L in range(K + 1):
            s = sum(
                e_q(-M * k, q) * kloosterman_brute(a, k, q)
                for k in range((r - 1) * K + 1, (r - 1) * K + L + 1)
            )
            best = max(best, abs(s))
        assert partial_sum_max(a, q, M, K, r) == pytest.approx(best, abs=1e-9)

    def test_nonnegative(self):
        assert partial_sum_max(2, 11, 3, 5, 2) >= 0.0

    def test_rejects_zero_block(self):
        with pytest.raises(DomainError):
            partial_sum_max(1, 7, 0, 0, 1)


class TestShiftedProductPrime:
    def test_empty_product_orthogonality(self):
        assert shifted_product_complete_sum(1, (), 3, 13).as_complex == 0
        assert shifted_product_complete_sum(1, (), 13, 13).as_complex == 13
        assert shifted_product_complete_sum(1, (), 0, 13).as_complex == 13

    def test_single_factor_vanishes(self):
        for p in (3, 13, 101):
            v = shifted_product_complete_sum(2 % p, (0,), 0, p)
            assert v.magnitude <= v.err + 1e-9

    def test_square_sum_value(self):
        for p in (3, 7, 19, 101):
            v = shifted_product_complete_sum(1, (0, 0), 0, p)
            assert v.re == pytest.approx(p * p - p, rel=1e-10)
            assert abs(v.im) <= v.err

    def test_against_brute(self):
        p = 11
        for shifts, b in (((1,), 2), ((0, 3), 1), ((1, 2, 3), 0)):
            got = shifted_product_complete_sum(3, shifts, b, p)
            want = 0j
            for k in range(p):
                term = e_q(-k * b, p)
                for s in shifts:
                    term *= kloosterman_brute(3, k + s, p)
                want += term
            assert abs(got.as_complex - want) <= got.err + 1e-8

    def test_composite_rejected(self):
        with pytest.raises(DomainError):
            shifted_product_complete_sum(1, (0,), 0, 10)

    def test_divisible_a_rejected(self):
        with pytest.raises(DomainError):
            shifted_product_complete_sum(26, (0,), 0, 13)


class TestShiftedProductSquarefree:
    def test_prime_matches_complete(self):
        got = shifted_product_sum_squarefree(2, (1, 5), 1, factorize(13))
        want = shifted_product_complete_sum(2, (1, 5), 1, 13)
        assert abs(got.as_complex - want.as_complex) <= got.err + want.err + 1e-12

    def test_fifteen_both_routes(self):
        fq = factorize(15)
        crt = shifted_product_sum_squarefree(1, (0,), 0, fq)
        direct = shifted_product_sum_squarefree(1, (0,), 0, fq, "direct")
        assert abs(crt.as_complex - direct.as_complex) <= crt.err + direct.err

    def test_unit_modulus(self):
        v = shifted_product_sum_squarefree(1, (0,), 0, factorize(1))
        assert v.as_complex == 1

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            shifted_product_sum_squarefree(1, (0,), 0, factorize(12))

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            shifted_product_sum_squarefree(3, (0,), 0, factorize(15))

    def test_direct_route_is_capped_with_or_without_shifts(self):
        # 11 * 909091: the direct sums run over all k mod q, so q is capped
        # as the tables are, also at j = 0, which gathers no table
        for shifts in ((), (0,)):
            with pytest.raises(DomainError):
                shifted_product_sum_squarefree(1, shifts, 0, factorize(10**7 + 1), "direct")

    def test_grid_crt_vs_direct(self):
        for q in (6, 10, 21, 30, 66, 105):
            fq = factorize(q)
            a = 1 if q % 2 == 0 else q - 1
            for shifts in ((), (1,), (0, 2), (3, q // 2)):
                for b in (0, 1):
                    c = shifted_product_sum_squarefree(a, shifts, b, fq)
                    d = shifted_product_sum_squarefree(a, shifts, b, fq, "direct")
                    assert abs(c.as_complex - d.as_complex) <= c.err + d.err, (
                        q, shifts, b,
                    )


class TestVanishingLemma:
    def test_exhaustive_small(self):
        assert vanishing_lemma_check(5, 2) == []
        assert vanishing_lemma_check(13, 3) == []

    def test_rejects_two(self):
        with pytest.raises(DomainError):
            vanishing_lemma_check(2, 2)

    def test_rejects_huge(self):
        with pytest.raises(DomainError):
            vanishing_lemma_check(499, 3)


class TestOnediff:
    def test_empty_interval(self):
        rep = onediff_ratio(1, 7, 3, 0, IntegerInterval(0, 0))
        assert rep == (0.0, 0.0, 0.0)

    def test_brute_force_cell(self):
        a, q0, q1, M, K = 1, 7, 3, 0, 9
        q = q0 * q1
        rep = onediff_ratio(a, q0, q1, M, IntegerInterval(0, K), (0,))
        t = sum(e_q(-M * k, q) * kloosterman_brute(a, k, q) for k in range(K))
        a1 = a * pow(pow(q1, -1, q0), 2, q0) % q0
        inner_total = 0.0
        for h in range(-(K // q1), K // q1 + 1):
            if h == 0:
                continue
            s = sum(
                kloosterman_brute(a1, k, q0) * kloosterman_brute(a1, k + q1 * h, q0)
                for k in range(K)
                if 0 <= k + q1 * h < K
            )
            inner_total += abs(s)
        rhs = q1**2 * (K * q0 + inner_total)
        assert rep.lhs == pytest.approx(abs(t) ** 2, abs=1e-9)
        assert rep.rhs_core == pytest.approx(rhs, abs=1e-9)
        assert rep.ratio == pytest.approx(abs(t) ** 2 / rhs, abs=1e-12)

    def test_hypothesis_violations(self):
        with pytest.raises(DomainError):
            onediff_ratio(1, 7, 5, 0, IntegerInterval(0, 3))  # q1 > K
        with pytest.raises(NotCoprime):
            onediff_ratio(1, 6, 3, 0, IntegerInterval(0, 9))
        with pytest.raises(NotCoprime):
            onediff_ratio(7, 7, 3, 0, IntegerInterval(0, 9))


class TestPinnedGrids:
    def test_shift_grid_deterministic(self):
        assert completeexp_shift_grid(13, 2) == completeexp_shift_grid(13, 2)

    def test_shift_grid_pairs_every_tuple_with_the_same_bs(self):
        # completeexp_scan evaluates the grid as one (tuples x bs) block
        for p in primes_up_to(199):
            for j in (1, 2, 3):
                grid = completeexp_shift_grid(p, j)
                tuples = list(dict.fromkeys(s for s, _ in grid))
                bs = list(dict.fromkeys(b for _, b in grid))
                assert grid == [(s, b) for s in tuples for b in bs], (p, j)

    def test_even_multiplicity_classifier(self):
        assert all_even_multiplicities(7, (3, 3))
        assert all_even_multiplicities(7, (10, 3))  # 10 = 3 mod 7
        assert not all_even_multiplicities(7, (1, 2))
        assert not all_even_multiplicities(7, (1, 1, 2))

    def test_scan_small_within_pins(self):
        scan = completeexp_scan(61)
        for j, r in scan.max_generic.items():
            assert r <= PINNED_COMPLETEEXP_GENERIC[j]
        for j, r in scan.max_even_b0.items():
            assert r <= PINNED_COMPLETEEXP_EVEN_B0[j]
            assert r <= 2.0**j

    def test_onediff_sample_within_pin(self):
        for q0, q1, K in ((7, 3, 10), (11, 2, 20), (13, 6, 30)):
            rep = onediff_ratio(1, q0, q1, 1, IntegerInterval(0, K), (0,))
            assert rep.ratio <= PINNED_ONEDIFF_RATIO
