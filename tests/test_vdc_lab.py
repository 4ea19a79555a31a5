import cmath
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloosterlab import vdc_lab
from kloosterlab.arith import INVERSE_TABLE_CAP, factorize, primes_up_to
from kloosterlab.checks import (
    PINNED_COMPLETEEXP_EVEN_B0,
    PINNED_COMPLETEEXP_GENERIC,
    PINNED_ONEDIFF_RATIO,
    all_even_multiplicities,
    check_completion,
    check_magnitudes,
    completeexp_shift_grid,
    completion_grid_intervals,
)
from kloosterlab.errors import DomainError, NotCoprime, NotSquarefree
from kloosterlab.kloosterman import IntegerInterval, incomplete_kloosterman, kloosterman_table
from kloosterlab.vdc_lab import (
    _completion_sides,
    _interval_indicator,
    completion_check,
    completion_deviations,
    onediff_ratio,
    partial_sum_max,
    product_sums,
    product_sums_squarefree,
    shifted_product_complete_sum,
    shifted_product_sum_squarefree,
    vanishing_lemma_check,
)

from brute import e_q, interval_fourier_brute, kloosterman_brute, mobius_brute


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

    @pytest.mark.parametrize("q", [INVERSE_TABLE_CAP + 19, 10**12 + 39])
    def test_rejects_modulus_past_cap_before_allocating(self, monkeypatch, q):
        # the interval indicator is a (intervals x q) array built from np.arange(q)
        def arange(*args, **kwargs):
            raise AssertionError("allocated the indicator")

        monkeypatch.setattr(vdc_lab.np, "arange", arange)
        with pytest.raises(DomainError, match=f"q <= {INVERSE_TABLE_CAP}"):
            completion_check(1, q, IntegerInterval(0, 5))


def _units(q):
    return [0] if q == 1 else [a for a in range(1, q) if math.gcd(a, q) == 1]


def _interval_units(q, interval):
    return [n for n in range(interval.offset, interval.offset + len(interval)) if math.gcd(n, q) == 1]


def fft_entry_err(q, norm):
    """A bound on the error of each entry of numpy's DFT of a real length-q
    vector of 2-norm norm: c u ceil(log2 q) sqrt(q) norm, u = 2^-53, c = 8.

    Derived only for q a power of 2.  Its form is Higham's (Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Theorem 24.2): a radix-2
    FFT y' of x has ||y' - y||_2 <= log2(q) eta / (1 - log2(q) eta)
    ||y||_2 with eta = mu + gamma_4 (sqrt 2 + mu), mu the error of the
    twiddle factors, and ||y||_2 = sqrt(q) ||x||_2 bounds every entry.
    With mu <= u, eta < 7u, and c = 8 also covers the denominator.  For
    any other q numpy's pocketfft uses other radices and, for large prime
    factors, Bluestein's algorithm, which the theorem does not cover:
    there the same form and c = 8 are measured, not derived.  On the
    full completion grid (q <= 300) the largest error is 0.39 of the
    figure taken with c = 1.
    """
    return 8 * 2.0**-53 * math.ceil(math.log2(q)) * math.sqrt(q) * norm


def _cmath_incomplete(a, q, interval):
    """sum of e_q(a nbar) over the units n of interval, one pow inverse and one
    cmath.exp a term, added by fsum; and a bound on its error.

    The angle 2 pi m / q, m < q, carries at most four roundings of
    relative size u, so it errs by under 8 pi u < 26u; cmath.exp adds an
    ulp to each part.  So a term errs by under 32u, and fsum's correctly
    rounded parts add at most u per term.
    """
    terms = [
        cmath.exp(2j * math.pi * (a * pow(n, -1, q) % q) / q)
        for n in _interval_units(q, interval)
    ]
    value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return value, 33 * 2.0**-53 * len(terms)


class TestCompletionDeviations:
    """The batched grid against the per-cell evaluations it replaced."""

    def test_direct_side_is_incomplete_kloosterman(self):
        """Each direct entry is within incomplete_kloosterman's err plus
        fft_entry_err(q, ||g||_2), g the interval's units moved onto their
        inverses, so ||g||_2 is the square root of their number.  Only
        q = 1, 2, 4, 8, 16 and 32 here take the derived radix-2 bound;
        for the other q its constant is measured (see fft_entry_err)."""
        for q in range(1, 41):
            intervals = completion_grid_intervals(q)
            residues = _units(q)
            direct, _ = _completion_sides(q, intervals, residues)
            for i, interval in enumerate(intervals):
                fft_err = fft_entry_err(q, math.sqrt(len(_interval_units(q, interval))))
                for j, a in enumerate(residues):
                    value = incomplete_kloosterman(a, q, interval)
                    tol = value.err + fft_err
                    assert abs(direct[i, j] - value.as_complex) <= tol, (q, a, interval)

    @pytest.mark.parametrize("q", [1, 2, 12, 210, 243, 256, 2310])
    def test_direct_side_on_edge_cells(self, q):
        # empty, length-q and negative-offset intervals, against term-by-term
        # sums; moduli with many non-units (210, 2310) and prime powers
        intervals = [
            IntegerInterval(-7, 0),
            IntegerInterval(3 * q, q),
            IntegerInterval(-3 * q - 5, q),
            IntegerInterval(-q // 2, q // 3 + 1),
            IntegerInterval(-1, 1),
            IntegerInterval(-(10**12) - 3, q // 2),
        ]
        units = _units(q)
        residues = sorted({units[0], units[-1], *random.Random(q).sample(units, min(3, len(units)))})
        direct, _ = _completion_sides(q, intervals, residues)
        for i, interval in enumerate(intervals):
            fft_err = fft_entry_err(q, math.sqrt(len(_interval_units(q, interval))))
            for j, a in enumerate(residues):
                want, want_err = _cmath_incomplete(a, q, interval)
                assert abs(direct[i, j] - want) <= want_err + fft_err, (q, a, interval)
                if len(interval) == q:
                    # the full period is the Ramanujan sum c_q(a) = mu(q) for a unit a
                    assert abs(direct[i, j] - mobius_brute(q)) <= fft_err, (q, a)
        assert np.all(direct[0] == 0)

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

        assert check_completion().ok
        monkeypatch.setattr(vdc_lab, "kloosterman_tables", wrong)
        assert not check_completion().ok


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

    def test_rejects_block_past_cap_before_allocating(self, monkeypatch):
        def arange(*args, **kwargs):
            raise AssertionError("allocated the block")

        monkeypatch.setattr(vdc_lab.np, "arange", arange)
        with pytest.raises(DomainError, match=r"\[1, 10000000\]"):
            partial_sum_max(1, 7, 0, 10**11, 1)

    @pytest.mark.parametrize("r", [(2**63 - 2) // 4 + 1, 2**70])
    def test_blocks_past_int64(self, r):
        # only k mod 7 matters, and each block starts at k = 5 mod 7, as block 2 does
        assert (r - 1) * 4 % 7 == 4
        assert partial_sum_max(1, 7, 1, 4, r) == partial_sum_max(1, 7, 1, 4, 2)


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
        direct, direct_err = product_sums_squarefree([1], [(0,)], [0], fq)
        assert abs(crt.as_complex - direct[0, 0]) <= crt.err + direct_err[0, 0]

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
                product_sums_squarefree([1], [shifts], [0], factorize(10**7 + 1))

    @pytest.mark.parametrize("shifts", [(), (0,)])
    def test_product_sums_past_the_cap_fail_before_any_row(self, shifts):
        # a row of q entries would take 80 MB; the cap is checked first
        tracemalloc.start()
        try:
            with pytest.raises(DomainError):
                product_sums([1], [shifts], [0, 1], INVERSE_TABLE_CAP + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_crt_vs_direct(self):
        for q in (6, 10, 21, 30, 66, 105):
            fq = factorize(q)
            a = 1 if q % 2 == 0 else q - 1
            for shifts in ((), (1,), (0, 2), (3, q // 2)):
                for b in (0, 1):
                    c = shifted_product_sum_squarefree(a, shifts, b, fq)
                    d, d_err = product_sums_squarefree([a], [shifts], [b], fq)
                    assert abs(c.as_complex - d[0, 0]) <= c.err + d_err[0, 0], (
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

    def test_shift_grid_is_pinned(self):
        # the sha256 of every (shifts, b) cell in grid order: the grid the pins were measured on
        grids = []
        for p in primes_up_to(199):
            for j in (1, 2, 3):
                tuples, bs = completeexp_shift_grid(p, j)
                assert len(set(tuples)) == len(tuples) and len(set(bs)) == len(bs)
                assert all(0 <= b < p for b in bs)
                grids.append([(s, b) for s in tuples for b in bs])
        digest = hashlib.sha256(repr(grids).encode()).hexdigest()
        assert digest == "4bea5e7272df4e2f2256f8387b6ccb4600bd60f5bf7ab53b56e0d409a4b8caa2"

    def test_even_multiplicity_classifier(self):
        assert all_even_multiplicities(7, (3, 3))
        assert all_even_multiplicities(7, (10, 3))  # 10 = 3 mod 7
        assert not all_even_multiplicities(7, (1, 2))
        assert not all_even_multiplicities(7, (1, 1, 2))

    def test_scan_within_pins(self):
        result = check_magnitudes()
        assert result.ok
        for j in (1, 2, 3):
            assert result.observed[f"generic j={j}"] <= PINNED_COMPLETEEXP_GENERIC[j]
        for j in PINNED_COMPLETEEXP_EVEN_B0:
            assert result.observed[f"even b=0 j={j}"] <= PINNED_COMPLETEEXP_EVEN_B0[j]
            assert result.observed[f"even b=0 j={j}"] <= 2.0**j

    def test_onediff_sample_within_pin(self):
        for q0, q1, K in ((7, 3, 10), (11, 2, 20), (13, 6, 30)):
            rep = onediff_ratio(1, q0, q1, 1, IntegerInterval(0, K), (0,))
            assert rep.ratio <= PINNED_ONEDIFF_RATIO
