import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloosterlab.arith import ModulusSplit, factorize
from kloosterlab.bounds_opt import (
    WindowSpec,
    admissible,
    divisorthm_rhs,
    exponent_fit,
    factorize_to_windows,
    shortkloost_rhs,
    target_sizes,
    target_windows,
    window_objective,
)
from kloosterlab.errors import DomainError, NotSquarefree

from brute import assignment_products, parts_in_windows, window_assignment_oracle


class TestShortKloostRhs:
    def test_worked_terms(self):
        r = shortkloost_rhs(100, ModulusSplit((15, 7)))
        terms = dict(r.bound_terms)
        assert terms["diff_j1"] == pytest.approx(26.458, abs=5e-4)
        assert terms["balance"] == pytest.approx(19.680, abs=5e-4)
        assert terms["completion"] == pytest.approx(5.207, abs=5e-4)
        assert r.bound_total == pytest.approx(51.34, abs=5e-3)
        assert r.bound_total == r.bound_total_eps0

    def test_degenerate_split_rejected(self):
        with pytest.raises(DomainError):
            shortkloost_rhs(10, ModulusSplit((105,)))

    def test_n_above_q_rejected(self):
        with pytest.raises(DomainError):
            shortkloost_rhs(1000, ModulusSplit((15, 7)))

    def test_doubling_scaling(self):
        split = ModulusSplit((15, 7, 2))
        r1 = dict(shortkloost_rhs(50, split).bound_terms)
        r2 = dict(shortkloost_rhs(100, split).bound_terms)
        for j in (1, 2):
            assert r2[f"diff_j{j}"] / r1[f"diff_j{j}"] == pytest.approx(
                2 ** (2.0**-j), rel=1e-12
            )

    def test_eps_monotone(self):
        split = ModulusSplit((15, 7))
        totals = [shortkloost_rhs(80, split, e).bound_total for e in (0.0, 0.05, 0.1)]
        assert totals == sorted(totals)
        assert shortkloost_rhs(80, split, 0.1).bound_total_eps0 == totals[0]

    def test_part_monotone(self):
        # growing any one part grows the total (power-law monotonicity)
        base = shortkloost_rhs(80, ModulusSplit((15, 7, 2))).bound_total
        assert shortkloost_rhs(80, ModulusSplit((17, 7, 2))).bound_total > base
        assert shortkloost_rhs(80, ModulusSplit((15, 11, 2))).bound_total > base
        assert shortkloost_rhs(80, ModulusSplit((15, 7, 13))).bound_total > base


class TestDivisorThmRhs:
    SPLIT = ModulusSplit((29, 5, 7, 2))

    def test_term_structure(self):
        x = 10**6
        r = divisorthm_rhs(x, self.SPLIT, 0.05)
        q = self.SPLIT.modulus
        mult = x ** (2 * 0.05)
        terms = dict(r.bound_terms)
        assert terms["leading"] == pytest.approx(x ** (1 - 0.05) / q, rel=1e-12)
        assert terms["diff_j1"] == pytest.approx(mult * x**0.25 * 2**0.5, rel=1e-12)
        assert terms["diff_j2"] == pytest.approx(
            mult * x**0.125 * q**0.25 * 7**0.25, rel=1e-12
        )
        assert terms["diff_j3"] == pytest.approx(
            mult * x ** (1 / 16) * q ** (3 / 8) * 5 ** (1 / 8), rel=1e-12
        )
        assert terms["balance"] == pytest.approx(
            mult * x ** (1 / 16) * q ** (3 / 8) * 29 ** (1 / 16), rel=1e-12
        )
        assert terms["completion"] == pytest.approx(
            mult * q**0.5 * 29 ** (-1 / 16), rel=1e-12
        )
        assert r.bound_total == pytest.approx(
            sum(v for _, v in r.bound_terms), rel=1e-15
        )

    def test_delta_domain(self):
        for bad in (0.0, 1 / 12, 0.5, -0.01):
            with pytest.raises(DomainError):
                divisorthm_rhs(10**6, self.SPLIT, bad)

    def test_x_below_q(self):
        with pytest.raises(DomainError):
            divisorthm_rhs(100, self.SPLIT, 0.05)

    def test_needs_four_parts(self):
        with pytest.raises(DomainError):
            divisorthm_rhs(10**6, ModulusSplit((15, 7)), 0.05)

    def test_monotone_in_parts(self):
        base = divisorthm_rhs(10**6, ModulusSplit((29, 5, 7, 2)), 0.05).bound_total
        grown = divisorthm_rhs(10**6, ModulusSplit((31, 5, 7, 2)), 0.05).bound_total
        assert grown > base

    def test_ratio_with_computed(self):
        r = divisorthm_rhs(10**6, self.SPLIT, 0.05, computed=12.5)
        assert r.ratio == pytest.approx(12.5 / r.bound_total, rel=1e-15)


class TestTargetSizes:
    def test_worked_values(self):
        q0, q1, q2, q3 = target_sizes(10**6, 10**4)
        assert q0 == pytest.approx(29.29, abs=5e-3)
        assert q1 == pytest.approx(5.412, abs=5e-4)
        assert q2 == pytest.approx(7.356, abs=5e-4)
        assert q3 == pytest.approx(8.577, abs=5e-4)

    def test_unit_modulus(self):
        x = 729
        assert target_sizes(x, 1) == pytest.approx(
            (x ** (1 / 3), x ** (1 / 6), x ** (-1 / 6), x ** (-1 / 3))
        )

    @given(st.integers(1, 10**9), st.integers(1, 10**8))
    @settings(max_examples=200)
    def test_product_identity(self, x, q):
        sizes = target_sizes(x, q)
        assert math.prod(sizes) == pytest.approx(q, rel=1e-12)


class TestAdmissible:
    def test_origin(self):
        assert admissible(0, 0)

    def test_interior_point(self):
        assert admissible(0.003, 0.01)

    def test_boundary_exact(self):
        assert not admissible(1 / 246, 0)
        assert not admissible(0, 1 / 18)

    def test_just_inside(self):
        assert admissible(1 / 246 - 1e-9, 0)

    def test_outside(self):
        assert not admissible(0.005, 0.01)


class TestTargetWindows:
    def test_endpoint_values(self):
        x, q, eta = 10**6, 10**4, 0.1
        w = target_windows(x, q, eta)
        qs = target_sizes(x, q)
        exps = ((-7 / 5, 8 / 5), (-1 / 5, 4 / 5), (-3 / 5, 2 / 5), (-4 / 5, 1 / 5))
        for j, (elo, ehi) in enumerate(exps):
            lo, hi = w.intervals[j]
            assert lo == pytest.approx(qs[j] * x ** (elo * eta), rel=1e-12)
            assert hi == pytest.approx(qs[j] * x ** (ehi * eta), rel=1e-12)

    def test_widths(self):
        x, q, eta = 10**6, 10**4, 0.07
        w = target_windows(x, q, eta)
        widths = [math.log(hi / lo) / math.log(x) for lo, hi in w.intervals]
        assert widths[0] == pytest.approx(3 * eta, rel=1e-9)
        for j in (1, 2, 3):
            assert widths[j] == pytest.approx(eta, rel=1e-9)

    def test_ordered(self):
        w = target_windows(10**8, 10**5, 0.02)
        assert all(lo <= hi for lo, hi in w.intervals)

    def test_eta_domain(self):
        with pytest.raises(DomainError):
            target_windows(10**6, 10**4, 0.0)

    def test_admissible_windows_clear_smoothness(self):
        # at admissible parameter points the window bottoms sit above
        # x^eta, so every window can absorb one more smooth prime
        for varpi, eta in ((0.001, 1 / 25), (0.003, 0.01)):
            assert admissible(varpi, eta)
            for x in (10**6, 10**8):
                q = round(x ** (2 / 3 + varpi))
                w = target_windows(x, q, eta)
                for lo, hi in w.intervals:
                    assert lo > x**eta


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            WindowSpec(((0.0, 1.0), (1, 2), (1, 2), (1, 2)))
        with pytest.raises(DomainError):
            WindowSpec(((3.0, 1.0), (1, 2), (1, 2), (1, 2)))

    def test_contains(self):
        w = WindowSpec(((1, 10), (1, 10), (1, 10), (1, 10)))
        assert parts_in_windows(w, (1, 2, 5, 10))
        assert not parts_in_windows(w, (1, 2, 5, 11))


def _random_windows(rng: random.Random, q: int) -> WindowSpec:
    intervals = []
    for _ in range(4):
        lo = math.exp(rng.uniform(-1.0, math.log(max(q, 2))))
        hi = lo * math.exp(rng.uniform(0.0, 2.5))
        intervals.append((lo, hi))
    return WindowSpec(tuple(intervals))


class TestFactorizeToWindows:
    def test_wide_windows_feasible(self):
        fq = factorize(30)
        w = WindowSpec(((1.0, 30.0),) * 4)
        split = factorize_to_windows(fq, w)
        products = assignment_products(fq.primes)
        assert split.parts == window_assignment_oracle(products, w)

    def test_infeasible(self):
        fq = factorize(105)
        w = WindowSpec(((14.0, 16.0),) * 4)
        assert factorize_to_windows(fq, w) is None

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            factorize_to_windows(factorize(12), WindowSpec(((1, 12),) * 4))

    def test_unit_modulus(self):
        fq = factorize(1)
        assert factorize_to_windows(fq, WindowSpec(((0.5, 2),) * 4)).parts == (1, 1, 1, 1)
        assert factorize_to_windows(fq, WindowSpec(((2, 3),) * 4)) is None

    def test_against_oracle_random_specs(self):
        rng = random.Random(20260809)
        for q in (2, 6, 30, 105, 210, 1155, 2310, 4199, 7429, 25935, 28749):
            fq = factorize(q)
            if not fq.squarefree:
                continue
            products = assignment_products(fq.primes)
            for _ in range(30):
                w = _random_windows(rng, q)
                got = factorize_to_windows(fq, w)
                want = window_assignment_oracle(products, w)
                assert (got.parts if got else None) == want, (q, w)

    @pytest.mark.parametrize("q", [9699690, 111546435, 223092870])
    def test_against_oracle_many_primes(self, q):
        # omega = 8, 8, 9: windows around a seeded assignment, random
        # windows, the x = 1e12 target windows and four equal windows
        # (every permutation ties, so the tie-break decides)
        fq = factorize(q)
        products = assignment_products(fq.primes)
        rng = random.Random(q)
        specs = [WindowSpec(((1.0, float(q)),) * 4), _random_windows(rng, q)]
        specs += [target_windows(10**12, q, eta) for eta in (0.15, 0.25)]
        for _ in range(3):
            parts = [1, 1, 1, 1]
            for p in fq.primes:
                parts[rng.randrange(4)] *= p
            specs.append(WindowSpec(tuple(
                (d * math.exp(-rng.uniform(0.0, 1.5)), d * math.exp(rng.uniform(0.0, 1.5)))
                for d in parts
            )))
        for w in specs:
            got = factorize_to_windows(fq, w)
            assert (got.parts if got else None) == window_assignment_oracle(products, w), w

    def test_tie_break_lexicographic(self):
        # all windows identical: permuted assignments tie exactly, so the
        # lexicographically smallest part tuple must win
        fq = factorize(6)
        w = WindowSpec(((1.0, 6.0),) * 4)
        split = factorize_to_windows(fq, w)
        products = assignment_products(fq.primes)
        assert split.parts == window_assignment_oracle(products, w)
        best_obj = window_objective(split.parts, w)
        ties = [
            parts
            for parts in products
            if parts_in_windows(w, parts) and window_objective(parts, w) == best_obj
        ]
        assert split.parts == min(ties)


class TestExponentFit:
    def test_exact_power_law(self):
        pts = [(s, s**0.5) for s in (1.0, 10.0, 100.0, 1e4)]
        fit = exponent_fit(pts)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_two_points_interpolate(self):
        fit = exponent_fit([(2.0, 8.0), (4.0, 64.0)])
        assert fit.slope == pytest.approx(3.0, rel=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_noisy_recovery(self):
        rng = random.Random(987654)
        slope_true, sigma = 1.5, 0.05
        pts = []
        for s in (10.0**k for k in range(1, 9)):
            noise = rng.gauss(0.0, sigma)
            pts.append((s, math.exp(slope_true * math.log(s) + noise)))
        fit = exponent_fit(pts)
        # 3 sigma of the slope estimator over this design
        xs = [math.log(s) for s, _ in pts]
        mx = sum(xs) / len(xs)
        se = sigma / math.sqrt(sum((u - mx) ** 2 for u in xs))
        assert abs(fit.slope - slope_true) <= 3 * se

    def test_domains(self):
        with pytest.raises(DomainError):
            exponent_fit([(1.0, 2.0)])
        with pytest.raises(DomainError):
            exponent_fit([(1.0, 2.0), (1.0, 3.0)])
        with pytest.raises(DomainError):
            exponent_fit([(1.0, 2.0), (2.0, -3.0)])
