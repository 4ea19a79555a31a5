"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
whole module is also exercised by a plain `pytest` run.  Expected total
runtime is a few minutes, dominated by the window-factorizer oracle
comparison and the end-to-end sweep.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

from kloosterlab.arith import factorize
from kloosterlab.bounds_opt import (
    admissible,
    factorize_to_windows,
    target_sizes,
    target_windows,
    WindowSpec,
)
from kloosterlab.checks import (
    check_completion,
    check_magnitudes,
    check_orthogonality,
    check_vanishing,
    check_weil,
)
from kloosterlab.cli import SweepConfig, render_report, run_sweep, verify_report
from kloosterlab.divisor_ap import (
    ApQuery,
    divisor_main_term,
    divisor_sum_ap,
    divisor_sum_ap_all,
    error_term,
)
from kloosterlab.kloosterman import _direct_sum, complete_kloosterman

from brute import assignment_products, mobius_brute, parts_in_windows, window_assignment_oracle


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion:02d}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_weil_suite():
    r = check_weil()
    _report(1, r.ok, r.line)


def test_c02_twisted_multiplicativity():
    worst = 0.0
    worst_budget = 0.0
    checks = 0

    def within(got, want):
        nonlocal worst, worst_budget, checks
        diff = abs(got.as_complex - want.as_complex)
        budget = got.err + want.err
        worst = max(worst, diff)
        worst_budget = max(worst_budget, budget)
        checks += 1
        return diff <= budget

    for q in range(1, 1001):
        fq = factorize(q)
        if not fq.squarefree:
            continue
        rng = random.Random(0xACCE2 + q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(10)]
        direct = {ab: _direct_sum(*ab, q) for ab in set(pairs)}
        for ab in pairs:
            assert within(complete_kloosterman(*ab, q), direct[ab]), (q, ab)
        # S(a, b; q0 q1) = S(a q1bar, b q1bar; q0) S(a q0bar, b q0bar; q1)
        primes = fq.primes
        for r in range(len(primes) + 1):
            for combo in itertools.combinations(primes, r):
                q0 = math.prod(combo)
                q1 = q // q0
                q1bar = pow(q1, -1, q0)
                q0bar = pow(q0, -1, q1)
                for a, b in pairs:
                    left = complete_kloosterman(a * q1bar, b * q1bar, q0)
                    right = complete_kloosterman(a * q0bar, b * q0bar, q1)
                    assert within(left.mul(right), direct[a, b]), (q0, q1, a, b)
    ok = worst <= 1e-8 and worst_budget <= 1e-8
    _report(
        2,
        ok,
        f"CRT evaluation and every two-part split vs direct over squarefree "
        f"q <= 1000, 10 seeded (a,b) each ({checks} checks): "
        f"max |diff| = {worst:.3g}, max err budget = {worst_budget:.3g} (<= 1e-08)",
    )


def test_c03_completion_identity():
    r = check_completion()
    _report(3, r.ok, r.line)


def test_c04_divisor_dual_algorithms():
    worst_cells = 0
    zero_sums_ok = True
    for x in (10**3, 10**4, 10**5):
        for q in range(1, 101):
            sieve_all = divisor_sum_ap_all(x, q)
            for a in range(q):
                h = divisor_sum_ap(ApQuery(x, q, a), "hyperbola")
                if h != sieve_all[a]:
                    worst_cells += 1
            main = divisor_main_term(x, q, "hyperbola")
            total = sum(
                (
                    Fraction(sieve_all[a]) - main.rational
                    for a in range(q)
                    if math.gcd(a, q) == 1 or q == 1
                ),
                start=Fraction(0),
            )
            if total != 0:
                zero_sums_ok = False
    ok = worst_cells == 0 and zero_sums_ok
    _report(
        4,
        ok,
        f"hyperbola == sieve for x in {{1e3,1e4,1e5}}, q <= 100, all a "
        f"({worst_cells} mismatches); zero-sum of E over units exact: "
        f"{zero_sums_ok}",
    )


def test_c05_hand_values():
    checks = {
        "D(10,3,1)=10": divisor_sum_ap(ApQuery(10, 3, 1)) == 10,
        "D(10,3)=9": divisor_main_term(10, 3).rational == 9,
        "E(10,3,1)=1": error_term(ApQuery(10, 3, 1)).rational == 1,
    }
    s113 = _direct_sum(1, 1, 3)
    checks["S(1,1,3)=-1"] = abs(s113.as_complex - (-1)) <= s113.err + 1e-12
    worst_mu = 0.0
    for q in range(1, 501):
        fq = factorize(q)
        if not fq.squarefree:
            continue
        mu = mobius_brute(q)
        v = _direct_sum(1, 0, q)
        worst_mu = max(worst_mu, abs(v.as_complex - mu))
    checks["S(1,0,q)=mu(q) for squarefree q<=500"] = worst_mu <= 1e-9
    ok = all(checks.values())
    _report(
        5,
        ok,
        "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
        + f"; max |S - mu| = {worst_mu:.3g}",
    )


def test_c06_vanishing_lemma():
    r = check_vanishing()
    _report(6, r.ok, r.line)


def test_c07_product_sum_orthogonality():
    r = check_orthogonality()
    _report(7, r.ok, r.line)


def test_c08_completeexp_regression():
    r = check_magnitudes()
    _report(8, r.ok, r.line)


def _window_specs_for(q: int, primes: tuple[int, ...], count: int = 50):
    rng = random.Random(0xACCE9 ^ (q * 0x9E3779B97F4A7C15 & (2**63 - 1)))
    logq = math.log(max(q, 2))
    specs = []
    for i in range(count):
        if i % 2 == 0 and primes:
            parts = [1, 1, 1, 1]
            for p in primes:
                parts[rng.randrange(4)] *= p
            intervals = tuple(
                (
                    d * math.exp(-rng.uniform(0.0, 1.2)),
                    d * math.exp(rng.uniform(0.0, 1.2)),
                )
                for d in parts
            )
        else:
            intervals = []
            for _ in range(4):
                lo = math.exp(rng.uniform(-1.0, logq))
                intervals.append((lo, lo * math.exp(rng.uniform(0.0, 2.5))))
            intervals = tuple(intervals)
        specs.append(WindowSpec(intervals))
    return specs


def test_c09_window_factorizer_vs_oracle():
    checked = 0
    feasible = 0
    mismatches = 0
    for q in range(1, 30001):
        fq = factorize(q)
        if not fq.squarefree or len(fq.factors) > 6:
            continue
        products = assignment_products(fq.primes)
        for windows in _window_specs_for(q, fq.primes):
            got = factorize_to_windows(fq, windows)
            want = window_assignment_oracle(products, windows)
            got_parts = got.parts if got is not None else None
            if got_parts != want:
                mismatches += 1
            checked += 1
            if want is not None:
                feasible += 1
    ok = mismatches == 0
    _report(
        9,
        ok,
        f"window factorizer == exhaustive oracle on {checked} (q, spec) "
        f"pairs (squarefree q <= 3e4, 50 seeded specs each, "
        f"{feasible} feasible): {mismatches} mismatches",
    )


def test_c10_target_sizes_and_admissibility():
    rng = random.Random(0xACCE10)
    worst_rel = 0.0
    for _ in range(1000):
        x = rng.randrange(1, 10**9)
        q = rng.randrange(1, 10**7)
        sizes = target_sizes(x, q)
        worst_rel = max(worst_rel, abs(math.prod(sizes) - q) / q)
    boundary_ok = (
        admissible(0, 0)
        and admissible(0.003, 0.01)
        and not admissible(1 / 246, 0)
        and not admissible(0, 1 / 18)
        and admissible(1 / 246 - 1e-9, 0)
        and not admissible(0.005, 0.01)
    )
    ok = worst_rel <= 1e-12 and boundary_ok
    _report(
        10,
        ok,
        f"product identity rel.dev = {worst_rel:.3g} over 1000 seeded (x,q) "
        f"(<= 1e-12); admissibility boundary cases incl. exact equality: "
        f"{boundary_ok}",
    )


def test_c11_end_to_end_sweep(tmp_path):
    base = dict(
        x_values=[10**5, 3 * 10**5, 10**6],
        q_lo_exp=0.60,
        q_hi_exp=0.64,
        eta=0.25,
        residues={"sample": 20},
        delta=0.05,
        eps=0.0,
        seed=20260809,
        format="csv",
    )
    config4 = SweepConfig(**base, jobs=4)
    rows, summary = run_sweep(config4)
    text = render_report(config4, rows, summary)
    # the report's bytes, pinned: no BLAS product enters a sweep row
    pinned = (hashlib.sha256(text.encode()).hexdigest()
              == "74c0dcd20ab4cdbad5691626abd1651f2a29eca07d0f4a27d1b369a75f3dff11")

    rows_b, summary_b = run_sweep(config4)
    rerun_identical = render_report(config4, rows_b, summary_b) == text
    config1 = SweepConfig(**base, jobs=1)
    rows_c, summary_c = run_sweep(config1)
    jobs_identical = render_report(config1, rows_c, summary_c) == text

    window_cache: dict = {}
    in_windows = True
    feasible_rows = 0
    for r in rows:
        if r["q0"] is None:
            continue
        feasible_rows += 1
        key = (r["x"], r["q"])
        if key not in window_cache:
            window_cache[key] = target_windows(r["x"], r["q"], 0.25)
        if not parts_in_windows(window_cache[key], (r["q0"], r["q1"], r["q2"], r["q3"])):
            in_windows = False

    out = tmp_path / "sweep.csv"
    out.write_text(text)
    verified, _ = verify_report(str(out), seed=17, fraction=0.01)

    fit = summary["scaled_E_fit"]
    ok = (
        pinned
        and rerun_identical
        and jobs_identical
        and in_windows
        and feasible_rows > 0
        and verified
        and summary["errors"] == 0
        and fit is not None
    )
    _report(
        11,
        ok,
        f"{summary['rows']} rows over x in {{1e5,3e5,1e6}}: byte-reproducible "
        f"(pinned sha256: {pinned}, rerun: {rerun_identical}, jobs 1 vs 4: "
        f"{jobs_identical}); "
        f"{feasible_rows} feasible rows all inside their windows: {in_windows}; "
        f"report verified: {verified}; fitted exponent of max q|E|/x vs x = "
        f"{fit['slope']:.4f} (reported, not asserted)",
    )
