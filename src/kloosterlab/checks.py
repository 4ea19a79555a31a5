"""The lemma checks, each declared once with its grid and its pin.

Each check_* function runs its one deterministic grid and returns a
CheckResult; cli.SUITE_CHECKS, the acceptance tests and
scripts/pin_constants.py call them.  vdc_lab evaluates the sums.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# arith.factorize, vdc_lab.vanishing_lemma_check: perfbench/spans.py traces them only there
from . import arith, vdc_lab
from .arith import primes_up_to, unit_mask
from .kloosterman import IntegerInterval, kloosterman_tables, table_err
from .vdc_lab import (
    completion_deviations,
    onediff_ratios,
    orthogonality_sums,
    product_sums,
    product_sums_crt,
    product_sums_squarefree,
)

# --------------------------------------------------------------------------
# Pinned regression constants.
#
# Measured on the deterministic grids (2026-08-09); re-measure with
# scripts/pin_constants.py, which prints each pinned check's observed
# maxima (check_magnitudes, check_onediff) beside these pins.  The
# checks assert the grids never exceed these maxima; they are
# observations, not analytic bounds, except where noted.
# --------------------------------------------------------------------------

# max |sum| / p^{(j+1)/2} over the generic cells (b != 0 or shift
# multiplicities not all even) of the complete product-sum grid,
# p <= 199, a in {1, 2}, deterministic shift/b sample.  Measured
# {1: 1.0, 2: 2.972242313, 3: 3.587692063}; pinned with one part in
# 10^7 of headroom for float jitter across BLAS builds.
PINNED_COMPLETEEXP_GENERIC = {1: 1.0000001, 2: 2.9722424, 3: 3.5876921}

# max |sum| / p^{(j+2)/2} over the b = 0, all-even-multiplicity cells.
# The analytic cap from the per-factor Weil bound is 2^j; the measured
# maximum is 0.994974874 (= 1 - 1/199, the exact orthogonality value).
PINNED_COMPLETEEXP_EVEN_B0 = {2: 0.9949749}

# max |T|^2 / rhs_core over the one-step differencing grid
# (squarefree q0*q1 <= 210, K in {10, 20, 30}).  Measured 0.697633485.
PINNED_ONEDIFF_RATIO = 0.6976335


# --------------------------------------------------------------------------
# Deterministic grids for the pinned-regression checks.
# --------------------------------------------------------------------------

GRID_SEED = 0xC0FFEE


def completion_grid_intervals(q: int) -> list[IntegerInterval]:
    """20 seeded random intervals of length <= q for the completion grid."""
    rng = random.Random(GRID_SEED ^ (q * 0x9E3779B1))
    return [
        IntegerInterval(rng.randrange(-2 * q, 2 * q + 1), rng.randint(0, q))
        for _ in range(20)
    ]


def completeexp_shift_grid(p: int, j: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Deterministic (shift tuples, bs) sample for the product-sum magnitude
    grid, which pairs every tuple with every b; each is listed once, b mod p.

    Mixes structured tuples (constant, pairwise-repeated, staggered) with
    a few pseudorandom ones drawn from a seed fixed by (p, j), so reruns
    see the identical grid.
    """
    base = []
    for v in (0, 1, 2, 3, p // 2, p - 1):
        if v % p not in base:
            base.append(v % p)
    tuples: list[tuple[int, ...]] = []
    for v in base[:3]:
        tuples.append((v,) * j)
    for t in range(len(base)):
        tuples.append(tuple(base[(t + i) % len(base)] for i in range(j)))
    if j % 2 == 0:
        for v, w in itertools.combinations(base[:4], 2):
            tuples.append((v,) * (j // 2) + (w,) * (j // 2))
    rng = random.Random(GRID_SEED + 1000003 * p + 101 * j)
    for _ in range(4):
        tuples.append(tuple(rng.randrange(p) for _ in range(j)))
    return list(dict.fromkeys(tuples)), list(dict.fromkeys(b % p for b in (0, 1, p - 1)))


def all_even_multiplicities(p: int, shifts: tuple[int, ...]) -> bool:
    counts = Counter(s % p for s in shifts)
    return all(c % 2 == 0 for c in counts.values())


def onediff_grid_cells() -> Iterator[tuple[int, int, int, int, int, tuple[int, ...]]]:
    """Deterministic (q0, q1, K, M, a, shifts) cells for the differencing grid."""
    for q in range(6, 211):
        fq = arith.factorize(q)
        if not fq.squarefree or len(fq.factors) < 2:
            continue
        primes = fq.primes
        for r in range(1, len(primes)):
            for combo in itertools.combinations(primes, r):
                q1 = math.prod(combo)
                q0 = q // q1
                if q0 < 2:
                    continue
                for K in (10, 20, 30):
                    if q1 > K:
                        continue
                    for M in (0, 1):
                        for a in (1, 2):
                            if math.gcd(a, q) != 1:
                                continue
                            for shifts in ((0,), (1,)):
                                yield q0, q1, K, M, a, shifts


def _within(observed: dict[str, float], allowed: dict[str, float]) -> bool:
    return all(observed[k] <= allowed[k] for k in allowed)


@dataclass(frozen=True)
class CheckResult:
    """One lemma check over its whole grid.

    observed and allowed share their keys: each bounded quantity (a pin,
    tolerance or cap) maps to its observed value and to the largest value
    the check accepts; ok says every observed value is within its allowed
    one.  line is the check's one-line report.
    """

    name: str
    cells: int
    observed: dict[str, float]
    allowed: dict[str, float]
    line: str

    @property
    def ok(self) -> bool:
        return _within(self.observed, self.allowed)


def check_weil() -> CheckResult:
    """|S(a,b;p)| <= 2 sqrt(p) and Im S within err, exhaustive over (a, b).

    One row per prime covers every (a, b): S(a, b; p) = S(1, ab; p), and
    k -> a*k permutes the nonzero residues mod p, so each row a of
    kloosterman_tables(range(1, p), p) holds the entries of the base row
    S(1, k; p), k = 0..p-1, permuted (bitwise: the rows are gathers from
    one base table).  Every row therefore has the base row's maxima, and
    each cap the base row exceeds is exceeded once in each of the p - 1
    rows.  cells still counts the (p - 1) * p pairs covered.
    """
    p_max = 499
    max_ratio = 0.0
    max_im = 0.0
    # largest signed excess over each cap: <= 0 exactly when no cell exceeds it
    observed = {"max |S| - (2 sqrt p + err)": -math.inf, "max |Im S| - err": -math.inf}
    violations = 0
    cells = 0
    for p in primes_up_to(p_max):
        err = table_err(p)
        weil = 2 * math.sqrt(p)
        base = kloosterman_tables([1], p)[0]
        im = float(np.abs(base.imag).max())
        top = float(np.abs(base[1:]).max())
        excess = (top - (weil + err), im - err)
        violations += (p - 1) * sum(e > 0 for e in excess)
        for key, e in zip(observed, excess):
            observed[key] = max(observed[key], e)
        max_im = max(max_im, im)
        max_ratio = max(max_ratio, top / weil)
        cells += (p - 1) * p
    allowed = dict.fromkeys(observed, 0.0)
    return CheckResult("weil", cells, observed, allowed, (
        f"weil: p <= {p_max} exhaustive over (a,b), p not dividing ab: "
        f"max |S|/(2*sqrt p) = {max_ratio:.12f}, max |Im S| = {max_im:.3g}, "
        f"violations = {violations}"
    ))


def check_completion() -> CheckResult:
    """Completion identity deviation over a full (q, a, interval) grid."""
    q_max = 300
    worst = 0.0
    checks = 0
    for q in range(1, q_max + 1):
        intervals = completion_grid_intervals(q)
        residues = np.flatnonzero(unit_mask(q)).tolist()  # [0] at q = 1
        deviations = completion_deviations(q, intervals, residues)
        worst = max(worst, float(deviations.max()))
        checks += deviations.size
    observed = {"max deviation": worst}
    allowed = {"max deviation": 1e-8}
    return CheckResult("completion", checks, observed, allowed, (
        f"completion: q <= {q_max}, all coprime a, 20 seeded intervals each "
        f"({checks} checks): max deviation = {worst:.3g} (tolerance 1e-08)"
    ))


def check_vanishing() -> CheckResult:
    """Exhaustive search for all-even subset-sum multiplicities over F_p^*."""
    ls = (1, 2, 3)
    primes = (3, 5, 7, 11, 13)
    total = 0
    for p in primes:
        for l in ls:
            total += len(vdc_lab.vanishing_lemma_check(p, l))
    observed = {"counterexamples": total}
    allowed = {"counterexamples": 0}
    cells = sum((p - 1) ** l for p in primes for l in ls)
    return CheckResult("vanishing", cells, observed, allowed, (
        f"vanishing: {total} counterexamples, p in {{3,5,7,11,13}}, "
        f"l <= {max(ls)} (exhaustive)"
    ))


def check_orthogonality() -> CheckResult:
    """sum_k S(a,k;p) = 0 and sum_k S(a,k;p)^2 = p^2 - p, for every prime p and a."""
    p_max = 199
    worst_first = 0.0
    worst_second = 0.0
    cells = 0
    for p in primes_up_to(p_max):
        scale = p * p - p
        s1, s2 = orthogonality_sums(p)
        # np.hypot rounds as abs(complex) does; np.abs does not
        worst_first = max(worst_first, float((np.hypot(s1.real, s1.imag) / p).max()))
        dev = np.hypot(s2.real - scale, s2.imag) / scale
        worst_second = max(worst_second, float(dev.max()))
        cells += p - 1
    observed = {"max |sum S|/p": worst_first,
                "max rel.dev of sum S^2 from p^2-p": worst_second}
    allowed = dict.fromkeys(observed, 1e-6)
    return CheckResult("product-sums orthogonality", cells, observed, allowed, (
        f"product-sums orthogonality: p <= {p_max}, all a: "
        f"max |sum S|/p = {worst_first:.3g}, "
        f"max rel.dev of sum S^2 from p^2-p = {worst_second:.3g}"
    ))


def check_multiplicativity() -> CheckResult:
    """CRT evaluation of squarefree product sums against direct summation."""
    q_max = 210
    batches = []
    for q in range(2, q_max + 1):
        fq = arith.factorize(q)
        if not fq.squarefree:
            continue
        sample = sorted({0, 1, 2, q // 2, q - 1})
        shift_sets: list[tuple[int, ...]] = [()]
        shift_sets += [(s,) for s in sample]
        shift_sets += [(s1, s2) for s1 in sample[:3] for s2 in sample]
        units = [a for a in (1, q - 1) if math.gcd(a, q) == 1]
        for j in (0, 1, 2):
            rows = [(a, shifts) for a in units for shifts in shift_sets if len(shifts) == j]
            residues = [a for a, _ in rows]
            shifts = np.array([s for _, s in rows], dtype=np.int64).reshape(len(rows), j)
            batches.append((residues, shifts, fq))
    # the prime parts of every q are evaluated in one batch per (p, j)
    crt = product_sums_crt(batches, (0, 1))
    direct = [product_sums_squarefree(r, s, (0, 1), fq) for r, s, fq in batches]
    (c, c_err), (d, d_err) = ([np.concatenate(x) for x in zip(*sums)] for sums in (crt, direct))
    dev = np.hypot(c.real - d.real, c.imag - d.imag)
    budget = np.maximum(c_err + d_err, 1e-12)
    worst_crt = float((dev / budget).max(initial=0.0))
    pairs = dev.size
    observed = {"max deviation/err": worst_crt}
    allowed = {"max deviation/err": 1.0}
    return CheckResult("product-sums multiplicativity", pairs, observed, allowed, (
        f"product-sums multiplicativity: squarefree q <= {q_max}, j <= 2 "
        f"({pairs} comparisons): max deviation/err = {worst_crt:.3g}"
    ))


def check_magnitudes() -> CheckResult:
    """Product-sum magnitude ratios against their pins and the 2^j caps.

    Over completeexp_shift_grid(p, j) and a in {1, 2}: generic cells are scaled by
    p^{(j+1)/2}; b = 0 cells with all-even shift multiplicities by p^{(j+2)/2}
    (these also obey the hard cap 2^j from the per-factor Weil bound).
    """
    p_max = 199
    max_generic = {1: 0.0, 2: 0.0, 3: 0.0}
    max_even_b0 = {2: 0.0}
    cells = 0
    for p in primes_up_to(p_max):
        residues = [a for a in (1, 2 % p) if a % p]
        for j in max_generic:
            tuples, bs = completeexp_shift_grid(p, j)
            rows = [(a, shifts) for shifts in tuples for a in residues]
            values = product_sums([a for a, _ in rows], [shifts for _, shifts in rows], bs, p)
            mags = np.hypot(values.real, values.imag)  # rounds as abs(complex) does
            cells += mags.size
            even = np.array([all_even_multiplicities(p, shifts) for _, shifts in rows])
            even_b0 = even[:, None] & (np.array(bs) == 0)
            if even_b0.any() and j in max_even_b0:
                top = float((mags[even_b0] / p ** ((j + 2) / 2)).max())
                max_even_b0[j] = max(max_even_b0[j], top)
            if not even_b0.all():
                top = float((mags[~even_b0] / p ** ((j + 1) / 2)).max())
                max_generic[j] = max(max_generic[j], top)
    observed = {f"generic j={j}": r for j, r in max_generic.items()}
    allowed = {f"generic j={j}": PINNED_COMPLETEEXP_GENERIC[j] for j in max_generic}
    for j, r in max_even_b0.items():
        observed[f"even b=0 j={j}"] = r
        allowed[f"even b=0 j={j}"] = min(PINNED_COMPLETEEXP_EVEN_B0.get(j, 2.0**j), 2.0**j)
    return CheckResult("product-sums magnitudes", cells, observed, allowed, (
        f"product-sums magnitudes ({cells} cells): generic ratios "
        f"{ {j: round(v, 6) for j, v in max_generic.items()} } vs pinned "
        f"{PINNED_COMPLETEEXP_GENERIC}; even b=0 "
        f"{ {j: round(v, 6) for j, v in max_even_b0.items()} } vs pinned "
        f"{PINNED_COMPLETEEXP_EVEN_B0} (hard caps 2^j): "
        f"{'ok' if _within(observed, allowed) else 'EXCEEDED'}"
    ))


def check_onediff() -> CheckResult:
    """One-step differencing ratio |T|^2 / rhs_core against its pin."""
    intervals = {K: IntegerInterval(0, K) for K in (10, 20, 30)}
    reports = onediff_ratios([
        (a, q0, q1, M, intervals[K], shifts)
        for q0, q1, K, M, a, shifts in onediff_grid_cells()
    ])
    worst = max((rep.ratio for rep in reports), default=0.0)
    cells = len(reports)
    observed = {"max |T|^2/rhs_core": worst}
    allowed = {"max |T|^2/rhs_core": PINNED_ONEDIFF_RATIO}
    return CheckResult("onediff", cells, observed, allowed, (
        f"onediff: {cells} grid cells: max |T|^2/rhs_core = {worst:.9f} "
        f"vs pinned {PINNED_ONEDIFF_RATIO} ({'ok' if _within(observed, allowed) else 'EXCEEDED'})"
    ))
