"""Completion and differencing machinery for short Kloosterman sums.

This module provides the numeric side of the completion/differencing
pipeline for incomplete Kloosterman sums:

  * the completion identity S = (1/q) * sum_k f(k) S(a, k, q), f the
    interval's Fourier transform, checked to numeric error for a whole
    (interval, a) grid per modulus by two matrix products;
  * block maxima of partial sums of e_q(-Mk) S(a, k, q);
  * complete sums of shifted Kloosterman products to prime modulus and
    their multiplicative extension to squarefree moduli;
  * differenced sums T(h_1, ..., h_l) of 2^l-fold Kloosterman products;
  * an exhaustive checker for the even-multiplicity vanishing property
    of subset sums over F_p;
  * a single-step differencing inequality evaluated as an exact ratio.

The differencing and product-sum inequalities carry unspecified
constants, so the checkers report ratios against the bound with epsilon
= 0 and constant 1; observed maxima over fixed deterministic grids are
pinned below as regression constants.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .arith import (
    FactoredInteger,
    ModulusSplit,
    factorize,
    inverse_table,
    is_prime,
    mulmod,
    primes_up_to,
)
from .errors import DomainError, NotCoprime, NotSquarefree
from .kloosterman import (
    IntegerInterval,
    SumValue,
    _TERM_EPS,
    kloosterman_table,
    table_err,
)

# --------------------------------------------------------------------------
# Pinned regression constants.
#
# Measured on the full deterministic grids (2026-08-09); re-measure with
# scripts/pin_constants.py, which prints each pinned check's observed
# maxima (cli.check_magnitudes, cli.check_onediff at size "full") beside
# these pins.  The checks assert the grids never exceed these maxima;
# they are observations, not analytic bounds, except where noted.
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


@dataclass(frozen=True)
class ShiftVector:
    """Differencing shifts h_1..h_l and the step moduli they multiply."""

    h: tuple[int, ...]
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.h) != len(self.steps):
            raise DomainError("shift vector and step moduli lengths differ")

    def __len__(self) -> int:
        return len(self.h)


class OnediffReport(NamedTuple):
    """One-step differencing inequality, both sides evaluated exactly."""

    lhs: float
    rhs_core: float
    ratio: float


def _interval_indicator(q: int, intervals: list[IntegerInterval]) -> np.ndarray:
    """Boolean (len(intervals), q) array: row i marks the residues of intervals[i].

    Each interval is at most q long, so it covers each residue at most once.
    """
    offsets = np.array([interval.offset % q for interval in intervals], dtype=np.int64)
    lengths = np.array([len(interval) for interval in intervals], dtype=np.int64)
    # n lies in [offset, offset + length) mod q iff (n - offset) mod q < length
    return (np.arange(q, dtype=np.int64) - offsets[:, None]) % q < lengths[:, None]


def _completion_sides(
    q: int, intervals: list[IntegerInterval], residues: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the completion identity, one matrix product each.

    Returns (direct, completed), each of shape (len(intervals),
    len(residues)): direct[i, j] sums e_q(a_j * nbar) over the units n in
    intervals[i]; completed[i, j] is (1/q) sum_k f_i(k) S(a_j, k, q), with
    f_i the DFT of the indicator of intervals[i] mod q.
    """
    if q < 1:
        raise DomainError(f"modulus {q} must be >= 1")
    if any(len(interval) > q for interval in intervals):
        raise DomainError("interval longer than the period q")
    for r in residues:
        if math.gcd(r, q) != 1:
            raise NotCoprime(f"gcd({r}, {q}) > 1")
    indicator = _interval_indicator(q, intervals)
    a = np.array([r % q for r in residues], dtype=np.int64)
    inv = inverse_table(q)
    # only the units some interval covers: a short interval costs its length
    units = np.flatnonzero((inv >= 0) & indicator.any(axis=0))
    # e_q(a * nbar), rounded as incomplete_kloosterman rounds it; built in
    # place so that one (phi(q) x len(residues)) array is live at a time
    phases = mulmod(inv[units][:, None], a[None, :], q) * (2j * np.pi)
    phases /= q
    direct = indicator[:, units] @ np.exp(phases, out=phases)
    tables = np.empty((q, len(a)), dtype=np.complex128)
    for j, r in enumerate(a):
        tables[:, j] = kloosterman_table(int(r), q)
    completed = np.fft.fft(indicator, axis=1) @ tables / q
    return direct, completed


def completion_deviations(
    q: int, intervals: list[IntegerInterval], residues: list[int]
) -> np.ndarray:
    """|incomplete sum - (1/q) sum_k f(k) S(a, k, q)| for every (interval, a).

    The (len(intervals), len(residues)) array of deviations between the
    two evaluations of each incomplete Kloosterman sum to modulus q.
    Every a must be coprime to q and every interval at most q long.
    """
    direct, completed = _completion_sides(q, intervals, residues)
    return np.abs(direct - completed)


def completion_check(a: int, q: int, interval: IntegerInterval) -> float:
    """The completion deviation of one sum: completion_deviations' 1x1 case."""
    return float(completion_deviations(q, [interval], [a])[0, 0])


def partial_sum_max(a: int, q: int, M: int, K: int, r: int) -> float:
    """max over L = 0..K of |sum_{(r-1)K < k <= (r-1)K+L} e_q(-Mk) S(a,k,q)|."""
    if K < 1:
        raise DomainError(f"block length K = {K} must be >= 1")
    if q < 1:
        raise DomainError(f"modulus {q} must be >= 1")
    if math.gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) > 1")
    start = (r - 1) * K
    ks = start + 1 + np.arange(K, dtype=np.int64)
    table = kloosterman_table(a, q)
    weights = np.exp(-2j * np.pi * mulmod(ks % q, M % q, q) / q)
    running = np.cumsum(weights * table[ks % q])
    return float(np.abs(running).max(initial=0.0))


def _product_over_shifts(
    table: np.ndarray, ks: np.ndarray, shifts: tuple[int, ...], q: int
) -> np.ndarray:
    prod = np.ones(len(ks), dtype=np.complex128)
    for s in shifts:
        prod *= table[(ks + s) % q]
    return prod


def _product_sum_err(q: int, n_terms: int, j: int) -> float:
    """Error bound for a sum of n_terms products of j table values."""
    bound = 2.0 * math.sqrt(q) + 1.0
    per_term = j * bound ** max(j - 1, 0) * table_err(q)
    return n_terms * (per_term + _TERM_EPS * bound**j)


def shifted_product_complete_sum(
    a: int, shifts: tuple[int, ...], b: int, p: int
) -> SumValue:
    """sum over k mod p of e_p(-kb) * prod_i S(a, k + s_i, p), exactly.

    j = 0 degenerates to character orthogonality: p when p | b, else 0.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if a % p == 0:
        raise DomainError(f"{p} divides a = {a}")
    shifts = tuple(int(s) % p for s in shifts)
    if len(shifts) == 0:
        return SumValue(float(p) if b % p == 0 else 0.0, 0.0, 0.0)
    table = kloosterman_table(a, p)
    ks = np.arange(p, dtype=np.int64)
    prod = _product_over_shifts(table, ks, shifts, p)
    if b % p:
        prod = prod * np.exp(-2j * np.pi * (ks * (b % p) % p) / p)
    z = complex(prod.sum())
    return SumValue(z.real, z.imag, _product_sum_err(p, p, len(shifts)))


def shifted_product_sum_squarefree(
    a: int,
    shifts: tuple[int, ...],
    b: int,
    q: FactoredInteger,
    method: str = "crt",
) -> SumValue:
    """The analogous product sum to squarefree modulus q.

    method "crt" multiplies prime-modulus sums with unit-twisted
    arguments; "direct" sums over k mod q and is the oracle for the
    multiplicative route.
    """
    if not q.squarefree:
        raise NotSquarefree(f"{q.value} is not squarefree")
    if math.gcd(a, q.value) != 1:
        raise NotCoprime(f"gcd({a}, {q.value}) > 1")
    qv = q.value
    if qv == 1:
        return SumValue(1.0, 0.0, 0.0)
    shifts = tuple(int(s) for s in shifts)
    if method == "direct":
        table = kloosterman_table(a, qv)
        ks = np.arange(qv, dtype=np.int64)
        prod = _product_over_shifts(table, ks, tuple(s % qv for s in shifts), qv)
        if b % qv:
            prod = prod * np.exp(-2j * np.pi * (ks * (b % qv) % qv) / qv)
        z = complex(prod.sum())
        return SumValue(z.real, z.imag, _product_sum_err(qv, qv, max(len(shifts), 1)))
    if method != "crt":
        raise DomainError(f"unknown method {method!r}")
    result = SumValue(1.0, 0.0, 0.0)
    for p in q.primes:
        cof = qv // p
        cbar = pow(cof % p, -1, p)
        part = shifted_product_complete_sum(
            a * cbar % p, tuple(s * cbar % p for s in shifts), b % p, p
        )
        result = result.mul(part)
    return result


def t_eval(
    a1: int, split: ModulusSplit, shifts: ShiftVector, J: IntegerInterval
) -> SumValue:
    """Differenced sum over k in J of prod over subsets I of S(a1, k + sum_{i in I} q_i h_i, q0).

    The product runs over all 2^l subsets of the shift positions; l = 0
    reduces to a plain sum of single Kloosterman values.
    """
    q0 = split.parts[0]
    steps = split.parts[1:]
    if len(shifts) != split.l:
        raise DomainError(
            f"shift vector length {len(shifts)} does not match split l = {split.l}"
        )
    if shifts.steps != steps:
        raise DomainError("shift step moduli do not match the split parts")
    if q0 > 1 and math.gcd(a1, q0) != 1:
        raise NotCoprime(f"gcd({a1}, {q0}) > 1")
    n = len(J)
    if n == 0:
        return SumValue(0.0, 0.0, 0.0)
    l = split.l
    offsets = [
        sum(steps[i] * shifts.h[i] for i in range(l) if mask >> i & 1)
        for mask in range(1 << l)
    ]
    table = kloosterman_table(a1, q0)
    ks = np.array(list(J.values()), dtype=np.int64)
    prod = np.ones(n, dtype=np.complex128)
    for off in offsets:
        prod *= table[(ks + off) % q0]
    z = complex(prod.sum())
    return SumValue(z.real, z.imag, _product_sum_err(q0, n, 1 << l))


def vanishing_lemma_check(p: int, l: int) -> list[tuple[int, ...]]:
    """Exhaustively search (F_p^*)^l for all-even subset-sum multiplicities.

    Returns the shift vectors (h_1, ..., h_l), all nonzero mod p, whose
    2^l subset sums form a multiset with every multiplicity even.  The
    expected result is an empty list for every odd prime p.
    """
    if p < 3 or not is_prime(p):
        raise DomainError(f"p = {p} must be an odd prime")
    if l < 1:
        raise DomainError(f"l = {l} must be >= 1")
    if p**l > 10**7:
        raise DomainError(f"p^l = {p**l} too large to enumerate")
    counterexamples = []
    masks = list(range(1 << l))
    for h in itertools.product(range(1, p), repeat=l):
        bits = [0] * p
        for mask in masks:
            s = 0
            for i in range(l):
                if mask >> i & 1:
                    s += h[i]
            bits[s % p] ^= 1
        if not any(bits):
            counterexamples.append(h)
    return counterexamples


def onediff_ratio(
    a: int,
    q0: int,
    q1: int,
    M: int,
    J: IntegerInterval,
    shifts: tuple[int, ...] = (0,),
) -> OnediffReport:
    """Evaluate both sides of the single differencing step, with no
    epsilon factor and constant 1.

    lhs is |T|^2 for T = sum over k in J of e_q(-Mk) prod_i S(a, k+s_i, q),
    q = q0*q1.  rhs_core is q1^{j+1} * (K q0^j + sum over 0 < |h| <= K/q1
    of |inner(h)|), where inner(h) sums the differenced products over the
    overlap {k in J : k + q1 h in J} and the sums use a' = a * inv(q1)^2
    mod q0.  The returned ratio is diagnostic, not an asserted bound.
    """
    K = len(J)
    if q0 < 1 or q1 < 1:
        raise DomainError("parts must be positive")
    if math.gcd(q0, q1) != 1:
        raise NotCoprime(f"gcd({q0}, {q1}) > 1")
    q = q0 * q1
    if math.gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) > 1")
    if K == 0:
        return OnediffReport(0.0, 0.0, 0.0)
    if q1 > K:
        raise DomainError(f"hypothesis q1 <= K violated ({q1} > {K})")
    j = len(shifts)
    if j < 1:
        raise DomainError("at least one shift required")
    shifts = tuple(int(s) for s in shifts)

    table_q = kloosterman_table(a, q)
    ks = np.array(list(J.values()), dtype=np.int64)
    prod = _product_over_shifts(table_q, ks, tuple(s % q for s in shifts), q)
    weights = np.exp(-2j * np.pi * mulmod(ks % q, M % q, q) / q)
    t_val = complex((weights * prod).sum())
    lhs = abs(t_val) ** 2

    a1 = 0 if q0 == 1 else a * pow(q1 % q0, -1, q0) ** 2 % q0
    table_q0 = kloosterman_table(a1, q0)
    inner_total = 0.0
    H = K // q1
    lo0, hi0 = J.offset, J.offset + K
    for h in range(-H, H + 1):
        if h == 0:
            continue
        lo = max(lo0, lo0 - q1 * h)
        hi = min(hi0, hi0 - q1 * h)
        if lo >= hi:
            continue
        kk = np.arange(lo, hi, dtype=np.int64)
        inner = np.ones(hi - lo, dtype=np.complex128)
        for s in shifts:
            inner *= table_q0[(kk + s) % q0]
            inner *= table_q0[(kk + s + q1 * h) % q0]
        inner_total += abs(complex(inner.sum()))
    rhs_core = q1 ** (j + 1) * (K * float(q0) ** j + inner_total)
    ratio = lhs / rhs_core if rhs_core > 0 else 0.0
    return OnediffReport(lhs, rhs_core, ratio)


# --------------------------------------------------------------------------
# Deterministic grids for the pinned-regression checks.
# --------------------------------------------------------------------------

GRID_SEED = 0xC0FFEE


def completeexp_shift_grid(p: int, j: int) -> list[tuple[tuple[int, ...], int]]:
    """Deterministic (shifts, b) sample for the product-sum magnitude grid.

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
    bs = [0, 1, p - 1]
    seen = set()
    grid = []
    for s in tuples:
        for b in bs:
            key = (s, b % p)
            if key not in seen:
                seen.add(key)
                grid.append((s, b % p))
    return grid


def all_even_multiplicities(p: int, shifts: tuple[int, ...]) -> bool:
    counts = Counter(s % p for s in shifts)
    return all(c % 2 == 0 for c in counts.values())


class CompleteexpScan(NamedTuple):
    max_generic: dict[int, float]
    max_even_b0: dict[int, float]
    cells: int


def completeexp_scan(p_max: int = 199) -> CompleteexpScan:
    """Scan the deterministic product-sum grid and report ratio maxima.

    Generic cells are scaled by p^{(j+1)/2}; b = 0 cells with all-even
    shift multiplicities by p^{(j+2)/2} (these also obey the hard cap
    2^j from the per-factor Weil bound).
    """
    max_generic = {1: 0.0, 2: 0.0, 3: 0.0}
    max_even_b0 = {2: 0.0}
    cells = 0
    for p in primes_up_to(p_max):
        for j in (1, 2, 3):
            for shifts, b in completeexp_shift_grid(p, j):
                for a in (1, 2 % p):
                    if a % p == 0:
                        continue
                    val = shifted_product_complete_sum(a, shifts, b, p)
                    cells += 1
                    mag = val.magnitude
                    if b % p == 0 and all_even_multiplicities(p, shifts):
                        r = mag / p ** ((j + 2) / 2)
                        if j in max_even_b0:
                            max_even_b0[j] = max(max_even_b0[j], r)
                    else:
                        r = mag / p ** ((j + 1) / 2)
                        max_generic[j] = max(max_generic[j], r)
    return CompleteexpScan(max_generic, max_even_b0, cells)


def onediff_grid_cells() -> Iterator[tuple[int, int, int, int, int, tuple[int, ...]]]:
    """Deterministic (q0, q1, K, M, a, shifts) cells for the differencing grid."""
    for q in range(6, 211):
        fq = factorize(q)
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
