"""Brute-force reference implementations used only by the tests.

Everything here favors obviousness over speed: definitional loops in
plain Python (kloosterman_brute_grid multiplies its two phase matrices
with numpy), flat enumerations, no caching.  The one shared piece of
production code is window_objective, since the optimization target is
part of the contract being checked, not of the search being validated.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from kloosterlab.bounds_opt import WindowSpec, window_objective


def e_q(x: int, q: int) -> complex:
    return cmath.exp(2j * cmath.pi * (x % q) / q)


def kloosterman_brute(a: int, b: int, q: int) -> complex:
    """Definitional S(a, b; q) with per-term pow inverses."""
    if q == 1:
        return 1 + 0j
    total = 0j
    for n in range(1, q):
        if math.gcd(n, q) == 1:
            total += e_q(a * pow(n, -1, q) + b * n, q)
    return total


def kloosterman_brute_grid(q: int) -> np.ndarray:
    """Definitional S(a, b; q) for every a, b mod q, as one matrix product:
    [e_q(a * nbar)] (a by unit n) times [e_q(b * n)] (unit n by b)."""
    units = [n for n in range(q) if math.gcd(n, q) == 1]
    left = np.array([[e_q(a * pow(n, -1, q), q) for n in units] for a in range(q)])
    right = np.array([[e_q(b * n, q) for b in range(q)] for n in units])
    return left @ right


def incomplete_brute(a: int, q: int, m: int, n: int) -> complex:
    total = 0j
    for v in range(m, m + n):
        if math.gcd(v, q) == 1:
            total += e_q(a * pow(v % q, -1, q), q)
    return total


def interval_fourier_brute(m: int, n: int, q: int, k: int) -> complex:
    return sum(e_q(-v * k, q) for v in range(m, m + n))


def tau_brute(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def divisor_sum_brute(x: int, q: int, a: int) -> int:
    return sum(tau_brute(n) for n in range(1, x + 1) if n % q == a % q)


def _progression_count(limit: int, w: int, q: int, a: int) -> int:
    """#{t in [1, limit] : w*t = a (mod q)}, with one pow inverse."""
    g = math.gcd(w, q)
    if a % g:
        return 0
    m = q // g
    c = (a // g) * pow(w // g, -1, m) % m
    return (limit - c) // m + (c > 0)


def divisor_sum_split(x: int, q: int, a: int, y: int) -> int:
    """D(x, q, a) by the hyperbola identity split at any 1 <= y <= x.

    Pairs u*v <= x have u <= y, or u > y and then v <= z = x // (y + 1);
    for those v the u run over (y, x // v].
    """
    a %= q
    z = x // (y + 1)
    total = sum(_progression_count(x // u, u, q, a) for u in range(1, y + 1))
    for v in range(1, z + 1):
        total += _progression_count(x // v, v, q, a) - _progression_count(y, v, q, a)
    return total


def coprime_tau_sum_split(x: int, q: int, y: int) -> int:
    """Sum of tau(n), n <= x coprime to q, split at any 1 <= y <= x.

    Coprime counts come from one period: C(X) = (X // q) * phi(q) plus the
    count of units in [1, X mod q].
    """
    prefix = [0]
    for t in range(1, q + 1):
        prefix.append(prefix[-1] + (math.gcd(t, q) == 1))

    def coprime_count(limit: int) -> int:
        return (limit // q) * prefix[q] + prefix[limit % q]

    z = x // (y + 1)
    total = sum(coprime_count(x // u) for u in range(1, y + 1) if math.gcd(u, q) == 1)
    for v in range(1, z + 1):
        if math.gcd(v, q) == 1:
            total += coprime_count(x // v) - coprime_count(y)
    return total


def mobius_brute(n: int) -> int:
    if n == 1:
        return 1
    m, cnt = n, 0
    for p in range(2, n + 1):
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            cnt += 1
            if m % p == 0:
                return 0
    if m > 1:
        cnt += 1
    return (-1) ** cnt


def factor_brute(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1 by trial division by every d >= 2."""
    factors = []
    m, d = n, 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def totient_brute(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def assignment_products(primes: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """Part products of every prime-to-part assignment, flat 4^omega order."""
    out = []
    for assign in itertools.product((0, 1, 2, 3), repeat=len(primes)):
        d = [1, 1, 1, 1]
        for p, j in zip(primes, assign):
            d[j] *= p
        out.append((d[0], d[1], d[2], d[3]))
    return out


def window_assignment_oracle(
    products: list[tuple[int, int, int, int]], windows: WindowSpec
):
    """Optimal feasible assignment by flat scan; None when infeasible."""
    (lo0, hi0), (lo1, hi1), (lo2, hi2), (lo3, hi3) = windows.intervals
    best = None
    for parts in products:
        d0, d1, d2, d3 = parts
        if (
            d0 < lo0 or d0 > hi0 or d1 < lo1 or d1 > hi1
            or d2 < lo2 or d2 > hi2 or d3 < lo3 or d3 > hi3
        ):
            continue
        cand = (window_objective(parts, windows), parts)
        if best is None or cand < best:
            best = cand
    return None if best is None else best[1]
