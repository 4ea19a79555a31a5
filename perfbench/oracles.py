"""Reference values computed without kloosterlab.

* Divisor sums: a tau table from the divisor pairs d < sqrt(n) (numpy),
  D(x, q, a) summed along the progression, and the main term from a
  Mobius sum over the squarefree divisors of q.  None of this shares code
  with the program's lattice count or its tau sieve.
* Kloosterman sums: modular inverses by Python's `pow(n, -1, q)` and
  phases summed term by term with `cmath` and `math.fsum`; complete sums
  from their definition, with inverses from Euler's theorem.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

EPS = float(np.finfo(np.float64).eps)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def tau_upto(x: int) -> np.ndarray:
    """tau(n) for n = 0..x (tau(0) = 0), counting divisor pairs d < n/d."""
    tau = np.zeros(x + 1, dtype=np.uint16)
    for d in range(1, math.isqrt(x) + 1):
        tau[d * d] += 1
        tau[d * (d + 1) :: d] += 2
    return tau


def error_term(tau: np.ndarray, x: int, q: int, a: int) -> Fraction:
    """E(x, q, a) = D(x, q, a) - (1/phi(q)) sum_{n <= x, (n, q) = 1} tau(n)."""
    r = a % q
    d_ap = int(tau[r if r else q : x + 1 : q].sum(dtype=np.int64))
    primes = prime_factors(q)
    phi = q
    for p in primes:
        phi = phi // p * (p - 1)
    coprime = 0
    for k in range(len(primes) + 1):
        for combo in combinations(primes, k):
            d = math.prod(combo)
            coprime += (-1) ** k * int(tau[d : x + 1 : d].sum(dtype=np.int64))
    return Fraction(d_ap) - Fraction(coprime, phi)


def incomplete_kloosterman(a: int, q: int, offset: int, length: int) -> tuple[complex, float]:
    """Sum of e_q(a * nbar) over the interval's units, and its error bound.

    Each term is one correctly rounded exp of a phase reduced mod q, and
    fsum adds the terms exactly, so 4 eps per term bounds the error.
    """
    re, im = [], []
    for n in range(offset, offset + length):
        if math.gcd(n, q) == 1:
            z = cmath.exp(2j * math.pi * (a * pow(n, -1, q) % q) / q)
            re.append(z.real)
            im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im)), 4 * EPS * len(re)


def unit_inverses(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The units n of Z/q and their inverses n^(phi(q) - 1) mod q (Euler),
    by square-and-multiply on int64; q^2 < 2^63 keeps products exact."""
    if q * q >= 1 << 63:
        raise ValueError(f"q = {q} too large for int64 square-and-multiply")
    n = np.arange(q, dtype=np.int64)
    units = n[np.gcd(n, q) == 1]
    e = q
    for p in prime_factors(q):
        e = e // p * (p - 1)
    e -= 1
    inv = np.ones_like(units)
    base = units % q
    while e:
        if e & 1:
            inv = inv * base % q
        base = base * base % q
        e >>= 1
    return units, inv


def partial_sum_max(units: np.ndarray, inv: np.ndarray, a: int, q: int, M: int, K: int,
                    r: int) -> tuple[float, float]:
    """max over L of |sum_{k in block, k <= start+L} e_q(-Mk) S(a, k; q)|,
    with S summed from its definition over the units of q, and an error
    bound on that maximum."""
    base = a * inv % q
    start = (r - 1) * K
    running, best = 0j, 0.0
    for k in range(start + 1, start + K + 1):
        phases = (base + (k % q) * units) % q
        s = complex(np.exp(2j * np.pi * phases / q).sum())
        running += cmath.exp(-2j * math.pi * ((M % q) * (k % q) % q) / q) * s
        best = max(best, abs(running))
    # per value S: 4 eps per term here and in the program's table (4 eps q),
    # accumulated over at most K values of the running sum
    return best, K * (8 * EPS * q + 4 * EPS * (2 * math.sqrt(q) + 1))
