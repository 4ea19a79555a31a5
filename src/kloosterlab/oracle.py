"""The oracle of verify-report: D(x, q, a) and D(x, q) by the split count.

It imports only the standard library and `.errors`, and its caps cover
every row a sweep writes (x <= 10^12, q <= 10^7).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

X_CAP = 10**12
Q_CAP = 10**7

# --------------------------------------------------------------------------
# The split count.  Python ints only (no numpy), one pow inverse per
# coordinate, its own factorization of q and the split point
# y = isqrt(x) + 1, so it shares no code with the hyperbola.
# --------------------------------------------------------------------------


def _split_bounds(x: int, q: int) -> tuple[int, int]:
    """The split point y = isqrt(x) + 1 and z = x // (y + 1).

    Pairs u*v <= x have u <= y, or u > y and then v <= z and u runs over
    (y, x // v]: y + z, about 2 sqrt(x), steps.
    """
    if not 1 <= x <= X_CAP:
        raise DomainError(f"split count limited to 1 <= x <= {X_CAP}")
    if not 1 <= q <= Q_CAP:
        raise DomainError(f"split count limited to 1 <= q <= {Q_CAP}")
    y = math.isqrt(x) + 1
    return y, x // (y + 1)


def split_divisor_sum_ap(x: int, q: int, a: int) -> int:
    """D(x, q, a) by the split count: one gcd and one pow inverse per step."""
    y, z = _split_bounds(x, q)
    a %= q

    def count(w: int, lo: int) -> int:
        # #{t in (lo, x // w] : w*t = a (mod q)}
        g = math.gcd(w, q)
        if a % g:
            return 0
        m = q // g
        c = a // g * pow(w // g, -1, m) % m
        return (x // w - c) // m - (lo - c) // m

    # u <= y pairs with every t <= x // u; v <= z with the t in (y, x // v]
    below = sum(count(u, 0) for u in range(1, y + 1))
    return below + sum(count(v, y) for v in range(1, z + 1))


def split_main_term(x: int, q: int) -> Fraction:
    """D(x, q) by the split count, with Mobius over rad q.

    The v <= X coprime to q number C(X) = sum over d | rad q of
    mu(d) * floor(X / d); the pairs with u*v coprime to q are counted as in
    split_divisor_sum_ap.  About 2^omega(q) * 2 sqrt(x) steps.
    """
    y, z = _split_bounds(x, q)
    primes, m, p = [], q, 2
    while p * p <= m:  # trial division: q <= Q_CAP
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    mobius = [(1, 1)]
    phi = q
    for p in primes:
        mobius += [(d * p, -mu) for d, mu in mobius]
        phi = phi // p * (p - 1)
    us = [u for u in range(1, y + 1) if math.gcd(u, q) == 1]
    vs = [v for v in range(1, z + 1) if math.gcd(v, q) == 1]
    total = 0
    for d, mu in mobius:
        total += mu * sum(x // (u * d) for u in us)
        total += mu * sum(x // (v * d) - y // d for v in vs)
    return Fraction(total, phi)
