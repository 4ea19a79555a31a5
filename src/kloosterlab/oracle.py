"""The oracle of verify-report: D(x, q, a) by the split count, D(x, q) by
Mobius over rad q.

It imports only the standard library and `.errors`, and its caps
(x <= 10^12, q <= 10^12) cover every row a sweep writes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DomainError

X_CAP = 10**12
Q_CAP = 10**12

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


def _tau_sum(X: int) -> int:
    """T(X), the sum of tau(n) over n <= X: 2 sum_{u <= s} X // u - s^2, s = isqrt(X)."""
    s = math.isqrt(X)
    return 2 * sum(map(X.__floordiv__, range(1, s + 1))) - s * s


def split_main_term(x: int, q: int) -> Fraction:
    """D(x, q), the average of D(x, q, a) over the units a mod q, with
    Mobius over rad q on both factors of n = u*v.

    (uv, q) = 1 iff (u, q) = (v, q) = 1, so Mobius over d1 | u and d2 | v,
    d1, d2 | rad q, counts the n <= x coprime to q with weight tau(n) as
    the sum over e = d1*d2 of c(e) T(x // e), where c(e) = sum of
    mu(d1) mu(d2) is the product over p | e of -2 (p || e) or 1 (p^2 | e).
    About prod_p (1 + p^-1/2 + p^-1) * 2 sqrt(x) steps.
    """
    _split_bounds(x, q)  # the caps
    primes, m = [], q
    for p in itertools.chain([2], range(3, math.isqrt(q) + 1, 2)):  # q <= Q_CAP
        if p * p > m:
            break
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
    if m > 1:
        primes.append(m)
    terms = [(1, 1)]  # (e, c(e)) with e <= x
    phi = q
    for p in primes:
        terms += [(e * p, -2 * c) for e, c in terms if e * p <= x] + [
            (e * p * p, c) for e, c in terms if e * p * p <= x
        ]
        phi = phi // p * (p - 1)
    return Fraction(sum(c * _tau_sum(x // e) for e, c in terms), phi)
