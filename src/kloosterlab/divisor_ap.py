"""Divisor sums over arithmetic progressions, by Dirichlet's hyperbola.

D(x, q, a) sums tau(n) over n <= x with n = a (mod q).  The production
algorithm, `hyperbola`, counts lattice points (u, v) with u*v <= x and
u*v = a (mod q) by Dirichlet's hyperbola method, in O(sqrt x) time and
memory for x up to 10^12; sweeps and single queries use it at every x,
and `verify-report` checks it by the split count in `oracle`.  The `sieve`
algorithm (tau tabulated up to x <= 10^8) serves no pipeline; the
benchmark and the acceptance tests still call it.  The main term D(x, q)
and the error E(x, q, a) = D(x, q, a) - D(x, q) are exact rationals with
denominator dividing phi(q), so zero-sum identities over residue classes
can be asserted exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .arith import (
    factorize,
    inverse_mod,
    mulmod,
    totient,
    unit_mask,
)
from .errors import DomainError, NotCoprime

HYPERBOLA_X_CAP = 10**12
SIEVE_X_CAP = 10**8


@dataclass(frozen=True)
class ApQuery:
    """A divisor-sum query: sum limit x, modulus q, residue a."""

    x: int
    q: int
    a: int

    def __post_init__(self) -> None:
        if self.x < 1:
            raise DomainError(f"x = {self.x} must be >= 1")
        if self.q < 1:
            raise DomainError(f"q = {self.q} must be >= 1")


class ExactValue(NamedTuple):
    """An exact rational together with its floating-point image."""

    rational: Fraction
    real: float


@lru_cache(maxsize=1)
def tau_table(x: int) -> np.ndarray:
    """tau(n) for n = 0..x (tau(0) set to 0).

    Each divisor pair d < n/d of n is counted once, at its smaller member
    d <= isqrt(x): n runs over the multiples of d from d*(d+1) on.  A
    square n = d*d adds 1 for its middle divisor.
    """
    if x > SIEVE_X_CAP:
        raise DomainError(f"sieve limited to x <= {SIEVE_X_CAP}")
    tau = np.zeros(x + 1, dtype=np.int64)
    for d in range(1, math.isqrt(x) + 1):
        tau[d * d] += 1
        tau[d * (d + 1) :: d] += 2
    tau.flags.writeable = False
    return tau


def _hyperbola_split(x: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The split point y = isqrt(x), u = 1..y and x // u, for x <= HYPERBOLA_X_CAP."""
    if x > HYPERBOLA_X_CAP:
        raise DomainError(f"hyperbola limited to x <= {HYPERBOLA_X_CAP}")
    y = math.isqrt(x)
    u = np.arange(1, y + 1, dtype=np.int64)
    return y, u, x // u


def _hyperbola_count(x: int, q: int, a: int) -> int:
    """Number of pairs u*v <= x with u*v = a (mod q), by Dirichlet's hyperbola.

    Pairs have u <= y or v <= y (y = isqrt(x)), so the count is
    2 * sum_{u<=y} #{v <= x/u} - sum_{u<=y} #{v <= y}.  For g = gcd(u, q)
    the congruence is solvable iff g | a, and then v runs over the class
    v0 = (a * inv(u/g mod q/g) mod q) / g modulo q/g.  The u and the
    classes are int64 arrays, so q must be below 2^63.
    """
    if q >= 1 << 63:
        raise DomainError(f"hyperbola limited to q < 2^63 (int64), got q = {q}")
    y, u, big_x = _hyperbola_split(x)
    a %= q
    g = np.gcd(u, q)
    solvable = a % g == 0
    u, big_x, g = u[solvable], big_x[solvable], g[solvable]
    qp = q // g
    v0 = mulmod(inverse_mod(u // g, qp), a, q) // g

    def count(limit):
        # v in [1, limit] with v = v0 (mod qp)
        return (limit - v0) // qp - (-v0) // qp

    return int(2 * count(big_x).sum() - count(y).sum())


def divisor_sum_ap(query: ApQuery, method: str = "hyperbola") -> int:
    """Exact D(x, q, a) by the requested algorithm."""
    x, q, a = query.x, query.q, query.a
    if method == "hyperbola":
        return _hyperbola_count(x, q, a)
    if method == "sieve":
        tau = tau_table(x)
        return int(tau[a % q :: q].sum())
    raise DomainError(f"unknown method {method!r}")


def divisor_sum_ap_all(x: int, q: int) -> list[int]:
    """D(x, q, a) for every residue a in [0, q), from one tau table.

    Exact despite the float accumulator: every partial sum is an integer
    far below 2^53.
    """
    if x < 1 or q < 1:
        raise DomainError("x and q must be >= 1")
    tau = tau_table(x)
    idx = np.arange(x + 1, dtype=np.int64) % q
    sums = np.bincount(idx, weights=tau, minlength=q)
    return [int(v) for v in sums]


def coprime_tau_sum(x: int, q: int, method: str = "hyperbola") -> int:
    """Sum of tau(n) over n <= x with gcd(n, q) = 1.

    The `hyperbola` route counts pairs u*v <= x with both coordinates
    coprime to q as 2 * sum_{u<=y, (u,q)=1} C(x/u) - C(y)^2, y = isqrt(x),
    where C(X) = sum_{d | rad q} mu(d) * floor(X/d) counts the v <= X
    coprime to q; `sieve` masks a tau table.
    """
    if x < 1:
        return 0
    if method == "sieve":
        tau = tau_table(x)
        keep = unit_mask(q)[np.arange(x + 1, dtype=np.int64) % q]
        return int(tau[keep].sum())
    if method != "hyperbola":
        raise DomainError(f"unknown method {method!r}")
    y, u, big_x = _hyperbola_split(x)
    sf_divs: list[tuple[int, int]] = [(1, 1)]
    for p in factorize(q).primes:
        sf_divs += [(d * p, -s) for d, s in sf_divs]

    def coprime_count(limit):
        return sum(s * (limit // d) for d, s in sf_divs)

    big_x = big_x[np.gcd(u, q) == 1]
    return int(2 * coprime_count(big_x).sum() - coprime_count(y) ** 2)


def divisor_main_term(x: int, q: int, method: str = "hyperbola") -> ExactValue:
    """D(x, q) = (1/phi(q)) * sum of tau(n) over n <= x coprime to q, exactly."""
    if q < 1:
        raise DomainError(f"q = {q} must be >= 1")
    if x < 1:
        return ExactValue(Fraction(0), 0.0)
    value = Fraction(coprime_tau_sum(x, q, method), totient(factorize(q)))
    return ExactValue(value, float(value))


def error_term(query: ApQuery) -> ExactValue:
    """E(x, q, a) = D(x, q, a) - D(x, q) as an exact rational."""
    if math.gcd(query.a, query.q) != 1:
        raise NotCoprime(f"gcd({query.a}, {query.q}) > 1")
    d_ap = divisor_sum_ap(query, "hyperbola")
    main = divisor_main_term(query.x, query.q)
    value = Fraction(d_ap) - main.rational
    return ExactValue(value, float(value))

