"""Divisor sums over arithmetic progressions, by Dirichlet's hyperbola.

D(x, q, a) sums tau(n) over n <= x with n = a (mod q).  The production
algorithm, `hyperbola`, counts lattice points (u, v) with u*v <= x and
u*v = a (mod q) by Dirichlet's hyperbola method, in O(sqrt x) time and
memory for x up to 10^12; sweeps and single queries use it at every x,
and `verify-report` checks it by the split count in `oracle`.  A sweep
cell counts all its residues from one shared pass (`divisor_sums_ap`).
The `sieve` algorithm (tau tabulated up to x <= 10^8) serves no
pipeline; the benchmark and the acceptance tests still call it.  The main term D(x, q)
and the error E(x, q, a) = D(x, q, a) - D(x, q) are exact rationals with
denominator dividing phi(q), so zero-sum identities over residue classes
can be asserted exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .arith import factorize, inverse_mod, totient, unit_mask
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


# Each (residues x u) int64 temporary of divisor_sums_ap holds at most this
# many entries (8 MB), so a cell's peak memory does not grow with its rows.
RESIDUE_BLOCK_ENTRIES = 1 << 20


def divisor_sums_ap(x: int, q: int, residues: Sequence[int]) -> list[int]:
    """D(x, q, a) for each a in residues, by Dirichlet's hyperbola.

    The count runs over pairs u*v <= x with u*v = a (mod q).  Pairs have
    u <= y or v <= y (y = isqrt(x)), so it is 2 * sum_{u<=y} #{v <= x/u}
    - sum_{u<=y} #{v <= y}.  For g = gcd(u, q) the congruence is
    solvable iff g | a, and then v runs over the class v0 in [0, q') of
    u'v = a' (mod q'), where u' = u/g, a' = a/g and q' = q/g.
    v0 = (a' + k q') / u' for the one k in [0, u') that makes the
    division exact: with a' = A u' + B and q' = Q u' + R, k = -B/R
    (mod u') and v0 = A + k Q + (B + k R) / u'.

    u, x // u and g do not depend on a, and since g | q, g divides a iff
    it divides d = gcd(a, q).  So the solvable u, u', q', Q, R and the
    inverse of R mod u' are computed once for all residues sharing d
    (once a cell when every residue is a unit).  Each block of those
    residues then forms A, B, k, v0 and the two counts as (rows x u)
    arrays of at most RESIDUE_BLOCK_ENTRIES entries.  Only residues mod
    u' are inverted and every product stays below max(q', u'^2), so the
    int64 arrays serve every q below 2^63.
    """
    if x < 1 or q < 1:
        raise DomainError(f"x = {x} and q = {q} must be >= 1")
    if q >= 1 << 63:
        raise DomainError(f"hyperbola limited to q < 2^63 (int64), got q = {q}")
    y, u, big_x = _hyperbola_split(x)
    g = np.gcd(u, q)
    a_all = np.array([a % q for a in residues], dtype=np.int64)
    d_all = np.gcd(a_all, q)
    sums = np.zeros(len(a_all), dtype=np.int64)
    for d in np.unique(d_all).tolist():
        solvable = d % g == 0
        gs, xs = g[solvable], big_x[solvable]
        up, qp = u[solvable] // gs, q // gs
        big_q, r = np.divmod(qp, up)
        r_inv = inverse_mod(r, up)
        which = np.flatnonzero(d_all == d)
        rows = max(1, RESIDUE_BLOCK_ENTRIES // len(up))
        for lo in range(0, len(which), rows):
            block = which[lo : lo + rows]
            big_a, b = np.divmod(a_all[block, None] // gs, up)
            k = -b * r_inv % up
            v0 = big_a + k * big_q + (b + k * r) // up
            # with v1 in [1, qp] the least v = v0 (mod qp), (limit - v1) // qp + 1
            # such v lie in [1, limit]; limit x // u counts twice, y once
            v1 = np.where(v0 == 0, qp, v0)
            sums[block] = (2 * ((xs - v1) // qp) - (y - v1) // qp + 1).sum(axis=1)
    return sums.tolist()


def divisor_sum_ap(query: ApQuery, method: str = "hyperbola") -> int:
    """Exact D(x, q, a) by the requested algorithm."""
    x, q, a = query.x, query.q, query.a
    if method == "hyperbola":
        return divisor_sums_ap(x, q, [a])[0]
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

