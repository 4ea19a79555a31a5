"""Divisor sums over arithmetic progressions, by factoring the progression.

D(x, q, a) sums tau(n) over n <= x with n = a (mod q).  The production
algorithm, `progression`, factors the K = (x - a) // q + 1 members
a, a + q, ... <= x over the primes up to sqrt x, in about
K log log x + pi(sqrt x) steps a row; in the theorem's range q > sqrt x
that is far less than sqrt x.  A row holds at most MEMBER_CAP = 10^7
members and x is at most 10^12, so a query needs q >= x / 10^7.  Sweeps
and single queries use it at every x, and `verify-report` checks it by
the split count in `oracle`, which counts lattice points under the
hyperbola instead.  A sweep cell counts all its residues in one call
(`divisor_sums_ap`).  The main term D(x, q) counts the n <= x coprime to
q by Dirichlet's hyperbola, in O(sqrt x).  The `sieve` algorithm (tau
tabulated up to x <= 10^8) serves no pipeline; the benchmark and the
acceptance tests still call it.  The main term and the error
E(x, q, a) = D(x, q, a) - D(x, q) are exact rationals with denominator
dividing phi(q), so zero-sum identities over residue classes can be
asserted exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .arith import (
    FactoredInteger,
    factored,
    inverse_mod,
    primes_up_to,
    radical_divisors,
    totient,
    unit_mask,
)
from .errors import DomainError, NotCoprime

# x <= 10^12 keeps every int64 product of the count and the main term exact
HYPERBOLA_X_CAP = 10**12
SIEVE_X_CAP = 10**8

# A row's progression a, a + q, ... <= x holds at most MEMBER_CAP members
# (so q >= x / 10^7); a member costs about 3 hits, the sum of 1/p over
# p <= 10^6 being 2.9.
MEMBER_CAP = 10**7

# Each block of the count holds at most MEMBER_BLOCK members (rows x a
# window of the progression) and START_BLOCK (row, prime) starts, so its
# int64 temporaries stay within a few tens of MB whatever K and the rows.
MEMBER_BLOCK = 1 << 16
START_BLOCK = 1 << 17


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


@lru_cache(maxsize=4)
def _sieving_primes(x: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd primes p <= isqrt(x) and, for each, its largest power <= x."""
    primes = np.array(primes_up_to(math.isqrt(x))[1:], dtype=np.int64)
    tops = primes.copy()
    while np.any(up := tops * primes <= x):  # tops <= x, p <= 10^6: below 2^63
        tops[up] *= primes[up]
    primes.flags.writeable = tops.flags.writeable = False
    return primes, tops


def divisor_sums_ap(x: int, q: int, residues: Sequence[int]) -> list[int]:
    """D(x, q, a) for each a in residues, by factoring each progression.

    Row a holds the K = (x - a0) // q + 1 members n = a0 + kq <= x, where
    a0 in [1, q] is a mod q (q itself for a = 0), and D is the sum of
    tau(n), the product of e + 1 over p^e || n.  The power of 2 in n is
    n & -n.  The odd primes p <= y = isqrt(x) are sieved over the
    members.  For p not dividing q the members that p divides have
    k = s (mod p), s = -a0 q^-1 mod p, from one vectorized inverse of q
    mod every p per call; a p | q divides every member when it divides
    a0, and none otherwise.  A hit is tested for p^2 | n, and only those
    hits take a gcd with the largest power of p <= x, which is p^e.  What
    is left of n once its primes <= y are divided out is 1 or one prime
    above y (two would exceed x), which doubles tau.

    Rows are taken in bands, long rows in windows of MEMBER_BLOCK
    members, and the primes in chunks of START_BLOCK (row, prime) starts.
    int64 throughout: n <= x <= 10^12, each start (-a0 mod p) q^-1 mod p
    is below p^2 <= x, and a member's prime powers multiply to a divisor
    of it.  A row with K > MEMBER_CAP raises DomainError.
    """
    if x < 1 or q < 1:
        raise DomainError(f"x = {x} and q = {q} must be >= 1")
    if x > HYPERBOLA_X_CAP:
        raise DomainError(f"divisor count limited to x <= {HYPERBOLA_X_CAP}")
    if q >= 1 << 63:
        raise DomainError(f"divisor count limited to q < 2^63 (int64), got q = {q}")
    heads = np.array([a % q or q for a in residues], dtype=np.int64)  # each row's a0
    lengths = np.where(heads <= x, (x - heads) // q + 1, 0)
    longest = int(lengths.max(initial=0))
    if longest > MEMBER_CAP:
        raise DomainError(
            f"a progression mod q = {q} up to x = {x} holds {longest} members; the "
            f"divisor count takes at most {MEMBER_CAP}, so q >= x / {MEMBER_CAP}"
        )
    sums = np.zeros(len(heads), dtype=np.int64)
    if longest == 0:
        return sums.tolist()
    primes, tops = _sieving_primes(x)
    q_inv = inverse_mod(q % primes, primes)  # -1 where p | q
    width = min(longest, MEMBER_BLOCK)
    band = max(1, min(len(heads), MEMBER_BLOCK // width))
    chunk = max(1, START_BLOCK // band)
    for r0 in range(0, len(heads), band):
        rows = slice(r0, r0 + band)
        a0 = heads[rows, None]
        for k0 in range(0, int(lengths[rows].max()), width):
            ks = np.arange(k0, k0 + width, dtype=np.int64)
            stop = np.minimum(lengths[rows], k0 + width)[:, None] - k0
            n = (a0 + ks * q).ravel()
            smooth = n & -n  # 2^e, and frexp gives e + 1
            tau = np.frexp(smooth)[1].astype(np.int64)
            for j in range(0, len(primes), chunk):
                part = slice(j, j + chunk)
                _sieve_block(a0, n, width, k0, stop, primes[part], q_inv[part],
                             tops[part], tau, smooth)
            tau <<= smooth < n  # a prime cofactor above y
            sums[rows] += np.where(ks - k0 < stop, tau.reshape(-1, width), 0).sum(axis=1)
    return sums.tolist()


def _sieve_block(a0, n, width, k0, stop, p, q_inv, tops, tau, smooth) -> None:
    """Multiply each hit's e + 1 into tau and p^e into smooth, for the
    odd primes p of one chunk.  n holds, row by row, the members k0,
    k0 + 1, ... of a band of rows with first members a0; row r's run
    stops before member k0 + stop[r]."""
    residue = -a0 % p
    first = (residue * q_inv - k0) % p  # the first hit is member k0 + first
    step = np.broadcast_to(p, first.shape)
    divides_q = q_inv < 0
    if some_divide_q := divides_q.any():
        every = divides_q & (residue == 0)
        first = np.where(every, 0, np.where(divides_q, stop, first))
        step = np.where(every, 1, step)
    counts = np.maximum(stop - first + step - 1, 0) // step
    # the hits of a (row, prime) pair are first, first + step, ...; hit i of
    # the block is the (i - offset)-th of its pair, offset counting the
    # earlier pairs' hits
    offset = np.cumsum(counts) - counts.ravel()
    base = (first + np.arange(len(a0))[:, None] * width).ravel() - offset * step.ravel()
    pair = np.repeat(np.arange(counts.size), counts.ravel())
    hit_step = step.ravel()[pair]
    member = base[pair] + np.arange(pair.size) * hit_step
    prime = np.broadcast_to(p, first.shape).ravel()[pair] if some_divide_q else hit_step
    value = n[member]
    power = prime.copy()
    factor = np.full(pair.size, 2, dtype=np.int64)
    square = np.flatnonzero(value % (prime * prime) == 0)
    power[square] = np.gcd(value[square], np.broadcast_to(tops, first.shape).ravel()[pair[square]])
    # power = p^e exactly, so the rounded quotient of logs is e
    factor[square] = np.rint(np.log(power[square]) / np.log(prime[square])).astype(np.int64) + 1
    np.multiply.at(tau, member, factor)
    np.multiply.at(smooth, member, power)


def divisor_sum_ap(query: ApQuery, method: str = "progression") -> int:
    """Exact D(x, q, a) by the requested algorithm."""
    x, q, a = query.x, query.q, query.a
    if method == "progression":
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


def coprime_tau_sum(x: int, q: int | FactoredInteger, method: str = "hyperbola") -> int:
    """Sum of tau(n) over n <= x with gcd(n, q) = 1; q may come factored.

    The `hyperbola` route counts pairs u*v <= x with both coordinates
    coprime to q as 2 * sum_{u<=y, (u,q)=1} C(x/u) - C(y)^2, y = isqrt(x),
    where C(X) = sum_{d | rad q} mu(d) * floor(X/d) counts the v <= X
    coprime to q; `sieve` masks a tau table.
    """
    if x < 1:
        return 0
    if method == "sieve":
        fq = factored(q)
        keep = unit_mask(fq)[np.arange(x + 1, dtype=np.int64) % fq.value]
        return int(tau_table(x)[keep].sum())
    if method != "hyperbola":
        raise DomainError(f"unknown method {method!r}")
    if x > HYPERBOLA_X_CAP:
        raise DomainError(f"hyperbola limited to x <= {HYPERBOLA_X_CAP}")
    y = math.isqrt(x)
    u = np.arange(1, y + 1, dtype=np.int64)
    fq = factored(q)
    divs = radical_divisors(fq)

    def coprime_count(limit):
        return sum(s * (limit // d) for d, s in divs)

    big_x = x // u[np.gcd(u, fq.value) == 1]
    return int(2 * coprime_count(big_x).sum() - coprime_count(y) ** 2)


def divisor_main_term(x: int, q: int | FactoredInteger,
                      method: str = "hyperbola") -> ExactValue:
    """D(x, q) = (1/phi(q)) * sum of tau(n) over n <= x coprime to q,
    exactly; q may come factored."""
    if not isinstance(q, FactoredInteger) and q < 1:
        raise DomainError(f"q = {q} must be >= 1")
    if x < 1:
        return ExactValue(Fraction(0), 0.0)
    fq = factored(q)
    value = Fraction(coprime_tau_sum(x, fq, method), totient(fq))
    return ExactValue(value, float(value))


def error_term(query: ApQuery) -> ExactValue:
    """E(x, q, a) = D(x, q, a) - D(x, q) as an exact rational."""
    if math.gcd(query.a, query.q) != 1:
        raise NotCoprime(f"gcd({query.a}, {query.q}) > 1")
    d_ap = divisor_sum_ap(query)
    main = divisor_main_term(query.x, query.q)
    value = Fraction(d_ap) - main.rational
    return ExactValue(value, float(value))
