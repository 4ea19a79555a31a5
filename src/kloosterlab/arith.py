"""Exact integer primitives.

Everything here is pure integer arithmetic: factorization (trial
division by the primes up to 10^4, then Pollard rho), vectorized
modular inverses and inverse tables, Euler's phi, the units mod q by
mask or by rank, and sieves for smooth squarefree moduli.
All heavier modules build on these.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, reduce, wraps
from itertools import compress

import numpy as np

from .errors import DomainError, NotSquarefree

# factorize takes n < 2^63, the int64 range of the divisor count's moduli
MAX_VALUE = (1 << 63) - 1

# Deterministic Miller-Rabin witnesses for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# factorize trial-divides by the primes up to _TRIAL_LIMIT; the least
# prime above it bounds the cofactors that need no primality test.
_TRIAL_LIMIT = 10**4
_NEXT_PRIME = 10007

# inverse_table holds q int64 entries: at most 80 MB.
INVERSE_TABLE_CAP = 10**7

# inverse_mod runs Euclid on this many entries at a time.
INVERSE_BLOCK = 1 << 20

# Each table_cache keeps its most recently used tables up to this many
# bytes, which holds the largest table (kloosterman's complex128 one at
# the cap, 160 MB) and every table of the lemma grids (q <= 499) many times.
TABLE_CACHE_BYTES = 1 << 28

CacheInfo = namedtuple("CacheInfo", "hits misses currsize nbytes")


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3 * 10^24 (factorize's n < 2^63 included)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:  # the witnesses are the first 12 primes
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending (sieve of Eratosthenes on a bytearray)."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(compress(range(limit + 1), sieve))


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its full prime factorization.

    factors is a tuple of (prime, exponent) pairs with strictly
    increasing primes and exponents >= 1; their product equals value.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    squarefree: bool = field(init=False)

    def __post_init__(self) -> None:
        if not (1 <= self.value <= MAX_VALUE):
            raise DomainError(f"value {self.value} outside [1, 2^63)")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise DomainError("primes must be strictly increasing")
            if e < 1:
                raise DomainError("exponents must be >= 1")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise DomainError(f"factors do not multiply to {self.value}")
        object.__setattr__(
            self, "squarefree", all(e == 1 for _, e in self.factors)
        )

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@dataclass(frozen=True)
class ModulusSplit:
    """An ordered factorization q = q0 * q1 * ... * ql of a squarefree modulus.

    The squarefree product guarantees the parts are pairwise coprime.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise DomainError("split needs at least one part")
        if any(p < 1 for p in self.parts):
            raise DomainError("parts must be positive")
        if not factorize(self.modulus).squarefree:
            raise NotSquarefree(f"product {self.modulus} is not squarefree")

    @property
    def modulus(self) -> int:
        return reduce(lambda a, b: a * b, self.parts, 1)

    @property
    def l(self) -> int:
        return len(self.parts) - 1


def factorize(n: int) -> FactoredInteger:
    """Full prime factorization of n, 1 <= n < 2^63.

    Trial division by the primes up to 10^4, then Pollard rho for the
    cofactor m left over.  No table is built beyond those 1229 primes.
    m > 1 is prime without a primality test when the division stopped
    at a prime p with p^2 > m, or when every prime up to 10^4 was tried
    and m < 10007^2, the square of the next prime.
    """
    if not (1 <= n <= MAX_VALUE):
        raise DomainError(f"n = {n} outside [1, 2^63)")
    factors: dict[int, int] = {}
    m = n
    for p in primes_up_to(_TRIAL_LIMIT):
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    else:
        if m >= _NEXT_PRIME * _NEXT_PRIME:
            stack, m = [m], 1
            while stack:
                c = stack.pop()
                if c == 1:
                    continue
                if is_prime(c):
                    factors[c] = factors.get(c, 0) + 1
                    continue
                d = _pollard_rho(c)
                stack.append(d)
                stack.append(c // d)
    if m > 1:
        # a prime above every prime divided out so far
        factors[m] = 1
    return FactoredInteger(n, tuple(sorted(factors.items())))


def factored(q: int | FactoredInteger) -> FactoredInteger:
    """q's factorization; one already factored is passed through, so a
    caller that factored q once can hand it to every function below."""
    return q if isinstance(q, FactoredInteger) else factorize(q)


def totient(n: FactoredInteger) -> int:
    """Euler's phi of a factored integer."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in n.factors)


def smooth_squarefree_moduli(lo: int, hi: int, bound: int) -> list[int]:
    """All squarefree integers in [lo, hi] whose prime factors are <= bound, ascending.

    An array sieve over rem = lo..hi: for each prime p <= min(bound,
    sqrt(hi)) the multiples of p^2 are zeroed and the multiples of p
    divided by p, one slice each.  What is left of n is 1, a prime above
    sqrt(hi) (n <= hi has at most one), or a product of primes above the
    bound, so n is admitted iff 0 < rem <= bound.  bound must be >= 1 and
    the span hi - lo at most 10^8; anything else raises DomainError.
    """
    if bound < 1:
        raise DomainError("smoothness bound must be >= 1")
    if not (1 <= lo <= hi):
        raise DomainError(f"bad range [{lo}, {hi}]")
    if hi - lo > 10**8:
        raise DomainError(f"range [{lo}, {hi}] spans {hi - lo}: the sieve takes spans up to 10^8")
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    for p in primes_up_to(min(bound, math.isqrt(hi))):
        rem[(-lo) % (p * p) :: p * p] = 0
        rem[(-lo) % p :: p] //= p
    return (np.flatnonzero((rem > 0) & (rem <= bound)) + lo).tolist()


def inverse_mod(u, m) -> np.ndarray:
    """u^-1 mod m elementwise, in [0, m), and -1 where gcd(u, m) > 1.

    u and m are ints or int64 arrays (broadcast together), m >= 1.  A
    vectorized extended Euclid: each step updates only the entries whose
    remainder is still nonzero.  The Bezout coefficients stay below m in
    absolute value, so nothing overflows for m < 2^63.  It runs on
    INVERSE_BLOCK entries at a time, so its Euclid temporaries (about
    100 bytes an entry) stay near 100 MB however many entries there are.
    """
    u, m = np.broadcast_arrays(np.asarray(u, dtype=np.int64), np.asarray(m, dtype=np.int64))
    if np.any(m < 1):
        raise DomainError("modulus must be positive")
    out = np.empty(u.shape, dtype=np.int64)
    flat_u, flat_m, flat_out = u.reshape(-1), m.reshape(-1), out.reshape(-1)
    for lo in range(0, u.size, INVERSE_BLOCK):
        block = slice(lo, lo + INVERSE_BLOCK)
        mb = flat_m[block]
        old_r, r = mb.copy(), flat_u[block] % mb
        old_s, s = np.zeros_like(old_r), np.ones_like(old_r)
        idx = np.flatnonzero(r)
        while idx.size:
            rq, ra = old_r[idx], r[idx]
            quot = rq // ra
            old_r[idx], r[idx] = ra, rq - quot * ra
            sq, sa = old_s[idx], s[idx]
            old_s[idx], s[idx] = sa, sq - quot * sa
            idx = idx[r[idx] != 0]
        flat_out[block] = np.where(old_r == 1, old_s % mb, -1)
    return out


def table_cache(build):
    """Memoize a read-only table build(q), bounded by TABLE_CACHE_BYTES.

    Past the budget the least recently used tables are dropped first; the
    newest table stays even when it alone is larger.  cache_info() counts
    hits and misses as functools.lru_cache does.
    """
    tables: OrderedDict[int, np.ndarray] = OrderedDict()
    counts = {"hits": 0, "misses": 0, "nbytes": 0}

    @wraps(build)
    def cached(q: int) -> np.ndarray:
        table = tables.get(q)
        if table is not None:
            tables.move_to_end(q)
            counts["hits"] += 1
            return table
        table = build(q)
        counts["misses"] += 1
        tables[q] = table
        counts["nbytes"] += table.nbytes
        while counts["nbytes"] > TABLE_CACHE_BYTES and len(tables) > 1:
            counts["nbytes"] -= tables.popitem(last=False)[1].nbytes
        return table

    def cache_clear() -> None:
        tables.clear()
        counts.update(hits=0, misses=0, nbytes=0)

    cached.cache_info = lambda: CacheInfo(
        counts["hits"], counts["misses"], len(tables), counts["nbytes"])
    cached.cache_clear = cache_clear
    return cached


@table_cache
def inverse_table(q: int) -> np.ndarray:
    """inv[n] for n in [0, q) with n invertible mod q, and -1 elsewhere.

    O(q) memory, so q is capped at INVERSE_TABLE_CAP.  A prime power is
    built by inverse_mod (Euclid, blocked).  Any other q adds its
    prime-power parts' (cached) tables by CRT: with m_i the parts and
    c_i = (q/m_i)^-1 mod m_i, inv(n) =
    sum_i (q/m_i) (inv_i(n mod m_i) c_i mod m_i) mod q, each part's table
    added to every row of [0, q) viewed as q/m_i rows of m_i: one vector
    add per part.
    """
    if q < 1:
        raise DomainError("modulus must be positive")
    if q > INVERSE_TABLE_CAP:
        raise DomainError(f"inverse table limited to q <= {INVERSE_TABLE_CAP}")
    parts = factorize(q).factors
    if len(parts) > 1:
        inv = np.zeros(q, dtype=np.int64)
        for p, e in parts:
            m = p**e
            part = inverse_table(m)
            term = part * pow(q // m, -1, m) % m * (q // m)
            # a non-unit part is far enough below 0 that no sum with it reaches 0
            term[part < 0] = -len(parts) * q
            rows = inv.reshape(q // m, m)  # a view: n mod m is the column
            rows += term
        units = inv >= 0
        inv %= q
        inv[~units] = -1
    else:
        inv = inverse_mod(np.arange(q, dtype=np.int64), q)
    inv.flags.writeable = False
    return inv


def radical_divisors(n: FactoredInteger) -> list[tuple[int, int]]:
    """(d, mu(d)) for each of the 2^omega(n) divisors d of rad n, (1, 1) first."""
    divs = [(1, 1)]
    for p in n.primes:
        divs += [(d * p, -s) for d, s in divs]
    return divs


def unit_mask(q: int | FactoredInteger) -> np.ndarray:
    """Boolean mask over [0, q) marking residues coprime to q, q <= INVERSE_TABLE_CAP.

    The multiples of each prime of q are struck out, one slice a prime.
    """
    value = q.value if isinstance(q, FactoredInteger) else q
    if value < 1:
        raise DomainError("modulus must be positive")
    if value > INVERSE_TABLE_CAP:
        raise DomainError(f"unit mask limited to q <= {INVERSE_TABLE_CAP}")
    mask = np.ones(value, dtype=bool)
    for p in factored(q).primes:
        mask[::p] = False
    return mask


def units_by_rank(q: int | FactoredInteger, ranks) -> np.ndarray:
    """The units mod q of the given 0-based ranks in [0, phi(q)), as int64.

    The unit of rank k is the largest X with N(X) <= k, where
    N(X) = #{0 <= n < X : gcd(n, q) = 1} = sum_{d | rad q} mu(d) ceil(X/d).
    X is found one bit at a time, from the top bit of q down, with one
    (ranks x 2^omega) int64 product per bit, so no array of size q is
    built.  Every partial sum is below 2^(omega+1) q, which must stay
    below 2^63 (q <= 10^12 has omega <= 11); a rank outside [0, phi(q))
    or a larger q raises DomainError.
    """
    fq = factored(q)
    q = fq.value
    d, mu = np.array(radical_divisors(fq), dtype=np.int64).T
    if q << len(d).bit_length() > MAX_VALUE:
        raise DomainError(f"unit ranks limited to 2^(omega+1) q < 2^63, got q = {q}")
    ranks = np.asarray(ranks, dtype=np.int64)
    phi = int(q // d @ mu)  # N(q)
    if np.any((ranks < 0) | (ranks >= phi)):
        raise DomainError(f"unit ranks must lie in [0, phi({q}) = {phi})")
    x = np.zeros(ranks.shape, dtype=np.int64)
    for bit in reversed(range(q.bit_length())):
        # X = x + 2^bit is kept iff N(X) <= rank, with ceil(X/d) = -(X // -d)
        x += (1 << bit) * (((x + (1 << bit))[..., None] // -d) @ -mu <= ranks)
    return x
