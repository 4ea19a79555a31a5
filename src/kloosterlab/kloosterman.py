"""Exact evaluation of complete and incomplete Kloosterman sums.

The complete sum S(a, b; q) runs over residues n mod q coprime to q and
adds e^{2 pi i (a*nbar + b*n)/q}, nbar the inverse of n.  Composite
moduli are split by twisted multiplicativity,

    S(a, b; m*n) = S(a*nbar, b*nbar; m) * S(a*mbar, b*mbar; n),

and each prime-power part p^e is read from the cached FFT table of
S(1, k; p^e): S(a, b; p^e) = p * S(a/p, b/p; p^(e-1)) while p divides a
and b, then S(a, b; m) = S(1, ab; m) once a or b is a unit.  The parts
and their twists come from crt_twists, which the squarefree product
sums of vdc_lab share.  The definitional summation over all units mod
q, _direct_sum, is the oracle that the tests compare the split
evaluator against; no production route calls it.

Every numeric result carries an absolute error bound: each evaluated
term contributes 4 machine epsilons, and products propagate first-order
error.  Sums are accumulated with numpy reductions, which are pairwise,
so the bound is very conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .arith import (
    INVERSE_TABLE_CAP,
    FactoredInteger,
    factorize,
    inverse_mod,
    inverse_table,
    table_cache,
)
from .errors import DomainError, NotCoprime

_TERM_EPS = 4 * float(np.finfo(np.float64).eps)

# Short sums hold O(N) arrays, about 48 bytes a term at their peak (the
# int64 inverses and phases, then two complex128 temporaries of the
# exponentials; inverse_mod's Euclid runs in blocks of fixed size),
# whatever q <= 2^41 is: about 480 MB at the cap.
SHORT_SUM_LENGTH_CAP = 10**7


@dataclass(frozen=True)
class IntegerInterval:
    """The half-open integer interval [offset, offset + length)."""

    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise DomainError("interval length must be >= 0")

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class SumValue:
    """A complex sum with an absolute bound on its accumulated rounding error.

    Comparisons that matter within err are inconclusive by contract.
    """

    re: float
    im: float
    err: float

    def __post_init__(self) -> None:
        if self.err < 0:
            raise DomainError("error bound must be >= 0")

    @property
    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    @property
    def magnitude(self) -> float:
        return abs(self.as_complex)

    def mul(self, other: "SumValue") -> "SumValue":
        z = self.as_complex * other.as_complex
        err = (
            abs(self.as_complex) * other.err
            + abs(other.as_complex) * self.err
            + self.err * other.err
        )
        return SumValue(z.real, z.imag, err)


@table_cache
def _base_table(q: int) -> np.ndarray:
    """S(1, k, q) for all k mod q, as one FFT of the inverse-phase vector.

    With y[n] = e_q(inv(n)) on units and 0 elsewhere, the sum S(1, k, q)
    = sum_n y[n] e^{2 pi i k n / q} is q times the inverse DFT of y.
    """
    inv = inverse_table(q)
    units = inv >= 0
    y = np.zeros(q, dtype=np.complex128)
    y[units] = np.exp(2j * np.pi * inv[units] / q)
    t = np.fft.ifft(y) * q
    t.flags.writeable = False
    return t


def table_err(q: int) -> float:
    """Per-entry absolute error bound for cached Kloosterman tables."""
    return _TERM_EPS * q


# Batched tables are gathered a block of rows at a time, at most this many
# bytes of complex128 per block (or one row), so that a grid's peak memory
# does not grow with its number of residues: a block and the temporaries
# made from it stay near 1 MB.
TABLE_BLOCK_BYTES = 1 << 18


def table_row_blocks(rows: int, q: int) -> Iterator[slice]:
    """Slices of range(rows) whose (rows x q) complex tables fit in a block."""
    step = max(1, TABLE_BLOCK_BYTES // (16 * q))
    for lo in range(0, rows, step):
        yield slice(lo, min(rows, lo + step))


def kloosterman_tables(residues: Sequence[int], q: int) -> np.ndarray:
    """(len(residues), q) array: row i holds S(residues[i], k, q) for k = 0..q-1.

    Every residue must be an int64 coprime to q <= INVERSE_TABLE_CAP.  The
    rows are one gather from the base table, via S(a, k, q) = S(1, a*k, q);
    callers bound the number of rows (see table_row_blocks).
    """
    if not 1 <= q <= INVERSE_TABLE_CAP:
        raise DomainError(f"Kloosterman tables limited to 1 <= q <= {INVERSE_TABLE_CAP}")
    # the int64 cast raises for ints past int64 but wraps an unsigned array's
    unsigned = isinstance(residues, np.ndarray) and residues.dtype.kind == "u"
    if unsigned and residues.max(initial=0) > np.iinfo(np.int64).max:
        raise DomainError("residues limited to int64")
    try:
        a = np.asarray(residues, dtype=np.int64) % q
    except OverflowError:
        raise DomainError("residues limited to int64") from None
    gcds = np.gcd(a, q)
    if gcds.max(initial=1) > 1:
        raise NotCoprime(f"gcd({a[np.flatnonzero(gcds > 1)[0]]}, {q}) > 1")
    index = np.multiply.outer(a, np.arange(q, dtype=np.int64))
    index %= q
    return _base_table(q)[index]


def kloosterman_table(a: int, q: int) -> np.ndarray:
    """Read-only array of S(a, k, q) for k = 0..q-1: kloosterman_tables' one-row case."""
    t = kloosterman_tables([a], q)[0]
    t.flags.writeable = False
    return t


def _direct_sum(a: int, b: int, q: int) -> SumValue:
    """Definitional summation over units mod q; the oracle evaluation path."""
    if q == 1:
        return SumValue(1.0, 0.0, 0.0)
    a %= q
    b %= q
    inv = inverse_table(q)
    units = np.nonzero(inv >= 0)[0]
    phases = (a * inv[units] + b * units) % q
    z = complex(np.exp(2j * np.pi * phases / q).sum())
    return SumValue(z.real, z.imag, _TERM_EPS * len(units))


def _prime_power_part(a: int, b: int, p: int, e: int) -> SumValue:
    """S(a, b; p^e), read from the cached table of S(1, k; m) for m = p^e."""
    m = p**e
    a %= m
    b %= m
    scale = 1
    while e >= 2 and a % p == 0 and b % p == 0:
        # S(a, b; p^e) = p * S(a/p, b/p; p^(e-1)) when p | a and p | b
        a, b, m, e, scale = a // p, b // p, m // p, e - 1, scale * p
    if a % p == 0 and b % p == 0:  # e = 1: every unit contributes 1
        return SumValue(float(scale * (p - 1)), 0.0, 0.0)
    if a == 0 or b == 0:
        # Ramanujan sum at a unit: exactly mu(m), -1 for a prime, else 0.
        return SumValue(float(-scale if e == 1 else 0), 0.0, 0.0)
    # a or b is a unit mod p: S(a, b; m) = S(1, ab; m)
    z = complex(_base_table(m)[a * b % m])
    return SumValue(scale * z.real, scale * z.imag, scale * table_err(m))


def crt_twists(q: FactoredInteger) -> list[tuple[int, int]]:
    """(m, inverse of q/m mod m) for each prime-power part m of q, by ascending prime.

    The twist of each part in twisted multiplicativity: S(a, b; q) is the
    product over the parts of S(a*cbar, b*cbar; m).
    """
    return [(m, pow(q.value // m % m, -1, m)) for m in (p**e for p, e in q.factors)]


def complete_kloosterman(a: int, b: int, q: int) -> SumValue:
    """The complete Kloosterman sum S(a, b; q), split into prime-power parts
    by twisted multiplicativity."""
    if q < 1:
        raise DomainError(f"modulus {q} must be >= 1")
    fq = factorize(q)
    result = SumValue(1.0, 0.0, 0.0)
    for (p, e), (_, cbar) in zip(fq.factors, crt_twists(fq)):
        result = result.mul(_prime_power_part(a * cbar, b * cbar, p, e))
    return result


def incomplete_kloosterman(a: int, q: int, interval: IntegerInterval) -> SumValue:
    """Sum of e_q(a * nbar) over n in the interval with gcd(n, q) = 1.

    Requires gcd(a, q) = 1, interval length N at most q and at most
    SHORT_SUM_LENGTH_CAP, and q <= 2^41.  Only the N residues of the
    interval are inverted, so the cost is O(N) whatever q is.  The phases
    a * nbar mod q are exact int64 products by the two 20-bit limbs of a:
    with a = hi * 2^20 + lo and nbar < q <= 2^41, nbar * hi, nbar * lo
    and ((nbar * hi mod q) << 20) + nbar * lo all stay below 2^62.
    """
    if not 1 <= q <= 1 << 41:
        raise DomainError(f"modulus limited to 1 <= q <= 2^41 (int64 phases), got q = {q}")
    if interval.length > q:
        raise DomainError("interval longer than the period q")
    if math.gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) > 1")
    if interval.length > SHORT_SUM_LENGTH_CAP:
        raise DomainError(f"interval length limited to {SHORT_SUM_LENGTH_CAP}")
    invs = inverse_mod((interval.offset % q + np.arange(interval.length, dtype=np.int64)) % q, q)
    invs = invs[invs >= 0]
    hi, lo = divmod(a % q, 1 << 20)
    phases = ((invs * hi % q << 20) + invs * lo) % q
    z = complex(np.exp(2j * np.pi * phases / q).sum())
    return SumValue(z.real, z.imag, _TERM_EPS * len(invs))
