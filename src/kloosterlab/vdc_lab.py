"""Completion and differencing machinery for short Kloosterman sums.

This module provides the numeric side of the completion/differencing
pipeline for incomplete Kloosterman sums:

  * the completion identity S = (1/q) * sum_k f(k) S(a, k, q), f the
    interval's Fourier transform, checked to numeric error for a whole
    (interval, a) grid per modulus: one FFT per interval for the direct
    side, one matrix product for the completed side;
  * block maxima of partial sums of e_q(-Mk) S(a, k, q);
  * complete sums of shifted Kloosterman products to prime modulus and
    their multiplicative extension to squarefree moduli (with the CRT
    twists of kloosterman.crt_twists), for a whole (residue, b) grid per
    modulus from one batch of tables, and the prime parts of many
    squarefree moduli in one batch per (p, j);
  * an exhaustive checker for the even-multiplicity vanishing property
    of subset sums over F_p;
  * a single-step differencing inequality evaluated as an exact ratio,
    for a whole grid of (a, q0, q1) cells at once: its inner sums are
    the differenced sums of 2-fold Kloosterman products.

completion_check, shifted_product_complete_sum,
shifted_product_sum_squarefree and onediff_ratio are the one-cell cases
of the batched functions that the lemma grids call, and a batched entry
is bitwise the one-cell value.  product_sums_squarefree sums over all k
mod q and is the oracle for the CRT route of product_sums_crt.

The differencing and product-sum inequalities carry unspecified
constants, so the checkers report ratios against the bound with epsilon
= 0 and constant 1; the checks module pins their observed maxima over
fixed deterministic grids as regression constants.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .arith import INVERSE_TABLE_CAP, FactoredInteger, inverse_table, is_prime
from .errors import DomainError, NotCoprime, NotSquarefree
from .kloosterman import (
    SHORT_SUM_LENGTH_CAP,
    IntegerInterval,
    SumValue,
    _TERM_EPS,
    crt_twists,
    kloosterman_table,
    kloosterman_tables,
    table_err,
    table_row_blocks,
)


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
    """Both sides of the completion identity, one FFT per interval for the
    direct side and one matrix product for the completed side.

    Returns (direct, completed), each of shape (len(intervals),
    len(residues)): direct[i, j] sums e_q(a_j * nbar) over the units n in
    intervals[i]; completed[i, j] is (1/q) sum_k f_i(k) S(a_j, k, q), with
    f_i the DFT of the indicator of intervals[i] mod q.

    With g_i the indicator of intervals[i] moved onto the inverses
    (g_i[nbar] = 1 for each unit n in the interval), direct[i, j] =
    sum_m g_i[m] e_q(a_j m), the conjugate of the DFT of the real g_i at
    a_j: O(q log q) per interval, whatever the number of residues.
    """
    if not 1 <= q <= INVERSE_TABLE_CAP:
        raise DomainError(f"completion limited to 1 <= q <= {INVERSE_TABLE_CAP}, got q = {q}")
    if any(len(interval) > q for interval in intervals):
        raise DomainError("interval longer than the period q")
    indicator = _interval_indicator(q, intervals)
    a = np.array([r % q for r in residues], dtype=np.int64)
    inv = inverse_table(q)
    units = np.flatnonzero(inv >= 0)
    moved = np.zeros(indicator.shape)
    moved[:, inv[units]] = indicator[:, units]
    direct = np.fft.fft(moved, axis=1)[:, a].conj()
    # kloosterman_tables raises NotCoprime for a residue sharing a factor with q
    tables = np.empty((q, len(a)), dtype=np.complex128)
    for block in table_row_blocks(len(a), q):
        tables[:, block] = kloosterman_tables(a[block], q).T
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
    """max over L = 0..K of |sum_{(r-1)K < k <= (r-1)K+L} e_q(-Mk) S(a,k,q)|.

    K is capped at SHORT_SUM_LENGTH_CAP, as the length of a short sum is.
    """
    if not 1 <= K <= SHORT_SUM_LENGTH_CAP:
        raise DomainError(f"block length K = {K} must be in [1, {SHORT_SUM_LENGTH_CAP}]")
    if q < 1:
        raise DomainError(f"modulus {q} must be >= 1")
    if math.gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) > 1")
    table = kloosterman_table(a, q)  # raises DomainError above INVERSE_TABLE_CAP
    # only k mod q matters: the start mod q keeps int64 k exact for any r
    ks = (r - 1) * K % q + 1 + np.arange(K, dtype=np.int64)
    # q <= INVERSE_TABLE_CAP, so k * M mod q fits int64
    weights = np.exp(-2j * np.pi * (ks % q * (M % q) % q) / q)
    running = np.cumsum(weights * table[ks % q])
    return float(np.abs(running).max(initial=0.0))


def _product_sum_err(q: int, n_terms: int, j: int) -> float:
    """Error bound for a sum of n_terms products of j table values."""
    bound = 2.0 * math.sqrt(q) + 1.0
    per_term = j * bound ** max(j - 1, 0) * table_err(q)
    return n_terms * (per_term + _TERM_EPS * bound**j)


def product_sums(residues: Sequence[int], shifts, bs: Sequence[int], q: int) -> np.ndarray:
    """(len(residues), len(bs)) array of sum over k mod q of e_q(-kb) prod_i S(a, k + s_i, q).

    Row i has a = residues[i], which must be coprime to q when j >= 1;
    shifts is one tuple (s_1, ..., s_j) for every row or a
    (len(residues), j) array, row i shifted by shifts[i].  j = 0 sums
    e_q(-kb) alone and gathers no table.  The tables are gathered a block
    of rows at a time (table_row_blocks); the products are formed in
    shift order and each sum runs along one contiguous row, so an entry
    is bitwise the same whichever rows share the call.  q is capped at
    INVERSE_TABLE_CAP, as the tables are, before anything of size q is
    built, so k * b mod q fits int64.
    """
    if q > INVERSE_TABLE_CAP:
        raise DomainError(f"product sums limited to q <= {INVERSE_TABLE_CAP}")
    shifts = np.asarray(shifts, dtype=np.int64) % q
    ks = np.arange(q, dtype=np.int64)
    # at b = 0 every phase is 1: the products are summed alone
    phases = [np.exp(-2j * np.pi * (ks * b % q) / q) if b else None
              for b in (int(b) % q for b in bs)]
    out = np.empty((len(residues), len(bs)), dtype=np.complex128)

    def add_up(rows: slice, prod: np.ndarray) -> None:
        for col, phase in enumerate(phases):
            out[rows, col] = (prod if phase is None else prod * phase).sum(axis=1)

    if shifts.shape[-1] == 0:  # every row is the one row of phase sums
        add_up(slice(None), np.ones((1, q), dtype=np.complex128))
        return out
    for block in table_row_blocks(len(residues), q):
        tables = kloosterman_tables(residues[block], q)
        block_shifts = shifts if shifts.ndim == 1 else shifts[block]
        rows = np.arange(len(tables))[:, None]
        prod = np.ones(tables.shape, dtype=np.complex128)
        for i in range(shifts.shape[-1]):
            prod *= tables[rows, (ks + block_shifts[..., i, None]) % q]
        add_up(block, prod)
    return out


def orthogonality_sums(p: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_k S(a, k, p) and sum_k S(a, k, p)^2 for a = 1..p-1 from one gather of the tables:
    bitwise product_sums(range(1, p), s, (0,), p)[:, 0] at s = (0,) and (0, 0)."""
    tables = (kloosterman_tables(range(1, p)[block], p) for block in table_row_blocks(p - 1, p))
    sums = [(tab.sum(axis=1), (tab * tab).sum(axis=1)) for tab in tables]  # one block at a time
    return np.concatenate([s1 for s1, _ in sums]), np.concatenate([s2 for _, s2 in sums])


def _prime_product_sums(
    residues: Sequence[int], shifts, bs: Sequence[int], p: int
) -> tuple[np.ndarray, float]:
    """Product sums to prime modulus p, one row per residue, and their common err.

    j = 0 is character orthogonality: exactly p when p | b, else 0.
    """
    j = np.shape(shifts)[-1]
    if j == 0:
        exact = [float(p) if b % p == 0 else 0.0 for b in bs]
        return np.tile(np.array(exact, dtype=np.complex128), (len(residues), 1)), 0.0
    return product_sums(residues, shifts, bs, p), _product_sum_err(p, p, j)


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
    values, err = _prime_product_sums([a], [tuple(int(s) % p for s in shifts)], [b], p)
    z = complex(values[0, 0])
    return SumValue(z.real, z.imag, err)


def _check_squarefree_units(residues: Sequence[int], q: FactoredInteger) -> None:
    if not q.squarefree:
        raise NotSquarefree(f"{q.value} is not squarefree")
    for a in residues:
        if math.gcd(a, q.value) != 1:
            raise NotCoprime(f"gcd({a}, {q.value}) > 1")


def product_sums_crt(
    batches: Sequence[tuple[Sequence[int], object, FactoredInteger]], bs: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """product_sums_squarefree(residues, shifts, bs, q) by CRT for every
    (residues, shifts, q) of batches.

    The prime-modulus parts of all batches that share (p, j) are evaluated
    in one _prime_product_sums call, with the arguments twisted by
    crt_twists; each row is bitwise the same in any batch.  The groups are
    then multiplied into their rows by ascending p, which is crt_twists
    order, with the order and rounding of SumValue.mul (real arithmetic
    and np.hypot: numpy's complex multiply and abs round differently from
    Python's).
    """
    groups, row_start = {}, [0]
    for residues, shifts, q in batches:
        _check_squarefree_units(residues, q)
        shifts = np.asarray(shifts, dtype=np.int64) % q.value
        shifts = np.broadcast_to(shifts, (len(residues), shifts.shape[-1]))
        rows = np.arange(row_start[-1], row_start[-1] + len(residues))
        row_start.append(row_start[-1] + len(residues))
        for p, cbar in crt_twists(q):
            groups.setdefault((p, shifts.shape[-1]), []).append(
                (rows, [a * cbar % p for a in residues], shifts * cbar % p)
            )
    shape = (row_start[-1], len(bs))
    re, im, err = np.ones(shape), np.zeros(shape), np.zeros(shape)
    for (p, _), group in sorted(groups.items()):
        rows = np.concatenate([batch_rows for batch_rows, _, _ in group])
        residues = [a for _, batch_residues, _ in group for a in batch_residues]
        shifts = np.concatenate([batch_shifts for *_, batch_shifts in group])
        part, part_err = _prime_product_sums(residues, shifts, [b % p for b in bs], p)
        pre, pim, r, i, e = part.real, part.imag, re[rows], im[rows], err[rows]
        err[rows] = np.hypot(r, i) * part_err + np.hypot(pre, pim) * e + e * part_err
        re[rows], im[rows] = r * pre - i * pim, r * pim + i * pre
    values = np.empty(shape, dtype=np.complex128)
    values.real, values.imag = re, im
    return [(values[lo:hi], err[lo:hi]) for lo, hi in zip(row_start, row_start[1:])]


def product_sums_squarefree(
    residues: Sequence[int], shifts, bs: Sequence[int], q: FactoredInteger
) -> tuple[np.ndarray, np.ndarray]:
    """Product sums to squarefree q and their errs, each (len(residues), len(bs)),
    summed directly over k mod q: the oracle for product_sums_crt.

    Row i has a = residues[i], coprime to q, and shifts as in product_sums.
    """
    _check_squarefree_units(residues, q)
    qv = q.value
    err = _product_sum_err(qv, qv, max(np.shape(shifts)[-1], 1))
    return product_sums(residues, shifts, bs, qv), np.full((len(residues), len(bs)), err)


def shifted_product_sum_squarefree(
    a: int, shifts: tuple[int, ...], b: int, q: FactoredInteger
) -> SumValue:
    """The analogous product sum to squarefree modulus q, by CRT from
    prime-modulus sums with unit-twisted arguments: product_sums_crt's
    one-cell case."""
    shifts = [tuple(int(s) % q.value for s in shifts)]
    values, errs = product_sums_crt([([a], shifts, q)], [b])[0]
    z = complex(values[0, 0])
    return SumValue(z.real, z.imag, float(errs[0, 0]))


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


def _length_groups(lengths: np.ndarray, js: np.ndarray) -> list[np.ndarray]:
    """Indices of rows with equal (length, j), each length-1 row in a group of its own.

    numpy multiplies a one-element array in place by another kernel than a
    longer one (it rounds without fused multiply-add), and a stack of
    length-1 rows is one longer array; a length-1 row formed alone rounds
    as the one-cell evaluation does.
    """
    keys = lengths * (int(js.max(initial=0)) + 1) + js
    keys[lengths == 1] = -1 - np.flatnonzero(lengths == 1)
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def _gathered_row_sums(
    lengths: np.ndarray,
    a: np.ndarray,
    q: np.ndarray,
    lo: np.ndarray,
    shifts: np.ndarray,
    js: np.ndarray,
    phase: Optional[np.ndarray],
) -> np.ndarray:
    """Sums over k in [lo, lo + L) of e_q(-t k) prod_i S(a, k + s_i, q), one per row.

    Row r takes L = lengths[r], the first js[r] entries of shifts[r] and
    the r-th entry of each other column; t = phase[r], and no phase is
    applied when phase is None.  Every table entry is gathered from one
    buffer of the rows' base tables S(1, ., q), since S(a, k, q) = S(1,
    a k, q).  Rows of one (L, j) are formed in one array, a block of about
    TABLE_BLOCK_BYTES at a time; each sum runs along one contiguous row,
    and a length-1 row alone (_length_groups).
    """
    sums = np.empty(len(lengths), dtype=np.complex128)
    if not len(lengths):
        return sums
    moduli = sorted(set(q.tolist()))
    buffer = np.concatenate([kloosterman_table(1, m) for m in moduli])
    start = np.concatenate(([0], np.cumsum(moduli)[:-1]))[np.searchsorted(moduli, q)]
    for group in _length_groups(lengths, js):
        L, j = int(lengths[group[0]]), int(js[group[0]])
        for block in table_row_blocks(len(group), L):
            rows = group[block]
            a_, q_, start_ = (c[rows, None] for c in (a, q, start))
            kk = lo[rows, None] + np.arange(L)
            prod = np.ones(kk.shape, dtype=np.complex128)
            for c in range(j):
                # a < q <= INVERSE_TABLE_CAP, so a * k fits int64
                index = (kk + shifts[rows, c, None]) % q_
                index *= a_
                index %= q_
                index += start_
                prod *= buffer[index]
            if phase is not None:
                prod = np.exp(-2j * np.pi * (kk % q_ * phase[rows, None] % q_) / q_) * prod
            sums[rows] = prod.sum(axis=1)
    return sums


def onediff_ratios(
    cells: Sequence[tuple[int, int, int, int, IntegerInterval, tuple[int, ...]]],
) -> list[OnediffReport]:
    """onediff_ratio(a, q0, q1, M, J, shifts) for every (a, q0, q1, M, J, shifts) cell.

    rhs_core does not depend on M, so cells that differ only in M share
    it.  The lhs sums of every cell, and the inner sums of every h and
    every cell, are formed one array per (row length, j) across the whole
    grid (_gathered_row_sums), so every report is bitwise its one-cell
    value.
    """
    cells = list(cells)
    for a, q0, q1, *_ in cells:
        if q0 < 1 or q1 < 1:
            raise DomainError("parts must be positive")
        if math.gcd(q0, q1) != 1:
            raise NotCoprime(f"gcd({q0}, {q1}) > 1")
        if math.gcd(a, q0 * q1) != 1:
            raise NotCoprime(f"gcd({a}, {q0 * q1}) > 1")
    reports = [OnediffReport(0.0, 0.0, 0.0)] * len(cells)
    # the live cells, and the (a, q0, q1, J, shifts) key of each one's rhs_core
    live, key_of, rhs_index = [], [], {}
    for i, (a, q0, q1, _, J, shifts) in enumerate(cells):
        K = len(J)
        if K == 0:
            continue
        if q1 > K:
            raise DomainError(f"hypothesis q1 <= K violated ({q1} > {K})")
        if len(shifts) < 1:
            raise DomainError("at least one shift required")
        live.append(i)
        # every sum reads k mod q, and q0 | q: the offset mod q keeps int64 k exact
        key = (a, q0, q1, J.offset % (q0 * q1), K, tuple(int(s) for s in shifts))
        key_of.append(rhs_index.setdefault(key, len(rhs_index)))
    if not live:
        return reports
    rhs_keys = list(rhs_index)
    j_max = max(len(key[5]) for key in rhs_keys)
    # one entry per rhs key, a' = a * inv(q1)^2 mod q0; shifts are padded to
    # j_max and reduced mod q, which serves the sums mod q0 too, as q0 | q
    a_k, a1_k, q0_k, q1_k, lo_k, K_k, shifts_k, js_k = (np.array(c) for c in zip(*(
        (a % (q0 * q1), 0 if q0 == 1 else a * pow(q1 % q0, -1, q0) ** 2 % q0, q0, q1, lo, K,
         [s % (q0 * q1) for s in sh] + [0] * (j_max - len(sh)), len(sh))
        for a, q0, q1, lo, K, sh in rhs_keys
    )))

    # lhs = |T|^2, T = sum over k in J of e_q(-Mk) prod_i S(a, k+s_i, q)
    c = np.array(key_of)
    Ms = np.array([cells[i][3] % (cells[i][1] * cells[i][2]) for i in live])
    t_vals = _gathered_row_sums(
        K_k[c], a_k[c], q0_k[c] * q1_k[c], lo_k[c], shifts_k[c], js_k[c], Ms
    ).tolist()

    # inner(h): one row per h with 0 < |h| <= K/q1 and a nonempty overlap, in h order
    H = K_k // q1_k
    row_key = np.repeat(np.arange(len(rhs_keys)), 2 * H + 1)
    h = np.arange(len(row_key)) - np.repeat(np.cumsum(2 * H + 1) - H - 1, 2 * H + 1)
    q1h = q1_k[row_key] * h
    length = K_k[row_key] - np.abs(q1h)
    keep = (h != 0) & (length > 0)
    row_key, q1h, length = row_key[keep], q1h[keep], length[keep]
    # inner(h) is a product of 2j factors, over the shifts s_1, s_1 + t, ..., s_j, s_j + t
    sh, t = shifts_k[row_key], (q1h % q0_k[row_key])[:, None]
    paired = np.stack((sh, sh + t), axis=2).reshape(len(sh), 2 * j_max)
    sums = _gathered_row_sums(
        length, a1_k[row_key], q0_k[row_key], lo_k[row_key] + np.maximum(0, -q1h),
        paired, 2 * js_k[row_key], None,
    )
    mags = np.hypot(sums.real, sums.imag)  # rounds as abs(complex) does
    # bincount adds each key's rows in h order, as the one-cell sum adds them
    inner_totals = np.bincount(row_key, weights=mags, minlength=len(rhs_keys)).tolist()

    rhs = [
        q1 ** (len(sh) + 1) * (K * float(q0) ** len(sh) + total)
        for (_, q0, q1, _, K, sh), total in zip(rhs_keys, inner_totals)
    ]
    for i, k, t_val in zip(live, key_of, t_vals):
        lhs = abs(t_val) ** 2
        ratio = lhs / rhs[k] if rhs[k] > 0 else 0.0
        reports[i] = OnediffReport(lhs, rhs[k], ratio)
    return reports


def onediff_ratio(
    a: int,
    q0: int,
    q1: int,
    M: int,
    J: IntegerInterval,
    shifts: tuple[int, ...] = (0,),
) -> OnediffReport:
    """Evaluate both sides of the single differencing step, with no
    epsilon factor and constant 1: onediff_ratios' one-cell case.

    lhs is |T|^2 for T = sum over k in J of e_q(-Mk) prod_i S(a, k+s_i, q),
    q = q0*q1.  rhs_core is q1^{j+1} * (K q0^j + sum over 0 < |h| <= K/q1
    of |inner(h)|), where inner(h) sums the differenced products over the
    overlap {k in J : k + q1 h in J} and the sums use a' = a * inv(q1)^2
    mod q0.  The returned ratio is diagnostic, not an asserted bound.
    """
    return onediff_ratios([(a, q0, q1, M, J, shifts)])[0]
