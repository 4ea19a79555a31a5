"""The batched table gather and product sums that every lemma grid runs on.

Three kinds of test: entries against the definitional oracle in
brute.py (pow inverses and cmath, one term at a time) within the
tracked err; rows of a batched call against the one-row public
functions, bitwise; and, per grid check, one mutation of the batched path
that the check must detect.
"""

import hashlib
import inspect
import math
from functools import lru_cache

import numpy as np
import pytest

from kloosterlab import checks, kloosterman, vdc_lab
from kloosterlab.arith import factorize, primes_up_to
from kloosterlab.errors import NotCoprime
from kloosterlab.checks import onediff_grid_cells
from kloosterlab.kloosterman import (
    IntegerInterval,
    SumValue,
    complete_kloosterman,
    crt_twists,
    kloosterman_table,
    kloosterman_tables,
    table_err,
)
from kloosterlab.vdc_lab import (
    onediff_ratio,
    onediff_ratios,
    orthogonality_sums,
    product_sums,
    product_sums_crt,
    product_sums_squarefree,
    shifted_product_complete_sum,
    shifted_product_sum_squarefree,
)

from brute import e_q, kloosterman_brute

SQUAREFREE = [q for q in range(1, 61) if factorize(q).squarefree]
PRIMES = primes_up_to(60)


def _units(q):
    return [a for a in range(1, max(q, 2)) if math.gcd(a, q) == 1]


@lru_cache(maxsize=None)
def _brute_row(a, q):
    return tuple(kloosterman_brute(a, k, q) for k in range(q))


def _product_sum_brute(a, shifts, b, q):
    total = 0j
    for k in range(q):
        term = e_q(-k * b, q)
        for s in shifts:
            term *= _brute_row(a, q)[(k + s) % q]
        total += term
    return total


def _shift_tuples(q):
    return [(), (0,), (1,), (0, 0), (0, 2 % q), (1, q - 1), (0, 0, 0), (1, 2 % q, 5 % q)]


class TestAgainstTheOracle:
    @pytest.mark.parametrize("q", SQUAREFREE)
    def test_tables(self, q):
        units = _units(q)
        tables = kloosterman_tables(units, q)
        assert tables.shape == (len(units), q)
        want = np.array([_brute_row(a, q) for a in units])
        assert np.abs(tables - want).max() <= table_err(q)

    @pytest.mark.parametrize("p", PRIMES)
    def test_prime_product_sums(self, p):
        units = _units(p)
        bs = sorted({0, 1, p - 1})
        for shifts in _shift_tuples(p):
            got = product_sums(units, shifts, bs, p)
            for i, a in enumerate(units):
                for c, b in enumerate(bs):
                    err = shifted_product_complete_sum(a, shifts, b, p).err
                    want = _product_sum_brute(a, shifts, b, p)
                    # at j = 0 the one-row err is 0 (the exact value p or 0),
                    # while product_sums adds the phases in floating point
                    assert abs(got[i, c] - want) <= err + 1e-12, (a, shifts, b)

    @pytest.mark.parametrize("q", [q for q in SQUAREFREE if q > 1])
    def test_squarefree_product_sums(self, q):
        fq = factorize(q)
        units = _units(q)
        bs = sorted({0, 1, q - 1})
        for shifts in _shift_tuples(q)[:6]:
            routes = {"crt": product_sums_crt([(units, shifts, fq)], bs)[0],
                      "direct": product_sums_squarefree(units, shifts, bs, fq)}
            for route, (got, errs) in routes.items():
                for i, a in enumerate(units):
                    for c, b in enumerate(bs):
                        want = _product_sum_brute(a, shifts, b, q)
                        assert abs(got[i, c] - want) <= errs[i, c] + 1e-12, (route, a, shifts, b)


def test_product_sums_reject_a_non_unit_residue():
    # the non-unit 2018 = 2 * 1009 sits in the second block of rows
    for shifts in ((0,), (0, 1)):
        with pytest.raises(NotCoprime):
            product_sums(list(range(1, 40)) + [2018], shifts, (0, 1), 1009)
    # j = 0 gathers no table: every row is the same row of phase sums
    assert np.array_equal(product_sums([3], (), (0, 1), 15), product_sums([1], (), (0, 1), 15))


def test_no_public_function_takes_a_method():
    # each quantity has one evaluator; its oracle is a function of its own
    for module in (kloosterman, vdc_lab):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ == module.__name__:
                assert "method" not in inspect.signature(fn).parameters, (module, name)


class TestRowsAreTheOneRowValues:
    """A batched entry is bitwise the entry of the one-row public function."""

    def test_tables(self):
        for q in (1, 2, 30, 97):
            units = _units(q)
            tables = kloosterman_tables(units, q)
            for a, row in zip(units, tables):
                assert np.array_equal(row, kloosterman_table(a, q))

    def test_prime_product_sums_with_per_row_shifts(self):
        p = 53
        rows = [(a, s) for a in (1, 2, 52) for s in ((0, 1), (3, 3), (7, 52))]
        bs = (0, 1, 17)
        got = product_sums([a for a, _ in rows], np.array([s for _, s in rows]), bs, p)
        for i, (a, shifts) in enumerate(rows):
            for c, b in enumerate(bs):
                assert got[i, c] == shifted_product_complete_sum(a, shifts, b, p).as_complex

    def test_squarefree_product_sums(self):
        fq = factorize(210)
        units = [1, 11, 209]
        shifts = np.array([(0, 1), (2, 105), (1, 209)])
        got, errs = product_sums_crt([(units, shifts, fq)], (0, 1))[0]
        direct, direct_errs = product_sums_squarefree(units, shifts, (0, 1), fq)
        for i, a in enumerate(units):
            for c, b in enumerate((0, 1)):
                one = shifted_product_sum_squarefree(a, tuple(shifts[i]), b, fq)
                assert (got[i, c], errs[i, c]) == (one.as_complex, one.err)
                one, one_err = product_sums_squarefree([a], [shifts[i]], [b], fq)
                assert (direct[i, c], direct_errs[i, c]) == (one[0, 0], one_err[0, 0])

    @pytest.mark.parametrize("p", [2, 3, 131, 199])
    def test_orthogonality_sums(self, p):
        # one table block up to p = 127, two at p = 131 and three at p = 199
        s1, s2 = orthogonality_sums(p)
        for got, shifts in ((s1, (0,)), (s2, (0, 0))):
            assert got.tobytes() == product_sums(range(1, p), shifts, (0,), p)[:, 0].tobytes()

    def test_crt_batches_are_each_batch_alone(self):
        # the prime parts of all batches that share (p, j) are one batch
        batches = []
        for q in (1, 2, 6, 15, 30, 35, 194, 210):
            units = _units(q)[:5]
            for shifts in ((), (0,), (1, q - 1), np.array([(u % 3, 5, u) for u in units])):
                batches.append((units, shifts, factorize(q)))
        bs = (0, 1, 7)
        got = product_sums_crt(batches, bs)
        assert len(got) == len(batches)
        for (units, shifts, fq), (values, errs) in zip(batches, got):
            alone, alone_errs = product_sums_crt([(units, shifts, fq)], bs)[0]
            assert np.array_equal(values, alone) and np.array_equal(errs, alone_errs)
            for i, a in enumerate(units):
                for c, b in enumerate(bs):
                    # the prime parts, multiplied in crt_twists order by SumValue.mul
                    row = shifts[i] if np.ndim(shifts) == 2 else shifts
                    one = SumValue(1.0, 0.0, 0.0)
                    for p, cbar in crt_twists(fq):
                        twisted = tuple(int(s) * cbar % p for s in row)
                        one = one.mul(shifted_product_complete_sum(a * cbar % p, twisted, b, p))
                    assert (values[i, c], errs[i, c]) == (one.as_complex, one.err)

    def test_onediff_ratios(self):
        # K = 10 with q1 = 3 gives overlaps of length 1 at h = +-3
        cells = [(2, 7, 3, M, IntegerInterval(off, K), s)
                 for K in (10, 11, 20) for off in (0, 4) for M in (0, 1) for s in ((0,), (1, 2))]
        got = onediff_ratios(cells)
        for cell, rep in zip(cells, got):
            assert rep == onediff_ratio(*cell)

    def test_onediff_grid_mixes_moduli(self, monkeypatch):
        # several (a, q0, q1) in one call: K = q1 + 1 gives inner rows of
        # length 1 at h = +-1 and K = q1 = 1 an lhs row of length 1
        cells = [(a, q0, q1, M, IntegerInterval(off, K), s)
                 for q0, q1 in ((7, 3), (5, 2), (11, 1), (1, 4), (13, 6))
                 for a in (1, 2, 5) if math.gcd(a, q0 * q1) == 1
                 for K in (q1, q1 + 1, 10, 31) for off in (0, -4)
                 for M in (0, 3) for s in ((0,), (1, 2), (q0, 1, 5))]
        want = [onediff_ratio(*cell) for cell in cells]
        assert onediff_ratios(cells) == want
        # the rows of one length split across many blocks
        monkeypatch.setattr(kloosterman, "TABLE_BLOCK_BYTES", 16 * 10 * 4)
        assert onediff_ratios(cells) == want

    def test_onediff_offsets_past_int64(self):
        # the sums depend on the offset mod q only, so k stays exact in int64
        for off in (2**63 - 5, 2**64 + 3, -(2**63) - 1):
            for q0, q1 in ((5, 2), (7, 3)):
                J = IntegerInterval(off, 10)
                want = onediff_ratio(1, q0, q1, 1, IntegerInterval(off % (q0 * q1), 10))
                assert onediff_ratio(1, q0, q1, 1, J) == want

    def test_onediff_empty_cell(self):
        assert onediff_ratios([(1, 5, 2, 0, IntegerInterval(0, 0), ())]) == [(0.0, 0.0, 0.0)]

    def test_onediff_full_grid_is_pinned(self):
        # every report of the full differencing grid, bitwise (the sha256 of
        # their repr): a change in the order of any product or sum shows here
        cells = [(a, q0, q1, M, IntegerInterval(0, K), shifts)
                 for q0, q1, K, M, a, shifts in onediff_grid_cells()]
        digest = hashlib.sha256(repr(onediff_ratios(cells)).encode()).hexdigest()
        assert digest == "ae5c0b089abc5a93df5523a859b0e376617e8efd9d299edba1b7b1673fa41f20"


def _pushed_base(p):
    """kloosterman._base_table with S(1, 1; p) pushed 1 above 2 sqrt(p) + err."""
    base = kloosterman._base_table

    def table(q):
        t = base(q)
        if q == p:
            t = t.copy()
            t[1] = 2 * math.sqrt(p) + table_err(p) + 1
        return t

    return table


def _violations(result):
    return int(result.line.rsplit("violations = ", 1)[1])


class TestWeilScansOneRowPerPrime:
    """check_weil reads one base row per prime; it must report what the
    exhaustive scan over all p - 1 rows finds."""

    @pytest.mark.parametrize("push", [False, True], ids=["exact", "pushed"])
    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_the_exhaustive_scan(self, p, push, monkeypatch):
        if push:
            monkeypatch.setattr(kloosterman, "_base_table", _pushed_base(p))
        monkeypatch.setattr(checks, "primes_up_to", lambda n: [p])
        got = checks.check_weil()
        tables = kloosterman_tables(range(1, p), p)
        top = np.abs(tables[:, 1:]).max(axis=1)
        im = np.abs(tables.imag).max(axis=1)
        excess = (top - (2 * math.sqrt(p) + table_err(p)), im - table_err(p))
        assert got.cells == tables.size == (p - 1) * p
        assert list(got.observed.values()) == [float(e.max()) for e in excess]
        assert _violations(got) == sum(int((e > 0).sum()) for e in excess)
        assert _violations(got) == (p - 1 if push else 0)
        assert got.ok is not push

    def test_a_pushed_base_entry_is_a_violation_in_every_row(self, monkeypatch):
        assert _violations(checks.check_weil()) == 0
        monkeypatch.setattr(kloosterman, "_base_table", _pushed_base(53))
        got = checks.check_weil()
        assert _violations(got) == (53 - 1) * 1
        assert not got.ok


def _off_by_one_twists(q):
    return [(m, cbar + 1 if cbar + 1 < m else cbar) for m, cbar in crt_twists(q)]


def _scaled(builder, factor):
    return lambda residues, q: builder(residues, q) * factor


class TestEachGridDetectsAMutation:
    def test_weil_sees_a_rotated_table(self, monkeypatch):
        assert checks.check_weil().ok
        monkeypatch.setattr(checks, "kloosterman_tables",
                            _scaled(kloosterman_tables, np.exp(1e-9j)))
        assert not checks.check_weil().ok

    def test_orthogonality_sees_a_scaled_table(self, monkeypatch):
        # both sums are invariant under permuting k, so no reindexing
        # mutation (such as a rolled table) can be seen by this check
        assert checks.check_orthogonality().ok
        monkeypatch.setattr(vdc_lab, "kloosterman_tables", _scaled(kloosterman_tables, 1 + 1e-5))
        assert not checks.check_orthogonality().ok

    def test_magnitudes_see_a_table_scaled_by_one_part_in_a_million(self, monkeypatch):
        assert checks.check_magnitudes().ok
        monkeypatch.setattr(vdc_lab, "kloosterman_tables", _scaled(kloosterman_tables, 1 + 1e-6))
        assert not checks.check_magnitudes().ok

    def test_multiplicativity_sees_an_off_by_one_crt_twist(self, monkeypatch):
        assert checks.check_multiplicativity().ok
        monkeypatch.setattr(vdc_lab, "crt_twists", _off_by_one_twists)
        assert not checks.check_multiplicativity().ok

    def test_complete_kloosterman_sees_an_off_by_one_crt_twist(self, monkeypatch):
        def deviates():
            for q in range(2, 106):
                for a, b in ((1, 1), (2, 5)):
                    got = complete_kloosterman(a, b, q)
                    want = kloosterman._direct_sum(a, b, q)
                    if abs(got.as_complex - want.as_complex) > got.err + want.err:
                        return True
            return False

        assert not deviates()
        monkeypatch.setattr(kloosterman, "crt_twists", _off_by_one_twists)
        assert deviates()

    def test_onediff_sees_a_scaled_table(self, monkeypatch):
        assert checks.check_onediff().ok
        monkeypatch.setattr(vdc_lab, "kloosterman_table",
                            lambda a, q: kloosterman_table(a, q) * (1 + 1e-6))
        assert not checks.check_onediff().ok
