import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloosterlab import arith, cli, kloosterman
from kloosterlab.arith import (
    INVERSE_TABLE_CAP,
    FactoredInteger,
    ModulusSplit,
    factorize,
    inverse_mod,
    inverse_table,
    is_prime,
    smooth_squarefree_moduli,
    table_cache,
    totient,
    unit_mask,
)
from kloosterlab.errors import DomainError, NotSquarefree

from brute import factor_brute, totient_brute


class TestFactorize:
    def test_one(self):
        f = factorize(1)
        assert f.factors == () and f.squarefree

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_squarefree_flag(self):
        f = factorize(105)
        assert f.factors == ((3, 1), (5, 1), (7, 1))
        assert f.squarefree

    def test_domain(self):
        with pytest.raises(DomainError):
            factorize(0)
        with pytest.raises(DomainError):
            factorize(2**63)

    def test_reassembly_exhaustive_small(self):
        for n in range(1, 20001):
            assert factorize(n).factors == factor_brute(n), n

    def test_reassembly_to_one_million(self):
        # bijection onto valid factored integers: reassembly over the
        # full range (FactoredInteger validation re-checks ordering)
        for n in range(1, 10**6 + 1):
            f = factorize(n)
            prod = 1
            for p, e in f.factors:
                prod *= p**e
            assert prod == n

    @pytest.mark.parametrize("n", [
        999983, 10**6, 10**6 + 1,  # edges of the old sieve branch
        9973**2, 9973 * 10007, 10007**2, 10007 * 10009,  # edges of the prime shortcut
    ])
    def test_matches_brute_at_edges(self, n):
        assert factorize(n).factors == factor_brute(n)

    def test_builds_no_large_table(self):
        # a fresh interpreter, so no earlier test's cache hides a table
        code = (
            "import tracemalloc\n"
            "from kloosterlab.arith import factorize\n"
            "tracemalloc.start()\n"
            "factorize(999983)\n"
            "factorize(720720)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout
        assert int(out) < 2**20

    def test_large_semiprime(self):
        p, r = 1_000_003, 999_983
        f = factorize(p * r)
        assert f.factors == ((r, 1), (p, 1))

    @given(st.integers(1, 2**48))
    @settings(max_examples=60, deadline=None)
    def test_reassembly_random(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n

    def test_invalid_factored_integer_rejected(self):
        with pytest.raises(DomainError):
            FactoredInteger(6, ((2, 1),))
        with pytest.raises(DomainError):
            FactoredInteger(6, ((3, 1), (2, 1)))


class TestMultiplicativeProfile:
    """Euler's phi, the one multiplicative function the pipelines read."""

    def test_unit(self):
        assert totient(factorize(1)) == 1

    def test_twelve(self):
        assert totient(factorize(12)) == 4

    def test_against_brute(self):
        for n in [*range(1, 301), 360, 1024, 3**7, 30030]:
            assert totient(factorize(n)) == totient_brute(n), n

    def test_divisor_sum_identities(self):
        # sum_{d|n} phi(d) = n, exhaustively to 10^4: each d is added to
        # the sums of its multiples, found by a scan.
        limit = 10**4
        sums = [0] * (limit + 1)
        for d in range(1, limit + 1):
            phi = totient(factorize(d))
            for n in range(d, limit + 1, d):
                sums[n] += phi
        assert sums[1:] == list(range(1, limit + 1))


class TestSmoothSquarefree:
    def test_no_primes_allowed(self):
        assert smooth_squarefree_moduli(2, 100, 1) == []

    def test_bound_below_one(self):
        with pytest.raises(DomainError, match="smoothness bound"):
            smooth_squarefree_moduli(2, 100, 0)

    def test_window(self):
        assert smooth_squarefree_moduli(10, 40, 7) == [10, 14, 15, 21, 30, 35]

    def test_point(self):
        assert smooth_squarefree_moduli(105, 105, 7) == [105]

    def test_inverted_range(self):
        with pytest.raises(DomainError):
            smooth_squarefree_moduli(10, 5, 7)

    def test_matches_factorize(self):
        got = set(smooth_squarefree_moduli(1, 3000, 13))
        want = {
            n
            for n in range(1, 3001)
            if factorize(n).squarefree and all(p <= 13 for p in factorize(n).primes)
        }
        assert got == want

    def test_large_prime_tail(self):
        # a single prime above sqrt(hi) must still be admitted when the
        # bound allows it
        assert smooth_squarefree_moduli(9973, 9973, 9973) == [9973]

    @pytest.mark.parametrize("lo, hi, bound", [
        # windows starting at p^2 - 1, p^2, p^2 + 1: p = 7 with the bound
        # below sqrt(hi), p = 101 with the bound above it
        (48, 400, 7), (49, 400, 7), (50, 400, 7),
        (10200, 10600, 200), (10201, 10600, 200), (10202, 10600, 200),
        (10**6 - 2000, 10**6 + 2000, 13),
        (10**6 - 2000, 10**6 + 2000, 5000),
        # a prime bound that is itself the leftover factor (991 * 1009)
        (10**6 - 2000, 10**6 + 2000, 1009),
    ])
    def test_matches_brute_force(self, lo, hi, bound):
        want = []
        for n in range(lo, hi + 1):
            f = factorize(n)
            if f.squarefree and all(p <= bound for p in f.primes):
                want.append(n)
        assert smooth_squarefree_moduli(lo, hi, bound) == want

    @pytest.mark.parametrize("x, a, b, count, digest", [
        (10**11, 0.60, 0.64, 277331,
         "ae69ebb25badae190f69f4ed987b73261425354cce3a0afd4e45e9d42110d05c"),
        (10**12, 0.665, 0.670, 418806,
         "4af02269312a76b492d03a0be79b44b49534a020db40eb64792b9defa624e0a3"),
    ])
    def test_large_windows_pinned(self, x, a, b, count, digest):
        # the windows a sieved sweep lists at eta = 0.25
        got = smooth_squarefree_moduli(math.ceil(x**a), math.floor(x**b), math.floor(x**0.25))
        assert len(got) == count
        assert all(type(n) is int for n in got)  # no numpy integer reaches CSV or Fraction
        assert hashlib.sha256(",".join(map(str, got)).encode()).hexdigest() == digest


class TestModulusSplit:
    def test_properties(self):
        s = ModulusSplit((15, 7))
        assert s.modulus == 105 and s.l == 1

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            ModulusSplit((4, 3))
        with pytest.raises(NotSquarefree):
            ModulusSplit((3, 3))


class TestResidueTables:
    @pytest.mark.parametrize("q", [1, 2, 7, 12, 97, 360, 30030, INVERSE_TABLE_CAP + 1])
    def test_inverse_table(self, q):
        if q > INVERSE_TABLE_CAP:
            with pytest.raises(DomainError):
                inverse_table(q)
            with pytest.raises(DomainError):
                unit_mask(q)
            return
        inv = inverse_table(q)
        mask = unit_mask(q)
        for n in range(q):
            if q == 1 or math.gcd(n, q) == 1:
                assert mask[n]
                if q > 1:
                    assert n * inv[n] % q == 1
            else:
                assert not mask[n] and inv[n] == -1

    def test_inverse_table_is_euclid_below_5000(self):
        # q with two or more prime parts take the CRT route (the others are
        # inverse_mod itself); __wrapped__ bypasses the table cache
        for q in range(1, 5000):
            if len(factorize(q).factors) < 2:
                continue
            want = inverse_mod(np.arange(q, dtype=np.int64), q)
            assert np.array_equal(inverse_table.__wrapped__(q), want), q

    @pytest.mark.parametrize("q", [9699690, INVERSE_TABLE_CAP])
    def test_large_composite_inverse_table(self, q):
        # 2*3*...*19 (eight prime parts) and 2^7 * 5^7 (two prime-power parts)
        inv = inverse_table.__wrapped__(q)
        assert inv.shape == (q,) and not inv.flags.writeable
        rng = random.Random(q)
        sample = np.array([0, 1, 2, q - 2, q - 1] + rng.sample(range(q), 4000), dtype=np.int64)
        assert np.array_equal(inv[sample], inverse_mod(sample, q))
        # every entry: n * inv[n] = 1 mod q where inv[n] >= 0, and exactly
        # q - phi(q) entries are -1, so no unit is marked as a non-unit
        for lo in range(0, q, 1 << 20):
            n = np.arange(lo, min(lo + (1 << 20), q), dtype=np.int64)
            block = inv[lo : lo + len(n)]
            units = block >= 0
            assert np.all(n[units] * block[units] % q == 1)
            assert np.all(block[~units] == -1)
        assert int((inv < 0).sum()) == q - totient(factorize(q))

    def test_prime_inverse_table_past_one_block(self):
        # the least prime above 2^20: inverse_mod builds it in two blocks
        q = 1048583
        assert is_prime(q) and not any(is_prime(n) for n in range(2**20, q))
        inv = inverse_table.__wrapped__(q)
        assert inv.shape == (q,) and inv[0] == -1
        rng = random.Random(q)
        ns = [1, 2, *range(2**20 - 2, 2**20 + 2), q - 1] + rng.sample(range(1, q), 1000)
        assert [int(inv[n]) for n in ns] == [pow(n, -1, q) for n in ns]

    @pytest.mark.parametrize("m", [1, 2, 10007, 360360, 2**61 - 1, 2**62 - 1])
    def test_inverse_mod_matches_pow(self, m):
        rng = random.Random(m)
        us = [0, 1, m - 1] + [rng.randrange(m) for _ in range(300)]
        got = inverse_mod(np.array(us, dtype=np.int64), m)
        assert got.tolist() == [
            pow(u, -1, m) if math.gcd(u, m) == 1 else -1 for u in us
        ]

    def test_inverse_mod_in_blocks(self, monkeypatch):
        # blocks of 7 entries, splitting rows of a broadcast (3 x 12) array
        monkeypatch.setattr(arith, "INVERSE_BLOCK", 7)
        u = np.arange(-3, 9)
        m = np.array([[1], [8], [9]])
        got = inverse_mod(u, m)
        assert got.shape == (3, 12)
        assert got.tolist() == [[pow(int(uj), -1, mi) if math.gcd(int(uj), mi) == 1 else -1
                                 for uj in u] for mi in (1, 8, 9)]
        assert inverse_mod(5, 12).shape == () and inverse_mod(5, 12) == 5
        assert inverse_mod(np.array([], dtype=np.int64), 12).shape == (0,)

    def test_inverse_mod_broadcasts_moduli(self):
        u = np.arange(-3, 9)
        m = np.array([[1], [8], [9]])
        got = inverse_mod(u, m)
        assert got.shape == (3, 12)
        for i, mi in enumerate((1, 8, 9)):
            for j, uj in enumerate(u.tolist()):
                want = pow(uj, -1, mi) if math.gcd(uj, mi) == 1 else -1
                assert got[i, j] == want
        with pytest.raises(DomainError):
            inverse_mod(3, 0)



class TestTableCache:
    def test_evicts_least_recently_used_past_the_budget(self, monkeypatch):
        built = []
        table = table_cache(lambda q: built.append(q) or np.zeros(4, dtype=np.int8))
        monkeypatch.setattr(arith, "TABLE_CACHE_BYTES", 12)  # three tables
        for q in (1, 2, 3, 1, 4):  # 1 is used again, so 2 is the least recent
            table(q)
        assert built == [1, 2, 3, 4]
        assert table.cache_info() == arith.CacheInfo(hits=1, misses=4, currsize=3, nbytes=12)
        table(1), table(3), table(4)
        table(2)  # rebuilt, and 1 is now the least recent
        assert built == [1, 2, 3, 4, 2]
        table(1)
        assert built == [1, 2, 3, 4, 2, 1]

    def test_keeps_the_newest_table_past_the_budget(self, monkeypatch):
        table = table_cache(lambda q: np.zeros(q, dtype=np.int8))
        monkeypatch.setattr(arith, "TABLE_CACHE_BYTES", 12)
        table(4), table(20)
        assert table.cache_info() == arith.CacheInfo(hits=0, misses=2, currsize=1, nbytes=20)
        assert table(20) is table(20)
        table.cache_clear()
        assert table.cache_info() == arith.CacheInfo(0, 0, 0, 0)

    @pytest.mark.parametrize("cached", [inverse_table, kloosterman._base_table])
    def test_tables_past_the_budget_are_rebuilt(self, monkeypatch, cached):
        cached.cache_clear()
        itemsize = cached(101).itemsize
        monkeypatch.setattr(arith, "TABLE_CACHE_BYTES", itemsize * (103 + 107))
        cached(103), cached(101)
        cached(107)  # past the budget: 103, the least recent, goes
        assert cached.cache_info()[:3] == (1, 3, 2)
        cached(101)
        cached(103)  # rebuilt, and 107 goes
        assert cached.cache_info()[:3] == (2, 4, 2)
        cached(101)
        assert cached.cache_info()[:3] == (3, 4, 2)
        assert not cached(103).flags.writeable

    def test_lemma_grids_still_hit(self):
        # every table of the five suites fits the budget: nothing is evicted
        caches = (inverse_table, kloosterman._base_table)
        for cached in caches:
            cached.cache_clear()
        for suite in cli.SUITE_CHECKS:
            cli._run_checks(suite)
        for cached in caches:
            info = cached.cache_info()
            assert info.hits > 0 and info.currsize == info.misses, info
            assert info.nbytes <= arith.TABLE_CACHE_BYTES
