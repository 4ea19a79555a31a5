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

from kloosterlab.arith import (
    INVERSE_TABLE_CAP,
    FactoredInteger,
    ModulusSplit,
    factorize,
    inverse_mod,
    inverse_table,
    mulmod,
    smooth_squarefree_moduli,
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
            factorize(2**62 + 1)

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
        vals = [f.value for f in smooth_squarefree_moduli(10, 40, 7)]
        assert vals == [10, 14, 15, 21, 30, 35]

    def test_point(self):
        got = smooth_squarefree_moduli(105, 105, 7)
        assert [f.value for f in got] == [105]
        assert got[0].factors == ((3, 1), (5, 1), (7, 1))

    def test_inverted_range(self):
        with pytest.raises(DomainError):
            smooth_squarefree_moduli(10, 5, 7)

    def test_matches_factorize(self):
        got = {f.value for f in smooth_squarefree_moduli(1, 3000, 13)}
        want = {
            n
            for n in range(1, 3001)
            if factorize(n).squarefree and all(p <= 13 for p in factorize(n).primes)
        }
        assert got == want

    def test_large_prime_tail(self):
        # a single prime above sqrt(hi) must still be admitted when the
        # bound allows it
        got = [f.value for f in smooth_squarefree_moduli(9973, 9973, 9973)]
        assert got == [9973]

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
                want.append((f.value, f.factors))
        got = smooth_squarefree_moduli(lo, hi, bound)
        assert [(f.value, f.factors) for f in got] == want


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
        # inverse_mod itself); __wrapped__ bypasses the lru_cache
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

    @pytest.mark.parametrize("m", [1, 2, 10007, 360360, 2**61 - 1, 2**62 - 1])
    def test_inverse_mod_matches_pow(self, m):
        rng = random.Random(m)
        us = [0, 1, m - 1] + [rng.randrange(m) for _ in range(300)]
        got = inverse_mod(np.array(us, dtype=np.int64), m)
        assert got.tolist() == [
            pow(u, -1, m) if math.gcd(u, m) == 1 else -1 for u in us
        ]

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


class TestMulmod:
    @pytest.mark.parametrize("q", [97, 3037000499, 10**10 + 19, 10**12 + 39])
    def test_matches_python_ints(self, q):
        rng = random.Random(q)
        xs = [0, 1, q - 1, q - 2] + [rng.randrange(q) for _ in range(200)]
        ys = [q - 1, 1, q - 3, 0] + [rng.randrange(q) for _ in range(200)]
        x = np.array(xs, dtype=np.int64)
        got = mulmod(x, np.array(ys, dtype=np.int64), q)
        assert got.dtype == np.int64
        assert got.tolist() == [a * b % q for a, b in zip(xs, ys)]
        for y in (q - 1, ys[-1]):
            assert mulmod(x, y, q).tolist() == [a * y % q for a in xs]
