"""The workload inputs are a pure function of the seed."""

import math

import pytest

import oracles
from inputs import (
    DEFAULT_SEED,
    DQ_PRIME_FACTORS,
    SS_Q_HI,
    SS_Q_LO,
    WORKLOADS,
    workload_inputs,
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workload_inputs(workload, 7) == workload_inputs(workload, 7)
    assert workload_inputs(workload, DEFAULT_SEED) == workload_inputs(workload, DEFAULT_SEED)


@pytest.mark.parametrize("workload", ["sweep_c11", "divisor_queries", "short_sums"])
def test_different_seed_different_inputs(workload):
    assert workload_inputs(workload, 7) != workload_inputs(workload, 8)


def test_lemma_suites_ignore_the_seed():
    # the suites fix their own grids, so the seed is recorded but unused
    assert workload_inputs("lemma_suites", 7) == workload_inputs("lemma_suites", 8)


@pytest.mark.parametrize("seed", [1, 2, DEFAULT_SEED])
def test_divisor_queries_are_in_the_paper_regime(seed):
    queries = workload_inputs("divisor_queries", seed)["queries"]
    for x, q, a in queries:
        primes = oracles.prime_factors(q)
        assert 10**6 <= x <= 3 * 10**7
        assert 0.60 <= math.log(q) / math.log(x) <= 0.70
        assert math.prod(primes) == q and len(primes) == DQ_PRIME_FACTORS
        assert max(primes) <= x**0.25
        assert math.gcd(a, q) == 1


@pytest.mark.parametrize("seed", [1, 2, DEFAULT_SEED])
def test_short_sums_moduli_and_lengths(seed):
    groups = workload_inputs("short_sums", seed)["groups"]
    kinds = [g["kind"] for g in groups]
    assert kinds.count("prime") == kinds.count("smooth")
    for g in groups:
        q = g["q"]
        assert SS_Q_LO <= q <= SS_Q_HI
        primes = oracles.prime_factors(q)
        assert math.prod(primes) == q
        assert (len(primes) == 1) == (g["kind"] == "prime")
        for c in g["calls"]:
            assert c["q"] == q and math.gcd(c["a"], q) == 1
            if c["fn"] != "partial_sum_max":
                assert 0.49 <= math.log(c["length"]) / math.log(q) <= 0.68


def test_euler_inverses_match_pow():
    for q in (2, 9, 97, 1001, 4096 * 3):
        units, inv = oracles.unit_inverses(q)
        assert list(units) == [n for n in range(q) if math.gcd(n, q) == 1]
        assert list(inv) == [pow(int(n), -1, q) for n in units]
