"""Seeded inputs of the four benchmark workloads.

Everything here is a pure function of the workload seed and imports
nothing from kloosterlab, so the inputs are independent of the program
under test.  Sizes are stratified (every seed draws one x or q per
stratum) so that the amount of work, and hence the timings, stay nearly
the same from seed to seed while the concrete values change.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 20260809
WORKLOADS = ("sweep_c11", "divisor_queries", "lemma_suites", "short_sums")
SUITE_NAMES = ("weil", "completion", "vanishing", "product-sums", "onediff")

# divisor_queries: one x near the centre of each log-stratum of [1e6, 3e7];
# the level log q / log x steps across [0.60, 0.70] from stratum to stratum
DQ_X_LO, DQ_X_HI, DQ_STRATA = 10**6, 3 * 10**7, 6
DQ_LEVEL = (0.60, 0.70)
DQ_ETA = 0.25  # q is x^eta-smooth
DQ_PRIME_FACTORS = 4  # omega(q), fixed so each query costs about the same
DQ_RESIDUES = 2
JITTER = 0.03  # relative spread of x and q around their stratum targets

# short_sums: one prime and one smooth squarefree modulus near the centre
# of each stratum of [2e5, 1e6]; smooth moduli are products of three
# primes in SS_SMOOTH_PRIMES, so phi(q)/q stays near 0.96
SS_Q_LO, SS_Q_HI, SS_STRATA = 2 * 10**5, 10**6, 3
SS_SMOOTH_PRIMES = (40, 110)
SS_SHORT_CALLS = 40
SS_N_EXP = (0.50, 0.67)  # N = q^theta
SS_COMPLETION_CALLS = 2
SS_PARTIAL_CALLS = 1
SS_PARTIAL_K = 8


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds are hashed with sha512, so this is stable across processes
    return random.Random(f"{workload}:{seed}")


def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def sweep_config(seed: int) -> dict:
    """The acceptance c11 sweep (criterion c11); the seed is the config seed."""
    return {
        "x_values": [10**5, 3 * 10**5, 10**6],
        "q_lo_exp": 0.60,
        "q_hi_exp": 0.64,
        "eta": 0.25,
        "residues": {"sample": 20},
        "delta": 0.05,
        "eps": 0.0,
        "seed": seed,
        "format": "csv",
    }


def _product_near(rng: random.Random, primes: list[int], omega: int, target: float,
                  rel: float, lo: float = 0, hi: float = math.inf) -> int:
    """A product of `omega` distinct primes in [lo, hi] within a factor
    1 +- rel of target; the window widens until one is found."""
    while True:
        for _ in range(20000):
            q = math.prod(rng.sample(primes, omega))
            if abs(q / target - 1) <= rel and lo <= q <= hi:
                return q
        rel *= 2


def divisor_queries(seed: int) -> list[tuple[int, int, int]]:
    """(x, q, a): one x per log-stratum of [1e6, 3e7], q an x^0.25-smooth
    squarefree modulus with log q / log x in [0.60, 0.70], unit residues a."""
    rng = _rng("divisor_queries", seed)
    lo_log, hi_log = math.log(DQ_X_LO), math.log(DQ_X_HI)
    step = (hi_log - lo_log) / DQ_STRATA
    queries = []
    for i in range(DQ_STRATA):
        x = round(math.exp(lo_log + step * (i + 0.5) + rng.uniform(-JITTER, JITTER)))
        level = DQ_LEVEL[0] + (DQ_LEVEL[1] - DQ_LEVEL[0]) * i / (DQ_STRATA - 1)
        level = min(max(level + rng.uniform(-0.01, 0.01), DQ_LEVEL[0]), DQ_LEVEL[1])
        primes = _primes_up_to(math.floor(x**DQ_ETA))
        q = _product_near(rng, primes, DQ_PRIME_FACTORS, x**level, JITTER,
                          x ** DQ_LEVEL[0], x ** DQ_LEVEL[1])
        residues: set[int] = set()
        while len(residues) < DQ_RESIDUES:
            a = rng.randrange(1, q)
            if math.gcd(a, q) == 1:
                residues.add(a)
        queries += [(x, q, a) for a in sorted(residues)]
    return queries


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi + 1) | 1
        if lo <= n <= hi and _is_prime(n):
            return n


def _unit(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(1, q)
        if math.gcd(a, q) == 1:
            return a


def short_sums(seed: int) -> list[dict]:
    """Per modulus: the public calls to make, in order.

    Each call is a dict with `fn` in {incomplete_kloosterman,
    completion_check, partial_sum_max} and its integer arguments.  The
    moduli alternate prime / smooth squarefree, one of each near the
    centre of each stratum of [2e5, 1e6].
    """
    rng = _rng("short_sums", seed)
    lo_p, hi_p = SS_SMOOTH_PRIMES
    primes = [p for p in _primes_up_to(hi_p) if p >= lo_p]
    step = (SS_Q_HI - SS_Q_LO) / SS_STRATA
    groups = []
    for i in range(SS_STRATA):
        target = SS_Q_LO + (i + 0.5) * step
        for kind in ("prime", "smooth"):
            if kind == "prime":
                q = _random_prime(rng, round(target * (1 - JITTER)),
                                  round(target * (1 + JITTER)))
            else:
                q = _product_near(rng, primes, 3, target, JITTER)
            calls = []
            for _ in range(SS_SHORT_CALLS):
                n = round(q ** rng.uniform(*SS_N_EXP))
                calls.append({"fn": "incomplete_kloosterman", "a": _unit(rng, q),
                              "q": q, "offset": rng.randrange(q), "length": n})
            for _ in range(SS_COMPLETION_CALLS):
                n = round(q ** rng.uniform(*SS_N_EXP))
                calls.append({"fn": "completion_check", "a": _unit(rng, q),
                              "q": q, "offset": rng.randrange(q), "length": n})
            for _ in range(SS_PARTIAL_CALLS):
                calls.append({"fn": "partial_sum_max", "a": _unit(rng, q), "q": q,
                              "M": rng.randrange(q), "K": SS_PARTIAL_K,
                              "r": rng.randrange(1, q // SS_PARTIAL_K)})
            rng.shuffle(calls)
            groups.append({"q": q, "kind": kind, "calls": calls})
    return groups


def workload_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one workload, as JSON-serializable data."""
    if workload == "sweep_c11":
        return {"config": sweep_config(seed)}
    if workload == "divisor_queries":
        return {"queries": divisor_queries(seed)}
    if workload == "lemma_suites":
        # the suites fix their own grids (GRID_SEED); the seed is unused
        return {"suites": list(SUITE_NAMES), "size": "full"}
    if workload == "short_sums":
        return {"groups": short_sums(seed)}
    raise ValueError(f"unknown workload {workload!r}")
