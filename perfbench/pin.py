"""Regenerate pins.json: reference outputs for the default seed.

Usage: PYTHONPATH=src python3 perfbench/pin.py

* sweep_c11: the digest of (x, q, a, E_exact) of the c11 sweep.
* divisor_queries: each E(x, q, a) from the program's tau-sieve route
  (method="sieve"), which shares no code with the lattice count that
  error_term uses.  Needs about 1 GB and a few minutes at x = 3e7.

Run it only when the program's outputs are meant to change; the pins
record what the program computed at the commit that wrote them.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from kloosterlab.cli import SweepConfig, run_sweep
from kloosterlab.divisor_ap import ApQuery, divisor_main_term, divisor_sum_ap, tau_table

import checks
from inputs import DEFAULT_SEED, workload_inputs


def main() -> int:
    pins = {}
    config = SweepConfig(**workload_inputs("sweep_c11", DEFAULT_SEED)["config"])
    rows, _ = run_sweep(config)
    pins["sweep_c11"] = {"seed": DEFAULT_SEED, "digest": checks.row_digest(rows)}

    values = []
    queries = workload_inputs("divisor_queries", DEFAULT_SEED)["queries"]
    for x, q, a in queries:
        d = divisor_sum_ap(ApQuery(x, q, a), method="sieve")
        e = Fraction(d) - divisor_main_term(x, q, method="sieve").rational
        values.append(f"{e.numerator}/{e.denominator}")
        tau_table.cache_clear()
        print(f"E({x}, {q}, {a}) = {values[-1]}", flush=True)
    pins["divisor_queries"] = {"seed": DEFAULT_SEED, "method": "sieve",
                               "queries": queries, "E": values}

    path = Path(__file__).resolve().parent / "pins.json"
    path.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
