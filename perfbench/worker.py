"""One timed pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds the workload name, its generated inputs, the mode (`jobs1`;
for the sweep also `jobs2` and `verify`), whether to trace, and an
output directory.  The
pass calls only kloosterlab's public functions, times them with
`time.perf_counter`, and prints one JSON object on its last stdout line:
timings, outputs for the correctness checks (made by the caller, outside
the timed region), workload properties and, when traced, the span
summary.  Module attributes are looked up at call time so that traced
wrappers installed in `kloosterlab.*` are the ones called.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter


def _peak_rss_mb() -> float:
    """Own peak RSS plus the largest waited-for child's (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def _fmt(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------- sweep_c11


def sweep_pass(spec: dict, jobs: int) -> dict:
    from kloosterlab import cli, divisor_ap

    config = cli.SweepConfig(**spec["inputs"]["config"], jobs=jobs)
    t0 = perf_counter()
    rows, summary = cli.run_sweep(config)
    text = cli.render_report(config, rows, summary)
    wall = perf_counter() - t0
    path = os.path.join(spec["outdir"], f"report_jobs{jobs}.csv")
    with open(path, "w") as fh:
        fh.write(text)
    cells = {(r["x"], r["q"]) for r in rows}
    sieve_cells = sum(1 for x, _ in cells if x <= divisor_ap.SIEVE_X_CAP)
    return {
        "wall_s": wall,
        "report": path,
        "summary": summary,
        "properties": {
            "cells": len(cells),
            "rows": len(rows),
            "sieve_cell_share": sieve_cells / len(cells) if cells else 0.0,
        },
    }


def verify_pass(spec: dict) -> dict:
    from kloosterlab import cli

    t0 = perf_counter()
    ok, lines = cli.verify_report(spec["report"], seed=spec["inputs"]["config"]["seed"],
                                  fraction=0.01)
    wall = perf_counter() - t0
    return {"wall_s": wall, "ok": ok, "lines": lines}


# ---------------------------------------------------------- divisor_queries


def divisor_pass(spec: dict) -> dict:
    from kloosterlab import divisor_ap

    latencies, values = [], []
    t0 = perf_counter()
    for x, q, a in spec["inputs"]["queries"]:
        t = perf_counter()
        values.append(divisor_ap.error_term(divisor_ap.ApQuery(x, q, a)))
        latencies.append(perf_counter() - t)
    wall = perf_counter() - t0
    return {"wall_s": wall, "values": [_fmt(e.rational) for e in values],
            "latencies_s": latencies}


# ------------------------------------------------------------- lemma_suites


def lemma_pass(spec: dict) -> dict:
    from kloosterlab import cli

    latencies, values = [], []
    t0 = perf_counter()
    for name in spec["inputs"]["suites"]:
        suite = getattr(cli, f"run_{name.replace('-', '_')}_suite")
        t = perf_counter()
        values.append(suite(spec["inputs"]["size"]))
        latencies.append(perf_counter() - t)
    wall = perf_counter() - t0
    return {"wall_s": wall, "values": values, "latencies_s": latencies}


# --------------------------------------------------------------- short_sums


def _short_call(call: dict):
    from kloosterlab import kloosterman, vdc_lab

    fn = call["fn"]
    if fn == "incomplete_kloosterman":
        v = kloosterman.incomplete_kloosterman(
            call["a"], call["q"], kloosterman.IntegerInterval(call["offset"], call["length"]))
        return [v.re, v.im, v.err]
    if fn == "completion_check":
        return vdc_lab.completion_check(
            call["a"], call["q"], kloosterman.IntegerInterval(call["offset"], call["length"]))
    return vdc_lab.partial_sum_max(call["a"], call["q"], call["M"], call["K"], call["r"])


def short_pass(spec: dict, inverse_cache) -> dict:
    groups = spec["inputs"]["groups"]
    latencies, values, cold = [], [], []
    t0 = perf_counter()
    for group in groups:
        for call in group["calls"]:
            misses = inverse_cache.cache_info().misses
            t = perf_counter()
            values.append(_short_call(call))
            latencies.append(perf_counter() - t)
            cold.append(inverse_cache.cache_info().misses > misses)
    wall = perf_counter() - t0
    sums = [c for g in groups for c in g["calls"] if c["fn"] != "partial_sum_max"]
    n_over_q = sorted(c["length"] / c["q"] for c in sums)
    theta = [math.log(c["length"]) / math.log(c["q"]) for c in sums]
    return {
        "wall_s": wall,
        "values": values,
        "latencies_s": latencies,
        "properties": {
            "calls": len(values),
            "cold_call_share": sum(cold) / len(cold),
            "n_over_q_min": n_over_q[0],
            "n_over_q_median": n_over_q[len(n_over_q) // 2],
            "n_over_q_max": n_over_q[-1],
            "log_n_over_log_q_range": [min(theta), max(theta)],
        },
    }


# --------------------------------------------------------------------- main


def run(spec: dict) -> dict:
    import kloosterlab.arith

    inverse_cache = kloosterlab.arith.inverse_table
    recorder = None
    if spec.get("trace"):
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    workload, mode = spec["workload"], spec["mode"]
    if mode == "verify":
        result = verify_pass(spec)
    elif workload == "sweep_c11":
        result = sweep_pass(spec, jobs=2 if mode == "jobs2" else 1)
    elif workload == "divisor_queries":
        result = divisor_pass(spec)
    elif workload == "lemma_suites":
        result = lemma_pass(spec)
    elif workload == "short_sums":
        result = short_pass(spec, inverse_cache)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    result["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        result["spans"] = recorder.summary(result["wall_s"])
        recorder.save(os.path.join(spec["outdir"], "spans.npz"))
    return result


def main(argv: list[str]) -> int:
    with open(argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
