"""The correctness gate counts an injected wrong value as a failure."""

import json
from fractions import Fraction
from pathlib import Path

import checks
import oracles
import spans
from kloosterlab import cli
from kloosterlab.divisor_ap import ApQuery, error_term
from kloosterlab.kloosterman import IntegerInterval, incomplete_kloosterman
from kloosterlab.vdc_lab import completion_check, partial_sum_max

BENCH = Path(__file__).resolve().parent.parent


def _fmt(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def test_divisor_wrong_value_raises_fail_frac():
    queries = [(10**4, 30, 7), (20000, 77, 5)]
    values = [_fmt(error_term(ApQuery(*q)).rational) for q in queries]
    good = checks.Tally()
    checks.check_divisor(good, queries, [values], None)
    assert good.failed == 0 and good.fail_frac == 0

    wrong = values[:1] + [_fmt(Fraction(values[1]) + 1)]
    bad = checks.Tally()
    checks.check_divisor(bad, queries, [values, wrong], None)
    assert bad.failed == 1 and bad.fail_frac > 0

    pinned = checks.Tally()
    checks.check_divisor(pinned, queries, [values], {"queries": queries, "E": values})
    assert pinned.failed == 0
    stale = checks.Tally()
    checks.check_divisor(stale, queries, [values],
                         {"queries": [(10**4, 30, 11)] + queries[1:], "E": values})
    assert stale.failed == 1


def test_divisor_oracle_matches_program_sieve():
    tau = oracles.tau_upto(5000)
    for x, q, a in [(5000, 77, 3), (4999, 210, 11), (1000, 1, 0)]:
        assert oracles.error_term(tau, x, q, a) == error_term(ApQuery(x, q, a)).rational


def _short_groups():
    q = 1009 * 13
    calls = [
        {"fn": "incomplete_kloosterman", "a": 5, "q": q, "offset": 100, "length": 300},
        {"fn": "completion_check", "a": 7, "q": q, "offset": 3, "length": 200},
        {"fn": "partial_sum_max", "a": 2, "q": q, "M": 11, "K": 8, "r": 5},
    ]
    values = []
    for c in calls:
        if c["fn"] == "incomplete_kloosterman":
            v = incomplete_kloosterman(c["a"], q, IntegerInterval(c["offset"], c["length"]))
            values.append([v.re, v.im, v.err])
        elif c["fn"] == "completion_check":
            values.append(completion_check(c["a"], q, IntegerInterval(c["offset"], c["length"])))
        else:
            values.append(partial_sum_max(c["a"], q, c["M"], c["K"], c["r"]))
    return [{"q": q, "kind": "smooth", "calls": calls}], values


def test_short_sums_wrong_value_raises_fail_frac():
    groups, values = _short_groups()
    good = checks.Tally()
    checks.check_short(good, groups, [values, list(values)])
    assert good.failed == 0

    for i, delta in ((0, None), (1, 1e-6), (2, 1e-6)):
        wrong = list(values)
        if delta is None:
            re, im, err = values[0]
            wrong[0] = [re + 1e-9, im, err]
        else:
            wrong[i] = values[i] + delta
        bad = checks.Tally()
        checks.check_short(bad, groups, [values, wrong])
        assert bad.failed == 1 and bad.fail_frac > 0


def _small_sweep(tmp_path):
    config = cli.SweepConfig(x_values=[10**4], q_lo_exp=0.5, q_hi_exp=0.55, eta=0.5,
                             residues={"sample": 3}, seed=3)
    rows, summary = cli.run_sweep(config)
    path = tmp_path / "r.csv"
    path.write_text(cli.render_report(config, rows, summary))
    ok, lines = cli.verify_report(str(path), seed=3)
    return checks.read_report_rows(str(path)), {"ok": ok, "lines": lines}


def test_sweep_wrong_value_raises_fail_frac(tmp_path):
    rows, verify = _small_sweep(tmp_path)
    good = checks.Tally()
    checks.check_sweep(good, [rows, rows], [verify], checks.row_digest(rows))
    assert good.failed == 0

    wrong = [dict(r) for r in rows]
    e = Fraction(*map(int, wrong[0]["E_exact"].split("/"))) + Fraction(1, 2)
    wrong[0]["E_exact"] = _fmt(e)
    bad = checks.Tally()
    checks.check_sweep(bad, [wrong, rows], [verify], checks.row_digest(rows))
    # the wrong row, the digest of the other report, and the pin
    assert bad.failed == 3 and bad.fail_frac > 0


def test_lemma_failed_suite_raises_fail_frac():
    bad = checks.Tally()
    checks.check_lemma(bad, ["weil", "onediff"], [[[True, ["x"]], [False, ["y"]]]])
    assert bad.failed == 1 and bad.fail_frac > 0


def test_benchmark_json_names_match_the_emitted_metrics():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    # BENCHMARK.json gates the steadiest workloads; run.py runs all four
    gated = [w["name"] for w in spec["workloads"]]
    assert gated and set(gated) <= set(run.WORKLOADS)


def test_self_time_subtracts_child_spans():
    import time

    rec = spans.SpanRecorder()

    def inner():
        time.sleep(0.02)

    traced_inner = rec.wrap("m.inner", inner)

    def outer():
        traced_inner()
        traced_inner()
        time.sleep(0.01)

    traced_outer = rec.wrap("m.outer", outer)
    t0 = time.perf_counter()
    traced_outer()
    wall = time.perf_counter() - t0
    s = rec.summary(wall)
    assert s["m.inner.calls"] == 2 and s["m.outer.calls"] == 1
    assert 0.035 < s["m.inner.busy_s"] < 0.2
    assert 0.005 < s["m.outer.busy_s"] < 0.05
    assert 0.9 < s["trace.top_level_share"] <= 1.0
