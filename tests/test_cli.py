import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kloosterlab import checks, cli, divisor_ap
from kloosterlab.arith import ModulusSplit
from kloosterlab.bounds_opt import divisorthm_rhs
from kloosterlab.cli import (
    SUITE_CHECKS,
    SweepConfig,
    load_report,
    main,
    render_report,
    run_sweep,
    verify_report,
)
from kloosterlab.divisor_ap import ApQuery, error_term
from kloosterlab.kloosterman import IntegerInterval, incomplete_kloosterman

from brute import incomplete_brute

# a two-row report, for the verify-report cases of test_malformed_input_exits_2
TWO_ROW_REPORT = "# schema=2\nx,q,a,E_exact,error\n10,3,1,1/1,\n10,3,2,-1/1,\n"


class TestSingleQueries:
    def test_kloosterman_mu(self, capsys):
        assert main(["kloosterman", "1", "0", "6"]) == 0
        out = capsys.readouterr().out
        assert "S(1, 0; 6) = 1" in out

    def test_kloosterman_minus_one(self, capsys):
        assert main(["kloosterman", "1", "1", "3"]) == 0
        out = capsys.readouterr().out
        assert "S(1, 1; 3) = -1" in out
        assert "weil ratio" in out

    def test_kloosterman_exact_zero_has_no_sign(self, capsys):
        # S(0, 4; 72) multiplies an exact zero part by a negative one: -0.0
        assert main(["kloosterman", "0", "4", "72"]) == 0
        assert capsys.readouterr().out == "S(0, 4; 72) = 0 +0i   (err <= 0)\n"

    def test_kloosterman_ramanujan_composite(self, capsys):
        # complete sums accept any a; gcd(6, 15) = 3 still evaluates
        assert main(["kloosterman", "6", "0", "15"]) == 0
        assert "S(6, 0; 15) = -2" in capsys.readouterr().out

    def test_kloosterman_interval(self, capsys):
        assert main(["kloosterman", "1", "0", "6", "4", "4"]) == 0
        assert "S_I(1; 6, [4, 8))" in capsys.readouterr().out

    def test_kloosterman_short_interval_to_a_huge_modulus(self, capsys):
        # only the interval's residues are inverted: q is not capped at 10^7
        q = 999999999989
        assert main(["kloosterman", "1", "0", str(q), "4", "4"]) == 0
        assert "S_I(1; 999999999989, [4, 8))" in capsys.readouterr().out
        value = incomplete_kloosterman(1, q, IntegerInterval(4, 4))
        assert abs(value.as_complex - incomplete_brute(1, q, 4, 4)) <= value.err

    def test_kloosterman_interval_needs_coprime(self, capsys):
        assert main(["kloosterman", "6", "0", "15", "0", "5"]) == 2

    def test_divisor(self, capsys):
        assert main(["divisor", "--x", "10", "--q", "3", "--a", "1"]) == 0
        assert "= 10" in capsys.readouterr().out

    def test_divisor_at_the_largest_int64_modulus(self, capsys):
        assert main(["divisor", "--x", "100", "--q", str(2**63 - 1), "--a", "1"]) == 0
        assert capsys.readouterr().out == "D(100, 9223372036854775807, 1) = 1\n"

    def test_error_term(self, capsys):
        assert main(["error-term", "--x", "10", "--q", "3", "--a", "1"]) == 0
        assert "1/1" in capsys.readouterr().out

    @pytest.mark.parametrize("q", [2**62 + 1, 2**63 - 1])
    def test_error_term_beyond_two_to_the_62(self, capsys, q):
        # factorize takes every q < 2^63 that the hyperbola counts with
        assert main(["error-term", "--x", "100", "--q", str(q), "--a", "1"]) == 0
        assert capsys.readouterr().out.startswith(f"E(100, {q}, 1) = ")

    def test_error_term_not_coprime_exits_2(self, capsys):
        assert main(["error-term", "--x", "10", "--q", "6", "--a", "3"]) == 2

    def test_targets(self, capsys):
        assert main(["targets", "--x", "1000000", "--q", "10000"]) == 0
        out = capsys.readouterr().out
        assert "Q0 = 29.2864" in out and "product = 10000" in out

    def test_targets_admissibility(self, capsys):
        assert main([
            "targets", "--x", "1000000", "--q", "10000",
            "--eta", "0.01", "--varpi", "0.003",
        ]) == 0
        assert "admissible(varpi=0.003, eta=0.01) = True" in capsys.readouterr().out

    def test_factorize_plain(self, capsys):
        assert main(["factorize", "--q", "30030"]) == 0
        assert "2 * 3 * 5 * 7 * 11 * 13" in capsys.readouterr().out

    def test_factorize_windows(self, capsys):
        assert main([
            "factorize", "--q", "30030", "--x", "100000000", "--eta", "0.06",
        ]) == 0
        assert "window factorization: q0..q3" in capsys.readouterr().out

    def test_bound_short_kloosterman(self, capsys):
        assert main([
            "bound", "short-kloosterman", "--N", "100", "--split", "15,7",
        ]) == 0
        out = capsys.readouterr().out
        assert "diff_j1" in out and "total" in out

    def test_bound_divisor_with_error(self, capsys):
        assert main([
            "bound", "divisor", "--x", "10000", "--q", "1001", "--a", "2",
            "--split", "13,11,7,1", "--delta", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "leading" in out and "ratio" in out

    def test_ratio_with_computed(self, capsys):
        # the command computes |E(x, q, a)| and its ratio to the bound total
        assert main([
            "bound", "divisor", "--x", "10000", "--q", "1001", "--a", "2",
            "--split", "13,11,7,1", "--delta", "0.05",
        ]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        computed = abs(error_term(ApQuery(10000, 1001, 2)).real)
        total = divisorthm_rhs(10000, ModulusSplit((13, 11, 7, 1)), 0.05).bound_total
        assert last == f"computed     = {computed:.12g}  ratio = {computed / total:.6g}"
        assert last == "computed     = 10.4527777778  ratio = 0.0324457"

    @pytest.mark.parametrize("x, q, a", [(5000, 29, 3), (1000, 2, 1)])
    def test_computed_zero_is_printed(self, capsys, x, q, a):
        # an exact E(x, q, a) = 0 still gets its computed line
        assert error_term(ApQuery(x, q, a)).rational == 0
        assert main(["bound", "divisor", "--x", str(x), "--q", str(q), "--a", str(a),
                     "--split", f"{q},1,1,1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "computed     = 0  ratio = 0"

    def test_usage_error_exit_code(self, capsys):
        assert main(["divisor", "--x", "0", "--q", "3", "--a", "1"]) == 2

    def test_divisor_takes_no_method(self, capsys):
        assert main(["divisor", "--x", "10", "--q", "3", "--a", "1", "--method", "sieve"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: UsageError: unrecognized arguments: --method sieve (see kloosterlab --help)"]
        assert captured.out == ""

    @pytest.mark.parametrize("interval", [["4"], ["4", "4", "4"]])
    def test_kloosterman_interval_takes_two_integers(self, capsys, interval):
        assert main(["kloosterman", "1", "0", "7", *interval]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: UsageError: interval takes exactly two integers: M N"]
        assert captured.out == ""

    def test_closed_stdout_exits_without_traceback(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "kloosterlab", "sweep", "--x", "1000", "--q", "15",
             "--residues", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        # the reader goes away before the sweep has written anything
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_lemma_suite_vanishing(self, capsys):
        assert main(["lemma-suite", "vanishing"]) == 0
        out = capsys.readouterr().out
        assert "0 counterexamples" in out and "PASS" in out

    @pytest.mark.parametrize("size", ["small", "full"])
    def test_lemma_suite_takes_no_size(self, capsys, size):
        # each check runs its one grid, so the retired --size flag is a usage error
        assert main(["lemma-suite", "weil", "--size", size]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: UsageError: unrecognized arguments: --size {size} (see kloosterlab --help)"]
        assert captured.out == ""

    @pytest.mark.parametrize("suite", sorted(SUITE_CHECKS))
    def test_lemma_suite(self, suite, capsys, monkeypatch):
        results = []

        def recorded(check):
            def run():
                results.append(check())
                return results[-1]
            return run

        monkeypatch.setitem(SUITE_CHECKS, suite, tuple(map(recorded, SUITE_CHECKS[suite])))
        assert main(["lemma-suite", suite]) == 0
        assert f"PASS {suite} (full)" in capsys.readouterr().out
        assert len(results) == len(SUITE_CHECKS[suite])
        for r in results:
            assert r.ok and r.cells > 0 and r.observed.keys() == r.allowed.keys()
            assert all(r.observed[k] <= r.allowed[k] for k in r.allowed), r

    def test_every_check_is_run_by_exactly_one_suite(self):
        names = [name for name in vars(checks) if name.startswith("check_")]
        assert names
        for name in names:
            runs = [suite for suite, fns in SUITE_CHECKS.items()
                    for fn in fns if fn is getattr(checks, name)]
            assert len(runs) == 1, (name, runs)

    @pytest.mark.parametrize("config, argv, needle", [
        ('{"x_values": [2000], "q_list": [15], "bogus": 1}',
         ["sweep", "--config", "{cfg}"], "bogus"),
        ('{"x_values": [2000], ', ["sweep", "--config", "{cfg}"], "not valid JSON"),
        (None, ["sweep", "--x", "1e3,abc", "--q", "15"], "abc"),
        ('{"x_values": [-5], "q_list": [15]}', ["sweep", "--config", "{cfg}"], "x_values"),
        ('{"x_values": [2000], "q_list": [0]}', ["sweep", "--config", "{cfg}"], "q_list"),
        (None, ["verify-report", "{missing}"], "missing.csv"),
        ('{"x_values": [2000], "q_list": [15], "eta": "abc"}',
         ["sweep", "--config", "{cfg}"], "eta"),
        ('{"x_values": [2000], "q_list": [15], "delta": true}',
         ["sweep", "--config", "{cfg}"], "delta"),
        ('{"x_values": [2000], "q_list": [15], "eps": null}',
         ["sweep", "--config", "{cfg}"], "eps"),
        ('{"x_values": [2000], "q_lo_exp": "0.6", "q_hi_exp": 0.64}',
         ["sweep", "--config", "{cfg}"], "q_lo_exp"),
        ('{"x_values": [2000], "q_list": [15], "jobs": "2"}',
         ["sweep", "--config", "{cfg}"], "jobs"),
        ('{"x_values": [2000], "q_list": [15], "seed": 1.5}',
         ["sweep", "--config", "{cfg}"], "seed"),
        (None, ["kloosterman", "1", "0", "999999999989", "0", "20000000"], "interval length"),
        (None, ["kloosterman", "1", "0", "9223372036854775837", "0", "4"], "modulus"),
        (None, ["kloosterman", "1", "0", str(2**41 + 1), "4", "4"], "q <= 2^41"),
        (None, ["kloosterman", "1", "0", "4611686018427387905", "0", "0"], "q <= 2^41"),
        (None, ["kloosterman", "1", "0", "4611686018427387905", "0", "1"], "q <= 2^41"),
        (None, ["kloosterman", "1", "1", "2147483659"], "inverse table"),
        (None, ["sweep", "--x", "1000", "--q", "1000000000000"], "unit mask"),
        (TWO_ROW_REPORT, ["verify-report", "{cfg}", "--fraction", "2"], "fraction"),
        (TWO_ROW_REPORT, ["verify-report", "{cfg}", "--fraction", "nan"], "fraction"),
        (TWO_ROW_REPORT, ["verify-report", "{cfg}", "--fraction", "-1"], "fraction"),
        (None, ["bound", "short-kloosterman", "--split", "abc", "--N", "10"], "split"),
        (None, ["sweep", "--x", "1000000", "--q-lo-exp", "0.6", "--q-hi-exp", "1000"], "cap"),
        (None, ["sweep", "--x", "1000000", "--q-lo-exp", "nan", "--q-hi-exp", "0.64"],
         "q_lo_exp"),
        (None, ["sweep", "--x", "1000000", "--q-lo-exp", "0.6", "--q-hi-exp", "0.64",
                "--eta", "nan"], "eta"),
        (None, ["sweep", "--x", "1000000", "--q-lo-exp", "0.6", "--q-hi-exp", "0.64",
                "--eta", "inf"], "eta"),
        (None, ["sweep", "--x", "1000000", "--q-lo-exp", "0.6", "--q-hi-exp", "0.64",
                "--eta", "1000"], "eta"),
        ('{"x_values": [2000], "q_list": [15], "residues": {"sample": true}}',
         ["sweep", "--config", "{cfg}"], "sample"),
        ("# schema=2\nx,q,a,E_exact,error\nabc,3,1,1/1,\n",
         ["verify-report", "{cfg}"], "row 1: x = 'abc'"),
        ("# schema=2\nq,a,E_exact,error\n3,1,1/1,\n",
         ["verify-report", "{cfg}"], "row 1 has no field 'x'"),
        ('{"schema":2}', ["verify-report", "{cfg}"], "rows"),
        ('{"rows":[{"x":1}]}', ["verify-report", "{cfg}"], "row 1 has no field"),
        ("{bad", ["verify-report", "{cfg}"], "not valid JSON"),
        (None, ["bound", "divisor", "--x", "10000", "--q", "5", "--a", "2",
                "--split", "13,11,7,1"], "1001"),
        (None, ["sweep", "--x", "1000000", "--q-lo-exp", "0.61", "--q-hi-exp", "0.6"],
         "q_lo_exp = 0.61 above q_hi_exp = 0.6"),
        (None, ["sweep", "--x", "1000.9", "--q", "7", "--residues", "1"], "1000.9"),
        (None, ["sweep", "--x", "1e400", "--q", "7", "--residues", "1"], "hyperbola's cap"),
        ("", ["verify-report", "{cfg}"], "no report header"),
        ("garbage\n", ["verify-report", "{cfg}"], "no report header"),
        (None, ["sweep", "--x", "2e12", "--q", "15", "--residues", "2"],
         "above the hyperbola's cap"),
        (None, ["sweep", "--x", "100000000", "--q", "10000019"], "q <= 10000000"),
        (None, ["sweep", "--x", "100000000", "--q", "10000019", "--residues", "10000018"],
         "phi(10000019) = 10000018 lists every unit, which needs the unit mask, "
         "limited to q <= 10000000"),
        (None, ["sweep", "--x", "1000", "--q", "1000000000039", "--residues", "2"],
         "split count's cap 1000000000000"),
        (None, ["bound", "divisor", "--x", "100", "--q", "30", "--split", "2,3,5,1",
                "--eps", "nan"], "eps must be finite"),
        (None, ["bound", "divisor", "--x", "100", "--q", "30", "--split", "2,3,5,1",
                "--eps", "inf"], "eps must be finite"),
        (None, ["bound", "short-kloosterman", "--split", "2,3,5", "--N", "10", "--eps", "nan"],
         "eps must be finite"),
        (None, ["bound", "divisor", "--x", "100", "--q", "30", "--split", "2,3,5,1",
                "--eps", "1e300"], "float range"),
        (None, ["bound", "short-kloosterman", "--N", "304372674", "--split", "1807,11461,101",
                "--eps", "32.472664162129036"], "float range"),
        ('{"x_values": [2000], "q_list": [15], "residues": {"sample": 2, "bogus": 1}}',
         ["sweep", "--config", "{cfg}"], "unknown residues key(s): bogus"),
        (None, ["sweep", "--x", "1000", "--q", "15", "--residues", "2",
                "--out", "{tmp}/no-such-dir/x.csv"], "cannot write"),
        (None, ["sweep", "--x", "1000", "--q", "15", "--residues", "2", "--out", "{tmp}"],
         "cannot write"),
        (None, ["targets", "--x", "1000000", "--q", "10000", "--varpi", "nan", "--eta", "0.1"],
         "varpi must be finite"),
        (None, ["targets", "--x", "1000000", "--q", "10000", "--varpi", "inf", "--eta", "0.1"],
         "varpi must be finite"),
        (None, ["targets", "--x", str(10**400), "--q", "7"], "below 2^1024"),
        (None, ["factorize", "--q", "210", "--x", str(10**400), "--eta", "0.1"], "below 2^1024"),
        (None, ["bound", "divisor", "--x", str(10**400), "--q", "210", "--eta", "0.2"],
         "below 2^1024"),
        (None, ["targets", "--x", "1000000", "--q", "10000", "--eta", "nan"],
         "eta must be finite"),
        (None, ["factorize", "--q", "210", "--x", "1000000", "--eta", "nan"],
         "eta must be finite"),
        (None, ["targets", "--x", "1000000", "--q", "10000", "--eta", "100"], "float range"),
        (None, ["divisor", "--x", "100", "--q", str(2**70), "--a", "1"], "q < 2^63"),
        (None, ["error-term", "--x", "100", "--q", str(2**70), "--a", "1"], "q < 2^63"),
        ('{"rows":[{"x":10,"q":3,"a":1,"E_exact":0}]}',
         ["verify-report", "{cfg}", "--fraction", "1"], "config.json: row 1: E_exact = 0"),
        ('{"x_values": [1000], "q_list": [15], "q_lo_exp": 0.5, "q_hi_exp": 0.6}',
         ["sweep", "--config", "{cfg}"], "both q_list and q_lo_exp/q_hi_exp"),
        (None, ["targets", "--x", "1000000", "--q", "4199", "--varpi", "0.001"],
         "--varpi needs --eta"),
        (None, ["factorize", "--q", "4199", "--x", "1000000"], "both --x and --eta"),
        (None, ["factorize", "--q", "4199", "--eta", "0.25"], "both --x and --eta"),
        (None, ["bound", "short-kloosterman", "--N", "30", "--split", "13,17,19",
                "--x", "1000000", "--a", "5"], "takes no --x, --a"),
        (None, ["bound", "short-kloosterman", "--N", "30", "--split", "13,17,19",
                "--q", "4199", "--eta", "0.25"], "takes no --q, --eta"),
        (None, ["bound", "divisor", "--x", "10000", "--q", "1001", "--split", "13,11,7,1",
                "--N", "30"], "takes no --N"),
        (None, ["bound", "divisor", "--x", "1000", "--q", "30", "--split", "2,3,5,1",
                "--eta", "0.2"], "bound divisor takes --split or --eta, not both"),
    ], ids=["unknown-key", "invalid-json", "bad-x-flag", "negative-x", "zero-q",
            "missing-report", "string-eta", "bool-delta", "null-eps", "string-q-exp",
            "string-jobs", "float-seed", "interval-sum-too-long", "interval-sum-q-past-cap",
            "interval-sum-q-past-2^41", "empty-interval-sum-past-cap", "one-term-sum-past-cap",
            "complete-sum-huge-q",
            "sweep-huge-q", "fraction-above-1", "fraction-nan", "fraction-negative",
            "non-numeric-split", "q-hi-exp-past-cap", "nan-q-lo-exp", "nan-eta", "inf-eta",
            "eta-above-1", "bool-sample", "report-non-integer-x", "report-without-x",
            "json-report-without-rows", "json-row-without-error", "report-invalid-json",
            "split-not-q", "q-lo-exp-above-q-hi-exp", "non-integer-x", "x-past-floats",
            "empty-report", "report-without-header", "x-above-hyperbola-cap",
            "all-residues-past-cap", "sample-of-every-unit-past-cap",
            "sample-past-oracle-cap", "nan-eps-divisor-bound", "inf-eps-divisor-bound",
            "nan-eps-short-kloosterman-bound", "huge-eps-divisor-bound", "finite-terms-past-float-range-total", "unknown-residues-key", "out-in-missing-dir",
            "out-is-a-dir", "nan-varpi", "inf-varpi", "targets-x-past-floats",
            "factorize-x-past-floats", "divisor-bound-x-past-floats", "targets-nan-eta",
            "factorize-nan-eta", "targets-huge-eta", "divisor-q-past-int64",
            "error-term-q-past-int64", "report-falsy-non-string-e", "q-list-and-q-exps",
            "targets-varpi-without-eta", "factorize-x-without-eta", "factorize-eta-without-x",
            "short-kloosterman-bound-x-and-a", "short-kloosterman-bound-q-and-eta",
            "divisor-bound-n", "divisor-bound-split-and-eta"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, config, argv, needle):
        cfg = tmp_path / "config.json"
        if config is not None:
            cfg.write_text(config)
        argv = [a.format(cfg=cfg, missing=tmp_path / "missing.csv", tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and needle in lines[0]
        if argv[0] == "targets":  # checked before anything is printed
            assert captured.out == ""

    @pytest.mark.parametrize("argv, needle", [
        (["--x", "1000000000000", "--q", "111546435,10000000000000", "--residues", "3"],
         "split count's cap"),
        (["--x", "100000000", "--q", "15,10000019"], "unit mask"),
        (["--x", "100000000", "--q", "15,10000019", "--residues", "10000018"], "phi(10000019)"),
    ], ids=["past-oracle-cap", "all-residues-past-cap", "sample-of-every-unit-past-cap"])
    def test_sweep_rejects_a_bad_cell_before_any_cell(self, capsys, monkeypatch, argv, needle):
        calls = []
        monkeypatch.setattr(cli, "_compute_cell", calls.append)
        assert main(["sweep", *argv]) == 2
        assert calls == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and needle in lines[0]

    @pytest.mark.parametrize("out", ["{tmp}/no-such-dir/x.csv", "{tmp}"])
    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch, out):
        def no_cell(payload):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(cli, "_compute_cell", no_cell)
        argv = ["sweep", "--x", "1000", "--q", "15", "--residues", "2",
                "--out", out.format(tmp=tmp_path)]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "cannot write" in lines[0]

    def test_sieve_window_past_its_cap_names_x_window_and_flags(self, capsys):
        argv = ["sweep", "--x", "1000000000000", "--q-lo-exp", "0.99", "--q-hi-exp", "1.0",
                "--residues", "1"]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        for needle in ("x = 1000000000000", "[x^0.99, x^1.0]", "[758577575030, 1000000000000]",
                       "spans 241422424970", "10^8", "--q-lo-exp", "--q-hi-exp"):
            assert needle in lines[0]


# the README's examples of targets, factorize and bound, with their full stdout
README_EXAMPLES = {
    "targets --x 1000000 --q 10000 --eta 0.01 --varpi 0.003": """\
Q0 = 29.2864456463
Q1 = 5.41169526546
Q2 = 7.3564225446
Q3 = 8.57695898591
product = 10000 (q = 10000)
window0 = [24.1360761103, 36.5314294899]
window1 = [5.26421154541, 6.04412355019]
window2 = [6.77121598081, 7.7743961503]
window3 = [7.67950687155, 8.81725362588]
admissible(varpi=0.003, eta=0.01) = True
""",
    "factorize --q 30030 --x 100000000 --eta 0.06": """\
30030 = 2 * 3 * 5 * 7 * 11 * 13 (squarefree = True)
window factorization: q0..q3 = (143, 14, 5, 3)
  part0 = 143 in [24.9838, 688.112]
  part1 = 14 in [8.6862, 26.2319]
  part2 = 5 in [2.93895, 8.87549]
  part3 = 3 in [1.70952, 5.16266]
""",
    "bound divisor --x 10000 --q 1001 --a 2 --split 13,11,7,1 --delta 0.05": """\
leading      = 6.30327017463
diff_j1      = 25.1188643151
diff_j2      = 72.6746634677
diff_j3      = 80.4149626747
balance      = 69.9494394523
completion   = 67.7010772574
total        = 322.162277342 (eps = 0.0)
total@eps=0  = 322.162277342
computed     = 10.4527777778  ratio = 0.0324457
""",
    "bound short-kloosterman --N 100 --split 15,7": """\
diff_j1      = 26.4575131106
balance      = 19.6798967127
completion   = 5.20681125291
total        = 51.3442210762 (eps = 0.0)
total@eps=0  = 51.3442210762
""",
    "bound divisor --x 10000 --q 1001 --split 13,11,7,1 --delta 0.05 --eps 0.01": """\
leading      = 6.91139831088
diff_j1      = 27.5422870334
diff_j2      = 79.6861839044
diff_j3      = 88.1732532165
balance      = 76.6980351919
completion   = 74.2327550682
total        = 353.243912725 (eps = 0.01)
total@eps=0  = 322.162277342
""",
}


@pytest.mark.parametrize("command", sorted(README_EXAMPLES))
def test_readme_example_output(command, capsys):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == README_EXAMPLES[command]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Each sweep pool's max_workers.  The thread pool is replaced by one
    that maps in the calling thread."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InProcessPool)
    return sizes


def _config(tmp_path, **kw):
    base = dict(
        x_values=[2000],
        q_list=[15, 101],
        eta=0.25,
        residues="all",
        delta=0.05,
        seed=11,
        format="csv",
        out=str(tmp_path / "report.csv"),
    )
    base.update(kw)
    return SweepConfig(**base)


class TestSweep:
    def test_zero_sum_and_row_count(self, tmp_path):
        config = _config(tmp_path, q_list=[101], x_values=[10**4])
        rows, summary = run_sweep(config)
        assert len(rows) == 100
        assert summary["sum_E_exact"] == "0/1"
        assert summary["errors"] == 0

    def test_rows_sorted_and_deterministic(self, tmp_path):
        config = _config(tmp_path)
        rows1, s1 = run_sweep(config)
        rows2, s2 = run_sweep(config)
        assert rows1 == rows2 and s1 == s2
        keys = [(r["x"], r["q"], r["a"]) for r in rows1]
        assert keys == sorted(keys)

    def test_byte_identical_report(self, tmp_path):
        config = _config(tmp_path)
        r1 = render_report(config, *run_sweep(config))
        r2 = render_report(config, *run_sweep(config))
        assert r1 == r2

    def test_jobs_do_not_change_bytes(self, tmp_path):
        c1 = _config(tmp_path, jobs=1)
        c2 = _config(tmp_path, jobs=2)
        assert render_report(c1, *run_sweep(c1)) == render_report(c2, *run_sweep(c2))

    def test_sampled_residues_coprime_and_seeded(self, tmp_path):
        config = _config(tmp_path, residues={"sample": 5}, q_list=[105])
        rows, _ = run_sweep(config)
        assert len(rows) == 5
        assert all(math.gcd(r["a"], 105) == 1 for r in rows)
        rows2, _ = run_sweep(config)
        assert rows == rows2

    @pytest.mark.parametrize("jobs, cells, cpus, workers", [
        (100000, 2, 8, 2),     # no more workers than cells
        (100000, 5, 4, 4),     # nor than usable CPUs
        (3, 5, 8, 3),          # nor than jobs
        (2, 1, 8, None),       # one cell runs in-process
        (4, 5, 1, None),       # so does one usable CPU
    ])
    def test_pool_is_bounded(self, tmp_path, monkeypatch, pool_sizes,
                             jobs, cells, cpus, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        q_list = [15, 21, 33, 35, 101][:cells]
        config = _config(tmp_path, q_list=q_list, residues={"sample": 2}, jobs=jobs)
        report = render_report(config, *run_sweep(config))
        assert pool_sizes == ([] if workers is None else [workers])
        serial = _config(tmp_path, q_list=q_list, residues={"sample": 2}, jobs=1)
        assert report == render_report(serial, *run_sweep(serial))

    def test_pool_starts_no_process(self, tmp_path, monkeypatch):
        # the cells of a jobs=2 sweep run on pool threads of this process
        import multiprocessing
        import threading

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        seen = []
        compute = cli._compute_cell

        def recording(payload):
            seen.append((os.getpid(), threading.current_thread() is threading.main_thread(),
                         multiprocessing.active_children()))
            return compute(payload)

        monkeypatch.setattr(cli, "_compute_cell", recording)
        config = _config(tmp_path, q_list=[15, 21, 33, 35], residues={"sample": 2}, jobs=2)
        report = render_report(config, *run_sweep(config))
        assert seen == [(os.getpid(), False, [])] * 4
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(cli, "_compute_cell", compute)
        serial = _config(tmp_path, q_list=[15, 21, 33, 35], residues={"sample": 2}, jobs=1)
        assert report == render_report(serial, *run_sweep(serial))

    def test_pool_falls_back_to_cpu_count(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        run_sweep(_config(tmp_path, q_list=[15, 21, 33, 35], residues={"sample": 1},
                          jobs=100000))
        assert pool_sizes == [3]

    def test_sampled_residues_above_the_unit_mask_cap(self, tmp_path, monkeypatch):
        # 9999991 is prime and just below the unit mask's cap, 10000019 is
        # prime and 10000030 = 2 5 1000003 is not; at each q a sample is the
        # units at m seeded ranks, and no unit listing is built
        def no_mask(q):
            raise AssertionError("the sweep listed the units")

        monkeypatch.setattr(cli, "unit_mask", no_mask)
        moduli = [9999991, 10000019, 10000030]
        config = _config(tmp_path, x_values=[10**8], q_list=moduli, residues={"sample": 3})
        rows, summary = run_sweep(config)
        assert len(rows) == 9 and not any(r["error"] for r in rows)
        for idx, q in enumerate(moduli):
            units = np.flatnonzero(np.gcd(np.arange(q, dtype=np.int64), q) == 1)
            ranks = sorted(random.Random(config.seed ^ idx).sample(range(len(units)), 3))
            assert [r["a"] for r in rows if r["q"] == q] == units[ranks].tolist()
        assert run_sweep(config) == (rows, summary)
        path = tmp_path / "report.csv"
        path.write_text(render_report(config, rows, summary))
        assert verify_report(str(path), fraction=1.0) == (
            True, ["verify: 9/9 rows recomputed, all exact"])

    def test_sampled_residues_follow_cell_seed(self, tmp_path):
        # random.sample picks by a different algorithm for populations
        # above 85 when m = 20: phi(87) = 56, phi(101) = 100
        config = _config(tmp_path, residues={"sample": 20}, q_list=[87, 101])
        rows, _ = run_sweep(config)
        for idx, q in enumerate([87, 101]):
            units = [a for a in range(q) if math.gcd(a, q) == 1]
            want = sorted(random.Random(config.seed ^ idx).sample(units, 20))
            assert [r["a"] for r in rows if r["q"] == q] == want

    def test_x_with_an_empty_window_gets_no_cells(self, tmp_path, capsys):
        # [5^0.6, 5^0.61] = [2.63, 2.67] holds no integer
        argv = ["sweep", "--q-lo-exp", "0.6", "--q-hi-exp", "0.61", "--eta", "0.5",
                "--residues", "1"]
        assert main(argv + ["--x", "1000000", "--out", str(tmp_path / "a.csv")]) == 0
        alone = capsys.readouterr().out
        assert main(argv + ["--x", "5,1000000", "--out", str(tmp_path / "b.csv")]) == 0
        both = capsys.readouterr().out
        assert "(226 rows)" in both
        assert both.replace("b.csv", "a.csv") == alone
        a, b = ([line for line in (tmp_path / f).read_text().splitlines()
                 if not line.startswith("#")] for f in ("a.csv", "b.csv"))
        assert len(a) == 227 and a == b

    def test_q_flags_replace_the_other_q_source_of_a_config(self, tmp_path):
        # --q clears a config's window, and --q-lo-exp/--q-hi-exp its q_list
        window = tmp_path / "window.json"
        window.write_text('{"x_values": [1000000], "q_lo_exp": 0.6, "q_hi_exp": 0.61}')
        listed = tmp_path / "listed.json"
        listed.write_text('{"x_values": [1000000], "q_list": [15]}')
        for cfg, flags, want in (
            (window, ["--q", "15"], [15]),
            (listed, ["--q-lo-exp", "0.6", "--q-hi-exp", "0.61", "--eta", "0.5"],
             cli._cell_moduli(SweepConfig(x_values=[10**6], q_lo_exp=0.6, q_hi_exp=0.61,
                                          eta=0.5), 10**6)),
        ):
            out = tmp_path / "report.csv"
            assert main(["sweep", "--config", str(cfg), *flags, "--residues", "1",
                         "--out", str(out)]) == 0
            assert sorted({r["q"] for r in load_report(str(out))}) == want

    def test_x_flag_in_float_notation(self, tmp_path, capsys):
        # --x entries are parsed exactly: 1e6 is 10**6, the same report
        for name, x in (("a.csv", "1e6"), ("b.csv", "1000000")):
            assert main(["sweep", "--x", x, "--q", "7,15", "--residues", "3",
                         "--out", str(tmp_path / name)]) == 0
        a, b = ((tmp_path / name).read_bytes() for name in ("a.csv", "b.csv"))
        assert a == b and b"\n1000000,7," in a
        # an x past 2^53, where floats drop digits, keeps every one; it is
        # above the hyperbola's cap, and the error names it exactly
        capsys.readouterr()
        assert main(["sweep", "--x", "12345678901234567890", "--q", "7", "--residues", "1",
                     "--out", str(tmp_path / "c.csv")]) == 2
        assert "x = 12345678901234567890 above" in capsys.readouterr().err

    def test_rows_with_a_failed_split_are_summed(self, tmp_path):
        # a non-squarefree q has no window split, but its rows' E are exact:
        # they count in sum_E_exact and in the fit, and errors counts them
        config = _config(tmp_path, x_values=[1000, 2000], q_list=[12, 15],
                         residues={"sample": 2})
        rows, summary = run_sweep(config)
        assert [r["q"] for r in rows if r["error"]] == [12, 12, 12, 12]
        assert summary["errors"] == 4
        assert summary["sum_E_exact"] == cli._fmt_fraction(
            sum(cli._parse_fraction(r["E_exact"]) for r in rows))
        rows, summary = run_sweep(_config(tmp_path, x_values=[1000, 2000], q_list=[12],
                                          residues={"sample": 2}))
        per_x = [max(r["scaled_E"] for r in rows if r["x"] == x) for x in (1000, 2000)]
        assert summary["scaled_E_fit"]["slope"] == pytest.approx(
            math.log(per_x[1] / per_x[0]) / math.log(2))

    def test_duplicate_moduli_run_once(self, tmp_path):
        once = run_sweep(_config(tmp_path, x_values=[1000], q_list=[7],
                                 residues={"sample": 2}))
        twice = run_sweep(_config(tmp_path, x_values=[1000], q_list=[7, 7],
                                  residues={"sample": 2}))
        assert len(twice[0]) == 2
        assert twice == once

    def test_eps_scales_bound_total(self, tmp_path):
        base = dict(x_values=[10**5], q_list=None, q_lo_exp=0.6, q_hi_exp=0.61,
                    residues={"sample": 1})
        rows0, _ = run_sweep(_config(tmp_path, **base))
        rows, _ = run_sweep(_config(tmp_path, **base, eps=0.1))
        assert [r["bound_total"] for r in rows0] != [r["bound_total"] for r in rows]
        feasible = [r for r in rows if r["q0"] is not None]
        assert feasible
        for r in feasible:
            split = ModulusSplit((r["q0"], r["q1"], r["q2"], r["q3"]))
            assert r["bound_total"] == divisorthm_rhs(r["x"], split, 0.05, 0.1).bound_total

    def test_rows_do_not_depend_on_the_tau_sieve(self, tmp_path, monkeypatch):
        # every cell takes the hyperbola, also at x <= SIEVE_X_CAP
        config = _config(tmp_path, x_values=[2000, 10**5], residues={"sample": 4})
        rows, _ = run_sweep(config)
        monkeypatch.setattr(divisor_ap, "tau_table",
                            lambda x: np.ones(x + 1, dtype=np.int64))
        assert run_sweep(config)[0] == rows

    def test_json_format(self, tmp_path):
        config = _config(tmp_path, format="json")
        text = render_report(config, *run_sweep(config))
        doc = json.loads(text)
        assert doc["schema"] == 2
        assert doc["config"]["q_list"] == [15, 101]
        assert "jobs" not in doc["config"]
        assert len(doc["rows"]) > 0

    def test_csv_schema_header(self, tmp_path):
        config = _config(tmp_path)
        text = render_report(config, *run_sweep(config))
        lines = text.splitlines()
        assert lines[0] == "# schema=2"
        assert lines[3].startswith("x,q,a,E_exact")
        assert "runtime_ms" not in lines[3]

    def test_cli_end_to_end_with_config_file(self, tmp_path, capsys):
        cfg = {
            "x_values": [2000],
            "q_list": [15],
            "eta": 0.25,
            "residues": "all",
            "seed": 3,
            "out": str(tmp_path / "r.csv"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path)]) == 0
        assert (tmp_path / "r.csv").exists()
        # flag overrides the file value
        assert main(["sweep", "--config", str(path), "--q", "21",
                     "--out", str(tmp_path / "r2.csv")]) == 0
        rows = load_report(str(tmp_path / "r2.csv"))
        assert {r["q"] for r in rows} == {21}


class TestVerifyReport:
    def test_roundtrip(self, tmp_path):
        config = _config(tmp_path)
        rows, summary = run_sweep(config)
        path = tmp_path / "report.csv"
        path.write_text(render_report(config, rows, summary))
        ok, lines = verify_report(str(path), seed=9, fraction=0.1)
        assert ok, lines

    def test_detects_tampering(self, tmp_path):
        config = _config(tmp_path, q_list=[15], x_values=[500])
        rows, summary = run_sweep(config)
        rows[2]["E_exact"] = "99999/1"
        path = tmp_path / "tampered.csv"
        path.write_text(render_report(config, rows, summary))
        ok, lines = verify_report(str(path), seed=0, fraction=1.0)
        assert not ok
        assert any("MISMATCH" in ln for ln in lines)

    def test_flags_a_wrong_hyperbola(self, tmp_path, monkeypatch):
        # the rows are recomputed by the split count of kloosterlab.oracle, so
        # an error in the hyperbola that wrote them cannot hide from the check
        sums = cli.divisor_sums_ap
        monkeypatch.setattr(cli, "divisor_sums_ap",
                            lambda x, q, residues: [d + 1 for d in sums(x, q, residues)])
        config = _config(tmp_path, q_list=[15], x_values=[500])
        rows, summary = run_sweep(config)
        path = tmp_path / "report.csv"
        path.write_text(render_report(config, rows, summary))
        ok, lines = verify_report(str(path), seed=0, fraction=1.0)
        assert not ok
        assert sum(ln.startswith("MISMATCH ") for ln in lines) == len(rows) == 8

    def test_flags_a_wrong_hyperbola_above_the_sieve_cap(self, tmp_path, monkeypatch):
        # above SIEVE_X_CAP, where no tau table can be built, the split count
        # still recomputes the rows without the hyperbola that wrote them
        config = _config(tmp_path, q_list=[15], x_values=[divisor_ap.SIEVE_X_CAP + 7])
        path = tmp_path / "report.csv"
        path.write_text(render_report(config, *run_sweep(config)))
        assert verify_report(str(path), seed=0, fraction=1.0) == (
            True, ["verify: 8/8 rows recomputed, all exact"])
        sums = cli.divisor_sums_ap
        monkeypatch.setattr(cli, "divisor_sums_ap",
                            lambda x, q, residues: [d + 1 for d in sums(x, q, residues)])
        rows, summary = run_sweep(config)
        path.write_text(render_report(config, rows, summary))
        ok, lines = verify_report(str(path), seed=0, fraction=1.0)
        assert not ok
        assert sum(ln.startswith("MISMATCH ") for ln in lines) == len(rows) == 8

    def test_checks_without_the_tau_sieve(self, tmp_path, monkeypatch):
        # rows at x <= SIEVE_X_CAP are recomputed by the split count too
        def no_sieve(x):
            raise AssertionError("verify_report built a tau table")

        monkeypatch.setattr(divisor_ap, "tau_table", no_sieve)
        config = _config(tmp_path, q_list=[15], x_values=[500, 10**6])
        rows, summary = run_sweep(config)
        path = tmp_path / "report.csv"
        path.write_text(render_report(config, rows, summary))
        assert verify_report(str(path), seed=0, fraction=1.0) == (
            True, ["verify: 16/16 rows recomputed, all exact"])
        rows[11] = dict(rows[11], E_exact="99999/1")
        path.write_text(render_report(config, rows, summary))
        ok, lines = verify_report(str(path), seed=0, fraction=1.0)
        assert not ok
        assert lines[0].startswith("MISMATCH x=1000000 q=15 ")
        assert len(lines) == 2

    def test_rows_with_a_failed_split_are_verified(self, tmp_path, capsys):
        # 12 and 36 are not squarefree, so every row names its failed window
        # split in error; its E_exact is exact all the same, and is checked
        path = tmp_path / "report.csv"
        assert main(["sweep", "--x", "1000", "--q", "12,36", "--residues", "2",
                     "--out", str(path)]) == 0
        text = path.read_text()
        assert text.count("NotSquarefree") == 4
        assert main(["verify-report", str(path), "--fraction", "1"]) == 0
        assert "verify: 4/4 rows recomputed, all exact" in capsys.readouterr().out
        assert "\n1000,12,5,-15/4," in text
        path.write_text(text.replace("\n1000,12,5,-15/4,", "\n1000,12,5,999/1,"))
        assert main(["verify-report", str(path), "--fraction", "1"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "MISMATCH x=1000 q=12 a=5: report 999/1 recomputed -15/4",
            "verify: 4/4 rows recomputed, MISMATCHES FOUND",
        ]

    def test_recomputes_a_modulus_above_ten_million(self, tmp_path):
        # q = 10000019 is prime and above the unit mask's cap, so no sweep
        # writes this row; the oracle recomputes it exactly all the same
        row = "100000000,10000019,2,{},\n"
        path = tmp_path / "report.csv"
        header = "# schema=2\nx,q,a,E_exact,error\n"
        path.write_text(header + row.format("-148754357/5000009"))
        assert verify_report(str(path), fraction=1.0) == (
            True, ["verify: 1/1 rows recomputed, all exact"])
        path.write_text(header + row.format("-148754356/5000009"))
        ok, lines = verify_report(str(path), fraction=1.0)
        assert not ok
        assert lines[0] == ("MISMATCH x=100000000 q=10000019 a=2: report "
                            "-148754356/5000009 recomputed -148754357/5000009")

    def test_empty_reports_verify(self, tmp_path):
        # a header without rows (a sweep whose windows hold no integer) and
        # JSON "rows": [] are reports, with nothing to recompute
        for name, text in (("empty.csv", "# schema=2\nx,q,a,E_exact,error\n"),
                           ("empty.json", '{"schema": 2, "rows": []}')):
            path = tmp_path / name
            path.write_text(text)
            assert verify_report(str(path)) == (True, ["verify: no verifiable rows"])

    def test_main_term_once_per_cell(self, tmp_path, monkeypatch):
        # 2 cells x 4 residues: one main term per cell, the same lines as
        # when each row computed its own
        calls = []
        main_term = cli.split_main_term
        monkeypatch.setattr(cli, "split_main_term",
                            lambda *args: calls.append(args) or main_term(*args))
        config = _config(tmp_path, q_list=[15, 21], x_values=[500],
                         residues={"sample": 4})
        rows, summary = run_sweep(config)
        calls.clear()
        rows[5] = dict(rows[5], E_exact="99999/1")
        path = tmp_path / "report.csv"
        path.write_text(render_report(config, rows, summary))
        ok, lines = verify_report(str(path), seed=0, fraction=1.0)
        assert [args[:2] for args in calls] == [(500, 15), (500, 21)]
        assert not ok
        assert lines == [
            "MISMATCH x=500 q=21 a=11: report 99999/1 recomputed 13/12",
            "verify: 8/8 rows recomputed, MISMATCHES FOUND",
        ]

    def test_schema_1_report_verifies(self, tmp_path):
        # schema 1 reports carried a runtime_ms column
        path = tmp_path / "schema1.csv"
        path.write_text(
            "# schema=1\n"
            "# version=0.1.0\n"
            '# config={"x_values":[10],"q_list":[3]}\n'
            "x,q,a,E_exact,abs_E,scaled_E,bound_total,ratio,"
            "q0,q1,q2,q3,Q0,Q1,Q2,Q3,runtime_ms,error\n"
            "10,3,1,1/1,1,0.29999999999999999,,,,,,,,,,,0.0123,\n"
            "10,3,2,-1/1,1,0.29999999999999999,,,,,,,,,,,0.0087,\n"
        )
        ok, lines = verify_report(str(path), seed=0, fraction=1.0)
        assert ok, lines
        assert lines[-1] == "verify: 2/2 rows recomputed, all exact"

    def test_json_report_verifies(self, tmp_path):
        config = _config(tmp_path, format="json", q_list=[15], x_values=[500])
        rows, summary = run_sweep(config)
        path = tmp_path / "report.json"
        path.write_text(render_report(config, rows, summary))
        ok, lines = verify_report(str(path), seed=1, fraction=0.5)
        assert ok, lines


class TestImportFootprint:
    def _fresh_modules(self, statement: str) -> set[str]:
        # a fresh interpreter, so no earlier test's import hides one
        code = (f"import sys\nbefore = set(sys.modules)\n{statement}\n"
                "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        ).stdout
        return set(out.split())

    def test_cli_loads_no_pool_or_parser(self):
        # only a jobs > 1 sweep starts a thread pool, and only main() parses arguments
        loaded = self._fresh_modules("import kloosterlab.cli")
        assert "kloosterlab.cli" in loaded
        assert not loaded & {"concurrent.futures", "multiprocessing", "argparse"}

    def test_checks_load_no_cli_or_parser(self):
        # scripts/pin_constants.py runs the checks without the command-line front end
        loaded = self._fresh_modules("import kloosterlab.checks")
        assert "kloosterlab.checks" in loaded
        assert not loaded & {"kloosterlab.cli", "argparse"}

    def test_package_root_loads_no_submodule(self):
        loaded = self._fresh_modules("import kloosterlab")
        assert "kloosterlab" in loaded
        assert not {m for m in loaded if m.startswith("kloosterlab.")}
