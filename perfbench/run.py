"""kloosterlab benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json gates sweep_c11 and lemma_suites and says why):

  sweep_c11        the acceptance c11 sweep config, seed = config seed;
                   run_sweep at jobs=1 (and once jobs=2), verify_report
  divisor_queries  single error_term(ApQuery(x, q, a)) calls, x in
                   [1e6, 3e7], q x^0.25-smooth squarefree, q ~ x^0.60..0.70
  lemma_suites     all five lemma suites at size full
  short_sums       incomplete Kloosterman sums of length q^0.5..q^0.67 plus
                   completion_check / partial_sum_max, q in [2e5, 1e6]

Every pass runs in a fresh interpreter (cold lru caches), with one
BLAS/OpenMP thread per process and at most two worker processes.  With
--trace 0 the run starts jobs=1 passes while the next one, if it takes
as long as the last, is half done within S seconds, and reports the
trimmed mean of their times (after them the sweep also runs
verify_report and one jobs=2 sweep); with --trace 1 it makes one untraced and one traced pass
at jobs=1 and reports per-layer figures from the spans.
Outputs are checked outside the timed region against the oracles in
oracles.py and, for the default seed, the values pinned in pins.json.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it print every metric, the
workload properties and the machine.  The full result, including
figures that apply to one workload only (verify_s, item latencies), is
written to perfbench/out/<workload>-s<seed>-t<trace>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
from inputs import DEFAULT_SEED, WORKLOADS, workload_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
SETUP_REPEATS = 9  # fewest setup samples: one after each pass, the rest at the end
WORKER_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # no new pass starts if it could end after this

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{argv[1:]} timed out after {timeout} s")
    finally:
        if proc.returncode is None:  # timed out or interrupted
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerFailed(f"{argv[1:]} exited {proc.returncode}: {err.strip()[-600:]}")
    return out


def measure_setup(times: list[float], repeats: int = 1) -> None:
    """Fresh interpreter to `import kloosterlab.cli` done, `repeats` times."""
    for _ in range(repeats):
        t0 = perf_counter()
        run_child([sys.executable, "-c", "import kloosterlab.cli"], 60)
        times.append(perf_counter() - t0)


class Runner:
    def __init__(self, workload: str, outdir: Path, inputs: dict) -> None:
        self.workload, self.outdir, self.inputs = workload, outdir, inputs

    def worker(self, mode: str, trace: bool = False, **extra) -> dict:
        spec = {"workload": self.workload, "mode": mode, "trace": trace,
                "inputs": self.inputs, "outdir": str(self.outdir), **extra}
        path = self.outdir / f"spec_{mode}.json"
        path.write_text(json.dumps(spec))
        out = run_child([sys.executable, str(BENCH / "worker.py"), str(path)],
                        WORKER_TIMEOUT_S)
        return json.loads(out.strip().splitlines()[-1])

    def one_pass(self, modes: tuple[str, ...], trace: bool = False,
                 verify: bool = False) -> dict:
        """The given modes in order; `verify` runs verify_report on the
        jobs=1 sweep report."""
        result = {}
        for mode in modes:
            r = self.worker(mode, trace=trace)
            if self.workload == "sweep_c11":
                r["rows"] = checks.read_report_rows(r["report"])
                if verify and mode == "jobs1":
                    result["verify"] = self.worker("verify", trace=trace, report=r["report"])
            result[mode] = r
        return result


def run_checks(workload: str, seed: int, inputs: dict, passes: list[dict]) -> checks.Tally:
    tally = checks.Tally()
    pins = json.loads((BENCH / "pins.json").read_text())
    pinned = pins.get(workload) if seed == DEFAULT_SEED else None
    results = [r for p in passes for mode, r in p.items() if mode in ("jobs1", "jobs2")]
    if workload == "sweep_c11":
        checks.check_sweep(tally, [r["rows"] for r in results],
                           [p["verify"] for p in passes if "verify" in p],
                           pinned["digest"] if pinned else None)
    elif workload == "divisor_queries":
        checks.check_divisor(tally, inputs["queries"], [r["values"] for r in results], pinned)
    elif workload == "lemma_suites":
        checks.check_lemma(tally, inputs["suites"], [r["values"] for r in results])
    else:
        checks.check_short(tally, inputs["groups"], [r["values"] for r in results])
    return tally


def tail_stats(samples_s: list[float]) -> dict | None:
    """Median and the highest whole percentile with >= 10 samples beyond it."""
    n = len(samples_s)
    if n == 0:
        return None
    xs = sorted(samples_s)
    out = {"samples": n, "p50_ms": statistics.median(xs) * 1e3}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        rank = max(1, math.ceil(pct / 100 * n))
        out.update(tail_percentile=pct, tail_ms=xs[rank - 1] * 1e3,
                   beyond=n - rank)
    return out


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "kloosterlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit, "src_sha256": h.hexdigest()}


def trimmed_mean(xs: list[float]) -> float:
    """Mean without the fastest and the slowest sample (from five samples
    on).  The host's speed drifts over tens of seconds, so a mean over the
    whole run averages that drift out better than a median, and the trim
    drops a single stalled or lucky pass."""
    xs = sorted(xs)
    if len(xs) >= 5:
        xs = xs[1:-1]
    return statistics.fmean(xs)


def untraced(runner: Runner, seconds: float) -> tuple[list[dict], dict, dict]:
    """jobs=1 passes while the next one, as long as the last, would be half
    done within `seconds`; then, for the sweep, verify_report on the first
    pass's report and one jobs=2 sweep."""
    sweep = runner.workload == "sweep_c11"
    t0 = perf_counter()
    passes: list[dict] = []
    setup: list[float] = []  # spread over the run, like the passes
    while True:
        t_pass = perf_counter()
        p = runner.one_pass(("jobs1",))
        last = perf_counter() - t_pass  # worker start to exit
        passes.append(p)
        measure_setup(setup)
        # the next pass starts if, as long as the last, it would be half
        # done by the end of the window: runs average `seconds` of passes
        elapsed = perf_counter() - t0
        if elapsed + last / 2 > seconds or elapsed + last > RUN_BUDGET_S:
            break
    if sweep:  # once per run, after the timed jobs=1 passes
        passes[0]["verify"] = runner.worker("verify", report=passes[0]["jobs1"]["report"])
        passes[0].update(runner.one_pass(("jobs2",)))
    measure_setup(setup, SETUP_REPEATS - len(setup))
    results = [r for p in passes for mode, r in p.items() if mode != "verify"]
    jobs1 = [p["jobs1"] for p in passes]
    metrics = {
        "wall_s": trimmed_mean([r["wall_s"] for r in jobs1]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    extra = {"passes": len(passes), "setup_samples_s": setup,
             "wall_samples_s": [r["wall_s"] for r in jobs1]}
    if sweep:
        extra["wall_jobs2_s"] = passes[0]["jobs2"]["wall_s"]
        extra["verify_s"] = passes[0]["verify"]["wall_s"]
    items = tail_stats([t for r in jobs1 for t in r.get("latencies_s", [])])
    if items:
        extra["items"] = items
    return passes, metrics, extra


def traced(runner: Runner) -> tuple[list[dict], dict, dict]:
    from spans import per_layer_metrics

    sweep = runner.workload == "sweep_c11"
    plain = runner.one_pass(("jobs1",))
    spanned = runner.one_pass(("jobs1",), trace=True, verify=sweep)
    summary = dict(spanned["jobs1"]["spans"])
    if "verify" in spanned:
        # verify_report is a separate invocation; add its layer figures
        for key, value in spanned["verify"]["spans"].items():
            if key.endswith((".calls", ".busy_s", ".checks", ".bytes")) or key == "trace.spans":
                summary[key] = summary.get(key, 0) + value
    overhead = spanned["jobs1"]["wall_s"] - plain["jobs1"]["wall_s"]
    extra = {"untraced_wall_s": plain["jobs1"]["wall_s"],
             "traced_wall_s": spanned["jobs1"]["wall_s"],
             "spans_file": str(runner.outdir / "spans.npz")}
    return [plain, spanned], per_layer_metrics(summary, overhead), extra


def _terminate(signum, frame):
    # unwinds through run_child, which kills the running worker's group
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kloosterlab" / "cli.py").is_file():
        print(f"error: no kloosterlab sources under {SRC}", file=sys.stderr)
        return 2
    outdir = BENCH / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    inputs = workload_inputs(args.workload, args.seed)
    runner = Runner(args.workload, outdir, inputs)

    try:
        if args.trace:
            passes, metrics, extra = traced(runner)
        else:
            passes, metrics, extra = untraced(runner, args.seconds)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tally = run_checks(args.workload, args.seed, inputs, passes)
    properties = passes[0]["jobs1"].get("properties", {})

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "metrics": metrics, "extra": extra,
        "properties": properties, "attempted": tally.attempted, "failed": tally.failed,
        "fail_frac": tally.fail_frac, "failures": tally.notes,
    }
    (outdir / "result.json").write_text(json.dumps(result, indent=1))

    for note in tally.notes:
        print(f"FAIL {note}")
    print(f"machine: {json.dumps(result['machine'])}")
    print(f"properties: {json.dumps(properties)}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name in ("wall_jobs2_s", "verify_s"):
        if name in extra:
            print(f"{args.workload} {name} = {extra[name]:.6g} s (one sample)")
    if "items" in extra:
        it = extra["items"]
        print(f"{args.workload} item_p50_ms = {it['p50_ms']:.6g} ms ({it['samples']} calls)")
        if "tail_ms" in it:
            print(f"{args.workload} item_tail_ms = {it['tail_ms']:.6g} ms "
                  f"(p{it['tail_percentile']}, {it['beyond']} calls beyond)")
    print(f"{args.workload} fail_frac = {tally.fail_frac:.6g} "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
