"""The five lemma suites, and scripts/pin_constants.py, print
exactly the recorded reports.

tests/data/lemma_full.txt is the stdout of

    OPENBLAS_NUM_THREADS=1 python -m kloosterlab lemma-suite <suite>

for the suites in SUITE_ORDER, concatenated.  Every figure in it is a
maximum over a grid, so a change to any cell that moves a maximum shows
here.  The runs use one BLAS thread because the completion line depends
on it: its matrix product rounds differently when BLAS splits it, and
the same code prints max deviation = 5.46e-14 at one thread and 5.42e-14
at two.  The stdout of scripts/pin_constants.py is pinned by its sha256.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "lemma_full.txt"
SUITE_ORDER = ("weil", "completion", "vanishing", "product-sums", "onediff")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _suite_stdout(suite: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **ONE_THREAD)
    proc = subprocess.run(
        [sys.executable, "-m", "kloosterlab", "lemma-suite", suite],
        env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_full_suites_match_the_recorded_report():
    got = "".join(_suite_stdout(suite) for suite in SUITE_ORDER)
    assert got.splitlines() == GOLDEN.read_text().splitlines()


def test_pin_constants_prints_the_recorded_report(capsys):
    # scripts/pin_constants.py prints the pinned checks' maxima at full
    # precision; neither check uses BLAS, so its stdout is pinned bytewise
    spec = importlib.util.spec_from_file_location(
        "pin_constants", ROOT / "scripts" / "pin_constants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "ab02719ed12ba02e6dd87a82af15a54d28aba576eb80b4f443b1dc635751ab3b"
