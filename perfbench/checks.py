"""Correctness gates of the benchmark, run outside the timed region.

Every check counts one attempted operation; a wrong or missing output
counts one failure.  fail_frac = failed / attempted.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

# completion_check compares two evaluations of the same sum; this is the
# tolerance the program's own completion suite asserts
COMPLETION_TOL = 1e-8


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def read_report_rows(path: str) -> list[dict]:
    """(x, q, a, E_exact, error) of a CSV sweep report, in file order."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return [
        {"x": int(r["x"]), "q": int(r["q"]), "a": int(r["a"]),
         "E_exact": r["E_exact"], "error": r["error"]}
        for r in csv.DictReader(lines)
    ]


def row_digest(rows: list[dict]) -> str:
    """sha256 of the sorted (x, q, a, E_exact) lines; independent of schema."""
    h = hashlib.sha256()
    for r in sorted(rows, key=lambda r: (r["x"], r["q"], r["a"])):
        h.update(f"{r['x']},{r['q']},{r['a']},{r['E_exact']}\n".encode())
    return h.hexdigest()


def _fraction(text: str) -> Fraction | None:
    try:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        return None


def check_sweep(tally: Tally, reports: list[list[dict]], verifies: list[dict],
                pinned_digest: str | None) -> None:
    """reports[0] is checked row by row against the tau oracle; every other
    report must have the same (x, q, a, E_exact) digest."""
    first = reports[0]
    tally.check(len(first) > 0, "sweep report has no rows")
    tau = oracles.tau_upto(max((r["x"] for r in first), default=1))
    for r in first:
        e = _fraction(r["E_exact"]) if r["E_exact"] else None
        ok = not r["error"] and e is not None and e == oracles.error_term(tau, r["x"], r["q"], r["a"])
        tally.check(ok, f"sweep row x={r['x']} q={r['q']} a={r['a']}: "
                        f"E={r['E_exact']!r} error={r['error']!r}")
    digest = row_digest(first)
    for i, rows in enumerate(reports[1:], 1):
        tally.check(row_digest(rows) == digest, f"sweep report {i} differs from report 0")
    if pinned_digest is not None:
        tally.check(digest == pinned_digest, "sweep digest differs from the pinned digest")
    for v in verifies:
        tally.check(bool(v["ok"]), "verify_report failed: " + " | ".join(v["lines"][-2:]))


def check_divisor(tally: Tally, queries: list, passes: list[list[str]],
                  pinned: dict | None) -> None:
    """Every pass against the tau oracle; with pins, the oracle against
    the values pinned for these queries."""
    tau = oracles.tau_upto(max(x for x, _, _ in queries))
    expected = [oracles.error_term(tau, x, q, a) for x, q, a in queries]
    if pinned is not None:
        tally.check([tuple(t) for t in pinned["queries"]] == [tuple(t) for t in queries],
                    "pins.json was made for other divisor queries; rerun pin.py")
        for (x, q, a), e, pin in zip(queries, expected, pinned["E"]):
            tally.check(e == _fraction(pin), f"oracle E({x},{q},{a}) differs from pin {pin}")
    for values in passes:
        tally.check(len(values) == len(queries), "divisor pass returned wrong count")
        for (x, q, a), e, v in zip(queries, expected, values):
            tally.check(_fraction(v) == e, f"E({x},{q},{a}) = {v}, expected {e}")


def check_lemma(tally: Tally, names: list[str], passes: list[list]) -> None:
    for values in passes:
        tally.check(len(values) == len(names), "lemma pass returned wrong count")
        for name, (ok, lines) in zip(names, values):
            tally.check(bool(ok), f"suite {name} failed: {lines[-1] if lines else ''}")


def check_short(tally: Tally, groups: list[dict], passes: list[list]) -> None:
    """passes[0] is checked against the oracle call by call; later passes
    must repeat it exactly or pass the oracle check themselves."""
    calls = [c for g in groups for c in g["calls"]]
    inverses: dict[int, tuple] = {}

    def oracle_ok(call: dict, value) -> bool:
        fn, a, q = call["fn"], call["a"], call["q"]
        if fn == "incomplete_kloosterman":
            re, im, err = value
            ref, ref_err = oracles.incomplete_kloosterman(a, q, call["offset"], call["length"])
            return abs(complex(re, im) - ref) <= err + ref_err
        if fn == "completion_check":
            return math.isfinite(value) and 0 <= value <= COMPLETION_TOL
        if q not in inverses:
            inverses.clear()
            inverses[q] = oracles.unit_inverses(q)
        ref, tol = oracles.partial_sum_max(*inverses[q], a, q, call["M"], call["K"], call["r"])
        return abs(value - ref) <= tol

    reference = passes[0]
    for values in passes:
        tally.check(len(values) == len(calls), "short_sums pass returned wrong count")
        for call, v, ref in zip(calls, values, reference):
            ok = (v == ref and values is not reference) or oracle_ok(call, v)
            tally.check(ok, f"{call['fn']} q={call['q']} a={call['a']}: {v}")
