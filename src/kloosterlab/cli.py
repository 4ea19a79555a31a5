"""Command-line front end: single queries, grid sweeps, lemma-check suites.

Reports are long-lived experiment artifacts: CSV files carry a leading
``# schema=2`` comment and JSON files a top-level ``schema`` field;
rationals are written as exact "num/den" strings and reals as
17-significant-digit decimals.  A sweep rerun with the same config and
seed produces a byte-identical report (per-cell RNG streams are derived
as seed XOR cell-index, so the worker count cannot change the output).
Schema 1 reports also carried a ``runtime_ms`` column; they still load.

The lemma checks live in ``checks``; ``SUITE_CHECKS`` names the checks
each lemma suite runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import __version__
from .arith import (
    INVERSE_TABLE_CAP,
    FactoredInteger,
    ModulusSplit,
    factorize,
    is_prime,
    smooth_squarefree_moduli,
    totient,
    unit_mask,
    units_by_rank,
)
from .bounds_opt import (
    admissible,
    divisorthm_rhs,
    exponent_fit,
    factorize_to_windows,
    shortkloost_rhs,
    target_sizes,
    target_windows,
)
from .checks import (
    check_completion,
    check_magnitudes,
    check_multiplicativity,
    check_onediff,
    check_orthogonality,
    check_vanishing,
    check_weil,
)
from .divisor_ap import (
    HYPERBOLA_X_CAP,
    MEMBER_CAP,
    ApQuery,
    divisor_main_term,
    divisor_sum_ap,
    divisor_sums_ap,
    error_term,
)
from .errors import DomainError, KloosterlabError, UsageError
from .kloosterman import IntegerInterval, complete_kloosterman, incomplete_kloosterman
from .oracle import Q_CAP, split_divisor_sum_ap, split_main_term

if TYPE_CHECKING:  # argparse is imported where the parser is built
    import argparse

SCHEMA_VERSION = 2
EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

CSV_COLUMNS = [
    "x", "q", "a", "E_exact", "abs_E", "scaled_E", "bound_total", "ratio",
    "q0", "q1", "q2", "q3", "Q0", "Q1", "Q2", "Q3", "error",
]
REPORT_FIELDS = ("x", "q", "a", "E_exact")  # the columns verify-report reads


def _fmt_real(v: float) -> str:
    return f"{v:.17g}"


def _fmt_cell(v: object) -> object:
    """A CSV report cell: None empty, a float as _fmt_real, anything else as it is."""
    if v is None:
        return ""
    return _fmt_real(v) if isinstance(v, float) else v


def _fmt_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# --------------------------------------------------------------------------
# Sweep configuration and engine
# --------------------------------------------------------------------------


@dataclass
class SweepConfig:
    """Parameters of one sweep run; JSON config files mirror these fields."""

    x_values: list[int] = field(default_factory=list)
    q_list: Optional[list[int]] = None
    q_lo_exp: Optional[float] = None
    q_hi_exp: Optional[float] = None
    eta: float = 0.04
    residues: object = "all"  # "all" or {"sample": m}
    delta: float = 0.05
    eps: float = 0.0
    seed: int = 0
    jobs: int = 1
    format: str = "csv"
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.x_values:
            raise DomainError("x_values must be non-empty")
        for name in ("x_values", "q_list"):
            values = getattr(self, name)
            if values is not None and not (
                isinstance(values, (list, tuple))
                and all(type(v) is int and v >= 1 for v in values)
            ):
                raise DomainError(f"{name} entries must be ints >= 1: {values!r}")
        if max(self.x_values) > HYPERBOLA_X_CAP:
            raise DomainError(
                f"x = {max(self.x_values)} above the hyperbola's cap {HYPERBOLA_X_CAP}"
            )
        if max(self.q_list or [1]) > Q_CAP:
            raise DomainError(f"q = {max(self.q_list)} above the split count's cap {Q_CAP}: "
                              "verify-report could not recompute its rows")
        for name in ("eta", "delta", "eps", "q_lo_exp", "q_hi_exp"):
            v = getattr(self, name)
            if name.startswith("q_") and v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DomainError(f"{name} must be a number, got {v!r}")
            try:
                finite = math.isfinite(v)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise DomainError(f"{name} must be finite, got {v!r}")
        for name in ("seed", "jobs"):
            v = getattr(self, name)
            if type(v) is not int:
                raise DomainError(f"{name} must be an int, got {v!r}")
        if self.q_list is None and (self.q_lo_exp is None or self.q_hi_exp is None):
            raise DomainError("config needs q_list or q_lo_exp/q_hi_exp")
        if self.q_list is not None and (self.q_lo_exp, self.q_hi_exp) != (None, None):
            raise DomainError("both q_list and q_lo_exp/q_hi_exp are set: give one source of q")
        if None not in (self.q_lo_exp, self.q_hi_exp) and self.q_lo_exp > self.q_hi_exp:
            raise DomainError(
                f"q_lo_exp = {self.q_lo_exp} above q_hi_exp = {self.q_hi_exp}"
            )
        if not 0 < self.delta < 1 / 12:
            raise DomainError(f"delta = {self.delta} outside (0, 1/12)")
        if not 0 < self.eta < 1:
            raise DomainError(f"eta = {self.eta} outside (0, 1)")
        if self.format not in ("csv", "json"):
            raise DomainError(f"unknown format {self.format!r}")
        if self.jobs < 1:
            raise DomainError("jobs must be >= 1")
        if isinstance(self.residues, dict):
            unknown = set(map(str, self.residues)) - {"sample"}
            if unknown:
                raise DomainError(f"unknown residues key(s): {', '.join(sorted(unknown))}")
            m = self.residues.get("sample")
            if type(m) is not int or m < 1:
                raise DomainError("residues sample size must be a positive int")
        elif self.residues != "all":
            raise DomainError('residues must be "all" or {"sample": m}')

    @property
    def sample_size(self) -> Optional[int]:
        if isinstance(self.residues, dict):
            return int(self.residues["sample"])
        return None

    def to_json_dict(self) -> dict:
        d = asdict(self)
        # jobs and out are execution details; the report must not
        # depend on them, so they stay out of the config echo.
        d.pop("jobs")
        d.pop("out")
        return d


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror or exc}") from None


def _read_config(path: str) -> dict:
    """The SweepConfig fields set by a JSON config file."""
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DomainError(f"{path} must hold a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(SweepConfig)})
    if unknown:
        raise DomainError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    return raw


def _cell_moduli(config: SweepConfig, x: int) -> list[int]:
    """The distinct moduli of x's cells, ascending; none when x's
    exponent window [x^q_lo_exp, x^q_hi_exp] holds no integer."""
    if config.q_list is not None:
        return sorted(set(config.q_list))
    # checked in logs, before the float powers, which overflow far above the cap
    if config.q_hi_exp * math.log(x) > math.log(Q_CAP):
        raise DomainError(f"x^{config.q_hi_exp} at x = {x} passes the split count's cap "
                          f"{Q_CAP}: verify-report could not recompute its rows")
    lo = max(1, math.ceil(x**config.q_lo_exp))
    hi = math.floor(x**config.q_hi_exp)
    if lo > hi:
        return []
    try:
        return smooth_squarefree_moduli(lo, hi, max(2, math.floor(x**config.eta)))
    except DomainError as exc:
        raise DomainError(f"x = {x}, window [x^{config.q_lo_exp}, x^{config.q_hi_exp}]: {exc}; "
                          "narrow it with --q-lo-exp/--q-hi-exp") from None


def _cell_residues(idx: int, fq: FactoredInteger, config: SweepConfig) -> list[int]:
    """The residues of cell idx, ascending: a sample of m units mod q, or
    every unit (residues "all", or m >= phi(q)) listed by the unit mask.
    A sample draws m of the ranks 0..phi(q)-1 with the cell's seed and
    takes the units of those ranks, so one rule serves every q up to
    Q_CAP and nothing of size q is built."""
    m = config.sample_size
    if m is None or m >= (phi := totient(fq)):
        return np.flatnonzero(unit_mask(fq)).tolist()
    ranks = sorted(random.Random(config.seed ^ idx).sample(range(phi), m))
    return units_by_rank(fq, ranks).tolist()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _compute_cell(payload: tuple) -> tuple[list[dict], Fraction]:
    """All rows of one (x, q) cell and the sum of their E.  It shares no
    state with other cells, so pool threads may run cells in any order
    without changing a row.  q comes factored, once for the whole cell."""
    idx, x, fq, config = payload
    q = fq.value
    units = _cell_residues(idx, fq, config)
    qs = target_sizes(x, q)
    split = None
    split_error = ""
    try:
        windows = target_windows(x, q, config.eta)
        split = factorize_to_windows(fq, windows)
    except KloosterlabError as exc:
        split_error = f"{type(exc).__name__}: {exc}"

    bound_total: Optional[float] = None
    if split is not None:
        try:
            bound_total = divisorthm_rhs(x, split, config.delta, config.eps).bound_total
        except KloosterlabError:
            bound_total = None

    # SweepConfig and run_sweep keep x, q <= 10^12 and every row within
    # MEMBER_CAP members: neither call raises
    main = divisor_main_term(x, fq).rational
    num, den = main.numerator, main.denominator
    parts = (None,) * 4 if split is None else split.parts
    sums = divisor_sums_ap(x, q, units)
    rows = []
    for a, d in zip(units, sums):
        e = d * den - num  # E = e / den
        g = math.gcd(e, den)
        abs_e = abs(e) / den
        rows.append({
            "x": x, "q": q, "a": a,
            "E_exact": f"{e // g}/{den // g}", "abs_E": abs_e, "scaled_E": q * abs_e / x,
            "bound_total": bound_total,
            "ratio": abs_e / bound_total if bound_total is not None and bound_total > 0 else None,
            "q0": parts[0], "q1": parts[1], "q2": parts[2], "q3": parts[3],
            "Q0": qs[0], "Q1": qs[1], "Q2": qs[2], "Q3": qs[3],
            "error": split_error,
        })
    return rows, Fraction(sum(sums) * den - len(sums) * num, den)


def run_sweep(config: SweepConfig) -> tuple[list[dict], dict]:
    """Execute a sweep; returns (rows sorted by (x, q, a), summary).

    A cell whose residues cannot be drawn, or whose rows can exceed the
    divisor count's MEMBER_CAP, raises DomainError before any cell is
    computed.  Every row has an exact E_exact; error names only a failed
    window split."""
    cells = []
    m = config.sample_size
    for x in sorted(set(config.x_values)):
        for q in _cell_moduli(config, x):
            if (longest := (x - 1) // q + 1) > MEMBER_CAP:  # the row of a = 1 mod q
                raise DomainError(
                    f"x = {x}, q = {q}: a row holds up to {longest} members; the divisor "
                    f"count takes at most {MEMBER_CAP}, so q >= x / {MEMBER_CAP}"
                )
            fq = factorize(q)  # once a cell: its residues, windows and main term share it
            cells.append((x, fq))
            if q <= INVERSE_TABLE_CAP:  # its residues come from the unit mask
                continue
            if m is None:
                raise DomainError(
                    f'residues "all" at q = {q} needs the unit mask, limited to '
                    f'q <= {INVERSE_TABLE_CAP}; use residues {{"sample": m}}'
                )
            phi = totient(fq)
            if m >= phi:
                raise DomainError(
                    f"residues sample {m} >= phi({q}) = {phi} lists every unit, which "
                    f"needs the unit mask, limited to q <= {INVERSE_TABLE_CAP}"
                )
    payloads = [(idx, x, fq, config) for idx, (x, fq) in enumerate(cells)]
    # cells run on threads: their numpy passes release the GIL, and threads
    # need no fork, no pickling and no second copy of the interpreter
    workers = min(config.jobs, len(payloads), _usable_cpus())
    if workers <= 1:
        results = [_compute_cell(p) for p in payloads]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_compute_cell, payloads))
    rows = [row for cell_rows, _ in results for row in cell_rows]
    rows.sort(key=lambda r: (r["x"], r["q"], r["a"]))
    return rows, _summarize(rows, sum((e_sum for _, e_sum in results), start=Fraction(0)))


def _summarize(rows: list[dict], e_sum: Fraction) -> dict:
    """The summary of a sweep's rows; e_sum is the sum of their E."""
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    infeasible = sum(1 for r in rows if r["q0"] is None)
    per_x: dict[int, float] = {}
    for r in rows:
        per_x[r["x"]] = max(per_x.get(r["x"], 0.0), r["scaled_E"])
    fit_points = [(float(x), v) for x, v in sorted(per_x.items()) if v > 0]
    fit = None
    if len(fit_points) >= 2:
        f = exponent_fit(fit_points)
        fit = {"slope": f.slope, "intercept": f.intercept, "residual": f.residual}
    return {
        "rows": len(rows),
        "errors": sum(1 for r in rows if r["error"]),
        "infeasible_splits": infeasible,
        "max_ratio": max(ratios) if ratios else None,
        "sum_E_exact": _fmt_fraction(e_sum),
        "scaled_E_fit": fit,
    }


def render_report(config: SweepConfig, rows: list[dict], summary: dict) -> str:
    """Serialize a sweep deterministically in the configured format."""
    config_json = json.dumps(config.to_json_dict(),
                             sort_keys=True, separators=(",", ":"))
    if config.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "config": config.to_json_dict(),
            "rows": rows,
            "summary": summary,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA_VERSION}\n")
    buf.write(f"# version={__version__}\n")
    buf.write(f"# config={config_json}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([_fmt_cell(r[column]) for column in CSV_COLUMNS])
    buf.write("# summary=" + json.dumps(summary, sort_keys=True,
                                        separators=(",", ":")) + "\n")
    return buf.getvalue()


def load_report(path: str) -> list[dict]:
    """Rows of a CSV or JSON report, as dicts with x, q, a and E_exact.

    Columns are read by name, so schema 1 reports (which also carry
    runtime_ms) load as well.  A report that does not parse, or a row
    that lacks a field, has a non-integer x, q or a, or has an E_exact
    that is neither a string nor null, raises DomainError naming the
    file and the row; so does a CSV whose header does not name them
    all.  A header without rows, or JSON "rows": [], is an empty report.
    """
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path} is not valid JSON: {exc}") from None
        records = doc.get("rows") if isinstance(doc, dict) else None
        if not isinstance(records, list):
            raise DomainError(f"{path} has no list of rows")
    else:
        reader = csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#"))
        records = list(reader)
        if not records and not set(REPORT_FIELDS) <= set(reader.fieldnames or ()):
            raise DomainError(f"{path} has no report header naming {', '.join(REPORT_FIELDS)}")
    return [_report_row(path, n, rec) for n, rec in enumerate(records, start=1)]


def _report_row(path: str, n: int, rec: object) -> dict:
    if not isinstance(rec, dict):
        raise DomainError(f"{path}: row {n} is not a record")
    for name in REPORT_FIELDS:
        if name not in rec:
            raise DomainError(f"{path}: row {n} has no field {name!r}")
    row = {}
    for name in ("x", "q", "a"):
        v = rec[name]
        try:
            row[name] = int(v) if isinstance(v, str) else v
        except ValueError:
            row[name] = None
        if type(row[name]) is not int:  # JSON rows hold ints, CSV rows strings
            raise DomainError(f"{path}: row {n}: {name} = {v!r} is not an integer")
    e = rec["E_exact"]
    if e is not None and not isinstance(e, str):  # old reports write null or "" for no E
        raise DomainError(f"{path}: row {n}: E_exact = {e!r} is not a fraction string")
    row["E_exact"] = e or None
    return row


def verify_report(path: str, seed: int = 0, fraction: float = 0.01) -> tuple[bool, list[str]]:
    """Recompute a seeded sample of a report's rows and demand exact E values.

    The sample is drawn from every row with an E_exact, whatever its error
    (old reports have rows without one).  Sweeps count every row's D by
    factoring its progression and its main term by the hyperbola, so each
    is recomputed by the pure-Python split count of `oracle`, which shares
    no code with either: split_divisor_sum_ap, about 2 sqrt(x) steps a
    row, and split_main_term once per (x, q) cell.
    """
    if not 0 < fraction <= 1:
        raise DomainError(f"fraction = {fraction} outside (0, 1]")
    rows = load_report(path)
    candidates = [r for r in rows if r["E_exact"]]
    if not candidates:
        return True, ["verify: no verifiable rows"]
    k = max(1, round(fraction * len(candidates)))
    rng = random.Random(seed)
    picked = [candidates[i] for i in sorted(rng.sample(range(len(candidates)), k))]
    lines = []
    ok = True
    mains: dict[tuple[int, int], Fraction] = {}  # rows of one cell share it
    for r in picked:
        x, q, a = r["x"], r["q"], r["a"]
        if (x, q) not in mains:
            mains[x, q] = split_main_term(x, q)
        e = split_divisor_sum_ap(x, q, a) - mains[x, q]
        if _fmt_fraction(e) != r["E_exact"]:
            ok = False
            lines.append(
                f"MISMATCH x={x} q={q} a={a}: "
                f"report {r['E_exact']} recomputed {_fmt_fraction(e)}"
            )
    lines.append(f"verify: {k}/{len(candidates)} rows recomputed, "
                 f"{'all exact' if ok else 'MISMATCHES FOUND'}")
    return ok, lines


# --------------------------------------------------------------------------
# Lemma-check suites
# --------------------------------------------------------------------------


SUITE_CHECKS = {
    "weil": (check_weil,),
    "completion": (check_completion,),
    "vanishing": (check_vanishing,),
    "product-sums": (check_orthogonality, check_multiplicativity, check_magnitudes),
    "onediff": (check_onediff,),
}


def _run_checks(suite: str, size: str = "full") -> tuple[bool, list[str]]:
    # each check has one grid; size stays only because perfbench calls suite("full")
    if size != "full":
        raise DomainError(f"lemma suites run one grid, 'full'; got size {size!r}")
    results = [check() for check in SUITE_CHECKS[suite]]
    return all(r.ok for r in results), [r.line for r in results]


def run_weil_suite(size: str = "full") -> tuple[bool, list[str]]:
    return _run_checks("weil", size)


def run_completion_suite(size: str = "full") -> tuple[bool, list[str]]:
    return _run_checks("completion", size)


def run_vanishing_suite(size: str = "full") -> tuple[bool, list[str]]:
    return _run_checks("vanishing", size)


def run_product_sums_suite(size: str = "full") -> tuple[bool, list[str]]:
    return _run_checks("product-sums", size)


def run_onediff_suite(size: str = "full") -> tuple[bool, list[str]]:
    return _run_checks("onediff", size)


# --------------------------------------------------------------------------
# Subcommand handlers
# --------------------------------------------------------------------------


def _print_sum_value(label: str, value) -> None:
    # adding 0.0 turns a signed zero -0.0 into 0.0 and leaves every other value as it is
    re, im = value.re + 0.0, value.im + 0.0
    print(f"{label} = {re:.12g} {im:+.3g}i   (err <= {value.err:.3g})")


def cmd_kloosterman(args: argparse.Namespace) -> int:
    if len(args.interval) not in (0, 2):
        raise UsageError("interval takes exactly two integers: M N")
    if args.interval:
        if args.b != 0:
            raise DomainError("interval sums take no linear twist; pass b = 0")
        m, n = args.interval
        value = incomplete_kloosterman(args.a, args.q, IntegerInterval(m, n))
        _print_sum_value(f"S_I({args.a}; {args.q}, [{m}, {m + n}))", value)
        return EXIT_OK
    value = complete_kloosterman(args.a, args.b, args.q)
    _print_sum_value(f"S({args.a}, {args.b}; {args.q})", value)
    if is_prime(args.q) and args.a % args.q and args.b % args.q:
        ratio = value.magnitude / (2 * math.sqrt(args.q))
        print(f"weil ratio |S|/(2*sqrt q) = {ratio:.12f}")
    return EXIT_OK


def cmd_divisor(args: argparse.Namespace) -> int:
    d = divisor_sum_ap(ApQuery(args.x, args.q, args.a))
    print(f"D({args.x}, {args.q}, {args.a}) = {d}")
    return EXIT_OK


def cmd_error_term(args: argparse.Namespace) -> int:
    e = error_term(ApQuery(args.x, args.q, args.a))
    print(
        f"E({args.x}, {args.q}, {args.a}) = {_fmt_fraction(e.rational)} "
        f"= {e.real:.12g}"
    )
    return EXIT_OK


def cmd_targets(args: argparse.Namespace) -> int:
    if args.varpi is not None and args.eta is None:
        raise DomainError("targets --varpi needs --eta")
    # everything that can raise runs before any output
    ok = None if args.varpi is None else admissible(args.varpi, args.eta)
    qs = target_sizes(args.x, args.q)
    w = None if args.eta is None else target_windows(args.x, args.q, args.eta)
    for j, v in enumerate(qs):
        print(f"Q{j} = {v:.12g}")
    print(f"product = {math.prod(qs):.12g} (q = {args.q})")
    if w is not None:
        for j, (lo, hi) in enumerate(w.intervals):
            print(f"window{j} = [{lo:.12g}, {hi:.12g}]")
    if ok is not None:
        print(f"admissible(varpi={args.varpi}, eta={args.eta}) = {ok}")
    return EXIT_OK


def cmd_factorize(args: argparse.Namespace) -> int:
    if (args.x is None) != (args.eta is None):
        raise DomainError("factorize needs both --x and --eta for a window split, or neither")
    fq = factorize(args.q)
    windows = None if args.x is None else target_windows(args.x, args.q, args.eta)
    pretty = " * ".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in fq.factors
    ) or "1"
    print(f"{args.q} = {pretty} (squarefree = {fq.squarefree})")
    if windows is None:
        return EXIT_OK
    split = factorize_to_windows(fq, windows)
    if split is None:
        print("window factorization: infeasible")
        return EXIT_OK
    print(f"window factorization: q0..q3 = {split.parts}")
    for j, (lo, hi) in enumerate(windows.intervals):
        print(f"  part{j} = {split.parts[j]} in [{lo:.6g}, {hi:.6g}]")
    return EXIT_OK


def _parse_split(text: str) -> ModulusSplit:
    try:
        parts = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise DomainError(f"--split must be comma-separated ints, got {text!r}") from None
    return ModulusSplit(parts)


def cmd_bound(args: argparse.Namespace) -> int:
    unused = ("x", "q", "a", "eta") if args.which == "short-kloosterman" else ("N",)
    given = [f"--{name}" for name in unused if getattr(args, name) is not None]
    if given:
        raise DomainError(f"bound {args.which} takes no {', '.join(given)}")
    computed = None
    if args.which == "short-kloosterman":
        if args.split is None or args.N is None:
            raise DomainError("short-kloosterman bound needs --split and --N")
        report = shortkloost_rhs(args.N, _parse_split(args.split), args.eps)
    else:
        if args.x is None or args.q is None:
            raise DomainError("divisor bound needs --x and --q")
        if args.split is not None:
            if args.eta is not None:
                raise DomainError("bound divisor takes --split or --eta, not both")
            split = _parse_split(args.split)
            if split.modulus != args.q:
                raise DomainError(
                    f"--split {args.split} multiplies to {split.modulus}, not --q {args.q}"
                )
        else:
            if args.eta is None:
                raise DomainError("divisor bound needs --split or --eta")
            split = factorize_to_windows(
                factorize(args.q), target_windows(args.x, args.q, args.eta)
            )
            if split is None:
                print("window factorization infeasible; no bound evaluated")
                return EXIT_FAIL
        if args.a is not None:
            computed = abs(error_term(ApQuery(args.x, args.q, args.a)).real)
        report = divisorthm_rhs(args.x, split, args.delta, args.eps)
    for name, value in report.bound_terms:
        print(f"{name:12s} = {value:.12g}")
    print(f"{'total':12s} = {report.bound_total:.12g} (eps = {args.eps})")
    print(f"{'total@eps=0':12s} = {report.bound_total_eps0:.12g}")
    if computed is not None:
        ratio = computed / report.bound_total if report.bound_total > 0 else 0.0
        print(f"{'computed':12s} = {computed:.12g}  ratio = {ratio:.6g}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _read_config(args.config) if args.config else {}
    overrides: dict = {}
    try:
        if args.x:
            xs = [Fraction(t) for t in args.x.split(",")]  # exact, so 1e6 is 10**6
            if any(v.denominator != 1 for v in xs):
                raise ValueError(f"--x {args.x} has an entry that is not an integer")
            overrides["x_values"] = [int(v) for v in xs]
        if args.q:
            overrides["q_list"] = [int(t) for t in args.q.split(",")]
        if args.residues is not None:
            overrides["residues"] = (
                "all" if args.residues == "all" else {"sample": int(args.residues)}
            )
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"bad sweep flag value: {exc}") from None
    if args.q:
        overrides.setdefault("q_lo_exp", None)
        overrides.setdefault("q_hi_exp", None)
    if args.q_lo_exp is not None or args.q_hi_exp is not None:
        overrides["q_lo_exp"] = args.q_lo_exp
        overrides["q_hi_exp"] = args.q_hi_exp
        overrides.setdefault("q_list", None)
    for name in ("eta", "delta", "eps", "seed", "jobs", "format", "out"):
        v = getattr(args, name)
        if v is not None:
            overrides[name] = v
    base.update(overrides)
    config = SweepConfig(**base)
    if config.out:  # an unwritable path fails before the sweep, not after it
        out = Path(config.out)
        if out.is_dir() or not out.parent.is_dir():
            raise DomainError(f"cannot write {config.out}: not a file in an existing directory")

    rows, summary = run_sweep(config)
    text = render_report(config, rows, summary)
    if config.out:
        try:
            Path(config.out).write_text(text)
        except OSError as exc:
            raise DomainError(f"cannot write {config.out}: {exc.strerror or exc}") from None
        print(f"wrote {config.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    fit = summary["scaled_E_fit"]
    fit_txt = f"slope={fit['slope']:.4f}" if fit else "n/a"
    print(
        f"summary: rows={summary['rows']} errors={summary['errors']} "
        f"infeasible={summary['infeasible_splits']} "
        f"max_ratio={summary['max_ratio']} sum_E={summary['sum_E_exact']} "
        f"scaled_E fit: {fit_txt}"
    )
    return EXIT_OK


def cmd_lemma_suite(args: argparse.Namespace) -> int:
    ok, lines = _run_checks(args.suite)
    for line in lines:
        print(line)
    print(f"{'PASS' if ok else 'FAIL'} {args.suite} (full)")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify_report(args: argparse.Namespace) -> int:
    ok, lines = verify_report(args.path, seed=args.seed or 0,
                              fraction=args.fraction)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_FAIL


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        # a usage error raises, so main reports it on one line like any other
        def error(self, message: str):
            raise UsageError(f"{message} (see {self.prog} --help)")

    parser = Parser(
        prog="kloosterlab",
        description="Numeric laboratory for divisor sums in progressions "
                    "and short Kloosterman sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kloosterman", help="evaluate a complete or interval Kloosterman sum")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("q", type=int)
    p.add_argument("interval", nargs="*", type=int, metavar="M N",
                   help="optional interval offset and length")
    p.set_defaults(func=cmd_kloosterman)

    p = sub.add_parser("divisor", help="divisor sum over a progression")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("error-term", help="exact E(x, q, a)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=cmd_error_term)

    p = sub.add_parser("targets", help="target part sizes, windows, admissibility")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eta", type=float)
    p.add_argument("--varpi", type=float)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("factorize", help="prime factorization and window split")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--eta", type=float)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("bound", help="evaluate a theorem bound expression")
    p.add_argument("which", choices=("divisor", "short-kloosterman"))
    p.add_argument("--x", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--split", type=str, help="comma-separated parts q0,q1,...")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--eta", type=float)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="grid sweep over (x, q, a) cells")
    p.add_argument("--config", type=str, help="JSON config file (flags override)")
    p.add_argument("--x", type=str, help="comma-separated x values")
    p.add_argument("--q", type=str, help="comma-separated explicit moduli")
    p.add_argument("--q-lo-exp", type=float)
    p.add_argument("--q-hi-exp", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out", type=str)
    p.add_argument("--residues", type=str, help='"all" or a sample size')
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lemma-suite", help="run an exhaustive identity/bound grid")
    p.add_argument("suite", choices=sorted(SUITE_CHECKS))
    p.set_defaults(func=cmd_lemma_suite)

    p = sub.add_parser("verify-report", help="recompute a sample of report rows")
    p.add_argument("path", type=str)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fraction", type=float, default=0.01)
    p.set_defaults(func=cmd_verify_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except KloosterlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).  Point stdout at
        # devnull so that the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
