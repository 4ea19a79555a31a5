"""In-memory spans around kloosterlab's public functions.

A traced run replaces each traced function by a wrapper in every
kloosterlab module that binds the function's name, because callers look
names up in their own module (`cli` imports `divisor_main_term` by name,
`kloosterman` imports `inverse_table` by name).  A wrapper records one
span (name, start, end, parent) per call in flat arrays; nothing is
aggregated or written until the run ends.

Self time ("busy") of a span is its duration minus the durations of its
direct child spans.  Counters that are not times (cache hits, bytes of
tables built, infeasible splits) are recorded by the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

MODULES = ("arith", "divisor_ap", "kloosterman", "vdc_lab", "bounds_opt", "cli")

# (defining module, function) pairs wrapped in a traced run.  Some have no
# per-layer metric of their own (target_sizes, target_windows,
# divisorthm_rhs): they are traced so that their time is not counted as
# self time of the caller, e.g. cli.run_sweep.
TRACED = (
    ("arith", "factorize"),
    ("arith", "smooth_squarefree_moduli"),
    ("arith", "inverse_table"),
    ("divisor_ap", "tau_table"),
    ("divisor_ap", "coprime_tau_sum"),
    ("divisor_ap", "divisor_main_term"),
    ("divisor_ap", "divisor_sum_ap"),
    ("divisor_ap", "divisor_sum_ap_all"),
    ("divisor_ap", "error_term"),
    ("bounds_opt", "target_sizes"),
    ("bounds_opt", "target_windows"),
    ("bounds_opt", "factorize_to_windows"),
    ("bounds_opt", "divisorthm_rhs"),
    ("kloosterman", "kloosterman_table"),
    ("kloosterman", "incomplete_kloosterman"),
    ("vdc_lab", "completion_check"),
    ("vdc_lab", "partial_sum_max"),
    ("vdc_lab", "shifted_product_complete_sum"),
    ("vdc_lab", "shifted_product_sum_squarefree"),
    ("vdc_lab", "onediff_ratio"),
    ("vdc_lab", "vanishing_lemma_check"),
    ("cli", "run_sweep"),
    ("cli", "render_report"),
    ("cli", "verify_report"),
    ("cli", "run_weil_suite"),
    ("cli", "run_completion_suite"),
    ("cli", "run_vanishing_suite"),
    ("cli", "run_product_sums_suite"),
    ("cli", "run_onediff_suite"),
)

# lru-cached tables: hit ratio from cache_info(), bytes of cold builds
CACHED = ("arith.inverse_table", "divisor_ap.tau_table")
CHECK_MODULES = ("kloosterman", "vdc_lab")
SUITE_FUNCS = ("weil", "completion", "vanishing", "product_sums", "onediff")

# The per-layer metrics of a traced run, in output order, with units.
PER_LAYER: list[tuple[str, str]] = [
    ("divisor_ap.tau_table.calls", "count"),
    ("divisor_ap.tau_table.busy_s", "s"),
    ("divisor_ap.tau_table.bytes", "B_computed"),
    ("divisor_ap.tau_table.hit_ratio", "ratio"),
    ("divisor_ap.divisor_main_term.busy_s", "s"),
    ("divisor_ap.divisor_sum_ap_all.busy_s", "s"),
    ("divisor_ap.divisor_sum_ap.calls", "count"),
    ("divisor_ap.divisor_sum_ap.busy_s", "s"),
    ("divisor_ap.error_term.busy_s", "s"),
    ("divisor_ap.coprime_tau_sum.busy_s", "s"),
    ("arith.smooth_squarefree_moduli.busy_s", "s"),
    ("arith.smooth_squarefree_moduli.count", "count"),
    ("arith.factorize.busy_s", "s"),
    ("bounds_opt.factorize_to_windows.calls", "count"),
    ("bounds_opt.factorize_to_windows.busy_s", "s"),
    ("bounds_opt.factorize_to_windows.infeasible", "count"),
    ("arith.inverse_table.calls", "count"),
    ("arith.inverse_table.busy_s", "s"),
    ("arith.inverse_table.bytes", "B_computed"),
    ("arith.inverse_table.hit_ratio", "ratio"),
    ("kloosterman.kloosterman_table.calls", "count"),
    ("kloosterman.kloosterman_table.busy_s", "s"),
    ("kloosterman.incomplete_kloosterman.calls", "count"),
    ("kloosterman.incomplete_kloosterman.busy_s", "s"),
    ("kloosterman.useful_ratio", "ratio"),
]
PER_LAYER += [
    (f"vdc_lab.{fn}.{stat}", unit)
    for fn in ("completion_check", "partial_sum_max", "shifted_product_complete_sum",
               "shifted_product_sum_squarefree", "onediff_ratio", "vanishing_lemma_check")
    for stat, unit in (("calls", "count"), ("busy_s", "s"))
]
PER_LAYER += [
    ("cli.run_sweep.busy_s", "s"),
    ("cli.render_report.busy_s", "s"),
    ("cli.verify_report.busy_s", "s"),
]
PER_LAYER += [
    (f"cli.run_{suite}_suite.{stat}", unit)
    for suite in SUITE_FUNCS
    for stat, unit in (("busy_s", "s"), ("checks", "count"))
]
PER_LAYER += [
    ("trace.top_level_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


class SpanRecorder:
    """Flat in-memory span store plus per-name counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._cache_start: dict[str, tuple] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        observe = self._observer(name, fn)
        cached = name in CACHED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            before = fn.cache_info().misses if cached else 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, kwargs, result, before)
            return result

        return traced

    def _observer(self, name: str, fn):
        if name in CACHED:
            def cached(args, kwargs, result, misses_before):
                if fn.cache_info().misses > misses_before:
                    self._count(f"{name}.bytes", result.nbytes)
                    if name == "arith.inverse_table":
                        self._count("kloosterman.table_length", len(result))
            return cached
        if name == "arith.smooth_squarefree_moduli":
            return lambda args, kwargs, result, _: self._count(f"{name}.count", len(result))
        if name == "bounds_opt.factorize_to_windows":
            return lambda args, kwargs, result, _: self._count(
                f"{name}.infeasible", result is None)
        if name == "kloosterman.incomplete_kloosterman":
            def interval(args, kwargs, result, _):
                self._count("kloosterman.useful_length", len(args[2]))
            return interval
        if name == "kloosterman.kloosterman_table":
            # every call returns a freshly permuted length-q array
            return lambda args, kwargs, result, _: self._count(
                "kloosterman.table_length", len(result))
        return None

    def install(self) -> None:
        """Wrap every TRACED function wherever a kloosterlab module binds it."""
        mods = [importlib.import_module(f"kloosterlab.{m}") for m in MODULES]
        mods.append(importlib.import_module("kloosterlab"))
        for mod_name, fn_name in TRACED:
            orig = getattr(importlib.import_module(f"kloosterlab.{mod_name}"), fn_name)
            name = f"{mod_name}.{fn_name}"
            if name in CACHED:
                self._cache_start[name] = (orig, orig.cache_info())
            wrapper = self.wrap(name, orig)
            for mod in mods:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-name calls and self time, cache figures, derived ratios."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        n_names = len(self.names)
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        busy = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        # a suite's checks are its direct calls into the two lemma layers
        is_check = np.array([n.split(".")[0] in CHECK_MODULES for n in self.names] or [False])
        counted = has_parent & is_check[a["name_id"]]
        kids = np.bincount(a["parent"][counted], minlength=len(dur))
        checks = np.bincount(a["name_id"], weights=kids, minlength=n_names)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.busy_s"] = float(busy[i])
            out[f"{name}.checks"] = int(checks[i])
        for key, value in self.counters.items():
            out[key] = value
        for name, (orig, info0) in self._cache_start.items():
            info = orig.cache_info()
            hits, misses = info.hits - info0.hits, info.misses - info0.misses
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        built = out.get("kloosterman.table_length", 0)
        useful = out.get("kloosterman.useful_length", 0)
        out["kloosterman.useful_ratio"] = useful / built if built else 0.0
        top = float(dur[~has_parent].sum())
        out["trace.top_level_share"] = top / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = len(dur)
        return out


def per_layer_metrics(summary: dict[str, float], overhead_s: float) -> dict:
    """The PER_LAYER metrics from a span summary; absent layers read 0."""
    values = dict(summary, **{"trace.overhead_s": overhead_s})
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
