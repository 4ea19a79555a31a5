"""The kloosterlab names that the benchmark in perfbench/ binds still exist.

perfbench/spans.py wraps functions by (module, name) and reads the cache
statistics of the lru-cached tables; perfbench/worker.py reads
SIEVE_X_CAP, and perfbench/pin.py asks for the tau-sieve route by
keyword; perfbench/inputs.py names the lemma suites that the worker
runs through cli.run_<name>_suite.  A renamed binding would otherwise
show only when the benchmark runs.  spans.py and inputs.py are loaded by
file path, so perfbench/ is not put on sys.path.  The two suites'
brute-force modules have distinct names (tests/brute.py,
perfbench/oracles.py), so one pytest session collects both suites.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import kloosterlab
from kloosterlab import cli, divisor_ap
from kloosterlab.divisor_ap import ApQuery, divisor_main_term, divisor_sum_ap
from kloosterlab.errors import DomainError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"kloosterlab.{module}"), name)


def test_traced_names_resolve():
    for module, name in _load("spans").TRACED:
        assert callable(_resolve(module, name)), (module, name)


def test_every_module_binding_a_traced_name_is_wrapped():
    # spans.py wraps only in MODULES; a module outside it that binds a
    # traced function would call it unwrapped, and its metrics would read 0
    spans = _load("spans")
    names = [m.name for m in pkgutil.iter_modules(kloosterlab.__path__)]
    modules = {n: importlib.import_module(f"kloosterlab.{n}")
               for n in names if n != "__main__"}  # __main__ runs the CLI
    for module, name in spans.TRACED:
        fn = _resolve(module, name)
        binders = {n for n, mod in modules.items() if getattr(mod, name, None) is fn}
        assert binders <= set(spans.MODULES), (module, name, binders - set(spans.MODULES))


def test_cached_tables_keep_cache_info():
    for dotted in _load("spans").CACHED:
        fn = _resolve(*dotted.split("."))
        assert callable(fn.cache_info), dotted


def test_sieve_route_stays_addressable():
    assert isinstance(divisor_ap.SIEVE_X_CAP, int)
    query = ApQuery(10, 3, 1)
    assert divisor_sum_ap(query, method="sieve") == divisor_sum_ap(query) == 10
    assert divisor_main_term(10, 3, method="sieve") == divisor_main_term(10, 3)


def test_suite_functions_run_the_cli_suites(monkeypatch):
    # the benchmark calls run_<name>_suite; the CLI runs SUITE_CHECKS[name]
    names = _load("inputs").SUITE_NAMES
    assert sorted(cli.SUITE_CHECKS) == sorted(names)
    calls = []
    monkeypatch.setattr(cli, "_run_checks", lambda *args: calls.append(args) or (True, []))
    for name in names:
        calls.clear()
        getattr(cli, f"run_{name.replace('-', '_')}_suite")("full")
        assert calls == [(name, "full")]


def test_a_suite_rejects_any_size_but_full_before_any_check(monkeypatch):
    # each check runs its one grid; "full" names it for the benchmark's calls
    ran = []
    monkeypatch.setitem(cli.SUITE_CHECKS, "weil", (lambda: ran.append(1),))
    with pytest.raises(DomainError, match="'small'"):
        cli.run_weil_suite("small")
    assert ran == []
