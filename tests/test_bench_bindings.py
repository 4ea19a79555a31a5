"""The kloosterlab names that the benchmark in perfbench/ binds still exist.

perfbench/spans.py wraps functions by (module, name) and reads the cache
statistics of the lru-cached tables; perfbench/worker.py reads
SIEVE_X_CAP, and perfbench/pin.py asks for the tau-sieve route by
keyword.  A renamed binding would otherwise show only when the benchmark
runs.  spans.py is loaded by file path, so perfbench/ is not put on
sys.path.  The two suites' brute-force modules have distinct names
(tests/brute.py, perfbench/oracles.py), so one pytest session collects
both suites.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import kloosterlab
from kloosterlab import divisor_ap
from kloosterlab.divisor_ap import ApQuery, divisor_main_term, divisor_sum_ap

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"kloosterlab.{module}"), name)


def test_traced_names_resolve():
    for module, name in _spans().TRACED:
        assert callable(_resolve(module, name)), (module, name)


def test_every_module_binding_a_traced_name_is_wrapped():
    # spans.py wraps only in MODULES; a module outside it that binds a
    # traced function would call it unwrapped, and its metrics would read 0
    spans = _spans()
    names = [m.name for m in pkgutil.iter_modules(kloosterlab.__path__)]
    modules = {n: importlib.import_module(f"kloosterlab.{n}")
               for n in names if n != "__main__"}  # __main__ runs the CLI
    for module, name in spans.TRACED:
        fn = _resolve(module, name)
        binders = {n for n, mod in modules.items() if getattr(mod, name, None) is fn}
        assert binders <= set(spans.MODULES), (module, name, binders - set(spans.MODULES))


def test_cached_tables_keep_cache_info():
    for dotted in _spans().CACHED:
        fn = _resolve(*dotted.split("."))
        assert callable(fn.cache_info), dotted


def test_sieve_route_stays_addressable():
    assert isinstance(divisor_ap.SIEVE_X_CAP, int)
    query = ApQuery(10, 3, 1)
    assert divisor_sum_ap(query, method="sieve") == divisor_sum_ap(query) == 10
    assert divisor_main_term(10, 3, method="sieve") == divisor_main_term(10, 3)
