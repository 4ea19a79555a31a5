"""The oracle of verify-report stays independent of the code it checks.

Its values are tested against the sieve and the progression count in
test_divisor_ap.py; here, that its imports keep it apart from them and
that its caps cover every row a sweep can write.
"""

import ast
import sys

from kloosterlab import arith, divisor_ap, oracle


def test_imports_only_the_standard_library_and_errors():
    tree = ast.parse(open(oracle.__file__).read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append((node.level, node.module))
    assert imported
    for level, name in imported:
        if level == 0:
            assert name.split(".")[0] in sys.stdlib_module_names, name
        else:
            assert (level, name) == (1, "errors"), (level, name)


def test_caps_cover_every_sweep_row():
    # a sweep rejects x above the count's and hyperbola's cap, and its cells list their
    # units by arith.unit_mask, which stops at INVERSE_TABLE_CAP
    assert oracle.X_CAP >= divisor_ap.HYPERBOLA_X_CAP
    assert oracle.Q_CAP >= arith.INVERSE_TABLE_CAP
