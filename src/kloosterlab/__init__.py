"""kloosterlab: a numeric laboratory for the divisor function in
arithmetic progressions and for short Kloosterman sums.

Exact desk-scale evaluation of divisor sums D(x, q, a), their main term
and error, complete/incomplete Kloosterman sums, the completion and
differencing machinery for short sums, theorem-bound expressions, and
window factorizations of smooth squarefree moduli.

The package root imports none of its submodules; import the one you
need (``kloosterlab.cli``, ``kloosterlab.divisor_ap``, ...).
"""

__version__ = "0.1.0"
