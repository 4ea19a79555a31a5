"""kloosterlab: a numeric laboratory for the divisor function in
arithmetic progressions and for short Kloosterman sums.

Exact desk-scale evaluation of divisor sums D(x, q, a), their main term
and error, complete/incomplete Kloosterman sums, the completion and
differencing machinery for short sums, theorem-bound expressions, and
window factorizations of smooth squarefree moduli.
"""

__version__ = "0.1.0"

from .arith import (
    FactoredInteger,
    ModulusSplit,
    SmoothnessSpec,
    factorize,
    multiplicative_profile,
    smooth_squarefree_moduli,
)
from .bounds_opt import (
    BoundReport,
    WindowSpec,
    admissible,
    divisorthm_rhs,
    exponent_fit,
    factorize_to_windows,
    shortkloost_rhs,
    target_sizes,
    target_windows,
)
from .divisor_ap import (
    ApQuery,
    divisor_main_term,
    divisor_sum_ap,
    error_term,
)
from .errors import (
    DomainError,
    KloosterlabError,
    NotCoprime,
    NotSquarefree,
)
from .kloosterman import (
    IntegerInterval,
    SumValue,
    complete_kloosterman,
    incomplete_kloosterman,
)
from .vdc_lab import (
    completion_check,
    completion_deviations,
    onediff_ratio,
    partial_sum_max,
    shifted_product_complete_sum,
    shifted_product_sum_squarefree,
    vanishing_lemma_check,
)

__all__ = [
    "ApQuery",
    "BoundReport",
    "DomainError",
    "FactoredInteger",
    "IntegerInterval",
    "KloosterlabError",
    "ModulusSplit",
    "NotCoprime",
    "NotSquarefree",
    "SmoothnessSpec",
    "SumValue",
    "WindowSpec",
    "admissible",
    "complete_kloosterman",
    "completion_check",
    "completion_deviations",
    "divisor_main_term",
    "divisor_sum_ap",
    "divisorthm_rhs",
    "error_term",
    "exponent_fit",
    "factorize",
    "factorize_to_windows",
    "incomplete_kloosterman",
    "multiplicative_profile",
    "onediff_ratio",
    "partial_sum_max",
    "shifted_product_complete_sum",
    "shifted_product_sum_squarefree",
    "shortkloost_rhs",
    "smooth_squarefree_moduli",
    "target_sizes",
    "target_windows",
    "vanishing_lemma_check",
]
