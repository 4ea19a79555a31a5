"""Theorem-bound evaluation, admissibility, target sizes, window factorization.

The two bound expressions evaluated here are power sums in (x or N, q,
and the parts of a modulus factorization); they are computed exactly as
written, with the unspecified q^epsilon factor made visible by always
reporting the epsilon = 0 total alongside the user-supplied epsilon.

The window factorizer assigns the primes of a squarefree modulus to
four parts so that each part lands inside a prescribed closed interval,
minimizing the sum of log-distances to the window centers (ties broken
by the lexicographically smallest part tuple).  The search is a
depth-first branch and bound over part assignments whose cuts remove
only branches that are infeasible or provably worse than a leaf already
found, so the returned assignment is the exact optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .arith import FactoredInteger, ModulusSplit
from .errors import DomainError, NotSquarefree


@dataclass(frozen=True)
class WindowSpec:
    """Closed intervals [lo_j, hi_j], j = 0..3, one per factorization part."""

    intervals: tuple[tuple[float, float], tuple[float, float], tuple[float, float], tuple[float, float]]

    def __post_init__(self) -> None:
        if len(self.intervals) != 4:
            raise DomainError("exactly four windows required")
        for lo, hi in self.intervals:
            if not (0 < lo <= hi):
                raise DomainError(f"bad window [{lo}, {hi}]")

    @property
    def center_logs(self) -> tuple[float, float, float, float]:
        return tuple(0.5 * (math.log(lo) + math.log(hi)) for lo, hi in self.intervals)


@dataclass(frozen=True)
class BoundReport:
    """Named bound terms and their total.

    bound_terms already carry every multiplier, so bound_total is their
    plain sum; bound_total_eps0 re-evaluates the same expression with
    epsilon = 0 so the q^epsilon factor's influence stays visible.
    """

    bound_terms: tuple[tuple[str, float], ...]
    bound_total: float
    bound_total_eps0: float


def _report(terms_at: Callable[[float], list[tuple[str, float]]], eps: float) -> BoundReport:
    """The report of the terms terms_at(eps), with their total at eps = 0 beside it."""
    try:
        if not math.isfinite(eps):
            raise DomainError(f"eps must be finite, got {eps!r}")
        terms = terms_at(eps)
        total, total_eps0 = (math.fsum(v for _, v in t) for t in (terms, terms_at(0.0)))
    except OverflowError:
        raise DomainError(f"the bound terms at eps = {eps!r} pass the float range") from None
    return BoundReport(tuple(terms), total, total_eps0)


def _step_terms(mult: float, n_pow: Callable[[float], float],
                split: ModulusSplit) -> list[tuple[str, float]]:
    """The l-step terms of split = (q0, ..., ql), each times mult, with
    n_pow(t) standing for N^t: the differencing terms
    n_pow(2^-j) q^{1/2 - 2^-j} q_{l-j+1}^{2^-j}, j = 1..l, the balance term
    n_pow(2^-l) q^{1/2 - 2^-l} q0^{2^-(l+1)} and the completion term
    q^{1/2} q0^{-2^-(l+1)}."""
    q, parts, l = split.modulus, split.parts, split.l
    out = []
    for j in range(1, l + 1):
        tw = 2.0**-j
        out.append((f"diff_j{j}", mult * n_pow(tw) * q ** (0.5 - tw) * parts[l - j + 1] ** tw))
    tl = 2.0**-l
    out.append(("balance", mult * n_pow(tl) * q ** (0.5 - tl) * parts[0] ** (tl / 2)))
    out.append(("completion", mult * q**0.5 * parts[0] ** (-tl / 2)))
    return out


def shortkloost_rhs(N: int, split: ModulusSplit, eps: float = 0.0) -> BoundReport:
    """Bound terms for the incomplete-sum estimate with an l-step split:
    the _step_terms of the split at length N, each times q^eps."""
    if split.l < 1:
        raise DomainError("split must have l >= 1 (at least two parts)")
    q = split.modulus
    if N > q:
        raise DomainError(f"N = {N} exceeds q = {q}")
    if N < 0:
        raise DomainError("N must be >= 0")
    return _report(lambda e: _step_terms(q**e, lambda t: N**t, split), eps)


def divisorthm_rhs(x: int, split: ModulusSplit, delta: float, eps: float = 0.0) -> BoundReport:
    """Bound terms for the divisor error estimate with a four-part split:
    the leading term q^-1 x^{1-delta+eps}, then x^{2 delta + eps} q^-eps
    times each term of shortkloost_rhs(x^{1/2}, split, eps)."""
    if len(split.parts) != 4:
        raise DomainError("split must have exactly four parts")
    if not 0 < delta < 1 / 12:
        raise DomainError(f"delta = {delta} outside (0, 1/12)")
    q = split.modulus
    if x < q:
        raise DomainError(f"x = {x} smaller than q = {q}")
    return _report(
        lambda e: [("leading", q**-1.0 * x ** (1 - delta + e))]
        + _step_terms(x ** (2 * delta + e), lambda t: x ** (t / 2), split),
        eps,
    )


# Part j's target size is q^a x^b, for the exact exponents ((a, b), _) of
# row j, and its window is [x^{lo eta/5}, x^{hi eta/5}] times that size,
# for (_, (lo, hi)) in fifths of eta.  The windows' top corners, and part
# 0's bottom one, are where the bound's terms are largest.
PART_TARGETS = (
    ((Fraction(-2, 15), Fraction(1, 3)), (-7, 8)),
    ((Fraction(-1, 15), Fraction(1, 6)), (-1, 4)),
    ((Fraction(7, 15), Fraction(-1, 6)), (-3, 2)),
    ((Fraction(11, 15), Fraction(-1, 3)), (-4, 1)),
)
_SIZE_EXPONENTS = tuple((float(a), float(b)) for (a, b), _ in PART_TARGETS)


def target_sizes(x: int, q: int) -> tuple[float, float, float, float]:
    """The four target part sizes q^a x^b of PART_TARGETS; their product is q."""
    if x < 1 or q < 1:
        raise DomainError("x and q must be >= 1")
    try:
        x, q = float(x), float(q)
    except OverflowError:
        raise DomainError("x and q must be below 2^1024 to take float powers") from None
    return tuple(q**a * x**b for a, b in _SIZE_EXPONENTS)


def admissible(varpi: float, eta: float) -> bool:
    """True iff 246*varpi + 18*eta < 1, strictly; varpi and eta must be finite."""
    for name, v in (("varpi", varpi), ("eta", eta)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
    return 246.0 * varpi + 18.0 * eta < 1.0


def target_windows(x: int, q: int, eta: float) -> WindowSpec:
    """Per-part windows around the target sizes for an x^eta-smooth modulus.

    Part j's window is [x^{lo eta/5}, x^{hi eta/5}] times its target
    size, for (lo, hi) from PART_TARGETS: widths x^{3 eta} for part 0 and
    x^eta for parts 1..3, so any x^eta-smooth squarefree q admits a
    greedy factorization into them.
    """
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")
    if eta <= 0:
        raise DomainError(f"eta = {eta} must be > 0")
    sizes = target_sizes(x, q)
    try:
        return WindowSpec(tuple(
            (size * x ** (lo * eta / 5), size * x ** (hi * eta / 5))
            for size, (_, (lo, hi)) in zip(sizes, PART_TARGETS)
        ))
    except OverflowError:
        raise DomainError(f"eta = {eta} puts a window past the float range") from None


def window_objective(parts: Sequence[int], windows: WindowSpec) -> float:
    """Sum over parts of |log(part / window-center)|; fsum keeps it
    independent of term order."""
    centers = windows.center_logs
    return math.fsum(abs(math.log(parts[j]) - centers[j]) for j in range(4))


# A branch is cut only when its lower bound exceeds the best leaf by more
# than this: far above the rounding of the float logs, so a cut branch
# holds no leaf that ties the best one.
_BOUND_MARGIN = 1e-9


def factorize_to_windows(
    q: FactoredInteger, windows: WindowSpec
) -> Optional[ModulusSplit]:
    """Assign q's primes to four parts, each landing in its window.

    Returns the feasible assignment minimizing window_objective, ties
    broken by lexicographically smallest (q0, q1, q2, q3); None when no
    assignment fits.  Depth-first branch and bound over the primes in
    descending order.  A branch ends when a partial product exceeds its
    window's top, when a part cannot reach its window's bottom even with
    every unassigned prime, or when a lower bound on its objective
    exceeds the best leaf so far by more than _BOUND_MARGIN.

    The bound: the final log L_j of part j lies in the range [a_j, b_j]
    that it can still reach (within its window, from its product now to
    that times every unassigned prime).  With x_j the point of that range
    nearest the centre c_j, |L_j - c_j| = |x_j - c_j| + |L_j - x_j|, and
    since the L_j sum to log q, the objective is at least
    sum_j |x_j - c_j| + |log q - sum_j x_j|.  Each prime goes first to
    the part furthest below its centre, so good leaves come early.
    """
    if not q.squarefree:
        raise NotSquarefree(f"{q.value} is not squarefree")
    primes = sorted(q.primes, reverse=True)
    los = [w[0] for w in windows.intervals]
    his = [w[1] for w in windows.intervals]
    log_los = [math.log(lo) for lo in los]
    log_his = [math.log(hi) for hi in his]
    centers = windows.center_logs
    log_q = math.log(q.value)
    n = len(primes)
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * primes[i]

    best: Optional[tuple[float, tuple[int, int, int, int]]] = None

    def rec(i: int, parts: tuple[int, int, int, int]) -> None:
        nonlocal best
        rem = suffix[i]
        for j in range(4):
            if parts[j] * rem < los[j]:
                return
        if i == n:
            if all(los[j] <= parts[j] <= his[j] for j in range(4)):
                cand = (window_objective(parts, windows), parts)
                if best is None or cand < best:
                    best = cand
            return
        logs = [math.log(d) for d in parts]
        if best is not None:
            log_rem = math.log(rem)
            spread = nearest = 0.0
            for j in range(4):
                x = min(max(centers[j], logs[j], log_los[j]), logs[j] + log_rem, log_his[j])
                spread += abs(x - centers[j])
                nearest += x
            if spread + abs(log_q - nearest) > best[0] + _BOUND_MARGIN:
                return
        p = primes[i]
        for j in sorted(range(4), key=lambda j: logs[j] - centers[j]):
            d = parts[j] * p
            if d > his[j]:
                continue
            rec(i + 1, parts[:j] + (d,) + parts[j + 1 :])

    rec(0, (1, 1, 1, 1))
    if best is None:
        return None
    return ModulusSplit(best[1])


class ExponentFit(NamedTuple):
    slope: float
    intercept: float
    residual: float


def exponent_fit(points: Sequence[tuple[float, float]]) -> ExponentFit:
    """Least-squares fit of log(value) = slope * log(scale) + intercept.

    residual is the RMS of the log-space residuals.
    """
    if len(points) < 2:
        raise DomainError("need at least two points")
    if any(s <= 0 or v <= 0 for s, v in points):
        raise DomainError("scales and values must be positive")
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(v) for _, v in points]
    if max(xs) == min(xs):
        raise DomainError("scales must not all coincide")
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((u - mx) ** 2 for u in xs)
    sxy = math.fsum((u - mx) * (w - my) for u, w in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residual = math.sqrt(
        math.fsum((w - slope * u - intercept) ** 2 for u, w in zip(xs, ys)) / n
    )
    return ExponentFit(slope, intercept, residual)
