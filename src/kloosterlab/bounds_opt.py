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
        total_eps0 = math.fsum(v for _, v in terms_at(0.0))
    except OverflowError:
        raise DomainError(f"the bound terms at eps = {eps!r} pass the float range") from None
    return BoundReport(tuple(terms), math.fsum(v for _, v in terms), total_eps0)


def shortkloost_rhs(N: int, split: ModulusSplit, eps: float = 0.0) -> BoundReport:
    """Bound terms for the incomplete-sum estimate with an l-step split.

    Terms: the l differencing terms N^{2^-j} q^{1/2 - 2^-j} q_{l-j+1}^{2^-j},
    the balance term N^{2^-l} q^{1/2 - 2^-l} q0^{2^-(l+1)}, and the
    completion term q^{1/2} q0^{-2^-(l+1)}; everything times q^eps.
    """
    if split.l < 1:
        raise DomainError("split must have l >= 1 (at least two parts)")
    q = split.modulus
    if N > q:
        raise DomainError(f"N = {N} exceeds q = {q}")
    if N < 0:
        raise DomainError("N must be >= 0")
    parts = split.parts
    l = split.l

    def terms_at(e: float) -> list[tuple[str, float]]:
        qe = q**e
        out = []
        for j in range(1, l + 1):
            tw = 2.0**-j
            out.append(
                (f"diff_j{j}", qe * N**tw * q ** (0.5 - tw) * parts[l - j + 1] ** tw)
            )
        tl = 2.0**-l
        out.append(("balance", qe * N**tl * q ** (0.5 - tl) * parts[0] ** (tl / 2)))
        out.append(("completion", qe * q**0.5 * parts[0] ** (-tl / 2)))
        return out

    return _report(terms_at, eps)


def divisorthm_rhs(
    x: int,
    split: ModulusSplit,
    delta: float,
    eps: float = 0.0,
) -> BoundReport:
    """Bound terms for the divisor error estimate with a four-part split.

    The leading term q^-1 x^{1-delta+eps} plus x^{2 delta + eps} times
    the three differencing terms, the balance term x^{1/16} q^{3/8}
    q0^{1/16}, and the completion term q^{1/2} q0^{-1/16}.
    """
    if len(split.parts) != 4:
        raise DomainError("split must have exactly four parts")
    if not 0 < delta < 1 / 12:
        raise DomainError(f"delta = {delta} outside (0, 1/12)")
    q = split.modulus
    if x < q:
        raise DomainError(f"x = {x} smaller than q = {q}")
    q0, q1, q2, q3 = split.parts
    part_for_j = {1: q3, 2: q2, 3: q1}

    def terms_at(e: float) -> list[tuple[str, float]]:
        out = [("leading", q**-1.0 * x ** (1 - delta + e))]
        mult = x ** (2 * delta + e)
        for j in range(1, 4):
            tw = 2.0**-j
            out.append(
                (f"diff_j{j}", mult * x ** (tw / 2) * q ** (0.5 - tw) * part_for_j[j] ** tw)
            )
        out.append(("balance", mult * x ** (1 / 16) * q ** (3 / 8) * q0 ** (1 / 16)))
        out.append(("completion", mult * q**0.5 * q0 ** (-1 / 16)))
        return out

    return _report(terms_at, eps)


def target_sizes(x: int, q: int) -> tuple[float, float, float, float]:
    """The four target part sizes; their product is q."""
    if x < 1 or q < 1:
        raise DomainError("x and q must be >= 1")
    try:
        x, q = float(x), float(q)
    except OverflowError:
        raise DomainError("x and q must be below 2^1024 to take float powers") from None
    return (
        q ** (-2 / 15) * x ** (1 / 3),
        q ** (-1 / 15) * x ** (1 / 6),
        q ** (7 / 15) * x ** (-1 / 6),
        q ** (11 / 15) * x ** (-1 / 3),
    )


def admissible(varpi: float, eta: float) -> bool:
    """True iff 246*varpi + 18*eta < 1, strictly; varpi and eta must be finite."""
    for name, v in (("varpi", varpi), ("eta", eta)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
    return 246.0 * varpi + 18.0 * eta < 1.0


def target_windows(x: int, q: int, eta: float) -> WindowSpec:
    """Per-part windows around the target sizes for an x^eta-smooth modulus.

    Window widths are x^eta for parts 1..3 and x^{3 eta} for part 0, so
    any x^eta-smooth squarefree q admits a greedy factorization into them.
    """
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta!r}")
    if eta <= 0:
        raise DomainError(f"eta = {eta} must be > 0")
    q0, q1, q2, q3 = target_sizes(x, q)
    try:
        return WindowSpec(
            (
                (q0 * x ** (-7 * eta / 5), q0 * x ** (8 * eta / 5)),
                (q1 * x ** (-eta / 5), q1 * x ** (4 * eta / 5)),
                (q2 * x ** (-3 * eta / 5), q2 * x ** (2 * eta / 5)),
                (q3 * x ** (-4 * eta / 5), q3 * x ** (eta / 5)),
            )
        )
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
