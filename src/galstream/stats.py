"""Omnibus significance tests with tail probabilities computed from scratch.

The regularized incomplete gamma/beta functions follow the classic
series/continued-fraction split (Numerical Recipes style) and are accurate
to ~1e-13, comfortably inside the 1e-10 target the test suite checks
against quadrature.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .exceptions import ConvergenceError

_EPS = 1e-15
_FPMIN = 1e-300
_ITMAX = 600


class TestResult(NamedTuple):
    statistic: float
    pvalue: float


def tie_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable ascending order of ``values``, and the first and last sorted
    position of each run of equal values."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.ones(ordered.size + 1, dtype=bool)  # each run's first position, then the end
    starts[1:-1] = ordered[1:] != ordered[:-1]
    bounds = np.flatnonzero(starts)
    return order, bounds[:-1], bounds[1:] - 1


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n along the last axis, tied values sharing their average rank.

    Every row of a matrix is ranked on its own, in one pass over all rows.
    """
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, axis=-1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=-1)
    # each sorted position's run of equal values: its first and last position
    start, end = np.ones(x.shape, dtype=bool), np.ones(x.shape, dtype=bool)
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=start[..., 1:])
    end[..., :-1] = start[..., 1:]
    position = np.arange(x.shape[-1])
    first = np.maximum.accumulate(np.where(start, position, 0), axis=-1)
    last = np.where(end, position, x.shape[-1])[..., ::-1]
    last = np.minimum.accumulate(last, axis=-1)[..., ::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=-1)
    return ranks


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError("incomplete gamma series did not converge")


def _gamma_q_contfrac(a: float, x: float) -> float:
    # modified Lentz evaluation of the continued fraction for Q(a, x)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def regularized_incomplete_gamma(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x)."""
    if a <= 0:
        raise ValueError("shape parameter a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def _beta_contfrac(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def chi2_survival(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution."""
    if df < 1:
        raise ValueError("df must be at least 1")
    if x < 0:
        return 1.0
    return 1.0 - regularized_incomplete_gamma(df / 2.0, x / 2.0)


def f_survival(f: float, df1: int, df2: int) -> float:
    """Upper tail of the F distribution."""
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if f <= 0:
        return 1.0
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def _as_groups(groups) -> tuple[np.ndarray, np.ndarray]:
    """The observations of ``groups``, a mapping of names to groups or a sequence of
    groups named by position, pooled in group order, and each group's size. A
    group's observations are all its values, in C order.

    Finiteness is checked once over the pooled observations; a failure names
    the first group that holds a non-finite one.
    """
    named = dict(groups) if isinstance(groups, Mapping) else dict(enumerate(groups))
    arrays = [np.asarray(g, dtype=float).ravel() for g in named.values()]
    if len(arrays) < 2:
        raise ValueError("need at least two groups")
    sizes = np.array([a.size for a in arrays])
    if not sizes.all():
        raise ValueError("every group must be nonempty")
    pooled = np.concatenate(arrays)
    finite = np.isfinite(pooled)
    if not finite.all():
        bad = int(np.searchsorted(np.cumsum(sizes), np.argmin(finite), side="right"))
        raise ValueError(f"group {list(named)[bad]!r} holds a non-finite observation")
    if pooled.size < len(arrays) + 1:
        raise ValueError("need more observations than groups")
    return pooled, sizes


def anova_oneway(groups) -> TestResult:
    """One-way ANOVA F test.

    A zero within-group sum of squares with unequal means is degenerate:
    the statistic is +inf and the p-value 0. Identical observations
    everywhere raise instead, since F is then 0/0.

    Groups of one size are packed into one C-contiguous matrix and reduced
    along its rows, so each group's mean and sum of squared deviations keeps
    the bits of the same reduction over the group alone. The sums over
    groups run left to right.
    """
    pooled, sizes = _as_groups(groups)
    if np.all(pooled == pooled[0]):
        raise ValueError("all observations identical; F is undefined")
    grand = pooled.mean()
    starts = np.cumsum(sizes) - sizes
    means, squares = np.empty(sizes.size), np.empty(sizes.size)
    for k in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == k)
        packed = pooled[starts[rows, None] + np.arange(k)]
        means[rows] = group_means = packed.mean(axis=1)
        squares[rows] = ((packed - group_means[:, None]) ** 2).sum(axis=1)
    ss_between = ss_within = 0
    for size, mean, square in zip(sizes.tolist(), means, squares):
        ss_between += size * (mean - grand) ** 2
        ss_within += square
    df1 = sizes.size - 1
    df2 = pooled.size - sizes.size
    if ss_within == 0.0:
        return TestResult(math.inf, 0.0)
    f = float((ss_between / df1) / (ss_within / df2))
    return TestResult(f, f_survival(f, df1, df2))


def _kw_statistic_from_rank_sums(
    rank_sums: Iterable[float], sizes: Iterable[int], n: int, tie_correction: float
) -> float:
    # deviation form, multiplying before dividing for better float behavior; the
    # sum runs left to right, uncompensated whatever the Python version
    center = (n + 1) / 2.0
    dev = 0.0
    for rs, sz in zip(rank_sums, sizes):
        dev += sz * (rs / sz - center) ** 2
    return 12.0 * dev / (n * (n + 1)) / tie_correction


def _tie_correction(first: np.ndarray, last: np.ndarray) -> float:
    """The Kruskal-Wallis tie correction of a sample, from the first and last sorted
    position of each run of equal values, as :func:`tie_runs` gives them."""
    counts = last - first + 1
    n = int(last[-1]) + 1
    return 1.0 - float((counts**3 - counts).sum()) / (n**3 - n)


def kruskal_wallis(groups) -> TestResult:
    """Kruskal-Wallis H test with average ranks, tie correction and the usual
    chi-square approximation of its p-value.

    One stable sort of the pooled observations gives both the ranks and the
    tie correction. Each group's rank sum is a sum of half-integers, so it is
    exact in any order.
    """
    pooled, sizes = _as_groups(groups)
    order, first, last = tie_runs(pooled)
    correction = _tie_correction(first, last)
    if correction == 0.0:
        raise ValueError("all observations identical; H is undefined after tie correction")
    ranks = np.empty(pooled.size)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    rank_sums = np.add.reduceat(ranks, np.cumsum(sizes) - sizes)
    h = _kw_statistic_from_rank_sums(rank_sums.tolist(), sizes.tolist(), pooled.size, correction)
    return TestResult(h, chi2_survival(h, sizes.size - 1))
