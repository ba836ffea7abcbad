"""Loop references for the omnibus tests, and the exact Kruskal-Wallis p-value.

``oracle_anova_oneway`` and ``oracle_kruskal_wallis`` compute each group's
statistics one group at a time, with the group checks made one group at a
time in ``oracle_groups``. The library pools the groups and reduces them
in whole arrays; it must match these bit for bit.

The library reports only the chi-square approximation of the Kruskal-Wallis
p-value. ``oracle_kruskal_wallis_exact`` enumerates every assignment of the
pooled ranks to groups of the observed sizes and counts those whose H
reaches the observed one, for checking the approximation and the statistic
on small samples. Slow on purpose.
"""

import math
from collections.abc import Mapping
from itertools import combinations

import numpy as np
from metric_oracles import oracle_average_ranks, oracle_tie_correction

from galstream.stats import (
    TestResult,
    _kw_statistic_from_rank_sums,
    chi2_survival,
    f_survival,
    kruskal_wallis,
)


def oracle_groups(groups) -> list[np.ndarray]:
    """Each group as an array, checked one group at a time."""
    named = dict(groups) if isinstance(groups, Mapping) else dict(enumerate(groups))
    arrays = [np.asarray(g, dtype=float).ravel() for g in named.values()]
    if len(arrays) < 2:
        raise ValueError("need at least two groups")
    if any(a.size == 0 for a in arrays):
        raise ValueError("every group must be nonempty")
    for name, a in zip(named, arrays):
        if not np.isfinite(a).all():
            raise ValueError(f"group {name!r} holds a non-finite observation")
    total = sum(a.size for a in arrays)
    if total < len(arrays) + 1:
        raise ValueError("need more observations than groups")
    return arrays


def oracle_anova_oneway(groups) -> TestResult:
    """One-way ANOVA with each group's mean and squared deviations taken on its own."""
    arrays = oracle_groups(groups)
    pooled = np.concatenate(arrays)
    if np.all(pooled == pooled[0]):
        raise ValueError("all observations identical; F is undefined")
    grand = pooled.mean()
    ss_between = ss_within = 0
    for a in arrays:
        ss_between += a.size * (a.mean() - grand) ** 2
        ss_within += ((a - a.mean()) ** 2).sum()
    df1 = len(arrays) - 1
    df2 = pooled.size - len(arrays)
    if ss_within == 0.0:
        return TestResult(math.inf, 0.0)
    f = float((ss_between / df1) / (ss_within / df2))
    return TestResult(f, f_survival(f, df1, df2))


def oracle_kruskal_wallis(groups) -> TestResult:
    """Kruskal-Wallis H from loop-ranked observations, each group's rank sum taken on its own."""
    arrays = oracle_groups(groups)
    pooled = np.concatenate(arrays)
    correction = oracle_tie_correction(pooled)
    if correction == 0.0:
        raise ValueError("all observations identical; H is undefined after tie correction")
    n = pooled.size
    ranks = oracle_average_ranks(pooled)
    center = (n + 1) / 2.0
    dev, start = 0.0, 0
    for a in arrays:
        rank_sum = float(ranks[start : start + a.size].sum())
        dev += a.size * (rank_sum / a.size - center) ** 2
        start += a.size
    h = 12.0 * dev / (n * (n + 1)) / correction
    return TestResult(h, chi2_survival(h, len(arrays) - 1))


def oracle_kruskal_wallis_exact(groups) -> TestResult:
    """H as ``kruskal_wallis`` computes it, with the exact conditional permutation p-value."""
    h_obs, _ = kruskal_wallis(groups)
    arrays = oracle_groups(groups)
    pooled = np.concatenate(arrays)
    return TestResult(h_obs, _kw_exact_pvalue(pooled, [a.size for a in arrays], h_obs))


def _kw_exact_pvalue(pooled: np.ndarray, sizes: list[int], h_obs: float) -> float:
    n = pooled.size
    ranks = oracle_average_ranks(pooled)
    correction = oracle_tie_correction(pooled)
    total_assignments = math.factorial(n)
    for sz in sizes:
        total_assignments //= math.factorial(sz)
    if total_assignments > 500_000:
        raise ValueError(
            f"{total_assignments} assignments is too many for the exact method"
        )

    at_least = 0
    total = 0
    threshold = h_obs - 1e-12

    def recurse(remaining: tuple[int, ...], group_idx: int, rank_sums: list[float]):
        nonlocal at_least, total
        if group_idx == len(sizes) - 1:
            sums = rank_sums + [sum(ranks[list(remaining)])]
            h = _kw_statistic_from_rank_sums(sums, sizes, n, correction)
            total += 1
            if h >= threshold:
                at_least += 1
            return
        for chosen in combinations(range(len(remaining)), sizes[group_idx]):
            chosen_set = set(chosen)
            picked = [remaining[i] for i in chosen]
            rest = tuple(
                remaining[i] for i in range(len(remaining)) if i not in chosen_set
            )
            recurse(rest, group_idx + 1, rank_sums + [sum(ranks[picked])])

    recurse(tuple(range(n)), 0, [])
    return at_least / total
