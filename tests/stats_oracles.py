"""The exact permutation p-value of the Kruskal-Wallis H statistic.

The library reports only the chi-square approximation. This reference
enumerates every assignment of the pooled ranks to groups of the observed
sizes and counts those whose H reaches the observed one, for checking the
approximation and the statistic on small samples. Slow on purpose.
"""

import math
from itertools import combinations

import numpy as np

from galstream.stats import (
    TestResult,
    _as_groups,
    _kw_statistic_from_rank_sums,
    _tie_correction,
    average_ranks,
    kruskal_wallis,
)


def oracle_kruskal_wallis_exact(groups) -> TestResult:
    """H as ``kruskal_wallis`` computes it, with the exact conditional permutation p-value."""
    h_obs, _ = kruskal_wallis(groups)
    arrays = _as_groups(groups)
    pooled = np.concatenate(arrays)
    return TestResult(h_obs, _kw_exact_pvalue(pooled, [a.size for a in arrays], h_obs))


def _kw_exact_pvalue(pooled: np.ndarray, sizes: list[int], h_obs: float) -> float:
    n = pooled.size
    ranks = average_ranks(pooled)
    correction = _tie_correction(pooled)
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
