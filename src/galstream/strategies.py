"""The thirteen query strategies behind one selection contract.

Every strategy is a pure function of a :class:`SelectionContext` and breaks
all ties toward the smaller node id, so a (context, seed) pair fully
determines the selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .clustering import kcenter_greedy, kmeans, kmedoids, pairwise_distances, pam
from .gcn import NormalizedAdjacency, embed
from .graphs import Graph, degree_centrality, modularity_partition, pagerank
from .stats import average_ranks

STRATEGY_NAMES = (
    "no_al",
    "random",
    "uncertainty_entropy",
    "uncertainty_least_confidence",
    "uncertainty_margin",
    "degree",
    "pagerank",
    "density",
    "coreset",
    "featprop",
    "graphpart",
    "graphpartfar",
    "age",
)

UNCERTAINTY_VARIANTS = ("entropy", "least_confidence", "margin")


@dataclass(frozen=True)
class SelectionContext:
    """Everything a strategy may look at when choosing k pool nodes for a day.

    ``features`` are the day's raw features, which ``featprop`` propagates;
    ``embeddings`` are those of the run's embedding mode, which the other
    embedding-space strategies read.
    """

    graph: Graph
    adj: NormalizedAdjacency
    features: np.ndarray
    embeddings: np.ndarray
    probabilities: np.ndarray
    pool: tuple[int, ...]
    history: Mapping[int, tuple[int, ...]]
    k: int
    rng_seed: int

    def __post_init__(self) -> None:
        pool = tuple(sorted(set(int(v) for v in self.pool)))
        object.__setattr__(self, "pool", pool)
        if not 1 <= self.k <= len(pool):
            raise ValueError(f"k={self.k} must lie in [1, {len(pool)}]")
        sums = np.asarray(self.probabilities, dtype=float).sum(axis=1)
        # NaN rows are tolerated here; the strategies that read them reject them
        finite = sums[np.isfinite(sums)]
        if finite.size and np.abs(finite - 1.0).max() > 1e-6:
            raise ValueError("probability rows must sum to 1")

    def pool_array(self) -> np.ndarray:
        return np.array(self.pool, dtype=int)


@dataclass(frozen=True)
class Selection:
    """The chosen nodes, in selection order."""

    chosen: tuple[int, ...]


def _finish(ctx: SelectionContext, chosen) -> Selection:
    chosen = tuple(int(v) for v in chosen)
    pool = set(ctx.pool)
    if len(set(chosen)) != len(chosen) or not set(chosen) <= pool:
        raise AssertionError("strategy produced duplicate or non-pool nodes")
    if len(chosen) != ctx.k:
        raise AssertionError(f"strategy produced {len(chosen)} nodes, expected {ctx.k}")
    return Selection(chosen=chosen)


def top_k_by_score(pool: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """The k highest-scoring pool nodes, highest first; equal scores fall back to the smaller id."""
    return pool[np.lexsort((pool, -scores))[:k]]


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def select_no_al(ctx: SelectionContext) -> Selection:
    """Empty-budget sentinel: nothing is queried, so the harness never retrains."""
    return Selection(chosen=())


def select_random(ctx: SelectionContext) -> Selection:
    rng = np.random.default_rng(ctx.rng_seed)
    chosen = rng.choice(ctx.pool_array(), size=ctx.k, replace=False)
    return _finish(ctx, chosen)


# ---------------------------------------------------------------------------
# Uncertainty sampling
# ---------------------------------------------------------------------------


def row_entropy(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy (natural log) of each probability row; 0 log 0 = 0."""
    p = np.asarray(probabilities, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


def select_uncertainty(ctx: SelectionContext, variant: str) -> Selection:
    if variant not in UNCERTAINTY_VARIANTS:
        raise ValueError(f"unknown uncertainty variant {variant!r}")
    pool = ctx.pool_array()
    rows = np.asarray(ctx.probabilities, dtype=float)[pool]
    if np.isnan(rows).any():
        raise ValueError("probability rows contain NaN")
    if variant == "entropy":
        raw = row_entropy(rows)
    elif variant == "least_confidence":
        raw = 1.0 - rows.max(axis=1)
    else:  # margin
        ordered = np.sort(rows, axis=1)
        raw = -(ordered[:, -1] - ordered[:, -2])
    return _finish(ctx, top_k_by_score(pool, raw, ctx.k))


# ---------------------------------------------------------------------------
# Graph-structure sampling
# ---------------------------------------------------------------------------


def select_degree(ctx: SelectionContext) -> Selection:
    pool = ctx.pool_array()
    return _finish(ctx, top_k_by_score(pool, degree_centrality(ctx.graph).values[pool], ctx.k))


def select_pagerank(ctx: SelectionContext) -> Selection:
    pool = ctx.pool_array()
    return _finish(ctx, top_k_by_score(pool, pagerank(ctx.graph).values[pool], ctx.k))


# ---------------------------------------------------------------------------
# Embedding-space clustering
# ---------------------------------------------------------------------------


def _nearest_per_centroid(
    pool: np.ndarray, points: np.ndarray, centroids: np.ndarray
) -> list[int]:
    """One distinct pool node per centroid: the nearest not yet taken, ties by id."""
    chosen: list[int] = []
    taken = np.zeros(len(pool), dtype=bool)
    for c in centroids:
        dist = np.sqrt(((points - c) ** 2).sum(axis=1))
        dist[taken] = np.inf
        idx = int(dist.argmin())
        taken[idx] = True
        chosen.append(int(pool[idx]))
    return chosen


def select_density(ctx: SelectionContext) -> Selection:
    pool = ctx.pool_array()
    points = np.asarray(ctx.embeddings, dtype=float)[pool]
    centroids, _ = kmeans(points, ctx.k, ctx.rng_seed)
    return _finish(ctx, _nearest_per_centroid(pool, points, centroids))


def select_coreset(ctx: SelectionContext) -> Selection:
    pool = ctx.pool_array()
    points = np.asarray(ctx.embeddings, dtype=float)[pool]
    pool_index = {int(v): i for i, v in enumerate(pool)}
    preselected = sorted(
        pool_index[n] for n in ctx.history if ctx.history[n] and n in pool_index
    )
    picks = kcenter_greedy(points, ctx.k, preselected)
    return _finish(ctx, [int(pool[i]) for i in picks])


def select_featprop(ctx: SelectionContext) -> Selection:
    """Two propagation hops over the raw day features, then density selection."""
    propagated = embed(ctx.adj, ctx.features)
    pool = ctx.pool_array()
    points = propagated[pool]
    centroids, _ = kmeans(points, ctx.k, ctx.rng_seed)
    return _finish(ctx, _nearest_per_centroid(pool, points, centroids))


# ---------------------------------------------------------------------------
# Partition-based strategies
# ---------------------------------------------------------------------------


def allocate_budget(k: int, pool_sizes: Mapping[int, int]) -> dict[int, int]:
    """Largest-remainder split of k over communities, capped at pool sizes.

    Communities with empty pools get nothing; over-full allocations spill
    to the largest community with spare capacity (ties to the smaller id).
    """
    sized = {c: s for c, s in pool_sizes.items() if s > 0}
    total = sum(sized.values())
    if k > total:
        raise ValueError(f"budget {k} exceeds total pool size {total}")
    quotas = {c: k * s / total for c, s in sized.items()}
    alloc = {c: math.floor(q) for c, q in quotas.items()}
    leftover = k - sum(alloc.values())
    for c in sorted(sized, key=lambda c: (-(quotas[c] - alloc[c]), c))[:leftover]:
        alloc[c] += 1
    # cap and spill
    excess = 0
    for c in sorted(alloc):
        if alloc[c] > sized[c]:
            excess += alloc[c] - sized[c]
            alloc[c] = sized[c]
    while excess > 0:
        spare = [c for c in sized if alloc[c] < sized[c]]
        c = min(spare, key=lambda c: (-sized[c], c))
        alloc[c] += 1
        excess -= 1
    return alloc


def _community_medoids(
    ctx: SelectionContext, medoids_of: Callable[[np.ndarray, int], np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per community (id order) with a nonzero budget: the pool positions of its
    members and of its allocated medoids, which ``medoids_of(positions, k)`` picks."""
    partition = modularity_partition(ctx.graph)
    community = partition.community_of[ctx.pool_array()]
    positions = [np.flatnonzero(community == c) for c in range(partition.community_count)]
    alloc = allocate_budget(ctx.k, {c: p.size for c, p in enumerate(positions)})
    return [
        (positions[c], positions[c][medoids_of(positions[c], alloc[c])])
        for c in sorted(alloc)
        if alloc[c] > 0
    ]


def select_graphpart(ctx: SelectionContext) -> Selection:
    pool = ctx.pool_array()
    points = np.asarray(ctx.embeddings, dtype=float)[pool]
    plan = _community_medoids(ctx, lambda members, k: kmedoids(points[members], k))
    return _finish(ctx, [int(pool[m]) for _, medoids in plan for m in medoids])


def select_graphpartfar(ctx: SelectionContext) -> Selection:
    """GraphPart with a minimum-distance penalty against earlier selections.

    A medoid closer than the diversity radius to any node picked before
    (in history or earlier in this call) is replaced by its community's
    farthest-from-selected pool node; if even that node is too close,
    the original medoid stands. A medoid stolen earlier in the call by a
    farthest-replacement always yields to the farthest candidate.

    One distance matrix over the pool, then the history nodes outside it,
    serves the radius, every community's medoids and the anchor scan.
    """
    pool = ctx.pool_array()
    m = pool.size
    anchors = np.array([n for n in sorted(ctx.history) if ctx.history[n]], dtype=int)
    nodes = np.concatenate([pool, np.setdiff1d(anchors, pool)])
    emb = np.asarray(ctx.embeddings, dtype=float)
    dist = pairwise_distances(emb[nodes])
    # the diversity radius: half the median distance between pool nodes
    delta = 0.5 * float(np.median(dist[np.triu_indices(m, k=1)])) if m > 1 else 0.0

    def medoids_of(members: np.ndarray, k: int) -> np.ndarray:
        if not np.isfinite(emb[pool[members]]).all():
            raise ValueError("points must be finite")
        return pam(dist[np.ix_(members, members)], k)

    plan = _community_medoids(ctx, medoids_of)
    # each pool node's distance to its nearest anchor, then to its nearest pick too
    position = np.zeros(emb.shape[0], dtype=int)
    position[nodes] = np.arange(nodes.size)
    near = dist[:m, position[anchors]].min(axis=1, initial=np.inf)
    taken = np.zeros(m, dtype=bool)
    chosen: list[int] = []
    for members, medoids in plan:
        for medoid in medoids.tolist():
            candidates = members[~taken[members]]
            farthest = candidates[near[candidates].argmax()]  # ties go to the smaller id
            pick = medoid
            if taken[medoid] or near[medoid] < delta <= near[farthest]:
                pick = int(farthest)
            taken[pick] = True
            near = np.minimum(near, dist[pick, :m])
            chosen.append(int(pool[pick]))
    return _finish(ctx, chosen)


# ---------------------------------------------------------------------------
# Hybrid
# ---------------------------------------------------------------------------


def percentile_ranks(values: np.ndarray) -> np.ndarray:
    """Empirical percentile in [0, 1] with average ranks for ties."""
    values = np.asarray(values, dtype=float)
    if values.size == 1:
        return np.array([0.5])
    return (average_ranks(values) - 1.0) / (values.size - 1.0)


def select_age(
    ctx: SelectionContext, weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
) -> Selection:
    """Weighted percentile blend of entropy, embedding density, and pagerank."""
    alpha, beta, gamma = weights
    if min(weights) < 0 or abs(alpha + beta + gamma - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    pool = ctx.pool_array()
    rows = np.asarray(ctx.probabilities, dtype=float)[pool]
    if np.isnan(rows).any():
        raise ValueError("probability rows contain NaN")
    ent = row_entropy(rows)

    points = np.asarray(ctx.embeddings, dtype=float)[pool]
    centroids, assignment = kmeans(points, ctx.k, ctx.rng_seed)
    density = -np.sqrt(((points - centroids[assignment]) ** 2).sum(axis=1))

    pr = pagerank(ctx.graph).values[pool]

    combined = (
        alpha * percentile_ranks(ent)
        + beta * percentile_ranks(density)
        + gamma * percentile_ranks(pr)
    )
    return _finish(ctx, top_k_by_score(pool, combined, ctx.k))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _variant(name: str) -> Callable[[SelectionContext], Selection]:
    return lambda ctx: select_uncertainty(ctx, name)


STRATEGIES: dict[str, Callable[[SelectionContext], Selection]] = {
    "no_al": select_no_al,
    "random": select_random,
    "uncertainty_entropy": _variant("entropy"),
    "uncertainty_least_confidence": _variant("least_confidence"),
    "uncertainty_margin": _variant("margin"),
    "degree": select_degree,
    "pagerank": select_pagerank,
    "density": select_density,
    "coreset": select_coreset,
    "featprop": select_featprop,
    "graphpart": select_graphpart,
    "graphpartfar": select_graphpartfar,
    "age": select_age,
}


def select(name: str, ctx: SelectionContext) -> Selection:
    """Run the named strategy on the context."""
    try:
        fn = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}"
        ) from None
    return fn(ctx)
