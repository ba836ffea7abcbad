"""Deterministic clustering primitives shared by the embedding-space strategies.

All routines break ties toward the smallest point index so that selections
are reproducible from a seed alone.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def kmeans(
    points: np.ndarray, k: int, seed: int, max_iter: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding.

    Returns (centroids, assignment). Iterates until the assignment is
    stable or ``max_iter`` passes; an emptied cluster is re-seeded to the
    point farthest from its nearest centroid.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    sq_dist = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = sq_dist.sum()
        if total == 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=sq_dist / total))
        centroids[j] = points[idx]
        sq_dist = np.minimum(sq_dist, ((points - centroids[j]) ** 2).sum(axis=1))

    assignment = np.full(n, -1)
    for _ in range(max_iter):
        dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignment = dist.argmin(axis=1)
        nearest_sq = dist.min(axis=1)
        for j in range(k):
            members = new_assignment == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
            else:
                farthest = int(nearest_sq.argmax())
                centroids[j] = points[farthest]
                new_assignment[farthest] = j
                nearest_sq[farthest] = -np.inf  # keep other empty clusters off it
        if (new_assignment == assignment).all():
            break
        assignment = new_assignment
    return centroids, assignment


def kmedoids(points: np.ndarray, k: int, max_iter: int = 100) -> np.ndarray:
    """PAM: greedy build then best-improvement swaps; returns sorted medoid indices.

    Fully deterministic, so it takes no seed.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    dist = _pairwise_distances(points)

    # BUILD: start from the 1-medoid optimum, then greedily add
    medoids = [int(dist.sum(axis=1).argmin())]
    nearest = dist[medoids[0]].copy()
    while len(medoids) < k:
        best_idx = -1
        best_cost = np.inf
        for cand in range(n):
            if cand in medoids:
                continue
            cost = float(np.minimum(nearest, dist[cand]).sum())
            if cost < best_cost:
                best_cost = cost
                best_idx = cand
        medoids.append(best_idx)
        nearest = np.minimum(nearest, dist[best_idx])

    # SWAP: apply the best strictly improving swap until none remains
    def total_cost(meds: list[int]) -> float:
        return float(dist[meds].min(axis=0).sum())

    current = total_cost(medoids)
    for _ in range(max_iter):
        best_swap = None
        best_cost = current
        for m in sorted(medoids):
            for cand in range(n):
                if cand in medoids:
                    continue
                trial = [c for c in medoids if c != m] + [cand]
                cost = total_cost(trial)
                if cost < best_cost - 1e-12:
                    best_cost = cost
                    best_swap = (m, cand)
        if best_swap is None:
            break
        m, cand = best_swap
        medoids = [c for c in medoids if c != m] + [cand]
        current = best_cost
    return np.array(sorted(medoids), dtype=int)


def kcenter_greedy(
    points: np.ndarray, k: int, preselected: Iterable[int] = ()
) -> np.ndarray:
    """Farthest-first traversal; returns k indices not in ``preselected``.

    With no preselected points the traversal starts from index 0, making
    runs reproducible without randomness. Every later pick maximizes the
    distance to the nearest already chosen or preselected point; if only
    preselected points remain eligible they become pickable again (a re-query).
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    preselected = set(int(i) for i in preselected)
    if not 0 < k <= n:
        raise ValueError(f"k must lie in [1, {n}]")

    chosen: list[int] = []
    min_dist = np.full(n, np.inf)
    for idx in sorted(preselected):
        min_dist = np.minimum(min_dist, np.sqrt(((points - points[idx]) ** 2).sum(axis=1)))

    if not preselected:
        chosen.append(0)
        min_dist = np.sqrt(((points - points[0]) ** 2).sum(axis=1))

    while len(chosen) < k:
        blocked = set(chosen) | preselected
        candidates = [i for i in range(n) if i not in blocked]
        if not candidates:
            candidates = [i for i in range(n) if i not in set(chosen)]
        cand = np.array(candidates)
        pick = int(cand[min_dist[cand].argmax()])
        chosen.append(pick)
        min_dist = np.minimum(min_dist, np.sqrt(((points - points[pick]) ** 2).sum(axis=1)))
    return np.array(chosen, dtype=int)
