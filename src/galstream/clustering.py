"""Deterministic clustering primitives shared by the embedding-space strategies.

All routines break ties toward the smallest point index so that selections
are reproducible from a seed alone.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``points``, computed one row at a time.

    Each distance is ``sqrt(((a - b) * (a - b)).sum())`` over the pair's
    coordinates, the sum a one-pair computation takes, so it keeps its bits
    and no (n, n, d) temporary is made. Row i holds its distances to the
    later rows; the lower triangle mirrors the upper, since (a - b) * (a - b)
    equals (b - a) * (b - a) exactly.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    upper = np.zeros((n, n))
    buffer = np.empty_like(points)
    for i in range(n - 1):
        diff = np.subtract(points[i + 1 :], points[i], out=buffer[: n - i - 1])
        np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=1), out=upper[i, i + 1 :])
    return upper + upper.T


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
    """PAM on the points' :func:`pairwise_distances`; returns sorted medoid indices."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    return pam(pairwise_distances(points), k, max_iter)


def pam(dist: np.ndarray, k: int, max_iter: int = 100) -> np.ndarray:
    """PAM on a distance matrix: greedy build then best-improvement swaps.

    Returns the sorted medoid indices, 1 <= k <= n. Fully deterministic, so
    it takes no seed. Each candidate's cost is one row sum of an array, the
    same sum a one-candidate loop takes. A swap beats the best so far only
    when it costs at least 1e-12 less, trying medoids, then candidates, in
    id order.
    """
    n = dist.shape[0]

    # BUILD: start from the 1-medoid optimum, then greedily add
    medoids = [int(dist.sum(axis=1).argmin())]
    nearest = dist[medoids[0]].copy()
    while len(medoids) < k:
        cost = np.minimum(nearest, dist).sum(axis=1)
        cost[medoids] = np.inf
        best = int(cost.argmin())  # the first minimum, as a strict < scan keeps
        medoids.append(best)
        nearest = np.minimum(nearest, dist[best])

    # SWAP: apply the best strictly improving swap until none remains
    current = float(dist[medoids].min(axis=0).sum())
    for _ in range(max_iter):
        best_swap = None
        best_cost = current
        is_medoid = np.zeros(n, dtype=bool)
        is_medoid[medoids] = True
        candidates = np.flatnonzero(~is_medoid)
        for m in sorted(medoids):
            others = [c for c in medoids if c != m]
            base = dist[others].min(axis=0, initial=np.inf)
            costs = np.minimum(base, dist[candidates]).sum(axis=1)
            for cand, cost in zip(candidates.tolist(), costs.tolist()):
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
    A preselected index outside [0, n) is rejected.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    preselected = sorted(set(int(i) for i in preselected))
    if not 0 < k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    outside = [i for i in preselected if not 0 <= i < n]
    if outside:
        raise ValueError(f"preselected index {outside[0]} outside [0, {n})")

    def distances_to(idx: int) -> np.ndarray:
        return np.sqrt(((points - points[idx]) ** 2).sum(axis=1))

    chosen: list[int] = []
    taken = np.zeros(n, dtype=bool)  # chosen in this call
    blocked = np.zeros(n, dtype=bool)  # chosen or preselected
    blocked[preselected] = True
    min_dist = np.full(n, np.inf)
    for idx in preselected:
        min_dist = np.minimum(min_dist, distances_to(idx))

    if not preselected:
        chosen.append(0)
        taken[0] = blocked[0] = True
        min_dist = distances_to(0)

    while len(chosen) < k:
        candidates = np.flatnonzero(~blocked)
        if not candidates.size:
            candidates = np.flatnonzero(~taken)
        pick = int(candidates[min_dist[candidates].argmax()])
        chosen.append(pick)
        taken[pick] = blocked[pick] = True
        min_dist = np.minimum(min_dist, distances_to(pick))
    return np.array(chosen, dtype=int)
