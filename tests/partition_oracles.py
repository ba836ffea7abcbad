"""Loop references for the partition strategies' array code.

These are the one-candidate-at-a-time versions of PAM k-medoids, the greedy
modularity merge and the GraphPartFar candidate scan. The library computes
the same values with array operations; the tests require equal results,
not close ones, because every comparison the loops make is reproduced
exactly. Slow on purpose.
"""

import math

import numpy as np

from galstream import Graph


def oracle_kmedoids(points, k, max_iter=100):
    """PAM: greedy build, then the first strictly improving swap by 1e-12 per pass."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))

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

    def total_cost(meds):
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


def oracle_modularity_partition(g: Graph):
    """Greedy CNM merge over dictionaries; returns (community_of, community_count)."""
    n = g.node_count
    owner = list(range(n))
    if g.edge_count == 0:
        return np.arange(n), n
    m = float(g.edge_count)
    deg = g.degrees().astype(float)
    deg_sum = {c: deg[c] for c in range(n)}
    between = {c: {} for c in range(n)}
    for u, v in g.edges:
        between[u][v] = between[u].get(v, 0.0) + 1.0
        between[v][u] = between[v].get(u, 0.0) + 1.0
    alive = set(range(n))
    while len(alive) > 1:
        best_gain = 0.0
        best_pair = None
        for a in sorted(alive):
            for b in sorted(between[a]):
                if b <= a:
                    continue
                gain = between[a][b] / m - 2.0 * deg_sum[a] * deg_sum[b] / (2.0 * m) ** 2
                if gain > best_gain:
                    best_gain = gain
                    best_pair = (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        for c, w in between[b].items():
            if c == a:
                continue
            between[a][c] = between[a].get(c, 0.0) + w
            between[c][a] = between[c].get(a, 0.0) + w
            del between[c][b]
        between[a].pop(b, None)
        del between[b]
        deg_sum[a] += deg_sum[b]
        del deg_sum[b]
        alive.remove(b)
        for node in range(n):
            if owner[node] == b:
                owner[node] = a
    ids = sorted(alive)
    relabel = {c: i for i, c in enumerate(ids)}
    return np.array([relabel[owner[v]] for v in range(n)], dtype=int), len(ids)


def oracle_diversity_radius(points) -> float:
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < 2:
        return 0.0
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return 0.5 * float(np.median(dist[np.triu_indices(n, k=1)]))


def oracle_graphpartfar_scan(emb, plan, anchor_nodes, delta):
    """Replace medoids too close to earlier picks, one candidate at a time.

    ``plan`` lists (community members, medoid nodes) in community order;
    ``anchor_nodes`` are the history nodes in id order.
    """
    emb = np.asarray(emb, dtype=float)
    chosen = []

    def min_dist_to_anchors(node):
        anchors = list(anchor_nodes) + chosen
        if not anchors:
            return math.inf
        d = emb[anchors] - emb[node]
        return float(np.sqrt((d * d).sum(axis=1)).min())

    for members, medoids in plan:
        for medoid in medoids:
            candidates = [int(v) for v in members if v not in chosen]
            if medoid in chosen:
                pick = max(candidates, key=lambda v: (min_dist_to_anchors(v), -v))
            elif min_dist_to_anchors(medoid) < delta:
                farthest = max(candidates, key=lambda v: (min_dist_to_anchors(v), -v))
                pick = farthest if min_dist_to_anchors(farthest) >= delta else medoid
            else:
                pick = medoid
            chosen.append(pick)
    return tuple(chosen)


def oracle_partition_plan(ctx, allocate):
    """GraphPart's plan from the oracles: per community, its pool and its medoids."""
    community_of, count = oracle_modularity_partition(ctx.graph)
    pool = sorted(ctx.pool)
    emb = np.asarray(ctx.embeddings, dtype=float)
    pools = {c: [v for v in pool if community_of[v] == c] for c in range(count)}
    alloc = allocate(ctx.k, {c: len(p) for c, p in pools.items()})
    plan = []
    for c in sorted(alloc):
        if alloc[c] == 0:
            continue
        members = pools[c]
        idx = oracle_kmedoids(emb[members], alloc[c])
        plan.append((members, [members[i] for i in idx]))
    return plan


def oracle_graphpart(ctx, allocate):
    return tuple(m for _, medoids in oracle_partition_plan(ctx, allocate) for m in medoids)


def oracle_graphpartfar(ctx, allocate):
    emb = np.asarray(ctx.embeddings, dtype=float)
    delta = oracle_diversity_radius(emb[sorted(ctx.pool)])
    anchors = [v for v in sorted(ctx.history) if ctx.history[v]]
    return oracle_graphpartfar_scan(emb, oracle_partition_plan(ctx, allocate), anchors, delta)
