"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The end-to-end trend run (criterion 8) is shared with the holdout-isolation
check (criterion 10) through a module-scoped fixture; everything else is
self-contained. Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines as they complete.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from graph_oracles import ORACLES, random_graph
from partition_oracles import oracle_partition_plan
from scipy import integrate
from scipy.stats import rankdata

from galstream import (
    CENTRALITY_METRICS,
    ExperimentConfig,
    Graph,
    PerformanceSeries,
    QueryLog,
    STRATEGY_NAMES,
    SelectionContext,
    build_normalized_adjacency,
    centrality,
    chi2_survival,
    coverage_ratio,
    cpi,
    emit_reports,
    f_survival,
    kcenter_greedy,
    kmeans,
    kruskal_wallis,
    load_config,
    loss_and_gradients,
    over_exertion,
    run_experiment,
    sampling_entropy,
    select,
)
from galstream.gcn import GcnParams
from galstream.harness import aggregate_records, compute_cpis
from galstream.reports import REPORT_FILES, read_daily_records
from galstream.strategies import allocate_budget

GRAPH_BASED = ("graphpart", "graphpartfar", "density", "age")


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def trend_run(tmp_path_factory):
    config = ExperimentConfig(
        bootstraps=20,
        workers=2,
        output_dir=str(tmp_path_factory.mktemp("trend") / "out"),
    )
    started = time.monotonic()
    result = run_experiment(config)
    elapsed = time.monotonic() - started
    return config, result, elapsed


def test_criterion_1_centrality_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    worst = {name: 0.0 for name in CENTRALITY_METRICS}
    while checked < 100:
        n = int(rng.integers(3, 8))
        g = random_graph(rng, n, 0.5, connected=True)
        for name in CENTRALITY_METRICS:
            got = centrality(g, name).values
            want = ORACLES[name](g)
            worst[name] = max(worst[name], float(np.abs(got - want).max()))
        checked += 1
    elapsed = time.monotonic() - started
    ok = elapsed < 30.0
    for name, err in worst.items():
        tol = 1e-6 if name in ("eigenvector", "pagerank") else 1e-9
        ok = ok and err < tol
    report(
        1,
        ok,
        f"8 centralities vs brute force on {checked} random graphs <=7 nodes "
        f"(worst abs err {max(worst.values()):.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_gradient_check():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        n = 6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        adj = build_normalized_adjacency(Graph.from_edges(n, edges))
        x = rng.normal(size=(n, 3))
        labels = rng.integers(0, 2, size=n)
        mask = sorted(rng.choice(n, size=3, replace=False).tolist())
        params = GcnParams(
            rng.normal(scale=0.5, size=(3, 4)), rng.normal(scale=0.5, size=(4, 2))
        )
        _, grads = loss_and_gradients(params, adj, [(x, labels, mask)])
        for w, gw in ((params.w1, grads.w1), (params.w2, grads.w2)):
            flat, gflat = w.ravel(), gw.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up, _ = loss_and_gradients(params, adj, [(x, labels, mask)])
                flat[idx] = orig - h
                down, _ = loss_and_gradients(params, adj, [(x, labels, mask)])
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                if abs(gflat[idx]) > 1e-8:
                    worst = max(worst, abs(fd - gflat[idx]) / abs(gflat[idx]))
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 10.0
    report(
        2,
        ok,
        f"analytic gradients vs central differences on 20 instances "
        f"(worst rel err {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_3_cpi_identities():
    errors = []
    for c in (0.0, 0.37, 1.0):
        series = PerformanceSeries("accuracy", (0, 1, 2, 3, 4), np.full(5, c))
        errors.append(abs(cpi(series) - c))
    tent = PerformanceSeries("accuracy", (0, 1, 2), np.array([0.0, 1.0, 0.0]))
    errors.append(abs(cpi(tent) - 0.5))
    ok = max(errors) <= 1e-12
    report(3, ok, f"CPI identities at constants 0/0.37/1 and tent series (max err {max(errors):.1e})")


# --- independent strategy references for criterion 4 ---------------------


def _ref_top_k(pool, scores, k):
    return tuple(sorted(pool, key=lambda v: (-scores[v], v))[:k])


def _ref_entropy(p):
    out = []
    for row in p:
        h = 0.0
        for q in row:
            if q > 0:
                h -= q * math.log(q)
        out.append(h)
    return np.array(out)


def _ref_nearest_per_centroid(pool, points, centroids):
    chosen = []
    for c in centroids:
        best, best_d = None, np.inf
        for i, v in enumerate(pool):  # ascending ids, so ties keep the smaller id
            if v in chosen:
                continue
            d = float(np.sqrt(((points[i] - c) ** 2).sum()))
            if d < best_d:
                best, best_d = v, d
        chosen.append(best)
    return tuple(chosen)


def _ref_allocate(k, sizes):
    sized = {c: s for c, s in sizes.items() if s > 0}
    total = sum(sized.values())
    quotas = {c: k * s / total for c, s in sized.items()}
    alloc = {c: math.floor(q) for c, q in quotas.items()}
    rest = k - sum(alloc.values())
    for c in sorted(sized, key=lambda c: (-(quotas[c] - alloc[c]), c))[:rest]:
        alloc[c] += 1
    return alloc


def _ref_select(name, ctx):
    pool = sorted(ctx.pool)
    emb = np.asarray(ctx.embeddings, dtype=float)
    probs = np.asarray(ctx.probabilities, dtype=float)
    if name == "no_al":
        return ()
    if name == "random":
        rng = np.random.default_rng(ctx.rng_seed)
        return tuple(int(v) for v in rng.choice(np.array(pool), size=ctx.k, replace=False))
    if name.startswith("uncertainty"):
        rows = probs[pool]
        if name.endswith("entropy"):
            raw = _ref_entropy(rows)
        elif name.endswith("least_confidence"):
            raw = 1.0 - rows.max(axis=1)
        else:
            raw = -(np.sort(rows, axis=1)[:, -1] - np.sort(rows, axis=1)[:, -2])
        return _ref_top_k(pool, dict(zip(pool, raw)), ctx.k)
    if name == "degree":
        scores = {v: len(ctx.graph.adjacency[v]) / (ctx.graph.node_count - 1) for v in pool}
        return _ref_top_k(pool, scores, ctx.k)
    if name == "pagerank":
        values = ORACLES["pagerank"](ctx.graph)
        return _ref_top_k(pool, {v: values[v] for v in pool}, ctx.k)
    if name in ("density", "featprop"):
        feats = emb
        if name == "featprop":
            a = ctx.adj.matrix
            feats = a @ (a @ emb)
        points = feats[pool]
        centroids, _ = kmeans(points, ctx.k, ctx.rng_seed)
        return _ref_nearest_per_centroid(pool, points, centroids)
    if name == "coreset":
        points = emb[pool]
        pre = [pool.index(v) for v in sorted(ctx.history) if ctx.history[v] and v in pool]
        picks = kcenter_greedy(points, ctx.k, pre)
        return tuple(pool[i] for i in picks)
    if name in ("graphpart", "graphpartfar"):
        plan = oracle_partition_plan(ctx, _ref_allocate)
        if name == "graphpart":
            return tuple(m for _, medoids in plan for m in medoids)
        # graphpartfar
        pts = emb[pool]
        dists = [
            float(np.linalg.norm(pts[i] - pts[j]))
            for i in range(len(pool))
            for j in range(i + 1, len(pool))
        ]
        delta = 0.5 * float(np.median(dists)) if dists else 0.0
        anchors = [v for v in sorted(ctx.history) if ctx.history[v]]
        chosen = []

        def mind(v):
            pts_all = anchors + chosen
            if not pts_all:
                return math.inf
            return min(float(np.linalg.norm(emb[v] - emb[u])) for u in pts_all)

        for members, medoids in plan:
            for m in medoids:
                cands = [v for v in members if v not in chosen]
                if m in chosen:
                    pick = max(cands, key=lambda v: (mind(v), -v))
                elif mind(m) < delta:
                    far = max(cands, key=lambda v: (mind(v), -v))
                    pick = far if mind(far) >= delta else m
                else:
                    pick = m
                chosen.append(pick)
        return tuple(chosen)
    if name == "age":
        rows = probs[pool]
        ent = _ref_entropy(rows)
        centroids, assignment = kmeans(emb[pool], ctx.k, ctx.rng_seed)
        dens = -np.sqrt(((emb[pool] - centroids[assignment]) ** 2).sum(axis=1))
        pr = ORACLES["pagerank"](ctx.graph)[pool]

        def pct(v):
            if len(v) == 1:
                return np.array([0.5])
            return (rankdata(v, method="average") - 1) / (len(v) - 1)

        third = 1 / 3
        combined = third * pct(ent) + third * pct(dens) + third * pct(pr)
        return _ref_top_k(pool, dict(zip(pool, combined)), ctx.k)
    raise ValueError(name)


def test_criterion_4_strategy_oracles():
    rng = np.random.default_rng(404)
    mismatches = []
    for trial in range(50):
        n = 8
        g = random_graph(rng, n, 0.45, connected=True)
        pool = tuple(sorted(rng.choice(n, size=int(rng.integers(4, 9)), replace=False).tolist()))
        k = int(rng.integers(1, min(4, len(pool)) + 1))
        p1 = rng.uniform(0.05, 0.95, size=n)
        history_nodes = [v for v in pool if rng.random() < 0.3]
        ctx = SelectionContext(
            graph=g,
            adj=build_normalized_adjacency(g),
            embeddings=rng.normal(size=(n, 3)),
            probabilities=np.column_stack([1 - p1, p1]),
            pool=pool,
            history={v: (int(rng.integers(0, 5)),) for v in history_nodes},
            k=k,
            rng_seed=int(rng.integers(0, 10_000)),
        )
        for name in STRATEGY_NAMES:
            got = select(name, ctx).chosen
            again = select(name, ctx).chosen
            want = _ref_select(name, ctx)
            if got != again:
                mismatches.append((trial, name, "nondeterministic"))
            if got != want:
                mismatches.append((trial, name, f"{got} != {want}"))
    report(
        4,
        not mismatches,
        f"13 strategies vs independent references over 50 seeded instances"
        + (f"; first mismatch {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_5_burden_identities(tmp_path):
    config = ExperimentConfig(
        strategies=("degree", "pagerank"),
        bootstraps=2,
        epochs=20,
        output_dir=str(tmp_path / "burden"),
    )
    result = run_experiment(config)
    ok = not result.failures
    details = []
    k = config.queries_per_day
    for (strategy, bootstrap), log in result.query_logs.items():
        for threshold in (1, 2, 3, 4, 5):
            if abs(over_exertion(log, threshold) - 1.0) > 1e-12:
                ok = False
                details.append(f"{strategy}/{bootstrap} exertion@{threshold}")
        coverage = coverage_ratio(log)
        if abs(coverage - k / log.pool_size) > 1e-12:
            ok = False
            details.append(f"{strategy}/{bootstrap} coverage {coverage}")

    # uniform-random entropy over 5000+ queries on a 10-node pool
    g = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
    adj = build_normalized_adjacency(g)
    probs = np.full((10, 2), 0.5)
    emb = np.zeros((10, 2))
    events = []
    for day in range(2500):
        ctx = SelectionContext(
            graph=g, adj=adj, embeddings=emb, probabilities=probs,
            pool=tuple(range(10)), history={}, k=2, rng_seed=day,
        )
        for v in select("random", ctx).chosen:
            events.append((day, v))
    log = QueryLog.from_events(range(10), events)
    entropy = sampling_entropy(log)
    ok = ok and log.total_queries >= 5000
    ok = ok and abs(entropy - math.log(10)) / math.log(10) < 0.02
    report(
        5,
        ok,
        f"stationary strategies: over-exertion 1.0, coverage k/N; random entropy "
        f"{entropy:.4f} vs ln10 {math.log(10):.4f}" + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_6_coreset_guarantee():
    rng = np.random.default_rng(606)
    worst_ratio = 0.0
    for _ in range(50):
        points = rng.normal(size=(8, 2))
        dist = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
        optimum = min(
            dist[list(combo)].min(axis=0).max()
            for combo in itertools.combinations(range(8), 3)
        )
        picks = kcenter_greedy(points, 3)
        radius = dist[picks].min(axis=0).max()
        if optimum > 0:
            worst_ratio = max(worst_ratio, radius / optimum)
    ok = worst_ratio <= 2.0 + 1e-9
    report(6, ok, f"greedy k-center radius within 2x optimum over 50 point sets (worst {worst_ratio:.3f})")


def test_criterion_7_statistics():
    h, _ = kruskal_wallis([(1, 2), (3, 4)])
    ok = h == 2.4

    quad = dict(limit=500, epsabs=1e-13, epsrel=1e-13)
    worst = 0.0
    for df in (1, 3, 6):
        for x in (0.7, 2.4, 9.0):
            want, _ = integrate.quad(
                lambda t: t ** (df / 2 - 1) * math.exp(-t / 2), x, np.inf, **quad
            )
            want /= 2 ** (df / 2) * math.gamma(df / 2)
            worst = max(worst, abs(chi2_survival(x, df) - want))
    for d1, d2 in ((1, 4), (3, 9)):
        for f in (0.8, 2.5):
            c = math.gamma((d1 + d2) / 2) / (math.gamma(d1 / 2) * math.gamma(d2 / 2))
            c *= (d1 / d2) ** (d1 / 2)
            want, _ = integrate.quad(
                lambda t: c * t ** (d1 / 2 - 1) * (1 + d1 * t / d2) ** (-(d1 + d2) / 2),
                f, np.inf, **quad,
            )
            worst = max(worst, abs(f_survival(f, d1, d2) - want))
    ok = ok and worst < 1e-9

    # exact permutation agreement on n <= 7
    groups = [(1.0, 4.0, 2.0), (3.0, 5.0, 2.0, 6.0)]
    _, p_exact = kruskal_wallis(groups, p_method="exact")
    h_obs, _ = kruskal_wallis(groups)
    pooled = [x for g_ in groups for x in g_]
    hits = total = 0
    for perm in itertools.permutations(range(7)):
        assigned = [tuple(pooled[i] for i in perm[:3]), tuple(pooled[i] for i in perm[3:])]
        h_p, _ = kruskal_wallis(assigned)
        total += 1
        if h_p >= h_obs - 1e-12:
            hits += 1
    ok = ok and abs(p_exact - hits / total) < 1e-12
    report(
        7,
        ok,
        f"KW H exactly 2.4; tails vs quadrature (worst {worst:.1e}); exact p matches "
        f"enumeration ({p_exact:.6f})",
    )


def test_criterion_8_synthetic_trend(trend_run):
    config, result, elapsed = trend_run
    ok = not result.failures and elapsed < 300.0
    key = lambda s: (s, "unqueried_same_day", "cpi_accuracy")
    baseline = result.aggregate[key("no_al")][0]
    random_mean = result.aggregate[key("random")][0]
    below = []
    for name in STRATEGY_NAMES:
        if name == "no_al":
            continue
        mean = result.aggregate[key(name)][0]
        if mean < baseline - 0.02:
            below.append(f"{name}={mean:.4f}")
    ok = ok and not below
    best_graph = max(result.aggregate[key(s)][0] for s in GRAPH_BASED)
    ok = ok and best_graph > random_mean
    report(
        8,
        ok,
        f"40-node/30-day default, 20 bootstraps in {elapsed:.0f}s: baseline {baseline:.4f}, "
        f"all informative strategies >= baseline-0.02"
        + (f" EXCEPT {below}" if below else "")
        + f"; best graph-based {best_graph:.4f} vs random {random_mean:.4f}",
    )


def test_criterion_9_report_self_consistency(trend_run, tmp_path):
    config, result, _ = trend_run
    paths = emit_reports(result, config)

    records = read_daily_records(paths["daily.csv"])
    cpis = compute_cpis(records)
    recomputed = aggregate_records(records, cpis)
    ok = set(recomputed) == set(result.aggregate)
    worst = 0.0
    for k_, (mean, std, n) in recomputed.items():
        want = result.aggregate[k_]
        worst = max(worst, abs(mean - want[0]), abs(std - want[1]))
        ok = ok and n == want[2]
    ok = ok and worst <= 1e-12

    # re-run from the emitted manifest into a fresh directory
    rerun_config = replace(
        load_config(paths["run_manifest.json"]), output_dir=str(tmp_path / "rerun")
    )
    rerun = run_experiment(rerun_config)
    new_paths = emit_reports(rerun, rerun_config)
    diffs = [
        name
        for name in REPORT_FILES
        if name != "run_manifest.json"
        and new_paths[name].read_bytes() != paths[name].read_bytes()
    ]
    ok = ok and not diffs
    report(
        9,
        ok,
        f"aggregates from daily.csv match to 1e-12 (worst {worst:.1e}); manifest re-run "
        + ("byte-identical" if not diffs else f"differs in {diffs}"),
    )


def test_criterion_10_holdout_isolation(trend_run):
    _, result, _ = trend_run
    violations = 0
    for bootstrap, split in result.splits.items():
        holdout = set(split.holdout)
        for (strategy, b), log in result.query_logs.items():
            if b == bootstrap and holdout & set(log.days_by_node):
                violations += 1
        for (strategy, b), trained in result.trained_nodes.items():
            if b == bootstrap and holdout & trained:
                violations += 1
    report(
        10,
        violations == 0,
        f"holdout isolation over {len(result.query_logs)} unit runs: {violations} violations",
    )
