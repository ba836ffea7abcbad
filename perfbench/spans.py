"""In-memory span recorder that traces galstream from outside the package.

Each traced name is replaced, in the module that calls it, by a wrapper
that records one span per call: (name, start, end, parent, unit). The
first part of a span name is its layer. A layer's self time is its spans'
durations minus the part covered by their child spans.

Some time cannot be wrapped from outside and lands in the caller's self
time; :data:`UNWRAPPED` names it.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from galstream import burden, graphs, harness, metrics, reports, strategies


def _train_rows(seed, adj, examples, *args, **kwargs) -> int:
    return len(examples) * adj.node_count


# consumer module -> {bound name: span name}. A name is wrapped where it is
# looked up, so a function one module imports from another is wrapped in the
# importing module.
TRACED = {
    harness: {
        "run_unit": "harness.unit",
        "build_eval_slices": "harness.slices",
        "_slice_records": "harness.slices",
        "compute_cpis": "harness.compute_cpis",
        "aggregate_records": "harness.aggregate",
        "train": "gcn.train",
        "forward": "gcn.forward",
        "embed": "gcn.embed",
        "build_normalized_adjacency": "gcn.adjacency",
        "select": "strategies.select",
        "compute_metric": "metrics.compute",
        "cpi": "metrics.cpi",
        "make_split": "datasets.split",
        "generate_synthetic": "datasets.generate",
        "load_dataset": "datasets.load",
    },
    strategies: {
        "kmeans": "clustering.kmeans",
        "kmedoids": "clustering.kmedoids",
        "kcenter_greedy": "clustering.kcenter",
        "degree_centrality": "graphs.degree_centrality",
        "pagerank": "graphs.pagerank",
        "modularity_partition": "graphs.modularity_partition",
        "average_ranks": "stats.average_ranks",
    },
    metrics: {"average_ranks": "stats.average_ranks"},
    burden: {"centrality": "graphs.centrality", "average_ranks": "stats.average_ranks"},
    reports: {
        "load_configured_dataset": "harness.load_dataset",
        "compute_cpis": "harness.compute_cpis",
        "aggregate_records": "harness.aggregate",
        "make_split": "datasets.split",
        "read_daily_records": "reports.read",
        "read_query_logs": "reports.read",
        "within_gap_percentage": "burden.within_gap_percentage",
        "over_exertion": "burden.over_exertion",
        "centrality_burden_correlation": "burden.centrality_burden_correlation",
        "mean_normalized_centrality": "burden.mean_normalized_centrality",
        "rolling_mean_std": "metrics.rolling",
        "anova_oneway": "stats.anova_oneway",
        "kruskal_wallis": "stats.kruskal_wallis",
    },
}

UNWRAPPED = {
    "reports.self_s": "sampling_entropy, coverage_ratio and average_time_gap, which "
    "reports._BURDEN_SIMPLE captured at import; QueryLog construction; CSV writing",
    "harness.self_s": "QueryLog.from_events, SelectionContext validation and the day loop "
    "of run_unit",
    "graphs.s": "centralities that graphs.centrality dispatches through its own table "
    "(betweenness, closeness, eigenvector, harmonic, load, clustering coefficient)",
    "strategies.select_s": "strategy helpers (allocate_budget, diversity_radius, "
    "top_k_by_score) inside select",
}

LAYERS = (
    "gcn",
    "harness",
    "strategies",
    "clustering",
    "graphs",
    "metrics",
    "burden",
    "stats",
    "reports",
    "datasets",
)


class Tracer:
    """Spans of one traced phase, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, unit id]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._unit: str | None = None

    def wrap(self, name: str, fn):
        count = _train_rows if name == "gcn.train" else None
        is_unit = name == "harness.unit"

        @wraps(fn)
        def traced(*args, **kwargs):
            previous_unit = self._unit
            if is_unit:  # run_unit(dataset, config, strategy, bootstrap)
                self._unit = f"{args[2]}/{args[3]}"
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._unit]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
                self._unit = previous_unit

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(
                    json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, unit])
                )
                fh.write("\n")


@contextmanager
def installed(tracer: Tracer, only_layer: str | None = None):
    """Swap every traced name for its wrapper; restore the originals on exit."""
    saved = []
    try:
        for module, names in TRACED.items():
            for attr, span_name in names.items():
                if only_layer and not span_name.startswith(only_layer + "."):
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def graph_caches():
    """The lru-cached functions of galstream.graphs."""
    return [fn for fn in vars(graphs).values() if hasattr(fn, "cache_info")]


def clear_graph_caches() -> None:
    for fn in graph_caches():
        fn.cache_clear()


def graph_cache_counts() -> tuple[int, int]:
    infos = [fn.cache_info() for fn in graph_caches()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def tail_percentile(samples: int) -> float:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it; else the max."""
    for p in (0.99, 0.95, 0.9, 0.75, 0.5):
        if samples * (1.0 - p) >= 10:
            return p
    return 1.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def summarize(tracer: Tracer, strategy_names) -> tuple[dict[str, float], dict[str, float], dict]:
    """Per-layer metrics, per-layer self seconds, and the tail labels of one traced op."""
    selfs = self_times(tracer.spans)
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, list[float]] = {}
    select_by_strategy: dict[str, list[float]] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _, unit), own in zip(tracer.spans, selfs):
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        inclusive.setdefault(name, []).append(end - start)
        layer_self[name.split(".", 1)[0]] += own
        if name == "strategies.select":
            select_by_strategy.setdefault(unit.split("/")[0], []).append(end - start)

    def total(prefix: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(
            s for n, s in self_by_name.items() if n.startswith(prefix) and n not in exclude
        )

    def typical(name: str, scale: float) -> tuple[float, float, str]:
        values = inclusive.get(name, [])
        if not values:
            return 0.0, 0.0, "none"
        p = tail_percentile(len(values))
        label = "max" if p == 1.0 else f"p{round(p * 100)}"
        return (
            percentile(values, 0.5) * scale,
            percentile(values, p) * scale,
            f"{label} of {len(values)}",
        )

    train_p50, train_tail, train_label = typical("gcn.train", 1e3)
    unit_p50, unit_tail, unit_label = typical("harness.unit", 1.0)
    unit_total = sum(inclusive.get("harness.unit", []))
    out = {
        "gcn.train_s": self_by_name.get("gcn.train", 0.0),
        "gcn.train_calls": calls.get("gcn.train", 0),
        "gcn.train_rows": tracer.counts.get("gcn.train", 0),
        "gcn.train_ms.p50": train_p50,
        "gcn.train_ms.tail": train_tail,
        "gcn.train_share": self_by_name.get("gcn.train", 0.0) / unit_total if unit_total else 0.0,
        "gcn.forward_s": self_by_name.get("gcn.forward", 0.0),
        "gcn.forward_calls": calls.get("gcn.forward", 0),
        "harness.self_s": total("harness.", exclude=("harness.slices",)),
        "harness.slices_s": self_by_name.get("harness.slices", 0.0),
        "harness.unit_s.p50": unit_p50,
        "harness.unit_s.tail": unit_tail,
        "harness.units": calls.get("harness.unit", 0),
        "strategies.select_s": self_by_name.get("strategies.select", 0.0),
        "strategies.select_calls": calls.get("strategies.select", 0),
    }
    for strategy in strategy_names:
        durations = select_by_strategy.get(strategy, [])
        out[f"strategies.select_ms.{strategy}"] = (
            1e3 * sum(durations) / len(durations) if durations else 0.0
        )
    for short in ("kmeans", "kmedoids", "kcenter"):
        out[f"clustering.{short}_s"] = self_by_name.get(f"clustering.{short}", 0.0)
        out[f"clustering.{short}_calls"] = calls.get(f"clustering.{short}", 0)
    out.update(
        {
            "graphs.s": layer_self["graphs"],
            "metrics.compute_s": self_by_name.get("metrics.compute", 0.0),
            "metrics.compute_calls": calls.get("metrics.compute", 0),
            "metrics.cpi_s": self_by_name.get("metrics.cpi", 0.0),
            "metrics.rolling_s": self_by_name.get("metrics.rolling", 0.0),
            "burden.s": layer_self["burden"],
            "burden.calls": sum(c for n, c in calls.items() if n.startswith("burden.")),
            "stats.s": layer_self["stats"],
            "stats.calls": sum(c for n, c in calls.items() if n.startswith("stats.")),
            "reports.self_s": total("reports.", exclude=("reports.read",)),
            "reports.read_s": self_by_name.get("reports.read", 0.0),
        }
    )
    labels = {"gcn.train_ms.tail": train_label, "harness.unit_s.tail": unit_label}
    return out, layer_self, labels


def dataset_seconds(tracer: Tracer) -> dict[str, float]:
    """Inclusive seconds per datasets span name."""
    out: dict[str, float] = {}
    for name, start, end, _, _ in tracer.spans:
        if name.startswith("datasets."):
            out[name] = out.get(name, 0.0) + (end - start)
    return out
