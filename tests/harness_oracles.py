"""References for the harness's per-day evaluation slices and its day loop.

``oracle_build_eval_slices`` is the node-at-a-time version of
``build_eval_slices``: it filters the unqueried pool nodes through a set of
the chosen ones and drops missing-label nodes one at a time. The library
filters both with index arrays; the tests require the same slices, label
for label and probability for probability, in the same node order. Slow on
purpose.

``oracle_run_unit`` is the day loop with a branch per kind of strategy:
``no_al`` selects nothing and keeps its model, ``featprop`` gets the raw
features in its embedding slot too, and every other strategy retrains each
day whether or not its picks were labelled. It scores each day as it
goes, one slice and one metric per ``compute_metric`` call. The library
runs one path for all of them, retrains only when the labelled buffer
grew, and scores a unit's slices after its day loop, packed by size; the
tests require the same unit result, value for value.
"""

import numpy as np

from galstream.burden import QueryLog
from galstream.datasets import make_split
from galstream.exceptions import UndefinedMetricError
from galstream.gcn import MISSING_LABEL, build_normalized_adjacency, embed, forward, train
from galstream.harness import _MODEL_SEED_TAG, UnitResult, scored_categories, unit_seed
from galstream.metrics import EVAL_CATEGORIES, PERFORMANCE_METRICS, EvalSlice, compute_metric
from galstream.strategies import SelectionContext, select


def oracle_build_eval_slices(split, chosen, labels_now, labels_next, probs_now, probs_next):
    chosen_set = set(chosen)
    unqueried = tuple(v for v in split.pool if v not in chosen_set)
    plan = [
        ("test_set_same_day", split.holdout, labels_now, probs_now),
        ("unqueried_same_day", unqueried, labels_now, probs_now),
        ("unqueried_next_day", unqueried, labels_next, probs_next),
    ]
    if chosen:
        plan.append(("train_next_day", chosen, labels_next, probs_next))
    slices = {}
    for category, nodes, labels, probs in plan:
        keep = [v for v in nodes if labels[v] != MISSING_LABEL]
        if not keep:
            slices[category] = None
            continue
        slices[category] = (labels[keep], probs[keep])
    return slices


def _oracle_slice_records(block, strategy, slices):
    for category in scored_categories(strategy):
        s = slices[category]
        if s is None:
            continue
        c = EVAL_CATEGORIES.index(category)
        for m, metric in enumerate(PERFORMANCE_METRICS):
            try:
                block[c, m] = compute_metric(EvalSlice(*s), metric)
            except UndefinedMetricError:
                pass


def oracle_run_unit(dataset, config, strategy, bootstrap):
    split = make_split(dataset, config.holdout_fraction, config.base_seed + bootstrap)
    holdout_set = set(split.holdout)
    adj = build_normalized_adjacency(dataset.graph)
    hyper = config.train_config()
    init_seed = unit_seed(config.base_seed, strategy, bootstrap, _MODEL_SEED_TAG)

    frames = dataset.days
    initial = config.initial_days
    buffer = []
    trained = set()
    for frame in frames[:initial]:
        mask = [v for v in split.pool if frame.labels[v] != MISSING_LABEL]
        if mask:
            buffer.append((frame.features, frame.labels, mask))
            trained.update(mask)
    if not buffer:
        raise RuntimeError("no labeled pool nodes in the initial training window")
    params = train(init_seed, adj, buffer, hyper)

    values = np.full(
        (dataset.day_count - 1 - initial, len(EVAL_CATEGORIES), len(PERFORMANCE_METRICS)), np.nan
    )
    history = {}

    current = forward(params, adj, frames[initial].features)
    for t in range(initial, dataset.day_count - 1):
        frame = frames[t]
        next_frame = frames[t + 1]

        if strategy == "no_al":
            chosen = ()
            evaluated = current
        else:
            if strategy == "featprop":
                embeddings = frame.features
            elif config.embedding_mode == "model_based":
                embeddings = current.hidden
            else:
                embeddings = embed(adj, frame.features)
            ctx = SelectionContext(
                graph=dataset.graph,
                adj=adj,
                features=frame.features,
                embeddings=embeddings,
                probabilities=current.probabilities,
                pool=split.pool,
                history={n: tuple(d) for n, d in history.items()},
                k=config.queries_per_day,
                rng_seed=unit_seed(config.base_seed, strategy, bootstrap, t),
            )
            chosen = select(strategy, ctx).chosen
            if set(chosen) & holdout_set:
                raise AssertionError("holdout node selected for querying")
            for v in chosen:
                history.setdefault(v, []).append(frame.day_index)
            mask = [v for v in chosen if frame.labels[v] != MISSING_LABEL]
            if mask:
                if set(mask) & holdout_set:
                    raise AssertionError("holdout node entered the labeled buffer")
                buffer.append((frame.features, frame.labels, mask))
                trained.update(mask)
            params = train(init_seed, adj, buffer, hyper)
            evaluated = forward(params, adj, frame.features)

        upcoming = forward(params, adj, next_frame.features)
        slices = oracle_build_eval_slices(
            split,
            chosen,
            frame.labels,
            next_frame.labels,
            evaluated.probabilities,
            upcoming.probabilities,
        )
        _oracle_slice_records(values[t - initial], strategy, slices)
        current = upcoming

    if trained & holdout_set:
        raise AssertionError("holdout node entered the labeled buffer")
    return UnitResult(
        split=split,
        values=values,
        query_log=QueryLog(split.pool, history),
        trained_nodes=frozenset(trained),
    )
