"""galstream benchmark: closed-loop ops of one workload, end to end or traced.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload study-small --seed 1 --seconds 20 --trace 0

One client runs one op after another. Set-up is repeated and its median
reported; then ops run until the next one would end past ``--seconds``,
with at least two so that each op's report bytes are compared with the
first op's. ``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs
one untraced op and one traced single-process op and prints the per-layer
metrics. Metric names and units are the ones ``BENCHMARK.json`` declares.

The last line of stdout is the result object; the line before it holds the
run's details (versions, seed, report hashes, samples, trace notes). Scratch
files go to ``.perfbench_work/`` (removed at exit) and spans to
``.perfbench_trace/``, both under the checkout root.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_trace"
MIN_OPS = 2
MAX_MEASURE_S = 120.0  # stop early if the program has slowed badly


def _parse(argv):
    parser = argparse.ArgumentParser(description="galstream benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _with_units(values: dict[str, float], section: str) -> dict:
    """Attach BENCHMARK.json's units; the names must match its list exactly."""
    units = {m["name"]: m["unit"] for m in _declared()[section]}
    if set(values) != set(units):
        raise RuntimeError(
            f"{section} metrics disagree with BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}"
        )
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def _setup(workload, seed: int, tracer=None):
    """Set up ``setup_repeats`` times; returns the last state and every duration.

    With a tracer, set up once and record the datasets-layer spans.
    """
    import spans

    samples = []
    state = None
    for _ in range(1 if tracer is not None else workload.setup_repeats):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        started = perf_counter()
        if tracer is not None:
            with spans.installed(tracer, only_layer="datasets"):
                state = workload.setup(seed, WORK)
        else:
            state = workload.setup(seed, WORK)
        samples.append(perf_counter() - started)
    return state, samples


def _attempt(workload, state, reference, tracer=None):
    """Run one op; returns (OpResult or None, problems)."""
    try:
        result = workload.op(state, tracer)
    except Exception:
        return None, [traceback.format_exc(limit=-3)]
    problems = list(result.problems)
    if reference is not None:
        differ = sorted(n for n in reference if result.digests.get(n) != reference[n])
        if differ:
            problems.append(f"report bytes differ from the first op: {differ}")
    return result, problems


def _hashes(result) -> dict:
    return {n: result.digests[n] for n in ("aggregate.csv", "daily.csv")} if result else {}


def end_to_end(workload, seed: int, seconds: float):
    """Closed loop of untraced ops; returns (attempted, failed, metrics, details)."""
    state, setup_samples = _setup(workload, seed)
    passed, failures = [], []
    reference = state.get("expected")
    started = perf_counter()
    while True:
        op_started = perf_counter()
        result, problems = _attempt(workload, state, reference)
        took = perf_counter() - op_started
        if reference is None and result is not None:
            reference = result.digests
        if problems:
            failures.append(problems)
        else:
            passed.append(result)
        elapsed = perf_counter() - started
        attempted = len(passed) + len(failures)
        if attempted >= MIN_OPS and (elapsed + took > seconds or elapsed > MAX_MEASURE_S):
            break

    def median(values):
        return statistics.median(values) if values else 0.0

    values = {
        "setup_s": median(setup_samples),
        "units_per_s": median([r.units / (r.run_s or r.report_s[0]) for r in passed]),
        "report_s": median([t for r in passed for t in r.report_s]),
        "cpi_accuracy": median([r.cpi_accuracy for r in passed]),
        "op_ok_ratio": len(passed) / attempted,
        "peak_rss_mb": _peak_rss_mb(),
    }
    details = {
        "setup_samples_s": setup_samples,
        "op_samples": len(passed),
        "run_s": [r.run_s for r in passed],
        "report_s": [r.report_s for r in passed],
        "failures": failures,
        "report_sha256": _hashes(passed[0] if passed else None),
    }
    return attempted, len(failures), _with_units(values, "end_to_end"), details


def traced(workload, seed: int):
    """One untraced and one traced op; returns (attempted, failed, metrics, details)."""
    import spans
    from galstream import STRATEGY_NAMES

    setup_tracer = spans.Tracer()
    state, _ = _setup(workload, seed, setup_tracer)
    reference = state.get("expected")
    untraced, untraced_problems = _attempt(workload, state, reference)
    if reference is None and untraced is not None:
        # the manifest records the worker count, which the traced op sets to 1
        reference = {n: d for n, d in untraced.digests.items() if n != "run_manifest.json"}
    tracer = spans.Tracer()
    with spans.installed(tracer):
        result, problems = _attempt(workload, state, reference, tracer)
    if result is not None:
        values, layer_self, tail_labels = spans.summarize(tracer, STRATEGY_NAMES)
        share = sum(layer_self.values()) / result.wall_s
        if not 0.95 <= share <= 1.05:
            problems.append(f"layer self times sum to {share:.3f} of the traced op's wall time")
    failures = [p for p in (untraced_problems, problems) if p]
    details = {"failures": failures, "report_sha256": _hashes(result)}
    if untraced is None or result is None:
        return 2, len(failures), {}, details

    unit_seconds = sum(end - start for name, start, end, _, _ in tracer.spans if name == "harness.unit")
    datasets_s = spans.dataset_seconds(setup_tracer)
    for name, seconds in spans.dataset_seconds(tracer).items():
        datasets_s[name] = datasets_s.get(name, 0.0) + seconds
    values.update(
        {
            "harness.pool_efficiency": (
                unit_seconds / (workload.workers * untraced.run_s) if untraced.run_s else 0.0
            ),
            "graphs.cache_hits": result.cache_hits,
            "graphs.cache_misses": result.cache_misses,
            "reports.bytes_written": result.bytes_written,
            "datasets.load_s": datasets_s.get("datasets.load", 0.0),
            "datasets.generate_s": datasets_s.get("datasets.generate", 0.0),
            "datasets.split_s": datasets_s.get("datasets.split", 0.0),
            "trace.attributed_share": share,
        }
    )

    TRACE_DIR.mkdir(exist_ok=True)
    span_file = TRACE_DIR / f"{workload.name}-{seed}.jsonl"
    tracer.write(span_file)
    details["trace"] = {
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "op_wall_s": result.wall_s,
        "untraced_op_wall_s": untraced.wall_s,
        "overhead_s": result.wall_s - untraced.wall_s if workload.single_process else None,
        "layer_self_s": layer_self,
        "layer_self_sum_s": sum(layer_self.values()),
        "tails": tail_labels,
        "train_share_of_unit_time": values["gcn.train_share"],
        "datasets_from": "the set-up plus the traced op",
        "unwrapped_time": spans.UNWRAPPED,
    }
    if not workload.single_process:
        details["trace"]["overhead_note"] = (
            "not measured: the untraced op runs on a process pool, the traced op in one process"
        )
    return 2, len(failures), _with_units(values, "per_layer"), details


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "galstream" / "__init__.py").is_file():
        print(f"error: no galstream sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    started = perf_counter()
    try:
        if args.trace:
            attempted, failed, metrics, details = traced(workload, args.seed)
        else:
            attempted, failed, metrics, details = end_to_end(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    info = {
        "workload": workload.name,
        "why": next(w["why"] for w in _declared()["workloads"] if w["name"] == workload.name),
        "set_up": workload.setup_what,
        "cold_graph_caches": workloads.COLD_CACHES,
        "environment": _environment(args.seed),
        "total_s": perf_counter() - started,
        **details,
    }
    print(json.dumps(info, default=str))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
