"""Command-line entry points: run, synth, validate, report."""

from __future__ import annotations

import argparse
import sys
import time

from .config import load_config, override_output_dir
from .datasets import generate_synthetic, save_dataset
from .exceptions import GalstreamError
from .harness import load_configured_dataset, run_experiment
from .reports import emit_reports, prepare_output_dir, recompute_reports


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galstream",
        description="Stream-based graph active-learning benchmark engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured experiment and emit reports")
    run.add_argument("--config", required=True, help="INI config or run_manifest.json")
    run.add_argument("--out", default=None, help="override the configured output directory")

    synth = sub.add_parser("synth", help="write synthetic dataset CSVs")
    synth.add_argument("--config", required=True)
    synth.add_argument("--out", required=True, help="directory for edges/features/labels CSVs")

    validate = sub.add_parser("validate", help="parse and check a config; touches no data")
    validate.add_argument("--config", required=True)

    report = sub.add_parser("report", help="recompute derived reports from daily.csv")
    report.add_argument("--result", required=True, help="directory holding a finished run")
    return parser


def _cmd_run(args) -> int:
    config = override_output_dir(load_config(args.config), args.out)
    prepare_output_dir(config.output_dir)
    dataset = load_configured_dataset(config)
    started = time.monotonic()
    result = run_experiment(config, dataset)
    # before emission, so that an error writing the reports cannot hide them
    for strategy, bootstrap, message in result.failures:
        print(f"failed unit {strategy}/bootstrap {bootstrap}: {message}", file=sys.stderr)
    emit_reports(result, config, dataset)
    elapsed = time.monotonic() - started
    n_units = len(config.strategies) * config.bootstraps
    print(
        f"completed {n_units - len(result.failures)}/{n_units} units "
        f"in {elapsed:.1f}s -> {config.output_dir}"
    )
    return 1 if result.failures else 0


def _cmd_synth(args) -> int:
    config = load_config(args.config)
    dataset = generate_synthetic(config.synthetic, config.synthetic_seed)
    paths = save_dataset(dataset, args.out)
    print(
        f"wrote {dataset.node_count} nodes x {dataset.day_count} days "
        f"({dataset.graph.edge_count} edges) -> {paths['edges'].parent}"
    )
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    print(f"config ok: {len(config.strategies)} strategies, source={config.source}")
    return 0


def _cmd_report(args) -> int:
    paths = recompute_reports(args.result)
    print(f"recomputed derived reports under {paths['aggregate.csv'].parent}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "synth": _cmd_synth,
    "validate": _cmd_validate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GalstreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
