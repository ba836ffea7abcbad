import json
import random
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from galstream import (
    ConfigError,
    ExperimentConfig,
    Graph,
    SyntheticConfig,
    build_eval_slices,
    emit_reports,
    harness,
    load_config,
    recompute_reports,
    run_experiment,
    validate_config,
)
from galstream.cli import main as cli_main
from galstream.config import INI_KEYS, config_to_dict
from galstream.datasets import Dataset, DayFrame, Split, save_dataset
from galstream.exceptions import DataFormatError
from galstream.harness import aggregate_records, compute_cpis, load_configured_dataset
from galstream.metrics import PERFORMANCE_METRICS
from galstream.reports import REPORT_FILES, read_daily_records

DERIVED = (
    "aggregate.csv", "rolling.csv", "burden.csv", "tradeoff.csv",
    "centrality_heatmap.csv", "centrality_correlation.csv", "significance.csv",
)
SMALL_SYNTH = SyntheticConfig(
    node_count=12, days=8, feature_dim=2, regime_period=3
)


def small_config(tmp_path, **overrides):
    defaults = dict(
        synthetic=SMALL_SYNTH,
        strategies=("no_al", "random", "degree", "age"),
        initial_days=2,
        queries_per_day=2,
        bootstraps=2,
        epochs=25,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = small_config(tmp)
    result = run_experiment(config)
    return config, result


class TestBuildEvalSlices:
    def setup_method(self):
        self.split = Split(holdout=(0, 1), pool=(2, 3, 4, 5))
        self.labels_now = np.array([1, 0, 1, 1, 0, -1])
        self.labels_next = np.array([0, 1, 0, -1, 1, 1])
        rng = np.random.default_rng(0)
        p = rng.uniform(0.1, 0.9, size=6)
        self.probs_now = np.column_stack([1 - p, p])
        self.probs_next = np.column_stack([p, 1 - p])

    def test_categories_partition_the_pool(self):
        slices = build_eval_slices(
            self.split, (3, 4), self.labels_now, self.labels_next,
            self.probs_now, self.probs_next,
        )
        assert set(slices) == {
            "test_set_same_day", "unqueried_same_day", "unqueried_next_day", "train_next_day",
        }
        assert slices["test_set_same_day"].true_labels.tolist() == [1, 0]
        # unqueried same day = pool minus chosen = {2, 5}; node 5 has no label today
        assert slices["unqueried_same_day"].true_labels.tolist() == [1]
        # next day: node 5 regains a label
        assert slices["unqueried_next_day"].true_labels.tolist() == [0, 1]
        # chosen {3,4}: node 3 missing tomorrow
        assert slices["train_next_day"].true_labels.tolist() == [1]

    def test_no_queries_omits_train_slice_entirely(self):
        slices = build_eval_slices(
            self.split, (), self.labels_now, self.labels_next,
            self.probs_now, self.probs_next,
        )
        assert "train_next_day" not in slices
        assert slices["unqueried_same_day"].true_labels.tolist() == [1, 1, 0]

    def test_emptied_slice_becomes_undefined_marker(self):
        all_missing = np.full(6, -1)
        slices = build_eval_slices(
            self.split, (3, 4), all_missing, self.labels_next,
            self.probs_now, self.probs_next,
        )
        assert slices["test_set_same_day"] is None
        assert slices["unqueried_same_day"] is None
        assert slices["unqueried_next_day"] is not None


class TestRunExperiment:
    def test_no_failures_and_expected_record_shape(self, small_run):
        config, result = small_run
        assert result.failures == []
        days = SMALL_SYNTH.days - 1 - config.initial_days  # query days
        # active strategies: 4 categories; no_al: 3 categories; 7 metrics each
        expected = config.bootstraps * days * 7 * (3 + 3 * 4)
        assert len(result.records) == expected

    def test_rerun_is_bit_identical(self, small_run, tmp_path):
        config, result = small_run
        again = run_experiment(small_config(tmp_path))
        assert again.records == result.records
        assert again.cpis == result.cpis
        assert again.aggregate == result.aggregate

    def test_holdout_never_queried_or_trained(self, small_run):
        config, result = small_run
        for bootstrap, split in result.splits.items():
            holdout = set(split.holdout)
            for (strategy, b), log in result.query_logs.items():
                if b != bootstrap:
                    continue
                assert not holdout & set(log.days_by_node)
            for (strategy, b), trained in result.trained_nodes.items():
                if b != bootstrap:
                    continue
                assert not holdout & trained

    def test_no_node_queried_twice_same_day(self, small_run):
        _, result = small_run
        for log in result.query_logs.values():
            seen = {}
            for node, days in log.days_by_node.items():
                assert len(days) == len(set(days))
                for d in days:
                    seen.setdefault(d, set())
                    assert node not in seen[d]
                    seen[d].add(node)

    def test_active_strategies_query_k_per_day(self, small_run):
        config, result = small_run
        days = SMALL_SYNTH.days - 1 - config.initial_days
        for (strategy, _), log in result.query_logs.items():
            if strategy == "no_al":
                assert log.total_queries == 0
            else:
                assert log.total_queries == config.queries_per_day * days

    def test_no_al_has_no_train_next_day_records(self, small_run):
        _, result = small_run
        categories = {r.category for r in result.records if r.strategy == "no_al"}
        assert "train_next_day" not in categories
        active = {r.category for r in result.records if r.strategy == "degree"}
        assert "train_next_day" in active

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_experiment(small_config(tmp_path, bootstraps=2))
        parallel = run_experiment(small_config(tmp_path, bootstraps=2, workers=2))
        assert serial.records == parallel.records
        assert serial.aggregate == parallel.aggregate

    def test_failing_unit_aborts_only_itself(self, tmp_path, monkeypatch):
        import galstream.harness as harness_mod

        original = harness_mod.run_unit

        def flaky(dataset, config, strategy, bootstrap):
            if strategy == "degree" and bootstrap == 1:
                raise RuntimeError("injected fault")
            return original(dataset, config, strategy, bootstrap)

        monkeypatch.setattr(harness_mod, "run_unit", flaky)
        config = small_config(tmp_path)
        result = run_experiment(config)
        assert len(result.failures) == 1
        assert result.failures[0][:2] == ("degree", 1)
        assert ("degree", 0) in result.query_logs
        assert ("degree", 1) not in result.query_logs
        # other strategies unaffected
        assert {r.strategy for r in result.records} == {"no_al", "random", "degree", "age"}
        # the failed unit writes none of its 4 categories x 7 metrics a day
        days = SMALL_SYNTH.days - 1 - config.initial_days
        assert len(result.records) == days * 7 * (config.bootstraps * (3 + 3 * 4) - 4)
        # and `galstream report` recomputes the derived files without it
        paths = emit_reports(result, config)
        before = {name: paths[name].read_bytes() for name in DERIVED}
        recompute_reports(paths["daily.csv"].parent)
        for name in DERIVED:
            assert paths[name].read_bytes() == before[name], name

    def test_forward_runs_once_per_model_state(self, monkeypatch):
        config = ExperimentConfig(
            synthetic=SyntheticConfig(node_count=40, days=14), bootstraps=1, epochs=5
        )
        dataset = load_configured_dataset(config)
        query_days = dataset.day_count - 1 - config.initial_days
        calls = []
        real_forward = harness.forward

        def counting_forward(*args):
            calls.append(args)
            return real_forward(*args)

        monkeypatch.setattr(harness, "forward", counting_forward)
        # an active unit runs forward after each retrain and for the next day;
        # no_al never retrains, so each day needs only the next day's forward
        for strategy, per_day in (("random", 2), ("no_al", 1)):
            calls.clear()
            harness.run_unit(dataset, config, strategy, 0)
            assert len(calls) == 1 + per_day * query_days

    def test_cpi_of_constant_series_is_defined(self, small_run):
        _, result = small_run
        defined = [v for group in result.cpis.values() for v in group]
        assert defined
        assert all(0.0 <= v <= 1.0 for v in defined)

    def test_cpi_is_taken_over_evenly_spaced_defined_days(self):
        nan = np.nan
        config = ExperimentConfig(strategies=("random",), bootstraps=4)
        table = harness.DailyTable(config, (2, 3, 4, 5, 6))
        accuracy, precision = (PERFORMANCE_METRICS.index(m) for m in ("accuracy", "precision"))
        table.values[0, :, :, 0, accuracy] = [
            [0.5, 0.6, 0.7, 0.8, 0.9],  # every day defined: CPI 0.7
            [nan, nan, 0.4, 0.6, 0.8],  # leading days undefined: CPI 0.6 over days 4-6
            [0.5, nan, 0.5, 0.5, 0.5],  # an interior day undefined: no CPI
            [nan, nan, nan, 0.9, nan],  # one defined day: no CPI
        ]
        table.values[0, :, :, 0, precision] = [[nan] * 5] * 4
        table.values[0, 2, :, 0, precision] = [0.5, nan, 0.5, 0.5, 0.5]  # its only series
        aggregate = aggregate_records(table, compute_cpis(table))
        mean, std, n = aggregate[("random", "test_set_same_day", "cpi_accuracy")]
        assert (mean, std, n) == (pytest.approx(0.65), pytest.approx(0.05), 2)
        assert aggregate[("random", "test_set_same_day", "accuracy")][2] == 4
        assert aggregate[("random", "test_set_same_day", "precision")][2] == 1
        assert ("random", "test_set_same_day", "cpi_precision") not in aggregate

    def test_run_validates_against_dataset(self, tmp_path):
        config = small_config(tmp_path, queries_per_day=50)
        with pytest.raises(ConfigError, match="queries_per_day"):
            run_experiment(config)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    config = small_config(tmp)
    result = run_experiment(config)
    paths = emit_reports(result, config)
    return config, result, paths


class TestReports:
    def test_all_report_files_exist(self, emitted):
        _, _, paths = emitted
        for name in REPORT_FILES:
            assert paths[name].exists(), name

    def test_daily_round_trips(self, emitted):
        config, result, paths = emitted
        records = read_daily_records(paths["daily.csv"], config, load_configured_dataset(config))
        assert records == result.records

    def test_aggregate_recomputed_from_daily_matches(self, emitted):
        config, result, paths = emitted
        records = read_daily_records(paths["daily.csv"], config, load_configured_dataset(config))
        cpis = compute_cpis(records)
        agg = aggregate_records(records, cpis)
        assert cpis == result.cpis
        assert agg == result.aggregate

    def test_recompute_reports_is_byte_identical(self, emitted):
        _, _, paths = emitted
        before = {name: paths[name].read_bytes() for name in DERIVED}
        recompute_reports(paths["daily.csv"].parent)
        for name in DERIVED:
            assert paths[name].read_bytes() == before[name], name

    def test_recompute_ignores_daily_row_order(self, emitted, tmp_path):
        _, _, paths = emitted
        run = shutil.copytree(paths["daily.csv"].parent, tmp_path / "shuffled")
        header, *rows = (run / "daily.csv").read_text().splitlines(keepends=True)
        random.Random(0).shuffle(rows)
        (run / "daily.csv").write_text(header + "".join(rows))
        recompute_reports(run)
        for name in DERIVED:
            assert (run / name).read_bytes() == paths[name].read_bytes(), name

    def test_rerun_from_manifest_reproduces_everything(self, emitted, tmp_path):
        config, _, paths = emitted
        manifest = paths["run_manifest.json"]
        rerun_config = load_config(manifest)
        rerun_config = replace(rerun_config, output_dir=str(tmp_path / "rerun"))
        result = run_experiment(rerun_config)
        new_paths = emit_reports(result, rerun_config)
        for name in REPORT_FILES:
            if name == "run_manifest.json":
                continue  # differs in output_dir and timestamp only
            assert new_paths[name].read_bytes() == paths[name].read_bytes(), name

    def test_no_al_burden_row_is_missing_marker(self, emitted):
        _, _, paths = emitted
        lines = paths["burden.csv"].read_text().splitlines()
        no_al = [l for l in lines if l.startswith("no_al,sampling_entropy")]
        assert no_al == ["no_al,sampling_entropy,NA,NA,NA,0"]

    def test_csv_cells_are_plain_scalars(self, emitted):
        _, _, paths = emitted
        for name in REPORT_FILES:
            if name.endswith(".csv"):
                text = paths[name].read_text()
                assert "np.float" not in text and "np.int" not in text, name

    def test_manifest_contains_resolved_config(self, emitted):
        config, _, paths = emitted
        payload = json.loads(paths["run_manifest.json"].read_text())
        assert payload["config"]["queries_per_day"] == config.queries_per_day
        assert payload["config"]["strategies"] == list(config.strategies)


def _files_dataset(tmp_path, graph, days=range(6)):
    """A stream on ``graph`` over ``days``, saved as a files dataset; label = sign of f0."""
    rng = np.random.default_rng(8)
    frames = []
    for day in days:
        features = rng.normal(size=(graph.node_count, 2))
        frames.append(DayFrame(day, features, (features[:, 0] > 0).astype(int)))
    dataset = Dataset(graph=graph, days=tuple(frames), feature_dim=2)
    paths = save_dataset(dataset, tmp_path / "data")
    return dataset, {f"{key}_path": str(path) for key, path in paths.items()}


@pytest.mark.parametrize(
    "graph, unsupported",
    [
        # the power iteration does not converge in 1000 steps on a long path
        (Graph.from_edges(60, [(i, i + 1) for i in range(59)]), "eigenvector"),
        (Graph(node_count=30, edges=()), "eigenvector"),
    ],
    ids=["path-60", "edgeless-30"],
)
def test_unsupported_centrality_becomes_missing_marker(tmp_path, graph, unsupported):
    dataset, files = _files_dataset(tmp_path, graph)
    config = small_config(
        tmp_path,
        source="files",
        **files,
        strategies=("no_al", "degree", "random"),
        initial_days=2,
        bootstraps=1,
        epochs=5,
    )
    paths = emit_reports(run_experiment(config, dataset), config, dataset)
    heatmap = paths["centrality_heatmap.csv"].read_text().splitlines()
    column = heatmap[0].split(",").index(unsupported)
    assert [row.split(",")[column] for row in heatmap[1:]] == ["NA"] * 3
    correlation = [
        row for row in paths["centrality_correlation.csv"].read_text().splitlines()
        if row.split(",")[1] == unsupported
    ]
    assert len(correlation) == 3 * 3 * 2
    assert all(row.endswith(",NA,NA,0") for row in correlation)
    before = {name: paths[name].read_bytes() for name in REPORT_FILES}
    recompute_reports(paths["daily.csv"].parent)
    for name in REPORT_FILES:
        if name != "run_manifest.json":
            assert paths[name].read_bytes() == before[name], name


def test_report_reads_the_query_days_of_a_files_dataset(tmp_path):
    # days from 1 with a gap: the query days are 3, 5 and 6
    graph = Graph.from_edges(12, [(i, i + 1) for i in range(11)])
    dataset, files = _files_dataset(tmp_path, graph, days=(1, 2, 3, 5, 6, 7))
    config = small_config(tmp_path, source="files", **files, strategies=("no_al", "random"))
    result = run_experiment(config, dataset)
    assert {r.day for r in result.records} == {3, 5, 6}
    paths = emit_reports(result, config, dataset)
    before = {name: paths[name].read_bytes() for name in DERIVED}
    recompute_reports(paths["daily.csv"].parent)
    for name in DERIVED:
        assert paths[name].read_bytes() == before[name], name
    daily = paths["daily.csv"]
    daily.write_text(_inserting("random,0,4,test_set_same_day,accuracy,0.5")(daily.read_text()))
    with pytest.raises(DataFormatError, match="daily.csv:2: day 4 is not a query day"):
        recompute_reports(daily.parent)


# [section] key -> (raw value, field path, parsed value); every value is valid
# and differs from the default
INI_SAMPLES = {
    ("dataset", "source"): ("files", "source", "files"),
    ("dataset", "name"): ("sensors", "name", "sensors"),
    ("dataset", "edges"): ("e.csv", "edges_path", "e.csv"),
    ("dataset", "features"): ("f.csv", "features_path", "f.csv"),
    ("dataset", "labels"): ("l.csv", "labels_path", "l.csv"),
    ("synthetic", "nodes"): ("50", "synthetic.node_count", 50),
    ("synthetic", "communities"): ("3", "synthetic.community_count", 3),
    ("synthetic", "days"): ("20", "synthetic.days", 20),
    ("synthetic", "feature_dim"): ("5", "synthetic.feature_dim", 5),
    ("synthetic", "regime_period"): ("4", "synthetic.regime_period", 4),
    ("synthetic", "p_in"): ("0.4", "synthetic.p_in", 0.4),
    ("synthetic", "p_out"): ("0.1", "synthetic.p_out", 0.1),
    ("synthetic", "noise"): ("0.3", "synthetic.noise", 0.3),
    ("synthetic", "offset_scale"): ("2.0", "synthetic.offset_scale", 2.0),
    ("synthetic", "seed"): ("7", "synthetic_seed", 7),
    ("experiment", "strategies"): ("random, degree", "strategies", ("random", "degree")),
    ("experiment", "initial_days"): ("4", "initial_days", 4),
    ("experiment", "queries_per_day"): ("3", "queries_per_day", 3),
    ("experiment", "bootstraps"): ("2", "bootstraps", 2),
    ("experiment", "holdout_fraction"): ("0.25", "holdout_fraction", 0.25),
    ("experiment", "base_seed"): ("5", "base_seed", 5),
    ("experiment", "gap_thresholds"): ("2,4", "gap_thresholds", (2, 4)),
    ("experiment", "reference_gap"): ("2", "reference_gap", 2),
    ("experiment", "rolling_window"): ("3", "rolling_window", 3),
    ("experiment", "embedding_mode"): ("direct", "embedding_mode", "direct"),
    ("experiment", "tradeoff_metric"): ("f1_macro", "tradeoff_metric", "f1_macro"),
    ("experiment", "significance_unit"): (
        "bootstrap_mean", "significance_unit", "bootstrap_mean"
    ),
    ("experiment", "workers"): ("3", "workers", 3),
    ("experiment", "output_dir"): ("elsewhere", "output_dir", "elsewhere"),
    ("model", "hidden_dim"): ("8", "hidden_dim", 8),
    ("model", "learning_rate"): ("0.1", "learning_rate", 0.1),
    ("model", "epochs"): ("50", "epochs", 50),
}


class TestConfigFile:
    def test_ini_round_trip(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[dataset]\nsource = synthetic\nname = demo\n\n"
            "[synthetic]\nnodes = 12\ndays = 8\nfeature_dim = 2\nregime_period = 3\nseed = 2\n\n"
            "[experiment]\nstrategies = random, degree\ninitial_days = 2\n"
            "queries_per_day = 2\nbootstraps = 3\ngap_thresholds = 1,3\n\n"
            "[model]\nepochs = 10\n"
        )
        config = load_config(ini)
        assert config.synthetic.node_count == 12
        assert config.strategies == ("random", "degree")
        assert config.gap_thresholds == (1, 3)
        assert config.epochs == 10
        assert config.holdout_fraction == 0.2  # default

    def test_strategies_all_keyword(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[dataset]\nsource = synthetic\n\n[experiment]\nstrategies = all\n")
        assert len(load_config(ini).strategies) == 13

    def test_unknown_key_rejected(self, tmp_path):
        # a removed key, which every manifest written before its removal records
        stale = {"config": {**config_to_dict(ExperimentConfig()), "pagerank_damping": 0.85}}
        for name, body, key in (
            ("exp.ini", "[dataset]\nsource = synthetic\nflavour = mild\n", "flavour"),
            (
                "exp.ini",
                "[dataset]\nsource = synthetic\n\n[model]\npagerank_damping = 0.85\n",
                "pagerank_damping",
            ),
            ("run_manifest.json", json.dumps(stale), "pagerank_damping"),
        ):
            path = tmp_path / name
            path.write_text(body)
            with pytest.raises(ConfigError, match=key):
                load_config(path)

    def test_ini_key_table_is_the_settable_keys(self):
        assert {(s, k) for s, keys in INI_KEYS.items() for k in keys} == set(INI_SAMPLES)
        assert len(INI_SAMPLES) == 32

    @pytest.mark.parametrize("section,key", sorted(INI_SAMPLES))
    def test_each_ini_key_sets_the_field_it_names(self, tmp_path, section, key):
        raw, field_path, want = INI_SAMPLES[(section, key)]
        lines = {"dataset": ["source = synthetic"]}
        if key == "source":  # a files source must name its files
            lines["dataset"] = ["edges = e.csv", "features = f.csv", "labels = l.csv"]
        lines.setdefault(section, []).append(f"{key} = {raw}")
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "".join(f"[{s}]\n" + "\n".join(body) + "\n\n" for s, body in lines.items())
        )
        got, default = load_config(ini), ExperimentConfig()
        for attr in field_path.split("."):
            got, default = getattr(got, attr), getattr(default, attr)
        assert got == want
        assert got != default

    def test_missing_source_rejected(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[experiment]\nbootstraps = 2\n")
        with pytest.raises(ConfigError, match="source"):
            load_config(ini)

    def test_files_source_requires_paths(self):
        with pytest.raises(ConfigError, match="edges_path"):
            validate_config(ExperimentConfig(source="files"))

    def test_invariant_checks(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(initial_days=0))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(base_seed=-1))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(strategies=("degree", "degree")))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(strategies=("quantum",)))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(gap_thresholds=(0,)))
        with pytest.raises(ConfigError, match="gap_thresholds must not repeat"):
            validate_config(ExperimentConfig(gap_thresholds=(1, 1)))


def _replacing(old, new):
    """An edit that replaces the first ``old`` of a file's text."""

    def edit(text):
        assert old in text
        return text.replace(old, new, 1)

    return edit


def _inserting(row):
    """An edit that inserts ``row`` right after a CSV's header, as its line 2."""
    return lambda text: text.replace("\n", f"\n{row}\n", 1)


def _appending(row):
    """An edit that adds ``row`` as a CSV's last line."""
    return lambda text: f"{text}{row}\n"


def _deleting_line(number):
    """An edit that deletes a file's line ``number``, counting from 1."""

    def edit(text):
        lines = text.splitlines(keepends=True)
        del lines[number - 1]
        return "".join(lines)

    return edit


def _repeating_first_row(text):
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, first, first, rest])


class TestCli:
    def write_config(self, tmp_path, **kv):
        ini = tmp_path / "cfg.ini"
        body = (
            "[dataset]\nsource = synthetic\n\n"
            "[synthetic]\nnodes = 12\ndays = 8\nfeature_dim = 2\nregime_period = 3\n\n"
            "[experiment]\nstrategies = random, degree, no_al\ninitial_days = 2\n"
            f"queries_per_day = {kv.get('k', 2)}\nbootstraps = 2\n"
            f"gap_thresholds = {kv.get('gaps', '1,2,3,4,5')}\n"
            f"output_dir = {tmp_path / 'results'}\n\n"
            "[model]\nepochs = 10\n"
        )
        ini.write_text(body)
        return ini

    def test_validate_ok(self, tmp_path, capsys):
        ini = self.write_config(tmp_path)
        assert cli_main(["validate", "--config", str(ini)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_shipped_example_config(self, capsys):
        example = Path(__file__).resolve().parent.parent / "configs" / "example.ini"
        assert cli_main(["validate", "--config", str(example)]) == 0
        assert "13 strategies" in capsys.readouterr().out

    def test_validate_rejects_oversized_budget(self, tmp_path, capsys):
        ini = self.write_config(tmp_path, k=99)
        assert cli_main(["validate", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "queries_per_day" in err

    def test_repeated_gap_threshold_rejected(self, tmp_path, capsys):
        ini = self.write_config(tmp_path, gaps="1,3,1")
        for command in ("validate", "run"):
            assert cli_main([command, "--config", str(ini)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "gap_thresholds must not repeat" in err
        assert not (tmp_path / "results").exists()

    def test_synth_then_run_on_files(self, tmp_path, capsys):
        ini = self.write_config(tmp_path)
        data_dir = tmp_path / "data"
        assert cli_main(["synth", "--config", str(ini), "--out", str(data_dir)]) == 0
        files_ini = tmp_path / "files.ini"
        files_ini.write_text(
            "[dataset]\nsource = files\n"
            f"edges = {data_dir / 'edges.csv'}\n"
            f"features = {data_dir / 'features.csv'}\n"
            f"labels = {data_dir / 'labels.csv'}\n\n"
            "[experiment]\nstrategies = random\ninitial_days = 2\nqueries_per_day = 2\n"
            f"bootstraps = 1\noutput_dir = {tmp_path / 'file_results'}\n\n"
            "[model]\nepochs = 5\n"
        )
        assert cli_main(["run", "--config", str(files_ini)]) == 0
        assert (tmp_path / "file_results" / "aggregate.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epochs", "200"),
            ("workers", True),
            ("learning_rate", "0.05"),
            ("gap_thresholds", [1, "2"]),
            ("strategies", ["random", 1]),
            ("synthetic", "synthetic"),
            ("synthetic.node_count", 12.0),
        ],
    )
    def test_manifest_value_of_the_wrong_json_type_is_named(self, tmp_path, capsys, key, value):
        ini = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(ini)]) == 0
        manifest = tmp_path / "results" / "run_manifest.json"
        payload = json.loads(manifest.read_text())
        owner, _, name = key.rpartition(".")
        (payload["config"][owner] if owner else payload["config"])[name] = value
        manifest.write_text(json.dumps(payload))
        capsys.readouterr()
        for argv in (
            ["validate", "--config", str(manifest)],
            ["run", "--config", str(manifest), "--out", str(tmp_path / "rerun")],
            ["report", "--result", str(manifest.parent)],
        ):
            assert cli_main(argv) == 2, argv
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"error: invalid manifest config: {key} = {value!r}")
        assert not (tmp_path / "rerun").exists()

    def test_manifest_float_may_be_written_as_an_int(self, tmp_path, capsys):
        ini = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(ini)]) == 0
        manifest = tmp_path / "results" / "run_manifest.json"
        payload = json.loads(manifest.read_text())
        payload["config"]["learning_rate"] = 1
        manifest.write_text(json.dumps(payload))
        assert cli_main(["validate", "--config", str(manifest)]) == 0

    def test_run_and_report(self, tmp_path, capsys):
        ini = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(ini)]) == 0
        out = tmp_path / "results"
        assert cli_main(["report", "--result", str(out)]) == 0

    def test_missing_config_is_machine_parsable_error(self, tmp_path, capsys):
        (tmp_path / "malformed.json").write_text("{not json")
        (tmp_path / "list.json").write_text("[]")
        for name in ("nope.ini", "malformed.json", "list.json"):
            assert cli_main(["validate", "--config", str(tmp_path / name)]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith("error:")

    @pytest.mark.parametrize("body", ["{}", "{not", "[]", '{"config": []}'])
    def test_bad_manifest_is_machine_parsable_report_error(self, tmp_path, capsys, body):
        (tmp_path / "run_manifest.json").write_text(body)
        assert cli_main(["report", "--result", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("daily.csv", _replacing(",value\n", ",score\n"), "daily.csv:1"),
            (
                "daily.csv",
                _replacing(",accuracy,", ",accuracy\n"),
                "daily.csv:2: expected 6 columns, got 5",
            ),
            ("queries.csv", _replacing(",node\n", ",vertex\n"), "queries.csv:1"),
            (
                "run_manifest.json",
                _replacing('"failures": []', '"failures": [["random"]]'),
                "failures",
            ),
            (
                "run_manifest.json",
                _replacing('"failures": []', '"failures": [["bogus", 0, "x"]]'),
                "failures entry ['bogus', 0] names no unit of this run",
            ),
            (
                "run_manifest.json",
                _replacing('"failures": []', '"failures": [["random", 99, "x"]]'),
                "failures entry ['random', 99] names no unit of this run",
            ),
            (
                "daily.csv",
                _inserting("random,x,2,test_set_same_day,accuracy,0.5"),
                "daily.csv:2: invalid literal for int()",
            ),
            ("queries.csv", _inserting("random,0,two,3"), "queries.csv:2: invalid literal"),
            (
                "daily.csv",
                _inserting("random,0,2,test_set_same_day,accuracy,nan"),
                "daily.csv:2: values must be finite and lie in [0, 1]",
            ),
            (
                "daily.csv",
                _inserting("random,0,2,test_set_same_day,accuracy,1.5"),
                "daily.csv:2: values must be finite and lie in [0, 1]",
            ),
            ("queries.csv", _repeating_first_row, "queries.csv:3: repeats the query of node"),
            (
                "queries.csv",
                _inserting("random,0,1,999"),
                "queries.csv:2: queried node 999 is not a pool node",
            ),
            ("daily.csv", _repeating_first_row, "daily.csv:3: repeats the accuracy of random"),
            (
                "daily.csv",
                lambda text: _repeating_first_row(text) + "random,0,2,elsewhere,accuracy,0.5\n",
                "daily.csv:3: repeats the accuracy of random",
            ),
            (
                "queries.csv",
                _inserting("bogus,0,1,3"),
                "queries.csv:2: bogus bootstrap 0 is not a logged unit",
            ),
            (
                "queries.csv",
                _inserting("random,7,1,3"),
                "queries.csv:2: random bootstrap 7 is not a logged unit",
            ),
            (
                "daily.csv",
                _inserting("bogus,0,2,test_set_same_day,accuracy,0.5"),
                "daily.csv:2: unknown strategy 'bogus'",
            ),
            (
                "daily.csv",
                _inserting("random,0,2,elsewhere,accuracy,0.5"),
                "daily.csv:2: unknown category 'elsewhere'",
            ),
            (
                "daily.csv",
                _inserting("random,0,2,test_set_same_day,loss,0.5"),
                "daily.csv:2: unknown metric 'loss'",
            ),
            (
                "daily.csv",
                _inserting("age,0,2,test_set_same_day,accuracy,0.5"),
                "daily.csv:2: age bootstrap 0 is not a unit of this run",
            ),
            (
                "daily.csv",
                _inserting("random,9,6,test_set_same_day,accuracy,0.5"),
                "daily.csv:2: random bootstrap 9 is not a unit of this run",
            ),
            (
                "run_manifest.json",
                _replacing('"failures": []', '"failures": [["random", 0, "RuntimeError: x"]]'),
                "daily.csv:2: random bootstrap 0 is not a unit of this run",
            ),
            (
                "daily.csv",
                _inserting("random,0,99,test_set_same_day,accuracy,0.5"),
                "daily.csv:2: day 99 is not a query day",
            ),
            (
                "daily.csv",
                _inserting("random,0,1,test_set_same_day,accuracy,0.5"),
                "daily.csv:2: day 1 is not a query day",
            ),
            (
                "daily.csv",
                _inserting("random,0,7,test_set_same_day,accuracy,0.5"),
                "daily.csv:2: day 7 is not a query day",
            ),
            (
                "daily.csv",
                _deleting_line(5),
                "daily.csv: no row for the f1_micro of random bootstrap 0 on day 2"
                " in test_set_same_day",
            ),
            (
                "daily.csv",
                _appending("no_al,0,2,train_next_day,accuracy,0.5"),
                "daily.csv:772: no_al scores no train_next_day",
            ),
            (
                "queries.csv",
                _appending("random,0,99,3"),
                "queries.csv:42: day 99 is not a query day",
            ),
        ],
        ids=[
            "daily-header",
            "daily-short-row",
            "queries-header",
            "manifest-failure-entry",
            "manifest-failure-unknown-strategy",
            "manifest-failure-bootstrap-out-of-range",
            "daily-non-numeric",
            "queries-non-numeric",
            "daily-nan",
            "daily-out-of-range",
            "queries-repeated-row",
            "queries-non-pool-node",
            "daily-repeated-row",
            "daily-repeated-row-before-a-bad-row",
            "queries-unknown-strategy",
            "queries-bootstrap-out-of-range",
            "daily-unknown-strategy",
            "daily-unknown-category",
            "daily-unknown-metric",
            "daily-strategy-not-run",
            "daily-bootstrap-out-of-range",
            "daily-failed-unit",
            "daily-day-out-of-range",
            "daily-day-before-first-query-day",
            "daily-day-after-last-query-day",
            "daily-missing-row",
            "daily-no-al-train-row",
            "queries-day-out-of-range",
        ],
    )
    def test_malformed_run_is_machine_parsable_report_error(
        self, tmp_path, capsys, name, edit, message
    ):
        ini = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(ini)]) == 0
        path = tmp_path / "results" / name
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert cli_main(["report", "--result", str(tmp_path / "results")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")
        assert message in err[0]
