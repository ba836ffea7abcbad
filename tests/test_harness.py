import json
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
from galstream.harness import aggregate_records, compute_cpis, load_configured_dataset
from galstream.reports import REPORT_FILES, read_daily_records

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
            self.split, (3, 4), 5, self.labels_now, self.labels_next,
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
            self.split, (), 5, self.labels_now, self.labels_next,
            self.probs_now, self.probs_next,
        )
        assert "train_next_day" not in slices
        assert slices["unqueried_same_day"].true_labels.tolist() == [1, 1, 0]

    def test_emptied_slice_becomes_undefined_marker(self):
        all_missing = np.full(6, -1)
        slices = build_eval_slices(
            self.split, (3, 4), 5, all_missing, self.labels_next,
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
        result = run_experiment(small_config(tmp_path))
        assert len(result.failures) == 1
        assert result.failures[0][:2] == ("degree", 1)
        assert ("degree", 0) in result.query_logs
        assert ("degree", 1) not in result.query_logs
        # other strategies unaffected
        assert {r.strategy for r in result.records} == {"no_al", "random", "degree", "age"}

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
        defined = [v for v in result.cpis.values() if v is not None]
        assert defined
        assert all(0.0 <= v <= 1.0 for v in defined)

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
        _, result, paths = emitted
        records = read_daily_records(paths["daily.csv"])
        assert records == result.records

    def test_aggregate_recomputed_from_daily_matches(self, emitted):
        _, result, paths = emitted
        records = read_daily_records(paths["daily.csv"])
        cpis = compute_cpis(records)
        agg = aggregate_records(records, cpis)
        assert set(agg) == set(result.aggregate)
        for key, (mean, std, n) in agg.items():
            want = result.aggregate[key]
            assert abs(mean - want[0]) < 1e-12
            assert abs(std - want[1]) < 1e-12
            assert n == want[2]

    def test_recompute_reports_is_byte_identical(self, emitted):
        _, _, paths = emitted
        derived = [
            "aggregate.csv", "rolling.csv", "burden.csv", "tradeoff.csv",
            "centrality_heatmap.csv", "centrality_correlation.csv", "significance.csv",
        ]
        before = {name: paths[name].read_bytes() for name in derived}
        recompute_reports(paths["daily.csv"].parent)
        for name in derived:
            assert paths[name].read_bytes() == before[name], name

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


def _files_dataset(tmp_path, graph):
    """A 6-day stream on ``graph``, saved as a files dataset; label = sign of f0."""
    rng = np.random.default_rng(8)
    frames = []
    for day in range(6):
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


class TestCli:
    def write_config(self, tmp_path, **kv):
        ini = tmp_path / "cfg.ini"
        body = (
            "[dataset]\nsource = synthetic\n\n"
            "[synthetic]\nnodes = 12\ndays = 8\nfeature_dim = 2\nregime_period = 3\n\n"
            "[experiment]\nstrategies = random, degree\ninitial_days = 2\n"
            f"queries_per_day = {kv.get('k', 2)}\nbootstraps = 2\n"
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
