import numpy as np
import pytest
from dataset_oracles import oracle_generate_synthetic

from galstream import (
    DataFormatError,
    Dataset,
    DayFrame,
    Graph,
    Split,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    make_split,
    modularity_partition,
    save_dataset,
    synthetic_communities,
)


def write(path, text):
    path.write_text(text)
    return path


def toy_files(tmp_path):
    edges = write(tmp_path / "edges.csv", "src,dst\n0,1\n1,2\n")
    features = write(
        tmp_path / "features.csv",
        "day,node,f0,f1\n"
        "0,0,1.0,2.0\n0,1,3.0,4.0\n0,2,5.0,6.0\n"
        "1,0,1.5,2.5\n1,1,3.5,4.5\n1,2,5.5,6.5\n",
    )
    labels = write(
        tmp_path / "labels.csv",
        "day,node,label\n0,0,1\n0,1,0\n0,2,1\n1,0,0\n1,1,1\n1,2,0\n",
    )
    return edges, features, labels


class TestLoadDataset:
    def test_toy_files_round_through(self, tmp_path):
        ds = load_dataset(*toy_files(tmp_path))
        assert ds.node_count == 3
        assert ds.day_count == 2
        assert ds.graph.edges == ((0, 1), (1, 2))
        assert ds.days[0].features[1].tolist() == [3.0, 4.0]
        assert ds.days[1].labels.tolist() == [0, 1, 0]

    def test_blank_feature_cell_becomes_zero(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(
            features,
            "day,node,f0,f1\n0,0,,2.0\n0,1,3.0,4.0\n0,2,5.0,6.0\n",
        )
        write(labels, "day,node,label\n0,0,1\n")
        ds = load_dataset(edges, features, labels)
        assert ds.days[0].features[0].tolist() == [0.0, 2.0]

    def test_absent_label_rows_are_missing(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(labels, "day,node,label\n0,0,1\n")
        ds = load_dataset(edges, features, labels)
        assert ds.days[0].labels.tolist() == [1, -1, -1]
        assert ds.days[1].labels.tolist() == [-1, -1, -1]

    def test_non_binary_label_names_the_line(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(labels, "day,node,label\n0,0,1\n0,1,2\n")
        with pytest.raises(DataFormatError, match=r"labels\.csv:3"):
            load_dataset(edges, features, labels)

    def test_unknown_edge_endpoint_names_the_line(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(edges, "src,dst\n0,1\n0,9\n")
        with pytest.raises(DataFormatError, match=r"edges\.csv:3"):
            load_dataset(edges, features, labels)

    def test_row_after_a_quoted_line_break_names_its_line(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(edges, 'src,dst\n"0\n",1\n0,9\n')
        with pytest.raises(DataFormatError, match=r"edges\.csv:4: edge \(0,9\)"):
            load_dataset(edges, features, labels)

    def test_negative_feature_node_names_the_line(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(features, "day,node,f0,f1\n0,0,1.0,2.0\n0,1,3.0,4.0\n0,-1,9.0,9.0\n")
        with pytest.raises(DataFormatError, match=r"features\.csv:4: unknown node id -1"):
            load_dataset(edges, features, labels)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_feature_cell_names_the_line(self, tmp_path, cell):
        edges, features, labels = toy_files(tmp_path)
        write(features, f"day,node,f0,f1\n0,0,1.0,2.0\n0,1,3.0,{cell}\n")
        with pytest.raises(
            DataFormatError, match=r"features\.csv:3: feature cells must be finite"
        ):
            load_dataset(edges, features, labels)

    def test_unparsable_feature_cell_names_the_line(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(features, "day,node,f0,f1\n0,0,1.0,x2\n")
        with pytest.raises(
            DataFormatError, match=r"features\.csv:2: feature cell 'x2' is not a number"
        ):
            load_dataset(edges, features, labels)

    def test_duplicate_feature_row_rejected(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(features, "day,node,f0,f1\n0,0,1.0,2.0\n0,0,1.0,2.0\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_dataset(edges, features, labels)

    def test_self_loop_rejected(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(edges, "src,dst\n1,1\n")
        with pytest.raises(DataFormatError, match="self-loop"):
            load_dataset(edges, features, labels)

    def test_label_for_unknown_day_rejected(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        write(labels, "day,node,label\n7,0,1\n")
        with pytest.raises(DataFormatError, match="day 7"):
            load_dataset(edges, features, labels)


class TestSaveLoadRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        original = generate_synthetic(SyntheticConfig(node_count=12, days=5), seed=3)
        paths = save_dataset(original, tmp_path / "out")
        loaded = load_dataset(paths["edges"], paths["features"], paths["labels"])
        assert loaded.graph == original.graph
        assert loaded.day_count == original.day_count
        for a, b in zip(loaded.days, original.days):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_round_trip_preserves_missing_labels(self, tmp_path):
        g = Graph.from_edges(3, [(0, 1)])
        frames = (
            DayFrame(0, np.array([[0.5], [1.5], [-2.0]]), np.array([1, -1, 0])),
        )
        ds = Dataset(graph=g, days=frames, feature_dim=1)
        paths = save_dataset(ds, tmp_path / "o")
        loaded = load_dataset(paths["edges"], paths["features"], paths["labels"])
        assert loaded.days[0].labels.tolist() == [1, -1, 0]


class TestSynthetic:
    def test_identical_seeds_are_bit_identical(self):
        a = generate_synthetic(SyntheticConfig(), 7)
        b = generate_synthetic(SyntheticConfig(), 7)
        assert a.graph == b.graph
        for fa, fb in zip(a.days, b.days):
            assert np.array_equal(fa.features, fb.features)
            assert np.array_equal(fa.labels, fb.labels)

    @pytest.mark.parametrize("n", (10, 40, 120, 300))
    def test_matches_pair_at_a_time_reference(self, n):
        for seed in range(6):
            config = SyntheticConfig(node_count=n, community_count=2 + seed % 3, days=5)
            got = generate_synthetic(config, seed)
            want = oracle_generate_synthetic(config, seed)
            assert got.graph == want.graph
            for a, b in zip(got.days, want.days, strict=True):
                assert a.features.tobytes() == b.features.tobytes()
                assert a.labels.tobytes() == b.labels.tobytes()

    def test_labels_balanced_over_twenty_seeds(self):
        for seed in range(20):
            ds = generate_synthetic(SyntheticConfig(), seed)
            labels = np.concatenate([f.labels for f in ds.days])
            positive = (labels == 1).mean()
            assert 0.3 <= positive <= 0.7, f"seed {seed}: {positive:.3f}"

    def test_community_structure_recoverable(self):
        config = SyntheticConfig(node_count=30, community_count=2, p_in=0.8, p_out=0.05)
        truth = synthetic_communities(config)
        for seed in range(5):
            ds = generate_synthetic(config, seed)
            part = modularity_partition(ds.graph)
            agree = total = 0
            for i in range(30):
                for j in range(i + 1, 30):
                    total += 1
                    same_truth = truth[i] == truth[j]
                    same_found = part.community_of[i] == part.community_of[j]
                    agree += same_truth == same_found
            assert agree / total >= 0.9

    def test_noiseless_labels_linear_in_first_feature(self):
        ds = generate_synthetic(SyntheticConfig(noise=0.0), seed=5)
        for frame in ds.days:
            assert ((frame.features[:, 0] > 0).astype(int) == frame.labels).all()

    def test_undetectable_communities_rejected(self):
        with pytest.raises(ValueError, match="p_in"):
            SyntheticConfig(p_in=0.05, p_out=0.05)

    def test_dimension_minimums(self):
        with pytest.raises(ValueError):
            SyntheticConfig(node_count=5)
        with pytest.raises(ValueError):
            SyntheticConfig(community_count=1)
        with pytest.raises(ValueError):
            SyntheticConfig(feature_dim=1)
        with pytest.raises(ValueError):
            SyntheticConfig(regime_period=1)


class TestMakeSplit:
    def test_twenty_percent_of_thirty(self):
        ds = generate_synthetic(SyntheticConfig(node_count=30), seed=0)
        split = make_split(ds, 0.2, seed=4)
        assert len(split.holdout) == 6
        assert len(split.pool) == 24

    def test_two_nodes_half_and_half(self):
        g = Graph.from_edges(2, [(0, 1)])
        frames = tuple(
            DayFrame(d, np.zeros((2, 2)), np.zeros(2, dtype=int)) for d in range(4)
        )
        ds = Dataset(graph=g, days=frames, feature_dim=2)
        split = make_split(ds, 0.5, seed=0)
        assert len(split.holdout) == 1
        assert len(split.pool) == 1

    def test_deterministic_and_partitioning(self):
        ds = generate_synthetic(SyntheticConfig(), seed=1)
        a = make_split(ds, 0.2, seed=9)
        b = make_split(ds, 0.2, seed=9)
        assert a == b
        assert set(a.holdout) | set(a.pool) == set(range(40))
        assert not set(a.holdout) & set(a.pool)

    def test_degenerate_fractions_rejected(self):
        ds = generate_synthetic(SyntheticConfig(), seed=1)
        with pytest.raises(ValueError):
            make_split(ds, 0.001, seed=0)
        with pytest.raises(ValueError):
            make_split(ds, 1.5, seed=0)

    def test_overlap_rejected_by_split_type(self):
        with pytest.raises(ValueError):
            Split(holdout=(0, 1), pool=(1, 2))
