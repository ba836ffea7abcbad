import numpy as np
import pytest
from csv_edits import edited
from dataset_oracles import oracle_generate_synthetic, oracle_load_dataset, oracle_save_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from galstream import (
    DataFormatError,
    Dataset,
    DayFrame,
    Graph,
    Split,
    SyntheticConfig,
    datasets,
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


FILES = ("edges", "features", "labels")  # in load_dataset's argument order
SMALL_BLOCK = 64  # bytes: a few lines, so each file of a 16-node dataset spans several blocks
# (bytes of a plain block, rows of a csv.reader block): small, then the defaults
BLOCKS = ((SMALL_BLOCK, 2), (datasets._BLOCK_BYTES, datasets._BLOCK_ROWS))

# Tokens an edit writes into a field: ids in and out of range and in forms ``int``
# accepts that are not plain decimals, labels, cells that are blank, not numbers or
# not finite, and text the csv parser treats specially. No id is large enough to
# size a big grid, which either loader would allocate.
TOKENS = (
    "0", "1", "2", "3", "11", "12", "99", "-1", "-0", "01", " 3", "+3", "1_0", "٣",
    "0.5", " 0.25", "1e-1", "-0.0", "1.0", "x", "x2", "", " ", "nan", "inf", "-Infinity",
    "1e400", '"0.5"', '0.5"', '"a,b"', "4,4", '"1\n"', '"3\n"',
)
EDITS = (
    "replace", "delete", "duplicate", "blank line", "crlf line", "quoted field",
    "extra column", "missing column", "field to line break", "no final newline",
    "empty file", "header only", "crlf file",
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The saved files' texts of a dense 16-node dataset with some labels missing, and
    a directory to write edited copies to."""
    synthetic = SyntheticConfig(
        node_count=16, days=5, feature_dim=2, regime_period=2, p_in=0.9, p_out=0.4
    )
    dataset = generate_synthetic(synthetic, 4)
    missing = np.arange(16) % 3
    frames = tuple(
        DayFrame(f.day_index, f.features, np.where(missing == f.day_index % 3, -1, f.labels))
        for f in dataset.days
    )
    paths = save_dataset(
        Dataset(dataset.graph, frames, dataset.feature_dim), tmp_path_factory.mktemp("saved")
    )
    return {kind: paths[kind].read_text() for kind in FILES}, tmp_path_factory.mktemp("edited")


def _loaded(load, paths):
    """What ``load`` makes of the files: the dataset's bits, or its error."""
    try:
        ds = load(*paths)
    except DataFormatError as exc:
        return str(exc)
    frames = [(f.day_index, f.features.tobytes(), f.labels.tobytes()) for f in ds.days]
    return ds.graph, ds.feature_dim, frames


def _assert_as_row_by_row(paths):
    want = _loaded(oracle_load_dataset, paths)
    for block_bytes, block_rows in BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datasets, "_BLOCK_BYTES", block_bytes)
            mp.setattr(datasets, "_BLOCK_ROWS", block_rows)
            assert _loaded(load_dataset, paths) == want, block_bytes
    return want


def _written(directory, texts):
    paths = [directory / f"{kind}.csv" for kind in FILES]
    for kind, path in zip(FILES, paths):
        path.write_text(texts[kind], newline="")
    return paths


class TestLoadAsRowByRow:
    """``load_dataset`` against ``oracle_load_dataset``, at a small and the default block."""

    @settings(max_examples=200, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(FILES),
                st.sampled_from(EDITS),
                st.integers(0, 10_000),
                st.integers(0, 10_000),
                st.integers(0, 5),
                st.sampled_from(TOKENS),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_edited_files_load_as_row_by_row(self, saved, edits):
        texts, directory = saved
        texts = dict(texts)
        for kind, *edit in edits:
            texts[kind] = edited(texts[kind], *edit)
        _assert_as_row_by_row(_written(directory, texts))

    def test_unedited_files_span_blocks_and_load_as_row_by_row(self, saved):
        texts, directory = saved
        assert min(map(len, texts.values())) > 4 * SMALL_BLOCK
        assert not isinstance(_assert_as_row_by_row(_written(directory, texts)), str)

    @pytest.mark.parametrize(
        "kind, message",
        [("features", "duplicate (day,node) row (0,0)"), ("labels", "duplicate label row (0,")],
    )
    def test_repeat_of_a_row_in_an_earlier_block_named_at_its_line(
        self, saved, kind, message
    ):
        texts, directory = saved
        texts = dict(texts)
        texts[kind] += texts[kind].splitlines(keepends=True)[1]
        paths = _written(directory, texts)
        error = _assert_as_row_by_row(paths)
        line = texts[kind].count("\n")
        assert error.startswith(f"{paths[FILES.index(kind)]}:{line}: {message}")

    @pytest.mark.parametrize("kind", FILES)
    def test_empty_file_named(self, saved, kind):
        texts, directory = saved
        paths = _written(directory, {**texts, kind: ""})
        assert _assert_as_row_by_row(paths) == f"{paths[FILES.index(kind)]}:1: file is empty"

    def test_crlf_copy_loads_the_same_bits(self, saved):
        texts, directory = saved
        want = _assert_as_row_by_row(_written(directory, texts))
        crlf = {kind: text.replace("\n", "\r\n") for kind, text in texts.items()}
        assert _assert_as_row_by_row(_written(directory, crlf)) == want

    def test_crlf_copy_loads_without_csv_reader(self, saved, monkeypatch):
        # every "\r" ends a "\r\n" and no field is quoted, so each block is split as a plain one
        texts, directory = saved
        want = _loaded(load_dataset, _written(directory, texts))
        crlf = {kind: text.replace("\n", "\r\n") for kind, text in texts.items()}

        def no_csv_reader(*args):
            raise AssertionError("a CRLF block was read by csv.reader")

        monkeypatch.setattr(datasets, "_csv_blocks", no_csv_reader)
        for block_bytes, _ in BLOCKS:
            monkeypatch.setattr(datasets, "_BLOCK_BYTES", block_bytes)
            assert _loaded(load_dataset, _written(directory, crlf)) == want

    def test_day_past_int64_loads_in_order(self, tmp_path):
        edges, features, labels = toy_files(tmp_path)
        far = 10**20
        write(features, f"day,node,f0,f1\n{far},0,1.0,2.0\n3,2,3.0,4.0\n{far},1,0.5,\n")
        write(labels, f"day,node,label\n{far},1,1\n")
        got = _assert_as_row_by_row([edges, features, labels])
        assert [day for day, *_ in got[2]] == [3, far]
        ds = load_dataset(edges, features, labels)
        assert ds.days[1].labels.tolist() == [-1, 1, -1]
        assert ds.days[1].features.tolist() == [[1.0, 2.0], [0.5, 0.0], [0.0, 0.0]]


class TestSaveAsRowByRow:
    @pytest.mark.parametrize("n", (12, 40))
    def test_saved_bytes_are_the_cell_writer_bytes(self, tmp_path, n):
        dataset = generate_synthetic(SyntheticConfig(node_count=n, days=6), n)
        frames = tuple(
            DayFrame(10**20 * (f.day_index == 5) + f.day_index, -f.features,
                     np.where(np.arange(n) % 4 == f.day_index % 4, -1, f.labels))
            for f in dataset.days
        )
        dataset = Dataset(dataset.graph, frames, dataset.feature_dim)
        got = save_dataset(dataset, tmp_path / "got")
        want = oracle_save_dataset(dataset, tmp_path / "want")
        for kind in FILES:
            assert got[kind].read_bytes() == want[kind].read_bytes(), kind


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
