import numpy as np
import pytest

from glad import io
from glad.generator import (
    InjectionConfig,
    inject_activity_anomalies,
    inject_anomalies,
    inject_dynamic_change,
)
from glad.model import ActivityDataset, Dataset, DynamicDataset


# ---------------------------------------------------------------------------
# feature CSV
# ---------------------------------------------------------------------------

def test_static_features_round_trip(tmp_path):
    cfg = InjectionConfig(n_nodes=40, n_groups=4, trials_per_person=12, seed=0)
    data, truth = inject_anomalies(cfg)
    io.write_dataset(tmp_path, data, truth)
    text = (tmp_path / "features.csv").read_text()
    assert text.splitlines()[0] == "node_id,f_1,f_2"
    assert len(text.splitlines()) == 41  # header + one row per node
    back = io.read_static_features(tmp_path / "features.csv")
    np.testing.assert_array_equal(back, data.features)


def test_static_features_reject_gaps(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("node_id,f_1\n0,3\n2,1\n")
    with pytest.raises(ValueError, match="0..N-1"):
        io.read_static_features(p)


def test_feature_header_is_checked(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("id,f_1\n0,3\n")
    with pytest.raises(ValueError, match="node_id,f_1"):
        io.read_static_features(p)
    p.write_text("node_id,f_1\n0,x\n")
    with pytest.raises(ValueError, match="integers"):
        io.read_static_features(p)


def test_activity_features_round_trip(tmp_path):
    cfg = InjectionConfig(n_nodes=20, n_groups=2, seed=1)
    data, truth = inject_activity_anomalies(cfg, activities=5)
    io.write_dataset(tmp_path, data, truth)
    ids, indptr = io.read_activity_features(tmp_path / "features.csv", 20, 2)
    np.testing.assert_array_equal(ids, data.feature_ids)
    np.testing.assert_array_equal(indptr, data.act_indptr)


def test_activity_features_must_be_one_hot(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("node_id,f_1,f_2\n0,1,1\n")
    with pytest.raises(ValueError, match="one-hot"):
        io.read_activity_features(p, 1, 2)
    p.write_text("node_id,f_1,f_2\n5,1,0\n")
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        io.read_activity_features(p, 2, 2)


def test_activity_features_node_without_rows_gets_empty_array(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("node_id,f_1,f_2\n0,1,0\n2,0,1\n")
    ids, indptr = io.read_activity_features(p, 3, 2)
    np.testing.assert_array_equal(ids, [0, 1])
    np.testing.assert_array_equal(indptr, [0, 1, 1, 2])


def test_activity_features_group_by_node_stably(tmp_path):
    # rows out of node order are grouped by node, each person's rows in
    # file order
    p = tmp_path / "f.csv"
    p.write_text("node_id,f_1,f_2,f_3\n2,0,0,1\n0,0,1,0\n2,1,0,0\n0,1,0,0\n2,0,1,0\n")
    ids, indptr = io.read_activity_features(p, 4, 3)
    np.testing.assert_array_equal(ids, [1, 0, 2, 0, 1])
    np.testing.assert_array_equal(indptr, [0, 2, 2, 5, 5])


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_features_read_other_line_endings_as_lines(tmp_path, newline):
    # the rows after the header are counted on the file's bytes, as the
    # edge lines are: no row may be lost to a line ending other than \n
    p = tmp_path / "f.csv"
    p.write_bytes(newline.join([b"node_id,f_1,f_2", b"0,1,0", b"1,0,1", b"0,0,1"]) + newline)
    ids, indptr = io.read_activity_features(p, 2, 2)
    np.testing.assert_array_equal(ids, [0, 1, 1])
    np.testing.assert_array_equal(indptr, [0, 2, 3])
    p.write_bytes(newline.join([b"node_id,f_1", b"0,3", b"1,4"]))
    np.testing.assert_array_equal(io.read_static_features(p), [[3], [4]])


# ---------------------------------------------------------------------------
# edge TSV
# ---------------------------------------------------------------------------

def test_edges_round_trip_and_symmetry(tmp_path):
    rng = np.random.default_rng(3)
    links = (rng.random((15, 15)) < 0.3).astype(np.int8)
    links = np.triu(links, 1)
    links = links + links.T
    data = Dataset(features=np.ones((15, 2), dtype=np.int64), links=links)
    io.write_dataset(tmp_path, data)
    lines = (tmp_path / "edges.tsv").read_text().splitlines()
    assert len(lines) == links.sum() // 2  # one line per unordered pair
    for line in lines:
        p, q = map(int, line.split("\t"))
        assert p < q
    back = io.read_edges(tmp_path / "edges.tsv", 15)
    np.testing.assert_array_equal(back, data.edges)
    np.testing.assert_array_equal(Dataset(features=data.features, edges=back).links, links)


def test_edges_reject_malformed(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("0\t1\t2\n")
    with pytest.raises(ValueError, match="p<TAB>q"):
        io.read_edges(p, 5)
    p.write_text("0\t0\n")
    with pytest.raises(ValueError, match="distinct"):
        io.read_edges(p, 5)
    p.write_text("0\t1\n1\t0\n")
    with pytest.raises(ValueError, match="duplicate"):
        io.read_edges(p, 5)
    p.write_text("0\t9\n")
    with pytest.raises(ValueError, match=r"\[0, 5\)"):
        io.read_edges(p, 5)


def _read_static(path):
    # the dense matrix of the edge list read, so cases can spell out the graph
    return _graph(5, zip(*io.read_edges(path, 5))).links


def _read_dynamic(path):
    return [_graph(5, zip(*edges)).links for edges in io.read_dynamic_edges(path, 5, 3)]


# each case: the file's lines, then the message expected on its line
_STATIC_BAD = [
    (["0\t1", "", "2\t3"], "line 2: expected 'p<TAB>q' with 2 integer fields"),
    (["0\t1", "1\t2", "2\t3\t0"], "line 3: expected 'p<TAB>q' with 2 integer fields"),
    (["0\t1", "1\tx"], "line 2: expected 'p<TAB>q' with integer fields"),
    (["0\t1", "1.5\t2"], "line 2: expected 'p<TAB>q' with integer fields"),
    (["0\t1", "99999999999999999999\t2"], "line 2: expected 'p<TAB>q' with integer fields"),
    (["0\t1", "1\t2", "3\t4", "2\t1"], r"line 4: duplicate unordered pair \(2, 1\)"),
    (["0\t1", "1\t2", "0\t1"], r"line 3: duplicate unordered pair \(0, 1\)"),
    # ids past int32 are rejected, not wrapped: 2**32 + 1 would read as 1
    (["0\t1", "1\t2147483648"], r"line 2: ids must be distinct and in \[0, 5\)"),
    (["0\t1", "2\t4294967297"], r"line 2: ids must be distinct and in \[0, 5\)"),
]
_DYNAMIC_BAD = [
    (["0\t1\t0", "", "2\t3\t1"], "line 2: expected 'p<TAB>q<TAB>t' with 3 integer fields"),
    (["0\t1\t0", "1\t2"], "line 2: expected 'p<TAB>q<TAB>t' with 3 integer fields"),
    (["0\t1\t0", "1\t2\tt"], "line 2: expected 'p<TAB>q<TAB>t' with integer fields"),
    (["0\t1\t0", "0\t1\t1", "1\t0\t0"], r"line 3: duplicate pair \(1, 0\) at snapshot 0"),
    (["0\t1\t0", "0\t1\t4294967296"], r"line 2: snapshot index must lie in \[0, 3\)"),
]


@pytest.mark.parametrize("lines, message", _STATIC_BAD)
def test_static_edges_report_the_bad_line(tmp_path, lines, message):
    p = tmp_path / "e.tsv"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        _read_static(p)


@pytest.mark.parametrize("lines, message", _DYNAMIC_BAD)
def test_dynamic_edges_report_the_bad_line(tmp_path, lines, message):
    p = tmp_path / "e.tsv"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        _read_dynamic(p)


def test_edges_report_the_first_bad_line_across_checks(tmp_path):
    # a range error on line 2 comes before a duplicate on line 3, and within a
    # line the id check comes before the snapshot check
    p = tmp_path / "e.tsv"
    p.write_text("0\t1\n0\t7\n1\t0\n")
    with pytest.raises(ValueError, match=r"line 2: ids must be distinct and in \[0, 5\)"):
        _read_static(p)
    p.write_text("0\t1\t0\n3\t3\t9\n")
    with pytest.raises(ValueError, match=r"line 2: ids must be distinct"):
        _read_dynamic(p)
    p.write_text("0\t1\t0\n2\t3\t9\n")
    with pytest.raises(ValueError, match=r"line 2: snapshot index must lie in \[0, 3\)"):
        _read_dynamic(p)


def test_edges_empty_file_and_missing_final_newline(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("")
    np.testing.assert_array_equal(_read_static(p), np.zeros((5, 5), dtype=np.int8))
    assert all(not s.any() for s in _read_dynamic(p))
    p.write_text("0\t1\n3\t2")
    want = np.zeros((5, 5), dtype=np.int8)
    want[[0, 1, 2, 3], [1, 0, 3, 2]] = 1
    np.testing.assert_array_equal(_read_static(p), want)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_edges_read_other_line_endings_as_lines(tmp_path, newline):
    # the file is parsed from its path and its lines counted on its bytes;
    # Windows and old Mac line endings still read as the same edges
    p = tmp_path / "e.tsv"
    p.write_bytes(newline.join([b"0\t1", b"3\t2", b"1\t4"]) + newline)
    want = np.zeros((5, 5), dtype=np.int8)
    want[[0, 1, 2, 3, 1, 4], [1, 0, 3, 2, 4, 1]] = 1
    np.testing.assert_array_equal(_read_static(p), want)
    p.write_bytes(newline.join([b"0\t1", b"3\t3"]))
    with pytest.raises(ValueError, match=r"line 2: ids must be distinct"):
        _read_static(p)


def test_line_count_reads_a_line_ending_split_between_blocks(tmp_path):
    # the lines are counted a 1 MiB block at a time: a \r\n across two
    # blocks ends one line
    p = tmp_path / "e.tsv"
    first = b"0" * ((1 << 20) - 3) + b"\t1"
    p.write_bytes(first + b"\r\n3\t2\r\n")
    assert io._count_lines(p) == 2
    want = np.zeros((5, 5), dtype=np.int8)
    want[[0, 1, 2, 3], [1, 0, 3, 2]] = 1
    np.testing.assert_array_equal(_read_static(p), want)


def test_dynamic_edges_round_trip(tmp_path):
    cfg = InjectionConfig(n_nodes=24, n_groups=3, trials_per_person=8, seed=2)
    data, truth = inject_dynamic_change(cfg, horizon=3, change_time=2)
    io.write_dataset(tmp_path, data, truth)
    lines = (tmp_path / "edges.tsv").read_text().splitlines()
    assert all(len(line.split("\t")) == 3 for line in lines)
    back = io.read_dataset(tmp_path)
    assert isinstance(back, DynamicDataset) and back.horizon == 3
    for s1, s2 in zip(back.snapshots, data.snapshots):
        np.testing.assert_array_equal(s1.links, s2.links)
        np.testing.assert_array_equal(s1.features, s2.features)


def _oracle_edge_text(graphs):
    # one f-string per edge, p < q, row-major, as the edge file was first written
    lines = []
    for links, suffix in graphs:
        n = links.shape[0]
        for p in range(n):
            lines += [f"{p}\t{q}{suffix}\n" for q in range(p + 1, n) if links[p, q]]
    return "".join(lines)


def _graph(n, pairs):
    links = np.zeros((n, n), dtype=np.int8)
    for p, q in pairs:
        links[p, q] = links[q, p] = 1
    return Dataset(features=np.ones((n, 1), dtype=np.int64), links=links)


def test_edge_writer_matches_the_one_line_per_edge_oracle(tmp_path):
    # a generated static graph, a dynamic one with its snapshot suffix, an
    # empty graph and one whose isolated people have no line; ids of one
    # to four digits
    static, _ = inject_anomalies(InjectionConfig(n_nodes=1200, n_groups=4, seed=3))
    dynamic, _ = inject_dynamic_change(
        InjectionConfig(n_nodes=30, n_groups=3, seed=1), horizon=3, change_time=2
    )
    cases = [
        [(static, "")],
        [(snap, f"\t{t}") for t, snap in enumerate(dynamic.snapshots)],
        [(_graph(5, []), "")],
        [(_graph(12, [(0, 11), (3, 4), (3, 9), (10, 11)]), "")],
        [(_graph(12, [(2, 7)]), "\t0"), (_graph(12, []), "\t1"), (_graph(12, [(0, 1)]), "\t2")],
    ]
    assert static.edges[0].size > 10**4
    for i, graphs in enumerate(cases):
        path = tmp_path / f"edges{i}.tsv"
        io._write_edges(path, graphs)
        want = _oracle_edge_text([(data.links, suffix) for data, suffix in graphs])
        assert path.read_text() == want, i


def test_dynamic_edges_validate_snapshot_index(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("0\t1\t7\n")
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        io.read_dynamic_edges(p, 5, 3)


# ---------------------------------------------------------------------------
# truth JSON
# ---------------------------------------------------------------------------

def test_truth_round_trip_with_int_change_keys(tmp_path):
    p = tmp_path / "truth.json"
    io.write_truth(p, {3, 1}, np.array([0, 1, 1, 2]), {1: 4, 3: 2})
    back = io.read_truth(p)
    assert back["anomalous_groups"] == frozenset({1, 3})
    np.testing.assert_array_equal(back["grouping"], [0, 1, 1, 2])
    assert back["change_times"] == {1: 4, 3: 2}
    assert all(isinstance(k, int) for k in back["change_times"])


def test_truth_missing_key_is_an_error(tmp_path):
    p = tmp_path / "truth.json"
    p.write_text('{"grouping": [0]}')
    with pytest.raises(ValueError, match="missing keys"):
        io.read_truth(p)


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------

def test_dataset_manifest_kinds(tmp_path):
    cfg = InjectionConfig(n_nodes=12, n_groups=2, trials_per_person=4, seed=0)
    static, _ = inject_anomalies(cfg)
    act, _ = inject_activity_anomalies(cfg, activities=3)
    dyn, _ = inject_dynamic_change(cfg, horizon=2, change_time=1)
    for sub, data, cls in (
        ("s", static, Dataset),
        ("a", act, ActivityDataset),
        ("d", dyn, DynamicDataset),
    ):
        io.write_dataset(tmp_path / sub, data)
        back = io.read_dataset(tmp_path / sub)
        assert isinstance(back, cls)


_DATASETS = {
    "static": lambda cfg: inject_anomalies(cfg)[0],
    "activity": lambda cfg: inject_activity_anomalies(cfg, activities=3)[0],
    "dynamic": lambda cfg: inject_dynamic_change(cfg, horizon=2, change_time=1)[0],
}


# a static or dynamic feature file shows both fields; an activity file shows
# only the width, and node ids at or above n_nodes (people without rows are
# legal, so a larger n_nodes is not a mismatch)
@pytest.mark.parametrize("kind, field, value, message", [
    ("static", "n_nodes", 25, r"features.csv: n_nodes is 20, but dataset.json gives 25"),
    ("static", "n_features", 7, r"features.csv: n_features is 2, but dataset.json gives 7"),
    ("activity", "n_nodes", 15, r"features.csv: node ids must lie in \[0, 15\)"),
    ("activity", "n_features", 7, r"features.csv: n_features is 2, but dataset.json gives 7"),
    ("dynamic", "n_nodes", 25, r"features_t0.csv: n_nodes is 20, but dataset.json gives 25"),
    ("dynamic", "n_features", 1, r"features_t0.csv: n_features is 2, but dataset.json gives 1"),
], ids=[f"{kind}-{field}" for kind in _DATASETS for field in ("n_nodes", "n_features")])
def test_read_dataset_checks_features_against_manifest(tmp_path, kind, field, value, message):
    cfg = InjectionConfig(n_nodes=20, n_groups=2, trials_per_person=4, seed=0)
    io.write_dataset(tmp_path, _DATASETS[kind](cfg))
    manifest = io._read_json(tmp_path / "dataset.json")
    io.write_json(tmp_path / "dataset.json", {**manifest, field: value})
    with pytest.raises(ValueError, match=message):
        io.read_dataset(tmp_path)


def test_read_dataset_requires_manifest(tmp_path):
    with pytest.raises(ValueError, match="dataset.json"):
        io.read_dataset(tmp_path)


def test_write_dataset_is_byte_identical_on_rewrite(tmp_path):
    cfg = InjectionConfig(n_nodes=30, n_groups=3, seed=9)
    data, truth = inject_anomalies(cfg)
    io.write_dataset(tmp_path, data, truth)
    first = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    io.write_dataset(tmp_path, data, truth)
    second = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert first == second


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def test_parse_config_comments_and_blank_lines():
    raw = io.parse_config_text("# top\n\n a = 1 # inline\nb=two\n")
    assert raw == {"a": "1", "b": "two"}


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError, match="duplicate"):
        io.parse_config_text("a=1\na=2\n")
    with pytest.raises(ValueError, match="key=value"):
        io.parse_config_text("just words\n")
    with pytest.raises(ValueError, match="empty key"):
        io.parse_config_text("=3\n")


def test_coerce_config_kinds_and_defaults():
    schema = {
        "n": ("int", 5),
        "x": ("float", 0.5),
        "flag": ("bool", False),
        "name": ("str", "a"),
        "counts": ("int_list", [1]),
        "rates": ("float_list", (0.5, 0.5)),
    }
    raw = {"n": "7", "flag": "true", "counts": "3,4,5", "rates": "0.2,0.3,0.5"}
    got = io.coerce_config(raw, schema)
    assert got == {
        "n": 7,
        "x": 0.5,
        "flag": True,
        "name": "a",
        "counts": [3, 4, 5],
        "rates": (0.2, 0.3, 0.5),
    }


def test_coerce_config_unknown_key_is_an_error():
    with pytest.raises(ValueError, match="unknown config keys: bogus"):
        io.coerce_config({"bogus": "1"}, {"n": ("int", 5)})


def test_coerce_config_bad_value_is_an_error():
    with pytest.raises(ValueError, match="cannot parse"):
        io.coerce_config({"n": "x"}, {"n": ("int", 5)})


def test_format_config_round_trips_through_parse():
    cfg = {"seed": 3, "rate": (0.1, 0.9), "fast": True, "label": "x", "frac": 0.25}
    echoed = io.format_config(cfg)
    back = io.coerce_config(
        io.parse_config_text(echoed),
        {
            "seed": ("int", 0),
            "rate": ("float_list", None),
            "fast": ("bool", False),
            "label": ("str", ""),
            "frac": ("float", 0.0),
        },
    )
    assert back == cfg


# ---------------------------------------------------------------------------
# matrix CSV + SVG
# ---------------------------------------------------------------------------

def test_matrix_csv_exact_float_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 3))
    io.write_matrix_csv(tmp_path / "m.csv", m, ["a", "b", "c"])
    header, back = io.read_matrix_csv(tmp_path / "m.csv")
    assert header == ["a", "b", "c"]
    np.testing.assert_array_equal(back, m)  # bit-exact, not approx


@pytest.mark.parametrize(
    "table,row",
    [
        (np.array([[0.1, -2.5, 1e-300]]), "0.1,-2.5,1e-300"),
        (np.array([[0.1, 2.0, 0.5]], dtype=np.float32), "0.10000000149011612,2.0,0.5"),
        (np.array([[3, -4, 0]], dtype=np.int64), "3,-4,0"),
        (np.array([[True, False, True]]), "true,false,true"),
        # a mixed table as the fit writers build it: int and float columns
        (np.array([[np.int64(7), 1, np.float64(0.25)]], dtype=object), "7,1,0.25"),
    ],
)
def test_matrix_csv_cell_format_per_kind(tmp_path, table, row):
    io.write_matrix_csv(tmp_path / "m.csv", table, ["a", "b", "c"])
    assert (tmp_path / "m.csv").read_text() == "a,b,c\n" + row + "\n"


def test_matrix_csv_header_mismatch(tmp_path):
    with pytest.raises(ValueError, match="header"):
        io.write_matrix_csv(tmp_path / "m.csv", np.zeros((2, 3)), ["a"])


def test_svg_plot_is_self_contained_and_deterministic(tmp_path):
    xs = np.arange(5)
    ys = [np.array([0.1, 0.4, 0.2, 0.9, 0.3]), np.linspace(0, 1, 5)]
    io.svg_line_plot(tmp_path / "a.svg", xs, ys, ["one", "two"], title="t", xlabel="x", ylabel="y")
    io.svg_line_plot(tmp_path / "b.svg", xs, ys, ["one", "two"], title="t", xlabel="x", ylabel="y")
    a = (tmp_path / "a.svg").read_text()
    assert a == (tmp_path / "b.svg").read_text()
    assert a.startswith("<svg")
    assert "http" not in a.replace("http://www.w3.org/2000/svg", "")  # no external refs
    assert a.count("<polyline") == 2
