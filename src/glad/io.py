"""File formats shared by the command-line tools.

Everything here is deliberately plain text so artifacts diff cleanly and a
rerun with the same inputs reproduces every output byte for byte:

* feature matrix: CSV ``node_id,f_1,...,f_V`` with integer counts.  Static
  datasets have one row per node; activity-level datasets repeat ``node_id``
  with one one-hot row per activity.
* edge list: TSV ``p<TAB>q`` (static) or ``p<TAB>q<TAB>t`` (dynamic), lines
  sorted, one line per unordered pair, no self loops; read straight into
  int32 ids.
* ground truth: JSON ``{"anomalous_groups": [...], "grouping": [...],
  "change_times": {...}}``.
* configs: ``key=value`` lines with ``#`` comments; unknown keys are errors.
* numeric tables: CSV with a header row and ``repr``-exact floats so values
  survive a round trip unchanged.

Node ids are 0-based and contiguous everywhere.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import ActivityDataset, Dataset, DynamicDataset, _checked_edges

__all__ = [
    "coerce_config",
    "fmt_cell",
    "format_config",
    "parse_config_text",
    "read_activity_features",
    "read_dataset",
    "read_dynamic_edges",
    "read_edges",
    "read_matrix_csv",
    "read_static_features",
    "read_truth",
    "svg_line_plot",
    "write_dataset",
    "write_json",
    "write_matrix_csv",
    "write_truth",
]


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def fmt_cell(value) -> str:
    """Format one cell: integers stay integers, floats use repr (exact)."""
    if type(value) is float:  # the common case, ahead of the isinstance chain
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_json(path, obj) -> None:
    """Write ``obj`` as stably ordered, indented JSON (plus trailing newline)."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read_json(path):
    return json.loads(Path(path).read_text())


def _write_rows(out, bounds, cols, texts, sep: str, end: str) -> None:
    """Write one line per entry of a CSR layout: person p's entries are
    ``cols[bounds[p]:bounds[p + 1]]``, and entry c's line is p, ``sep``,
    ``texts[c]`` and ``end``.  ``texts`` is an object array of strings, so
    each person's lines are gathered, joined and written as one string, and
    the text of a large file is never held whole."""
    for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo < hi:
            head = f"{p}{sep}"
            out.write(head + (end + head).join(texts[cols[lo:hi]]) + end)


def _parse_line(path, i, line, n_cols, delimiter, messages):
    cells = line.split(delimiter)
    if len(cells) != n_cols:
        raise ValueError(f"{path} line {i}: {messages[0]}")
    try:
        fields = [int(c) for c in cells]
    except ValueError:
        fields = None
    if fields is None or any(abs(f) >= 2**63 for f in fields):
        raise ValueError(f"{path} line {i}: {messages[1]}")
    return fields


def _count_lines(path) -> int:
    """Lines in the file as text mode splits them, a last line without its
    newline included; read in blocks, so the file is never held whole."""
    ends, last = 0, b""
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            ends += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            if last == b"\r" and block.startswith(b"\n"):
                ends -= 1  # a \r\n split between two blocks ends one line
            last = block[-1:]
    return ends + (last not in (b"", b"\n", b"\r"))


def _read_fields(path, n_cols: int, delimiter: str, header: int, messages,
                 dtype=np.int64) -> np.ndarray:
    """The integer fields of a delimited text file as an (R, n_cols)
    ``dtype`` array, one row per line after the first ``header`` lines.

    ``np.loadtxt`` parses the whole file at once, from the path, but it skips
    blank lines and its errors do not name the file's line, so whenever its
    rows do not match the lines one to one, the lines are parsed again one at
    a time to report the first bad one with ``messages``: a line with
    another number of fields, then one whose fields are not int64 integers.
    Fields that are int64 but not ``dtype`` integers come back as int64, for
    the caller's checks to report.
    """
    n_rows = _count_lines(path) - header
    if n_rows <= 0:
        return np.zeros((0, n_cols), dtype=dtype)
    try:
        fields = np.loadtxt(path, dtype=dtype, delimiter=delimiter, comments=None,
                            skiprows=header, ndmin=2)
    except ValueError:
        fields = None
    if fields is None or fields.shape != (n_rows, n_cols):
        lines = Path(path).read_text().splitlines()[header:]
        rows = [_parse_line(path, i, line, n_cols, delimiter, messages)
                for i, line in enumerate(lines, start=header + 1)]
        fields = np.array(rows, dtype=np.int64).reshape(len(rows), n_cols)
    return fields


def _agree(path, field: str, got: int, want: int) -> None:
    if got != want:
        raise ValueError(f"{path}: {field} is {got}, but dataset.json gives {want}")


# ---------------------------------------------------------------------------
# feature CSV
# ---------------------------------------------------------------------------

def _feature_header(n_features: int) -> str:
    return ",".join(["node_id"] + [f"f_{j + 1}" for j in range(n_features)])


def _write_static_features(path, features: np.ndarray) -> None:
    np.savetxt(path, np.column_stack((np.arange(features.shape[0]), features)), fmt="%d",
               delimiter=",", header=_feature_header(features.shape[1]), comments="")


def _read_features(path) -> np.ndarray:
    """The fields of a feature CSV as an (R, 1 + V) array: node id, then
    the V counts, one row per line after the header."""
    with open(path) as f:
        first = f.readline()
    if not first:
        raise ValueError(f"{path}: empty feature file; expected 'node_id,f_1,...' CSV")
    header = first.rstrip("\n")
    n_cols = header.count(",") + 1
    if n_cols < 2 or header != _feature_header(n_cols - 1):
        raise ValueError(f"{path}: feature header must read 'node_id,f_1,...,f_V'")
    return _read_fields(path, n_cols, ",", 1,
                        (f"expected {n_cols} integer cells", "feature cells must be integers"))


def read_static_features(path) -> np.ndarray:
    """Read a static feature CSV: one row per node, ids 0..N-1 in order."""
    fields = _read_features(path)
    if not np.array_equal(fields[:, 0], np.arange(fields.shape[0])):
        raise ValueError(
            f"{path}: static feature rows must list node ids 0..N-1 exactly once, in order"
        )
    return fields[:, 1:]


def read_activity_features(path, n_nodes: int, n_features: int):
    """Read an activity-level feature CSV into ``(feature_ids, act_indptr)``,
    the stacked layout of :class:`ActivityDataset`.

    Every row must be one-hot (one count of 1, rest 0), and the header must
    list ``n_features`` features.  Rows are grouped by ``node_id``, each
    person's in file order, by one stable sort that a grouped file skips.
    Nodes without rows own no activities, which is why the caller must
    supply ``n_nodes``.
    """
    fields = _read_features(path)
    _agree(path, "n_features", fields.shape[1] - 1, n_features)
    node, counts = fields[:, 0], fields[:, 1:]
    if counts.size and (counts.min() < 0 or counts.max() > 1 or np.any(counts.sum(axis=1) != 1)):
        raise ValueError(f"{path}: activity feature rows must be one-hot (a single 1)")
    if node.size and (node.min() < 0 or node.max() >= n_nodes):
        raise ValueError(f"{path}: node ids must lie in [0, {n_nodes})")
    ids = counts.argmax(axis=1)
    if np.any(node[1:] < node[:-1]):
        ids = ids[np.argsort(node, kind="stable")]
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(node, minlength=n_nodes), out=indptr[1:])
    return ids, indptr


# ---------------------------------------------------------------------------
# edge TSV
# ---------------------------------------------------------------------------

def _write_edges(path, graphs) -> None:
    """Write an edge TSV from ``(data, suffix)`` pairs: one ``p<TAB>q`` line,
    plus the suffix, per edge of each graph in turn, row-major."""
    with open(path, "w") as out:
        for data, suffix in graphs:
            u, v = data.edges
            ids = np.array([str(p) for p in range(data.n_nodes)], dtype=object)
            bounds = np.searchsorted(u, np.arange(data.n_nodes + 1)).tolist()
            _write_rows(out, bounds, v, ids, "\t", suffix + "\n")


def _read_edge_fields(path, n_cols: int) -> np.ndarray:
    """The fields of an edge TSV, int32 unless a field needs int64."""
    shape = "p<TAB>q" if n_cols == 2 else "p<TAB>q<TAB>t"
    return _read_fields(path, n_cols, "\t", 0, (f"expected '{shape}' with {n_cols} integer fields",
                                                f"expected '{shape}' with integer fields"),
                        dtype=np.int32)


def _first_hit(mask: np.ndarray) -> int:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _raise_first_bad_line(path, fields: np.ndarray, n_nodes: int, horizon: int | None):
    """Raise the error of the first bad line of a static (``horizon=None``)
    or dynamic edge TSV, given its fields in line order.

    Each line must hold two distinct ids in [0, n_nodes), a snapshot index in
    [0, horizon) for the dynamic kind, and a pair not already listed (in that
    snapshot).  The first offending line is reported by its line number;
    within one line the checks apply in that order.
    """
    fields = fields.astype(np.int64)
    p, q = fields[:, 0], fields[:, 1]
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    bad_ids = (p == q) | (lo < 0) | (hi >= n_nodes)
    key = lo * n_nodes + hi
    if horizon is None:
        bad_t = np.zeros_like(bad_ids)
    else:
        t = fields[:, 2]
        bad_t = (t < 0) | (t >= horizon)
        key = key + t * (n_nodes * n_nodes)
    # a repeat is a line whose key an earlier line holds; the stable sort
    # keeps equal keys in line order
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(key.size, dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]

    first = [_first_hit(mask) for mask in (bad_ids, bad_t, repeat)]
    i = min(first)
    if i == fields.shape[0]:
        return
    check = first.index(i)
    if check == 0:
        message = f"ids must be distinct and in [0, {n_nodes})"
    elif check == 1:
        message = f"snapshot index must lie in [0, {horizon})"
    elif horizon is None:
        message = f"duplicate unordered pair ({p[i]}, {q[i]})"
    else:
        message = f"duplicate pair ({p[i]}, {q[i]}) at snapshot {t[i]}"
    raise ValueError(f"{path} line {i + 1}: {message}")


def read_edges(path, n_nodes: int) -> tuple:
    """Read a static edge TSV into its edge list ``(u, v)``: u < v, each
    pair once, row-major.  A bad line raises ``ValueError`` naming it."""
    fields = _read_edge_fields(path, 2)
    try:
        return _checked_edges(fields.T, n_nodes)
    except ValueError:
        _raise_first_bad_line(path, fields, n_nodes, None)
        raise


def read_dynamic_edges(path, n_nodes: int, horizon: int) -> list:
    """Read a dynamic edge TSV into one edge list ``(u, v)`` per snapshot,
    each as :func:`read_edges` returns it."""
    fields = _read_edge_fields(path, 3)
    try:
        t = fields[:, 2]
        if t.size and (t.min() < 0 or t.max() >= horizon):
            raise ValueError("snapshot index out of range")
        # lines come in snapshot order as written; others are put in it
        snaps = fields if np.all(t[1:] >= t[:-1]) else fields[np.argsort(t, kind="stable")]
        bounds = np.searchsorted(snaps[:, 2], np.arange(horizon + 1)).tolist()
        return [_checked_edges(snaps[lo:hi, :2].T, n_nodes)
                for lo, hi in zip(bounds, bounds[1:])]
    except ValueError:
        _raise_first_bad_line(path, fields, n_nodes, horizon)
        raise


# ---------------------------------------------------------------------------
# ground truth JSON
# ---------------------------------------------------------------------------

def write_truth(path, anomalous_groups, grouping, change_times=None) -> None:
    write_json(
        path,
        {
            "anomalous_groups": sorted(int(g) for g in anomalous_groups),
            "grouping": [int(g) for g in np.asarray(grouping).ravel()],
            "change_times": {str(int(g)): int(t) for g, t in (change_times or {}).items()},
        },
    )


def read_truth(path) -> dict:
    """Read a truth JSON; ``change_times`` keys come back as ints."""
    raw = _read_json(path)
    missing = {"anomalous_groups", "grouping", "change_times"} - raw.keys()
    if missing:
        raise ValueError(f"{path}: truth file missing keys {sorted(missing)}")
    return {
        "anomalous_groups": frozenset(int(g) for g in raw["anomalous_groups"]),
        "grouping": np.asarray(raw["grouping"], dtype=np.int64),
        "change_times": {int(g): int(t) for g, t in raw["change_times"].items()},
    }


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------

def write_dataset(dirpath, data, truth=None) -> None:
    """Write a dataset directory: manifest + feature CSV(s) + edge TSV.

    Layout: ``dataset.json`` names the kind ("static" | "activity" |
    "dynamic") and shapes; static and activity kinds use ``features.csv`` +
    ``edges.tsv``; the dynamic kind writes one ``features_t{t}.csv`` per
    snapshot plus a single t-tagged ``edges.tsv``.  ``truth.json`` appears
    when ground truth is supplied.
    """
    out = Path(dirpath)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"n_nodes": int(data.n_nodes), "n_features": int(data.n_features)}
    if isinstance(data, DynamicDataset):
        manifest["kind"] = "dynamic"
        manifest["horizon"] = data.horizon
        for t, snap in enumerate(data.snapshots):
            _write_static_features(out / f"features_t{t}.csv", snap.features)
        _write_edges(out / "edges.tsv",
                     [(snap, f"\t{t}") for t, snap in enumerate(data.snapshots)])
    elif isinstance(data, ActivityDataset):
        manifest["kind"] = "activity"
        # one one-hot row per activity, in the stacked order
        v = data.n_features
        one_hot = np.array(["0," * f + "1" + ",0" * (v - 1 - f) for f in range(v)], dtype=object)
        with open(out / "features.csv", "w") as f:
            f.write(_feature_header(v) + "\n")
            _write_rows(f, data.act_indptr.tolist(), data.feature_ids, one_hot, ",", "\n")
        _write_edges(out / "edges.tsv", [(data, "")])
    elif isinstance(data, Dataset):
        manifest["kind"] = "static"
        _write_static_features(out / "features.csv", data.features)
        _write_edges(out / "edges.tsv", [(data, "")])
    else:
        raise TypeError("write_dataset expects a Dataset, ActivityDataset or DynamicDataset")
    write_json(out / "dataset.json", manifest)
    if truth is not None:
        write_truth(
            out / "truth.json",
            truth.anomalous_groups,
            _node_grouping(truth.group),
            truth.change_times,
        )


def _node_grouping(group) -> np.ndarray:
    """Per-node group labels from either an (N,) or a constant-row (T, N) array."""
    g = np.asarray(group)
    return g[0] if g.ndim == 2 else g


def read_dataset(dirpath):
    """Load a dataset directory written by :func:`write_dataset`.  Each
    feature file's header lists the ``n_features`` of ``dataset.json``, and
    a per-node one has its ``n_nodes`` rows, or ``ValueError`` names it."""
    root = Path(dirpath)
    manifest_path = root / "dataset.json"
    if not manifest_path.exists():
        raise ValueError(f"{dirpath}: not a dataset directory (missing dataset.json)")
    manifest = _read_json(manifest_path)
    kind = manifest.get("kind")
    n, v = int(manifest["n_nodes"]), int(manifest["n_features"])

    def static_features(path):
        features = read_static_features(path)
        _agree(path, "n_nodes", features.shape[0], n)
        _agree(path, "n_features", features.shape[1], v)
        return features

    if kind == "static":
        features = static_features(root / "features.csv")
        return Dataset(features=features, edges=read_edges(root / "edges.tsv", n))
    if kind == "activity":
        ids, indptr = read_activity_features(root / "features.csv", n, v)
        return ActivityDataset(ids, indptr, v, edges=read_edges(root / "edges.tsv", n))
    if kind == "dynamic":
        horizon = int(manifest["horizon"])
        edge_snaps = read_dynamic_edges(root / "edges.tsv", n, horizon)
        snaps = [
            Dataset(features=static_features(root / f"features_t{t}.csv"), edges=edge_snaps[t])
            for t in range(horizon)
        ]
        return DynamicDataset(snapshots=tuple(snaps))
    raise ValueError(f"{dirpath}: unknown dataset kind {kind!r}")


# ---------------------------------------------------------------------------
# key=value configs
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict:
    """Parse ``key=value`` lines; ``#`` starts a comment; duplicates are errors."""
    raw: dict = {}
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {i}: expected 'key=value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ValueError(f"config line {i}: empty key")
        if key in raw:
            raise ValueError(f"config line {i}: duplicate key {key!r}")
        raw[key] = value
    return raw


def coerce_config(raw: dict, schema: dict) -> dict:
    """Typed view of a parsed config.

    ``schema`` maps key -> (kind, default); kinds are "int", "float", "bool",
    "str" and "int_list" / "float_list" (comma-separated).  Keys absent from
    the schema are errors; missing keys take their default.
    """
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, (kind, default) in schema.items():
        if key not in raw:
            out[key] = default
            continue
        text = raw[key]
        try:
            if kind == "int":
                out[key] = int(text)
            elif kind == "float":
                out[key] = float(text)
            elif kind == "str":
                out[key] = text
            elif kind == "bool":
                low = text.lower()
                if low in ("true", "1", "yes"):
                    out[key] = True
                elif low in ("false", "0", "no"):
                    out[key] = False
                else:
                    raise ValueError
            elif kind == "int_list":
                out[key] = [int(c) for c in text.split(",") if c.strip() != ""]
                if not out[key]:
                    raise ValueError
            elif kind == "float_list":
                out[key] = tuple(float(c) for c in text.split(",") if c.strip() != "")
                if not out[key]:
                    raise ValueError
            else:  # pragma: no cover - schema bug, not user input
                raise AssertionError(f"unknown schema kind {kind!r}")
        except ValueError:
            raise ValueError(f"config key {key!r}: cannot parse {text!r} as {kind}") from None
    return out


def format_config(cfg: dict) -> str:
    """Render a config back to sorted ``key=value`` text."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, (list, tuple)):
            rendered = ",".join(fmt_cell(v) for v in value)
        else:
            rendered = fmt_cell(value)
        lines.append(f"{key}={rendered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# numeric tables
# ---------------------------------------------------------------------------

def write_matrix_csv(path, matrix, header) -> None:
    """Write a 2-D table as CSV with ``header`` naming the columns."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError("write_matrix_csv expects a 2-D table")
    if arr.shape[1] != len(header):
        raise ValueError("header length must match the number of columns")
    lines = [",".join(header)]
    # tolist() turns numeric cells into Python scalars in one call
    for row in arr.tolist():
        lines.append(",".join(map(fmt_cell, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path):
    """Read a CSV table back as ``(header, float64 array)``.

    A row whose cell count differs from the header's, or a cell that is not
    a number, raises ``ValueError`` naming the file and the line.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty table")
    header = lines[0].split(",")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path} line {i}: expected {len(header)} cells, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ValueError(f"{path} line {i}: cells must be numbers") from None
    data = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    return header, data


# ---------------------------------------------------------------------------
# plots
# ---------------------------------------------------------------------------

_PALETTE = ("#1f6fb2", "#d1495b", "#3a9e4f", "#8d5fb0", "#c98a24", "#4f6d7a")


def svg_line_plot(path, xs, series, labels, title="", xlabel="", ylabel="") -> None:
    """Write a self-contained SVG line plot (no external assets or scripts).

    ``series`` is a list of y-arrays sharing ``xs``; ``labels`` names them in
    the legend.  Purely deterministic text output.
    """
    xs = np.asarray(xs, dtype=float)
    series = [np.asarray(y, dtype=float) for y in series]
    if len(series) != len(labels):
        raise ValueError("one label per series")
    for y in series:
        if y.shape != xs.shape:
            raise ValueError("every series must match xs in length")
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 50
    inner_w, inner_h = width - left - right, height - top - bottom

    all_y = np.concatenate(series) if series else np.zeros(1)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * inner_w

    def sy(y):
        return top + inner_h - (y - y_lo) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + inner_h}" x2="{left + inner_w}" '
        f'y2="{top + inner_h}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + inner_h}" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{left + inner_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{top + inner_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 18 {top + inner_h / 2:.1f})">{ylabel}</text>'
        )
    for value, anchor_x in ((x_lo, left), (x_hi, left + inner_w)):
        parts.append(
            f'<text x="{anchor_x}" y="{top + inner_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{value:.4g}</text>'
        )
    for value in (y_lo, y_hi):
        parts.append(
            f'<text x="{left - 8}" y="{sy(value) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{value:.4g}</text>'
        )
    for idx, (y, label) in enumerate(zip(series, labels)):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(xs, y))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = top + 16 * idx
        parts.append(
            f'<line x1="{left + inner_w - 130}" y1="{ly + 4}" x2="{left + inner_w - 110}" '
            f'y2="{ly + 4}" stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{left + inner_w - 104}" y="{ly + 8}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
