"""Command-line front end: generate, fit, score, evaluate, benchmark.

Subcommands work on plain-text artifact directories (see :mod:`glad.io`) so
every step can be rerun, diffed and inspected by hand.  Exit codes: 0 on
success, 1 on usage or input errors, 2 when an optimizer hit its iteration
cap without converging, 3 on a numeric abort.

Every command is deterministic given identical inputs and seed: reruns
produce byte-identical files.  ``--seed`` overrides the seed found in a
config file; the environment variable ``GLAD_THREADS`` caps the benchmark
worker pool.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import io as gio
from .baselines import MixtureConfig, fit_group_lda, fit_mmsb
from .dglad_mc import DGladConfig, run_sampler
from .generator import (
    InjectionConfig,
    inject_activity_anomalies,
    inject_anomalies,
    inject_dynamic_change,
)
from .glad0_vem import Fit0Config, fit0
from .glad_vem import FitConfig, fit
from .model import ActivityDataset, DynamicDataset, GladNumericsError
from .scoring import (
    AnomalyReport,
    dynamic_change_score,
    evaluate_dynamic,
    evaluate_static,
    make_report,
    match_groups,
    rate_distance_score,
    rate_reference,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags, bad config, or inputs that don't match the command."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which collides with the
    # non-convergence code; route usage problems through UsageError instead.
    def error(self, message):
        raise UsageError(message)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher reads only "-<digits>" forms as negative
        # numbers and takes "-inf", "-nan" or "-1e3" for an option; accept
        # every negative float spelling, so such values reach the range
        # checks of the configs
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*(e[+-]?\d+)?|\.\d+(e[+-]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

_GENERATE_BASE = {
    "kind": ("str", "static"),
    "n_nodes": ("int", 500),
    "n_groups": ("int", 5),
    "n_roles": ("int", 2),
    "anomaly_fraction": ("float", 0.2),
    "normal_rate": ("float_list", (0.1, 0.9)),
    "anomalous_rate": ("float_list", (0.9, 0.1)),
    "trials_per_person": ("int", 50),
    "block_in": ("float", 0.3),
    "block_out": ("float", 0.05),
    "seed": ("int", 0),
}

_GENERATE_DYNAMIC = {
    "horizon": ("int", 5),
    "change_time": ("int", 4),
    "changed_fraction": ("float", 0.5),
    "drift_sigma": ("float", 0.05),
}


def _generate_schema(kind: str) -> dict:
    if kind == "dynamic":
        return {**_GENERATE_BASE, **_GENERATE_DYNAMIC}
    return dict(_GENERATE_BASE)


def _inject(kind: str, cfg: dict, **overrides):
    """``(dataset, truth)`` of a planted benchmark of ``kind``, from the
    generator settings found in ``cfg``, then ``overrides``; any other
    setting keeps its default."""
    fields = {f.name: cfg[f.name] for f in dataclasses.fields(InjectionConfig) if f.name in cfg}
    fields.update(overrides)
    inj = InjectionConfig(
        **{key: tuple(v) if isinstance(v, list) else v for key, v in fields.items()}
    )
    if kind == "static":
        return inject_anomalies(inj)
    if kind == "activity":
        # trials_per_person doubles as the per-person activity count here
        return inject_activity_anomalies(inj)
    return inject_dynamic_change(inj, **{key: cfg[key] for key in _GENERATE_DYNAMIC})


def cmd_generate(args) -> int:
    raw = gio.parse_config_text(Path(args.config).read_text())
    kind = raw.get("kind", "static")
    if kind not in ("static", "activity", "dynamic"):
        raise UsageError(f"kind must be static, activity or dynamic, not {kind!r}")
    cfg = gio.coerce_config(raw, _generate_schema(kind))
    if args.seed is not None:
        cfg["seed"] = args.seed
    data, truth = _inject(kind, cfg)
    out = Path(args.out)
    gio.write_dataset(out, data, truth)
    (out / "config.txt").write_text(gio.format_config(cfg))
    print(f"wrote {kind} dataset for {data.n_nodes} nodes to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

_FORMAT_HINT = {
    "static": 'kind "static": features.csv with one aggregated count row per node',
    "activity": 'kind "activity": features.csv with one one-hot row per activity',
    "dynamic": 'kind "dynamic": features_t{t}.csv per snapshot and a t-tagged edges.tsv',
}


def _dataset_kind(data) -> str:
    if isinstance(data, DynamicDataset):
        return "dynamic"
    if isinstance(data, ActivityDataset):
        return "activity"
    return "static"


def _model_flags(args) -> dict:
    """Config fields of the flags the user set; every default lives in its config class."""
    flags = {}
    for flag, models in _FLAG_MODELS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if args.model not in models:
            name = "--" + flag.replace("_", "-")
            raise UsageError(f"{name} does not apply to model {args.model}")
        flags[flag] = value
    return _flag_fields(args.model, flags)


def _flag_fields(model: str, values: dict) -> dict:
    """The config fields of ``model`` that the hyper-flag values among
    ``values`` set; every other entry is left out."""
    return {
        _FLAG_FIELDS.get(flag, flag): value
        for flag, value in values.items()
        if model in _FLAG_MODELS.get(flag, ())
    }


def _group_cols(m):
    return [f"g_{j}" for j in range(m)]


def _role_cols(k):
    return [f"r_{j}" for j in range(k)]


def _table(*columns) -> np.ndarray:
    """Column-wise table that keeps int columns int (object dtype)."""
    n = len(columns[0])
    arr = np.empty((n, len(columns)), dtype=object)
    for j, col in enumerate(columns):
        arr[:, j] = list(col)
    return arr


def _write_params(out: Path, params) -> None:
    gio.write_matrix_csv(out / "alpha.csv", params.alpha[None, :], _group_cols(params.alpha.size))
    gio.write_matrix_csv(out / "block.csv", params.block, _group_cols(params.block.shape[1]))
    gio.write_matrix_csv(out / "theta.csv", params.theta, _role_cols(params.theta.shape[1]))
    gio.write_matrix_csv(out / "beta.csv", params.beta, _role_cols(params.beta.shape[1]))


def _write_grouping(out: Path, grouping: np.ndarray) -> None:
    table = np.column_stack([np.arange(grouping.size), grouping]).astype(np.int64)
    gio.write_matrix_csv(out / "grouping.csv", table, ["node_id", "group"])


def _read_grouping(path: Path) -> np.ndarray:
    """The labels of a grouping.csv laid out as ``_write_grouping`` writes it."""
    header, table = gio.read_matrix_csv(path)
    if header != ["node_id", "group"]:
        raise ValueError(f"{path}: line 1: expected the header node_id,group")
    node, label = table.T
    bad = (node != np.arange(node.size)) | ~np.isfinite(label) | (label != np.round(label))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{path}: line {i + 2}: expected node_id {i} and a whole-number group")
    return label.astype(np.int64)


def _write_em_fit(out: Path, result, config) -> dict:
    """Artifacts every EM fit writes, and all that glad0 writes: parameters,
    membership posteriors, grouping and the bound trace."""
    _write_params(out, result.params)
    gamma = result.state.gamma
    gio.write_matrix_csv(out / "gamma.csv", gamma, _group_cols(gamma.shape[1]))
    _write_grouping(out, result.state.grouping())
    trace = _table(range(result.trace.size), result.trace)
    gio.write_matrix_csv(out / "trace.csv", trace, ["iter", "elbo"])
    return {"converged": bool(result.converged), "n_iters": int(result.n_iters)}


def _write_glad_fit(out: Path, result, config) -> dict:
    """An EM fit plus the static model's group and role posteriors."""
    lam, mu = result.state.lam, result.state.mu
    gio.write_matrix_csv(out / "lambda.csv", lam, _group_cols(lam.shape[1]))
    gio.write_matrix_csv(out / "mu.csv", mu, _role_cols(mu.shape[1]))
    return _write_em_fit(out, result, config)


def _write_dglad_fit(out: Path, result, config) -> dict:
    """Sampler artifacts: parameters, the averaged rate path, memberships,
    grouping and the sweep log."""
    params = result.params
    horizon, m, k = result.theta_mean.shape
    gio.write_matrix_csv(out / "alpha.csv", params.alpha[None, :], _group_cols(m))
    gio.write_matrix_csv(out / "block.csv", params.block, _group_cols(m))
    gio.write_matrix_csv(out / "beta.csv", params.beta, _role_cols(k))
    gio.write_matrix_csv(out / "theta0.csv", params.theta0, _role_cols(k))
    flat = result.theta_mean.reshape(horizon * m, k)
    idx = np.indices((horizon, m)).reshape(2, -1).T
    gio.write_matrix_csv(
        out / "theta_mean.csv",
        _table(idx[:, 0], idx[:, 1], *(flat[:, j] for j in range(k))),
        ["t", "group"] + _role_cols(k),
    )
    gio.write_matrix_csv(out / "pi.csv", result.trace.pi, _group_cols(m))
    _write_grouping(out, result.trace.grouping())
    # sweep log: RMS move of the filtered rate paths between sweeps
    moves = []
    prev = np.tile(params.theta0, (horizon, 1, 1))
    for s in range(result.history.shape[0]):
        moves.append(float(np.sqrt(np.mean((result.history[s] - prev) ** 2))))
        prev = result.history[s]
    gio.write_matrix_csv(
        out / "trace.csv", _table(range(len(moves)), moves), ["sweep", "theta_rms"]
    )
    return {"converged": True, "sweeps": config.sweeps, "horizon": horizon}


def cmd_fit(args) -> int:
    model = _MODELS[args.model]
    config = model.config(seed=args.seed, **_model_flags(args))
    data = gio.read_dataset(args.data)
    kind = _dataset_kind(data)
    if kind != model.kind:
        want = model.kind
        article = "an" if want[0] in "aeiou" else "a"
        raise UsageError(
            f"model {args.model} expects {article} {want} dataset ({_FORMAT_HINT[want]}); "
            f"{args.data} holds a {kind} dataset"
        )

    result = model.fit(data, args.groups, args.roles, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "model": args.model,
        "n_groups": args.groups,
        "n_roles": args.roles,
        "n_nodes": int(data.n_nodes),
        "seed": args.seed,
    }
    manifest.update(model.write(out, result, config))
    gio.write_json(out / "fit.json", manifest)
    return EXIT_OK if manifest["converged"] else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# score / evaluate
# ---------------------------------------------------------------------------

def _static_scores(theta) -> tuple:
    """Each group's rate distance from the median rate profile; no change scores."""
    return rate_distance_score(theta, rate_reference(theta)), None


def _dynamic_scores(theta_mean) -> tuple:
    """Each group's largest change score, and the (T-1, M) change scores."""
    change = dynamic_change_score(theta_mean)
    return change.max(axis=0), change


def _em_scores(result) -> tuple:
    return result.state.grouping(), *_static_scores(result.params.theta)


def _sampler_scores(result) -> tuple:
    return result.trace.grouping(), *_dynamic_scores(result.theta_mean)


def _load_static_scores(root: Path, manifest: dict) -> tuple:
    _, theta = gio.read_matrix_csv(root / "theta.csv")
    return _static_scores(theta)


def _load_dynamic_scores(root: Path, manifest: dict) -> tuple:
    m, k = int(manifest["n_groups"]), int(manifest["n_roles"])
    _, flat = gio.read_matrix_csv(root / "theta_mean.csv")
    return _dynamic_scores(flat[:, 2:].reshape(int(manifest["horizon"]), m, k))


def _load_fit(fit_dir) -> tuple:
    """(manifest, grouping, group_scores, change_scores) of a fit directory,
    scores in the fit's own label space."""
    root = Path(fit_dir)
    manifest_path = root / "fit.json"
    if not manifest_path.exists():
        raise UsageError(f"{fit_dir}: not a fit directory (missing fit.json)")
    manifest = json.loads(manifest_path.read_text())
    model = _MODELS.get(manifest["model"])
    if model is None:
        raise UsageError(
            f"{fit_dir}: fit.json names unknown model {manifest['model']!r} "
            f"(known: {', '.join(_MODELS)})"
        )
    scores, change = model.load_scores(root, manifest)
    return manifest, _read_grouping(root / "grouping.csv"), scores, change


def _align_to_truth(scores, change, grouping, true_grouping, n_groups):
    """Re-index fitted-label scores into the true label space."""
    mapping = match_groups(grouping, true_grouping, n_groups)
    aligned = np.empty_like(scores)
    aligned[mapping] = scores
    aligned_change = None
    if change is not None:
        aligned_change = np.empty_like(change)
        aligned_change[:, mapping] = change
    return aligned, aligned_change


def _emit_scores(out: Path, report: AnomalyReport) -> None:
    (out / "report.json").write_text(report.to_json() + "\n")
    table = _table(range(report.group_scores.size), report.group_scores)
    gio.write_matrix_csv(out / "scores.csv", table, ["group", "score"])
    if report.change_scores is not None:
        change = report.change_scores
        gio.write_matrix_csv(
            out / "change_scores.csv",
            _table(range(1, change.shape[0] + 1), *(change[:, j] for j in range(change.shape[1]))),
            ["transition"] + _group_cols(change.shape[1]),
        )


def _prepare_report(args, want_truth: bool):
    manifest, grouping, scores, change = _load_fit(args.fit)
    n_groups = int(manifest["n_groups"])
    truth = None
    if args.truth is not None:
        truth = gio.read_truth(args.truth)
        scores, change = _align_to_truth(scores, change, grouping, truth["grouping"], n_groups)
    elif want_truth:
        raise UsageError("evaluate requires --truth")
    report = make_report(
        scores,
        args.fraction,
        change_scores=change,
        threshold=args.threshold,
        anomalous=truth["anomalous_groups"] if truth else None,
        change_times=truth["change_times"] if truth else None,
    )
    return truth, report, scores, change


def cmd_score(args) -> int:
    _, report, _, _ = _prepare_report(args, want_truth=False)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _emit_scores(out, report)
    flagged = ",".join(str(g) for g in report.flagged)
    print(f"flagged groups: {flagged}")
    return EXIT_OK


def _fpr_curve(scores, change, truth, n_thresholds):
    """(thresholds, fpr, recall) on a grid spanning the observed scores."""
    if change is not None:
        grid = np.linspace(0.0, float(change.max()), n_thresholds)
        curve = evaluate_dynamic(change, truth["change_times"], grid)
        return grid, curve["fpr"], curve["recall"]
    grid = np.linspace(float(scores.min()), float(scores.max()), n_thresholds)
    rows = [
        evaluate_static(np.flatnonzero(scores > tau), truth["anomalous_groups"], scores.size)
        for tau in grid
    ]
    return grid, np.array([r["fpr"] for r in rows]), np.array([r["accuracy"] for r in rows])


def cmd_evaluate(args) -> int:
    truth, report, scores, change = _prepare_report(args, want_truth=True)
    if change is not None and not truth["change_times"]:
        raise UsageError("dynamic fit but the truth file lists no change times")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _emit_scores(out, report)
    metrics = sorted(report.metrics.items())
    lines = ["metric,value"] + [f"{k},{gio.fmt_cell(float(v))}" for k, v in metrics]
    (out / "accuracy.csv").write_text("\n".join(lines) + "\n")
    grid, fpr, recall = _fpr_curve(scores, change, truth, args.thresholds)
    gio.write_matrix_csv(
        out / "fpr_curve.csv",
        np.column_stack([grid, fpr, recall]),
        ["threshold", "fpr", "recall"],
    )
    if args.svg:
        gio.svg_line_plot(
            out / "fpr_curve.svg",
            grid,
            [fpr, recall],
            ["fpr", "recall"],
            title="detection sweep",
            xlabel="threshold",
            ylabel="rate",
        )
    for key, value in metrics:
        print(f"{key}={value:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------

class _Model(NamedTuple):
    kind: str  # the dataset kind it fits
    config: type  # its config class; every hyper flag is a field of one
    fit: Callable  # (data, n_groups, n_roles, config) -> result
    write: Callable  # (out dir, result, config) -> manifest entries
    load_scores: Callable  # (fit dir, manifest) -> (group scores, change scores or None)
    scores: Callable  # fit result -> (grouping, group scores, change scores or None)


_MODELS = {
    "glad": _Model("static", FitConfig, fit, _write_glad_fit, _load_static_scores, _em_scores),
    "glad0": _Model("activity", Fit0Config, fit0, _write_em_fit, _load_static_scores, _em_scores),
    "dglad": _Model(
        "dynamic", DGladConfig, run_sampler, _write_dglad_fit, _load_dynamic_scores,
        _sampler_scores,
    ),
}
# flags whose config field has another name
_FLAG_FIELDS = {"particles": "n_particles"}
# the config field with no hyper flag: --seed is set on its own
_UNFLAGGED = {"seed"}


def _flag_models() -> dict:
    """Each hyper flag and the models whose config has its field; any other
    model given the flag is a usage error."""
    flag_of = {field: flag for flag, field in _FLAG_FIELDS.items()}
    table = {}
    for name, model in _MODELS.items():
        for field in dataclasses.fields(model.config):
            if field.name not in _UNFLAGGED:
                table.setdefault(flag_of.get(field.name, field.name), set()).add(name)
    return table


_FLAG_MODELS = _flag_models()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

# a key named like a `glad fit` hyper flag (max_iters, sweeps, burn_in,
# particles, sigma) sets that config field in the cells of every model taking it
_BENCHMARK_SCHEMA = {
    "group_counts": ("int_list", [5]),
    "n_seeds": ("int", 3),
    "n_nodes": ("int", 250),
    "n_roles": ("int", 2),
    "trials_per_person": ("int", 50),
    "anomaly_fraction": ("float", 0.2),
    "block_in": ("float", 0.3),
    "block_out": ("float", 0.05),
    "max_iters": ("int", 120),
    "fraction": ("float", 0.2),
    "seed": ("int", 0),
    "dynamic": ("bool", True),
    "dyn_nodes": ("int", 150),
    "dyn_groups": ("int", 4),
    "dyn_seeds": ("int", 3),
    "horizon": ("int", 5),
    "change_time": ("int", 4),
    "changed_fraction": ("float", 0.5),
    "drift_sigma": ("float", 0.05),
    "sweeps": ("int", 20),
    "burn_in": ("int", 10),
    "particles": ("int", 80),
    "sigma": ("float", 0.4),
    "thresholds": ("int", 21),
    "grid_max": ("float", 4.0),
}

# the grid's static methods: the joint fit and the two-stage baseline on its config
_METHODS = ("glad", "mmsb-lda")


def _cell(cfg: dict, method: str, n_groups: int, seed: int) -> dict:
    """One benchmark cell: the accuracy (static methods) or the fpr and
    recall on the threshold grid (dglad) that `glad generate`, `glad fit`
    and `glad evaluate --truth` give at the cell's sizes and seed."""
    name = "glad" if method == "mmsb-lda" else method
    model = _MODELS[name]
    n_nodes = cfg["dyn_nodes"] if model.kind == "dynamic" else cfg["n_nodes"]
    data, truth = _inject(model.kind, cfg, n_nodes=n_nodes, n_groups=n_groups, seed=seed)
    config = model.config(seed=seed, **_flag_fields(name, cfg))
    if method == "mmsb-lda":
        grouping = fit_mmsb(data.links, n_groups, config).grouping
        stage2 = fit_group_lda(
            data.features, grouping, cfg["n_roles"], MixtureConfig(seed=seed), n_groups=n_groups
        )
        scores, change = stage2.scores, None
    else:
        grouping, scores, change = model.scores(model.fit(data, n_groups, cfg["n_roles"], config))
    # a dynamic truth repeats each person's constant group once per snapshot
    scores, change = _align_to_truth(
        scores, change, grouping, np.atleast_2d(truth.group)[0], n_groups
    )
    if change is None:
        report = make_report(scores, cfg["fraction"], anomalous=truth.anomalous_groups)
        return {"accuracy": report.metrics["accuracy"]}
    grid = np.linspace(0.0, cfg["grid_max"], cfg["thresholds"])
    curve = evaluate_dynamic(change, truth.change_times, grid)
    return {"fpr": curve["fpr"].tolist(), "recall": curve["recall"].tolist()}


def _run_cell_to_file(job) -> str:
    """Worker entry: run one cell, record its outcome as a JSON file."""
    cfg, key, path = job
    try:
        payload = _cell(cfg, *key)
        payload["status"] = "ok"
    except Exception as exc:  # per-cell failures recorded, suite continues
        payload = {"status": f"error: {type(exc).__name__}: {exc}"}
    gio.write_json(path, payload)
    return path


def _n_workers(n_jobs: int) -> int:
    cap = os.environ.get("GLAD_THREADS")
    if cap is not None:
        return max(1, min(int(cap), n_jobs))
    return max(1, min(os.cpu_count() or 1, 4, n_jobs))


def _csv_safe(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ")


def cmd_benchmark(args) -> int:
    raw = gio.parse_config_text(Path(args.config).read_text())
    cfg = gio.coerce_config(raw, _BENCHMARK_SCHEMA)
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = Path(args.out)
    cells_dir = out / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(gio.format_config(cfg))

    jobs = [
        (cfg, (method, gc, seed), str(cells_dir / f"static_g{gc:03d}_{method}_s{seed:03d}.json"))
        for gc in cfg["group_counts"]
        for method in _METHODS
        for seed in range(cfg["seed"], cfg["seed"] + cfg["n_seeds"])
    ]
    if cfg["dynamic"]:
        jobs += [
            (cfg, ("dglad", cfg["dyn_groups"], seed), str(cells_dir / f"dynamic_s{seed:03d}.json"))
            for seed in range(cfg["seed"], cfg["seed"] + cfg["dyn_seeds"])
        ]

    workers = _n_workers(len(jobs))
    if workers == 1:
        for job in jobs:
            _run_cell_to_file(job)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_run_cell_to_file, jobs))

    # merge single-threaded, in deterministic order
    cell_rows, curves, dyn_rows = [], [], []
    for _, (method, gc, seed), path in sorted(jobs, key=lambda j: j[2]):
        payload = json.loads(Path(path).read_text())
        if method in _METHODS:
            acc = payload.get("accuracy", float("nan"))
            cell_rows.append((gc, method, seed, acc, payload["status"]))
        else:
            dyn_rows.append((seed, payload["status"]))
            if payload["status"] == "ok":
                curves.append((np.asarray(payload["fpr"]), np.asarray(payload["recall"])))

    cell_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = ["group_count,method,seed,accuracy,status"]
    for gc, method, seed, acc, status in cell_rows:
        lines.append(f"{gc},{method},{seed},{gio.fmt_cell(float(acc))},{_csv_safe(status)}")
    (out / "cells.csv").write_text("\n".join(lines) + "\n")

    lines = ["group_count,method,mean_accuracy,std_accuracy,n_ok"]
    summary = {}
    for gc in sorted(cfg["group_counts"]):
        for method in _METHODS:
            accs = [
                r[3] for r in cell_rows if r[0] == gc and r[1] == method and r[4] == "ok"
            ]
            mean = float(np.mean(accs)) if accs else float("nan")
            std = float(np.std(accs)) if accs else float("nan")
            summary[(gc, method)] = mean
            lines.append(
                f"{gc},{method},{gio.fmt_cell(mean)},{gio.fmt_cell(std)},{len(accs)}"
            )
    (out / "summary.csv").write_text("\n".join(lines) + "\n")

    counts = sorted(cfg["group_counts"])
    mean_series = [
        np.array([summary[(gc, method)] for gc in counts]) for method in _METHODS
    ]
    if all(np.isfinite(y).all() for y in mean_series):
        gio.svg_line_plot(
            out / "accuracy_vs_groups.svg",
            counts,
            mean_series,
            list(_METHODS),
            title="detection accuracy by group count",
            xlabel="groups",
            ylabel="mean accuracy",
        )

    if cfg["dynamic"]:
        lines = ["seed,status"]
        for seed, status in sorted(dyn_rows):
            lines.append(f"{seed},{_csv_safe(status)}")
        (out / "dyn_cells.csv").write_text("\n".join(lines) + "\n")
        if curves:
            grid = np.linspace(0.0, cfg["grid_max"], cfg["thresholds"])
            fpr = np.mean([c[0] for c in curves], axis=0)
            recall = np.mean([c[1] for c in curves], axis=0)
            gio.write_matrix_csv(
                out / "fpr_curve.csv",
                np.column_stack([grid, fpr, recall]),
                ["threshold", "fpr", "recall"],
            )
            gio.svg_line_plot(
                out / "fpr_curve.svg",
                grid,
                [fpr, recall],
                ["fpr", "recall"],
                title="change detection sweep",
                xlabel="threshold",
                ylabel="rate",
            )

    n_failed = sum(row[-1] != "ok" for row in cell_rows + dyn_rows)
    gio.write_json(
        out / "benchmark.json",
        {"n_cells": len(jobs), "n_failed": n_failed, "seed": cfg["seed"]},
    )
    print(f"{len(jobs)} cells, {n_failed} failed; results in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="glad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="sample a benchmark dataset from a config")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit a model to a dataset directory")
    p.add_argument("--model", required=True, choices=tuple(_MODELS))
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="fit artifact directory to create")
    p.add_argument("--groups", required=True, type=int)
    p.add_argument("--roles", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--alpha0", type=float, default=None)
    p.add_argument("--inner-max", dest="inner_max", type=int, default=None)
    p.add_argument("--inner-tol", dest="inner_tol", type=float, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--sweeps", type=int, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p.add_argument("--particles", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--init-restarts", dest="init_restarts", type=int, default=None)
    p.add_argument("--init-fit-iters", dest="init_fit_iters", type=int, default=None)
    p.set_defaults(func=cmd_fit)

    for name, func, needs_truth in (
        ("score", cmd_score, False),
        ("evaluate", cmd_evaluate, True),
    ):
        p = sub.add_parser(name, help=f"{name} a fit directory")
        p.add_argument("--fit", required=True, help="fit artifact directory")
        p.add_argument("--out", required=True, help="report directory to create")
        p.add_argument("--truth", required=needs_truth, default=None)
        p.add_argument("--fraction", type=float, default=0.2)
        p.add_argument("--threshold", type=float, default=None)
        if name == "evaluate":
            p.add_argument("--thresholds", type=int, default=10)
            p.add_argument("--svg", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("benchmark", help="run an accuracy/FPR suite from a config")
    p.add_argument("--config", required=True, help="key=value suite config")
    p.add_argument("--out", required=True, help="results directory to create")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GladNumericsError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
