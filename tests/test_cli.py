"""End-to-end checks of the command line, invoked in-process via main()."""

import json

import numpy as np
import pytest

from glad import io
from glad.cli import main
from glad.scoring import AnomalyReport, evaluate_static, top_fraction


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def static_run(tmp_path_factory):
    """One generated static dataset plus a converged fit, shared read-only."""
    root = tmp_path_factory.mktemp("static_run")
    cfg = root / "gen.cfg"
    cfg.write_text("kind=static\nn_nodes=60\nn_groups=3\ntrials_per_person=30\nseed=7\n")
    data_dir = root / "data"
    assert run("generate", "--config", cfg, "--out", data_dir) == 0
    fit_dir = root / "fit"
    assert (
        run("fit", "--model", "glad", "--data", data_dir, "--out", fit_dir,
            "--groups", 3, "--max-iters", 80, "--seed", 1)
        == 0
    )
    return root, data_dir, fit_dir


@pytest.fixture(scope="module")
def dynamic_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("dynamic_run")
    cfg = root / "gen.cfg"
    cfg.write_text(
        "kind=dynamic\nn_nodes=60\nn_groups=3\ntrials_per_person=30\n"
        "horizon=5\nchange_time=4\nseed=5\n"
    )
    data_dir = root / "data"
    assert run("generate", "--config", cfg, "--out", data_dir) == 0
    fit_dir = root / "fit"
    assert (
        run("fit", "--model", "dglad", "--data", data_dir, "--out", fit_dir,
            "--groups", 3, "--sweeps", 6, "--burn-in", 3, "--particles", 40,
            "--sigma", 0.4, "--seed", 4)
        == 0
    )
    return root, data_dir, fit_dir


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_default_benchmark_shape(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_nodes=500\nn_groups=5\nseed=0\n")
    out = tmp_path / "ds"
    assert run("generate", "--config", cfg, "--out", out) == 0
    features = (out / "features.csv").read_text().splitlines()
    assert len(features) == 501  # header + 500 rows
    links = io.read_edges(out / "edges.tsv", 500)
    np.testing.assert_array_equal(links, links.T)
    truth = io.read_truth(out / "truth.json")
    assert len(truth["anomalous_groups"]) == 1  # ceil(0.2 * 5)


def test_generate_twice_is_byte_identical(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_nodes=80\nn_groups=4\nseed=3\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("generate", "--config", cfg, "--out", a) == 0
    assert run("generate", "--config", cfg, "--out", b) == 0
    for f in sorted(p.name for p in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


def test_generate_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_nodes=50\nn_groups=2\nseed=3\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("generate", "--config", cfg, "--out", a) == 0
    assert run("generate", "--config", cfg, "--out", b, "--seed", 11) == 0
    assert "seed=11" in (b / "config.txt").read_text()
    assert (a / "features.csv").read_bytes() != (b / "features.csv").read_bytes()


def test_generate_echoes_resolved_defaults(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_nodes=30\nn_groups=3\n")
    out = tmp_path / "ds"
    assert run("generate", "--config", cfg, "--out", out) == 0
    echoed = io.parse_config_text((out / "config.txt").read_text())
    assert echoed["anomaly_fraction"] == "0.2"
    assert echoed["block_in"] == "0.3"
    assert echoed["kind"] == "static"


def test_generate_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_nodes=30\nn_groups=3\nwat=1\n")
    assert run("generate", "--config", cfg, "--out", tmp_path / "ds") == 1
    assert "wat" in capsys.readouterr().err


def test_generate_bad_kind_and_missing_file_exit_1(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("kind=quarterly\n")
    assert run("generate", "--config", cfg, "--out", tmp_path / "x") == 1
    assert run("generate", "--config", tmp_path / "missing.cfg", "--out", tmp_path / "y") == 1


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_glad_trace_elbo_is_non_decreasing(static_run):
    _, _, fit_dir = static_run
    header, trace = io.read_matrix_csv(fit_dir / "trace.csv")
    assert header == ["iter", "elbo"]
    assert np.all(np.diff(trace[:, 1]) >= -1e-8)


def test_fit_artifacts_and_manifest(static_run):
    _, _, fit_dir = static_run
    for name in ("alpha", "block", "theta", "beta", "gamma", "lambda", "mu", "grouping"):
        assert (fit_dir / f"{name}.csv").exists(), name
    manifest = json.loads((fit_dir / "fit.json").read_text())
    assert manifest["model"] == "glad" and manifest["converged"] is True
    _, grouping = io.read_matrix_csv(fit_dir / "grouping.csv")
    assert grouping.shape == (60, 2)
    assert set(grouping[:, 1]) <= {0.0, 1.0, 2.0}


def test_fit_is_byte_identical_across_reruns(static_run, tmp_path):
    _, data_dir, fit_dir = static_run
    again = tmp_path / "fit2"
    assert (
        run("fit", "--model", "glad", "--data", data_dir, "--out", again,
            "--groups", 3, "--max-iters", 80, "--seed", 1)
        == 0
    )
    for f in sorted(p.name for p in fit_dir.iterdir()):
        assert (fit_dir / f).read_bytes() == (again / f).read_bytes(), f


def test_fit_exit_2_when_iteration_capped(static_run, tmp_path):
    _, data_dir, _ = static_run
    out = tmp_path / "fit"
    rc = run("fit", "--model", "glad", "--data", data_dir, "--out", out,
             "--groups", 3, "--max-iters", 1, "--seed", 1)
    assert rc == 2
    assert json.loads((out / "fit.json").read_text())["converged"] is False


def test_fit_glad0_on_snapshot_dataset_names_expected_format(static_run, tmp_path, capsys):
    _, data_dir, _ = static_run
    rc = run("fit", "--model", "glad0", "--data", data_dir, "--out", tmp_path / "x",
             "--groups", 3)
    assert rc == 1
    err = capsys.readouterr().err
    assert "activity" in err and "one-hot" in err
    assert not (tmp_path / "x").exists()  # nothing written on a refused fit


def test_fit_dglad_sweeps_zero_empty_trace_exit_0(dynamic_run, tmp_path):
    _, data_dir, _ = dynamic_run
    out = tmp_path / "fit"
    rc = run("fit", "--model", "dglad", "--data", data_dir, "--out", out,
             "--groups", 3, "--sweeps", 0, "--burn-in", 0, "--particles", 20)
    assert rc == 0
    assert (out / "trace.csv").read_text() == "sweep,theta_rms\n"


def test_fit_rejects_flags_of_other_models(static_run, tmp_path, capsys):
    _, data_dir, _ = static_run
    rc = run("fit", "--model", "glad", "--data", data_dir, "--out", tmp_path / "x",
             "--groups", 3, "--sweeps", 5)
    assert rc == 1
    assert "--sweeps" in capsys.readouterr().err
    rc = run("fit", "--model", "dglad", "--data", data_dir, "--out", tmp_path / "y",
             "--groups", 3, "--max-iters", 5)
    assert rc == 1


def test_fit_dglad_theta_mean_table_shape(dynamic_run):
    _, _, fit_dir = dynamic_run
    header, table = io.read_matrix_csv(fit_dir / "theta_mean.csv")
    assert header == ["t", "group", "r_0", "r_1"]
    assert table.shape == (5 * 3, 4)
    np.testing.assert_array_equal(np.unique(table[:, 0]), np.arange(5))


def test_usage_errors_exit_1_not_2():
    assert main(["fit", "--model", "nope"]) == 1
    assert main(["fit", "--model", "glad", "--data", "d", "--out", "o", "--groups", "3",
                 "--mode", "jacobi"]) == 1
    assert main(["definitely-not-a-command"]) == 1
    assert main([]) == 1


# ---------------------------------------------------------------------------
# score / evaluate
# ---------------------------------------------------------------------------

def test_score_report_round_trips(static_run, tmp_path):
    _, data_dir, fit_dir = static_run
    out = tmp_path / "score"
    assert run("score", "--fit", fit_dir, "--out", out,
               "--truth", data_dir / "truth.json") == 0
    text = (out / "report.json").read_text()
    report = AnomalyReport.from_json(text)
    assert report.to_json() + "\n" == text  # parse(emit(r)) == r
    header, scores = io.read_matrix_csv(out / "scores.csv")
    assert header == ["group", "score"] and scores.shape == (3, 2)


def test_score_without_truth_has_no_metrics(static_run, tmp_path):
    _, _, fit_dir = static_run
    out = tmp_path / "score"
    assert run("score", "--fit", fit_dir, "--out", out) == 0
    report = AnomalyReport.from_json((out / "report.json").read_text())
    assert report.metrics == {}


def test_score_on_missing_fit_dir_exits_1(tmp_path, capsys):
    assert run("score", "--fit", tmp_path / "nope", "--out", tmp_path / "o") == 1
    assert "fit.json" in capsys.readouterr().err


def test_evaluate_requires_truth(static_run, tmp_path):
    _, _, fit_dir = static_run
    assert run("evaluate", "--fit", fit_dir, "--out", tmp_path / "o") == 1


def test_evaluate_threshold_grid_row_count(static_run, tmp_path):
    _, data_dir, fit_dir = static_run
    out = tmp_path / "eval"
    assert run("evaluate", "--fit", fit_dir, "--out", out,
               "--truth", data_dir / "truth.json", "--thresholds", 10) == 0
    lines = (out / "fpr_curve.csv").read_text().splitlines()
    assert lines[0] == "threshold,fpr,recall"
    assert len(lines) == 11  # header + 10 grid rows


def test_evaluate_accuracy_matches_scoring_module(static_run, tmp_path):
    _, data_dir, fit_dir = static_run
    out = tmp_path / "eval"
    assert run("evaluate", "--fit", fit_dir, "--out", out,
               "--truth", data_dir / "truth.json", "--fraction", 0.2) == 0
    # recompute from the emitted artifacts with the library primitives
    _, scores = io.read_matrix_csv(out / "scores.csv")
    truth = io.read_truth(data_dir / "truth.json")
    flagged = top_fraction(scores[:, 1], 0.2)
    expect = evaluate_static(flagged, truth["anomalous_groups"], 3)
    rows = dict(
        line.split(",") for line in (out / "accuracy.csv").read_text().splitlines()[1:]
    )
    assert float(rows["accuracy"]) == expect["accuracy"]
    assert float(rows["fpr"]) == expect["fpr"]


def test_evaluate_svg_flag_writes_self_contained_plot(static_run, tmp_path):
    _, data_dir, fit_dir = static_run
    out = tmp_path / "eval"
    assert run("evaluate", "--fit", fit_dir, "--out", out,
               "--truth", data_dir / "truth.json", "--svg") == 0
    svg = (out / "fpr_curve.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_evaluate_dynamic_emits_change_artifacts(dynamic_run, tmp_path):
    _, data_dir, fit_dir = dynamic_run
    out = tmp_path / "eval"
    assert run("evaluate", "--fit", fit_dir, "--out", out,
               "--truth", data_dir / "truth.json", "--threshold", 1.5) == 0
    header, change = io.read_matrix_csv(out / "change_scores.csv")
    assert header[0] == "transition" and change.shape == (4, 4)
    np.testing.assert_array_equal(change[:, 0], [1, 2, 3, 4])
    report = AnomalyReport.from_json((out / "report.json").read_text())
    assert "change_recall" in report.metrics and "change_fpr" in report.metrics
    for g, t in report.alarms:
        assert 0 <= g < 3 and 1 <= t <= 4


def test_evaluate_dynamic_without_change_times_exits_1_writing_nothing(dynamic_run, tmp_path):
    _, data_dir, fit_dir = dynamic_run
    truth = io.read_truth(data_dir / "truth.json")
    io.write_truth(tmp_path / "truth.json", truth["anomalous_groups"], truth["grouping"])
    out = tmp_path / "eval"
    out.mkdir()
    assert run("evaluate", "--fit", fit_dir, "--out", out,
               "--truth", tmp_path / "truth.json") == 1
    assert list(out.iterdir()) == []


def test_evaluate_reruns_byte_identical(dynamic_run, tmp_path):
    _, data_dir, fit_dir = dynamic_run
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("evaluate", "--fit", fit_dir, "--out", out,
                   "--truth", data_dir / "truth.json", "--svg") == 0
    for f in sorted(p.name for p in a.iterdir()):
        assert (a / f).read_bytes() == (b / f).read_bytes(), f


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _suite_config(path, **overrides):
    base = {
        "group_counts": "3,4",
        "n_seeds": 3,
        "n_nodes": 90,
        "max_iters": 40,
        "dynamic": "false",
    }
    base.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))


def test_benchmark_cell_grid_and_summary(tmp_path, monkeypatch):
    monkeypatch.setenv("GLAD_THREADS", "1")
    cfg = tmp_path / "suite.cfg"
    _suite_config(cfg)
    out = tmp_path / "bench"
    assert run("benchmark", "--config", cfg, "--out", out) == 0
    cells = (out / "cells.csv").read_text().splitlines()
    assert cells[0] == "group_count,method,seed,accuracy,status"
    assert len(cells) == 13  # header + 2 group counts x 2 methods x 3 seeds
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "group_count,method,mean_accuracy,std_accuracy,n_ok"
    assert len(summary) == 5
    by_key = {}
    for line in summary[1:]:
        gc, method, mean, std, n_ok = line.split(",")
        by_key[(gc, method)] = float(mean)
        float(std)  # parses
        assert n_ok == "3"
    for gc in ("3", "4"):
        assert by_key[(gc, "glad")] >= by_key[(gc, "mmsb-lda")]
    assert (out / "accuracy_vs_groups.svg").exists()


def test_benchmark_worker_pool_matches_serial(tmp_path, monkeypatch):
    cfg = tmp_path / "suite.cfg"
    _suite_config(cfg, group_counts="3", n_seeds=2, n_nodes=60, max_iters=25)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    monkeypatch.setenv("GLAD_THREADS", "1")
    assert run("benchmark", "--config", cfg, "--out", serial) == 0
    monkeypatch.setenv("GLAD_THREADS", "2")
    assert run("benchmark", "--config", cfg, "--out", pooled) == 0
    for f in sorted(p.name for p in serial.iterdir() if p.is_file()):
        assert (serial / f).read_bytes() == (pooled / f).read_bytes(), f


def test_benchmark_dynamic_curve_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("GLAD_THREADS", "2")
    cfg = tmp_path / "suite.cfg"
    _suite_config(
        cfg, group_counts="3", n_seeds=1, n_nodes=60, max_iters=25,
        dynamic="true", dyn_nodes=60, dyn_groups=3, dyn_seeds=2,
        sweeps=5, burn_in=2, particles=30, sigma=0.4, thresholds=9,
    )
    out = tmp_path / "bench"
    assert run("benchmark", "--config", cfg, "--out", out) == 0
    header, curve = io.read_matrix_csv(out / "fpr_curve.csv")
    assert header == ["threshold", "fpr", "recall"]
    assert curve.shape == (9, 3)
    assert np.all((0 <= curve[:, 1:]) & (curve[:, 1:] <= 1))
    assert (out / "fpr_curve.svg").exists()
    assert (out / "dyn_cells.csv").read_text().splitlines()[0] == "seed,status"


def test_benchmark_records_cell_failures_and_continues(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GLAD_THREADS", "1")
    cfg = tmp_path / "suite.cfg"
    # change_time outside the horizon: every dynamic cell fails, suite survives
    _suite_config(
        cfg, group_counts="3", n_seeds=1, n_nodes=60, max_iters=25,
        dynamic="true", dyn_seeds=2, horizon=5, change_time=9,
    )
    out = tmp_path / "bench"
    assert run("benchmark", "--config", cfg, "--out", out) == 0
    dyn = (out / "dyn_cells.csv").read_text().splitlines()[1:]
    assert len(dyn) == 2 and all("error" in line for line in dyn)
    static = (out / "cells.csv").read_text().splitlines()[1:]
    assert all(line.endswith(",ok") for line in static)
    assert "2 failed" in capsys.readouterr().out
    assert json.loads((out / "benchmark.json").read_text())["n_failed"] == 2


def test_benchmark_seed_flag_changes_cells(tmp_path, monkeypatch):
    monkeypatch.setenv("GLAD_THREADS", "1")
    cfg = tmp_path / "suite.cfg"
    _suite_config(cfg, group_counts="3", n_seeds=1, n_nodes=60, max_iters=25)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("benchmark", "--config", cfg, "--out", a) == 0
    assert run("benchmark", "--config", cfg, "--out", b, "--seed", 5) == 0
    assert (a / "cells.csv").read_text() != (b / "cells.csv").read_text()
    assert "seed=5" in (b / "config.txt").read_text()
