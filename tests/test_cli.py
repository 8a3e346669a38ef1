"""End-to-end checks of the command line, invoked in-process via main()."""

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glad import cli, io
from glad.cli import main
from glad.dglad_mc import DGladConfig
from glad.glad_vem import FitConfig
from glad.model import GladNumericsError
from glad.scoring import evaluate_dynamic, evaluate_static, top_fraction


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


def _src_env() -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_scipy_optimize_unloaded(static_run, dynamic_run, tmp_path):
    # group matching solves its assignment in numpy: no stage, not even the
    # ones that match labels, pays scipy.optimize's start-up time and memory
    _, static_data, static_fit = static_run
    _, dynamic_data, dynamic_fit = dynamic_run
    runs = [
        ["evaluate", "--fit", str(static_fit), "--truth", str(static_data / "truth.json"),
         "--out", str(tmp_path / "eval_static")],
        ["evaluate", "--fit", str(dynamic_fit), "--truth", str(dynamic_data / "truth.json"),
         "--out", str(tmp_path / "eval_dynamic"), "--threshold", "1.0"],
        ["score", "--fit", str(static_fit), "--truth", str(static_data / "truth.json"),
         "--out", str(tmp_path / "score")],
    ]
    code = ("import sys, glad.cli; "
            f"print(*[glad.cli.main(argv) for argv in {runs!r}], "
            "'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split()[-4:] == ["0", "0", "0", "False"], (out.stdout, out.stderr)


def test_generate_and_score_leave_scipy_special_unloaded(static_run, tmp_path):
    # only the fits call digamma and log-gamma; the other stages should not
    # pay scipy.special's start-up time
    _, data_dir, fit_dir = static_run
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("kind=activity\nn_nodes=30\nn_groups=3\ntrials_per_person=4\nseed=0\n")
    for argv in (
        ["generate", "--config", str(cfg), "--out", str(tmp_path / "data")],
        ["score", "--fit", str(fit_dir), "--out", str(tmp_path / "report")],
        ["evaluate", "--fit", str(fit_dir), "--truth", str(data_dir / "truth.json"),
         "--out", str(tmp_path / "eval")],
    ):
        code = ("import sys; from glad.cli import main; "
                f"print(main({argv!r}), 'scipy.special' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split()[-2:] == ["0", "False"], (argv[0], out.stdout, out.stderr)


def test_every_stage_leaves_scipy_unloaded(static_run, dynamic_run, tmp_path):
    # the special functions and the label matching are numpy code, so no
    # stage pays scipy's start-up time and memory: run every stage in one
    # process, the benchmark's cells in-process too, and look after each
    _, static_data, static_fit = static_run
    _, dynamic_data, dynamic_fit = dynamic_run
    gen = tmp_path / "gen.cfg"
    gen.write_text("kind=activity\nn_nodes=30\nn_groups=3\ntrials_per_person=4\nseed=0\n")
    suite = tmp_path / "suite.cfg"
    _suite_config(suite, group_counts="3", n_seeds=1, n_nodes=40, max_iters=5,
                  dynamic="true", dyn_nodes=30, dyn_groups=3, dyn_seeds=1,
                  sweeps=2, burn_in=1, particles=10)
    runs = [
        ["generate", "--config", str(gen), "--out", str(tmp_path / "activity")],
        ["fit", "--model", "glad", "--data", str(static_data), "--out", str(tmp_path / "glad"),
         "--groups", "3", "--max-iters", "5"],
        ["fit", "--model", "glad0", "--data", str(tmp_path / "activity"),
         "--out", str(tmp_path / "glad0"), "--groups", "3", "--max-iters", "2"],
        ["fit", "--model", "dglad", "--data", str(dynamic_data), "--out", str(tmp_path / "dglad"),
         "--groups", "3", "--sweeps", "2", "--burn-in", "1", "--particles", "10"],
        ["score", "--fit", str(static_fit), "--out", str(tmp_path / "report")],
        ["score", "--fit", str(static_fit), "--truth", str(static_data / "truth.json"),
         "--out", str(tmp_path / "score")],
        ["evaluate", "--fit", str(static_fit), "--truth", str(static_data / "truth.json"),
         "--out", str(tmp_path / "eval_static")],
        ["evaluate", "--fit", str(dynamic_fit), "--truth", str(dynamic_data / "truth.json"),
         "--out", str(tmp_path / "eval_dynamic"), "--threshold", "1.0"],
        ["benchmark", "--config", str(suite), "--out", str(tmp_path / "bench")],
    ]
    code = ("import sys; from glad.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    print(argv[0], main(argv), sorted(m for m in sys.modules\n"
            "                                       if m.split('.')[0] == 'scipy'))\n")
    env = dict(_src_env(), GLAD_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    # the short EM fits may stop unconverged, which exits 2
    lines = [line.split(" ", 2) for line in out.stdout.splitlines() if line.endswith("]")]
    assert [name for name, _, _ in lines] == [argv[0] for argv in runs], (out.stdout, out.stderr)
    assert all(code in ("0", "2") for _, code, _ in lines), out.stdout
    assert all(loaded == "[]" for _, _, loaded in lines), out.stdout


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
    u, v = io.read_edges(out / "edges.tsv", 500)
    assert u.size and np.all(u < v)  # each linked pair once
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


# the tables each model's `fit` writes, with their header rows at 3 groups
# and 2 roles; fit.json comes on top
G3, R2 = "g_0,g_1,g_2", "r_0,r_1"
EM_TABLES = {
    "alpha": G3, "block": G3, "theta": R2, "beta": R2, "gamma": G3,
    "grouping": "node_id,group", "trace": "iter,elbo",
}
FIT_TABLES = {
    "glad": {**EM_TABLES, "lambda": G3, "mu": R2},
    "glad0": EM_TABLES,
    "dglad": {
        "alpha": G3, "block": G3, "beta": R2, "theta0": R2,
        "theta_mean": "t,group," + R2, "pi": G3,
        "grouping": "node_id,group", "trace": "sweep,theta_rms",
    },
}


def _assert_fit_tables(fit_dir, model):
    tables = FIT_TABLES[model]
    want = {f"{name}.csv" for name in tables} | {"fit.json"}
    assert {p.name for p in fit_dir.iterdir()} == want, model
    for name, header in tables.items():
        first = (fit_dir / f"{name}.csv").read_text().split("\n", 1)[0]
        assert first == header, (model, name)


def test_fit_artifacts_and_manifest(static_run, dynamic_run, tmp_path):
    _assert_fit_tables(dynamic_run[2], "dglad")
    cfg = tmp_path / "act.cfg"
    cfg.write_text("kind=activity\nn_nodes=24\nn_groups=3\ntrials_per_person=5\nseed=4\n")
    assert run("generate", "--config", cfg, "--out", tmp_path / "act") == 0
    assert run("fit", "--model", "glad0", "--data", tmp_path / "act", "--out",
               tmp_path / "fit0", "--groups", 3, "--max-iters", 2, "--seed", 1) in (0, 2)
    _assert_fit_tables(tmp_path / "fit0", "glad0")

    _, _, fit_dir = static_run
    _assert_fit_tables(fit_dir, "glad")
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


@pytest.mark.parametrize("flag,value", [("--alpha0", 0), ("--alpha0", -1), ("--tol", -1)])
def test_fit_glad_rejects_out_of_range_hyper_flags(static_run, tmp_path, capsys, flag, value):
    _, data_dir, _ = static_run
    rc = run("fit", "--model", "glad", "--data", data_dir, "--out", tmp_path / "x",
             "--groups", 3, flag, value)
    assert rc == 1
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("model,flag", [
    ("glad", "--tol"), ("glad", "--alpha0"),
    ("glad0", "--tol"), ("glad0", "--inner-tol"), ("glad0", "--alpha0"),
    ("dglad", "--sigma"), ("dglad", "--alpha0"),
])
def test_fit_rejects_nan_hyper_flags(tmp_path, capsys, model, flag):
    # the config refuses NaN, and an infinite prior or walk scale, before
    # the (missing) dataset is read; an infinite tolerance is the documented
    # one-iteration mode
    for value in ("nan",) if flag.endswith("tol") else ("nan", "inf"):
        rc = run("fit", "--model", model, "--data", tmp_path / "missing",
                 "--out", tmp_path / "x", "--groups", 2, flag, value)
        assert rc == 1, value
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_failing_commands_leave_no_out_directory(static_run, tmp_path, capsys):
    _, data_dir, _ = static_run
    cfg = tmp_path / "act.cfg"
    cfg.write_text("kind=activity\nn_nodes=12\nn_groups=2\ntrials_per_person=3\nseed=2\n")
    act_dir = tmp_path / "act"
    assert run("generate", "--config", cfg, "--out", act_dir) == 0
    failing = [
        ("score", "--fit", tmp_path / "nowhere"),
        ("fit", "--model", "glad", "--data", data_dir, "--groups", 0),
        ("fit", "--model", "glad", "--data", data_dir, "--groups", 3, "--roles", 0),
        ("fit", "--model", "glad0", "--data", act_dir, "--groups", 0),
        ("fit", "--model", "glad0", "--data", act_dir, "--groups", 2, "--roles", 0),
        ("fit", "--model", "glad0", "--data", act_dir, "--groups", 0, "--restarts", 2),
    ]
    for i, argv in enumerate(failing):
        out = tmp_path / f"out{i}"
        capsys.readouterr()
        assert run(*argv, "--out", out) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
        assert not out.exists(), argv


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


# the models each `fit` hyper flag applies to, as the README lists them
FLAG_MODELS = {
    "max_iters": {"glad", "glad0"},
    "tol": {"glad", "glad0"},
    "alpha0": {"glad", "glad0", "dglad"},
    "inner_max": {"glad0"},
    "inner_tol": {"glad0"},
    "restarts": {"glad0"},
    "sweeps": {"dglad"},
    "burn_in": {"dglad"},
    "particles": {"dglad"},
    "sigma": {"dglad"},
    "init_restarts": {"dglad"},
    "init_fit_iters": {"dglad"},
}


@pytest.mark.parametrize("flag", sorted(FLAG_MODELS))
def test_hyper_flag_applies_to_its_models_only(flag, tmp_path, capsys):
    for model in ("glad", "glad0", "dglad"):
        rc = run("fit", "--model", model, "--data", tmp_path / "missing", "--out",
                 tmp_path / "o", "--groups", 2, "--" + flag.replace("_", "-"), 1)
        err = capsys.readouterr().err
        assert rc == 1  # the missing dataset, if the flag itself is accepted
        assert ("does not apply" in err) == (model not in FLAG_MODELS[flag]), (model, err)


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
    report = json.loads((out / "report.json").read_text())
    truth = io.read_truth(data_dir / "truth.json")
    assert sorted(report["ranking"]) == [0, 1, 2] and report["change_scores"] is None
    assert report["flagged"] == top_fraction(np.array(report["group_scores"]), 0.2).tolist()
    assert report["metrics"] == evaluate_static(report["flagged"], truth["anomalous_groups"], 3)
    assert report["alarms"] == []
    header, scores = io.read_matrix_csv(out / "scores.csv")
    assert header == ["group", "score"] and scores.shape == (3, 2)
    assert scores[:, 1].tolist() == report["group_scores"]


def test_score_without_truth_has_no_metrics(static_run, tmp_path):
    _, _, fit_dir = static_run
    out = tmp_path / "score"
    assert run("score", "--fit", fit_dir, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"] == {}


@pytest.mark.parametrize("command", ["score", "evaluate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_threshold_exits_1(dynamic_run, tmp_path, capsys, command, value):
    # no change score exceeds a NaN threshold, so it would raise no alarm
    # and read as zero recall
    _, data_dir, fit_dir = dynamic_run
    out = tmp_path / "report"
    rc = run(command, "--fit", fit_dir, "--out", out,
             "--truth", data_dir / "truth.json", "--threshold", value)
    assert rc == 1
    assert "threshold must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
@pytest.mark.parametrize("equals", [False, True])
def test_negative_non_finite_flag_values_reach_the_checks(static_run, tmp_path, capsys,
                                                          value, equals):
    # argparse takes a bare "-inf" for an option; it must be read as a value
    _, data_dir, fit_dir = static_run
    out = tmp_path / "out"
    fit = ["fit", "--data", data_dir, "--out", out, "--groups", 2, "--model"]
    cases = [
        (["score", "--fit", fit_dir, "--out", out], "--threshold", "threshold must be finite"),
        (fit + ["glad"], "--alpha0", "alpha0 must be positive and finite"),
        (fit + ["dglad"], "--sigma", "sigma must be non-negative and finite"),
    ]
    for argv, flag, message in cases:
        tail = [f"{flag}={value}"] if equals else [flag, value]
        assert run(*argv, *tail) == 1, flag
        assert message in capsys.readouterr().err, flag
        assert not out.exists()


def test_score_on_missing_fit_dir_exits_1(tmp_path, capsys):
    assert run("score", "--fit", tmp_path / "nope", "--out", tmp_path / "o") == 1
    assert "fit.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "evaluate"])
def test_unknown_model_in_fit_json_exits_1(static_run, tmp_path, capsys, command):
    _, data_dir, fit_dir = static_run
    fake = tmp_path / "fit"
    fake.mkdir()
    for f in fit_dir.iterdir():
        (fake / f.name).write_bytes(f.read_bytes())
    manifest = json.loads((fake / "fit.json").read_text())
    (fake / "fit.json").write_text(json.dumps({**manifest, "model": "nosuch"}))
    rc = run(command, "--fit", fake, "--out", tmp_path / "out",
             "--truth", data_dir / "truth.json")
    assert rc == 1
    assert "nosuch" in capsys.readouterr().err


def test_evaluate_requires_truth(static_run, tmp_path):
    _, _, fit_dir = static_run
    assert run("evaluate", "--fit", fit_dir, "--out", tmp_path / "o") == 1


@pytest.mark.parametrize("label", [-1, 3])
def test_evaluate_out_of_range_group_label_exits_1(static_run, tmp_path, capsys, label):
    # a label of -1 would wrap onto the last group; one of n_groups has no row
    _, data_dir, fit_dir = static_run
    fake = tmp_path / "fit"
    fake.mkdir()
    for f in fit_dir.iterdir():
        (fake / f.name).write_bytes(f.read_bytes())
    header, table = io.read_matrix_csv(fake / "grouping.csv")
    table[0, 1] = label
    io.write_matrix_csv(fake / "grouping.csv", table.astype(np.int64), header)
    out = tmp_path / "out"
    rc = run("evaluate", "--fit", fake, "--out", out, "--truth", data_dir / "truth.json")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and f"label {label}," in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("line, text", [
    (2, "0,1.5"),  # was truncated to group 1
    (2, "0,nan"),  # reached the group matching as the smallest int64
    (2, "7,0"),  # the node_id column was never read
    (1, "node,group"),
])
def test_evaluate_rejects_malformed_grouping_csv(static_run, tmp_path, capsys, line, text):
    _, data_dir, fit_dir = static_run
    fake = tmp_path / "fit"
    shutil.copytree(fit_dir, fake)
    lines = (fake / "grouping.csv").read_text().splitlines()
    lines[line - 1] = text
    (fake / "grouping.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = run("evaluate", "--fit", fake, "--out", out, "--truth", data_dir / "truth.json")
    err = capsys.readouterr().err
    assert rc == 1
    assert f"grouping.csv: line {line}:" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "score"])
@pytest.mark.parametrize("bad", ["ragged", "word"])
def test_malformed_theta_csv_exits_1_naming_file_and_line(
    static_run, tmp_path, capsys, command, bad
):
    # a fit table that does not parse names its file and line, as a
    # malformed grouping.csv does, instead of numpy's or float()'s message
    _, data_dir, fit_dir = static_run
    fake = tmp_path / "fit"
    shutil.copytree(fit_dir, fake)
    lines = (fake / "theta.csv").read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join(cells[:-1] if bad == "ragged" else ["x"] + cells[1:])
    (fake / "theta.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = run(command, "--fit", fake, "--out", out, "--truth", data_dir / "truth.json")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "theta.csv line 3:" in err, err
    assert "Traceback" not in err and not out.exists()


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
    report = json.loads((out / "report.json").read_text())
    assert "change_recall" in report["metrics"] and "change_fpr" in report["metrics"]
    for g, t in report["alarms"]:
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
    # one group count's three seeds run as one job, whatever the worker
    # count: the results directories, every cell's file included, are the
    # same with one, two and three workers
    cfg = tmp_path / "suite.cfg"
    _suite_config(cfg, group_counts="3", n_seeds=3, n_nodes=60, max_iters=25)
    outs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("GLAD_THREADS", threads)
        outs.append(tmp_path / f"threads{threads}")
        assert run("benchmark", "--config", cfg, "--out", outs[-1]) == 0
    serial = outs[0]
    files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
    assert len(files) == 5 + 6
    for pooled in outs[1:]:
        assert sorted(p.relative_to(pooled) for p in pooled.rglob("*") if p.is_file()) == files
        for f in files:
            assert (serial / f).read_bytes() == (pooled / f).read_bytes(), f


def test_benchmark_batches_the_seeds_by_their_links():
    # a static job takes at most 16 MiB / N^2 seeds, and at least one
    seeds = [3, 4, 5, 6, 7]
    assert cli._seed_batches(seeds, 300) == [seeds]
    assert cli._seed_batches(seeds, 2000) == [[3, 4, 5, 6], [7]]
    assert cli._seed_batches(seeds, 4097) == [[3], [4], [5], [6], [7]]
    assert cli._seed_batches([], 300) == []


def test_worker_count_respects_the_cpu_affinity(monkeypatch):
    # under taskset or a cpuset the process may use fewer CPUs than the
    # machine has; the default pool starts no more workers than it may use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert cli._n_workers(10, None) == 1
    assert cli._n_workers(10, 3) == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert cli._n_workers(10, None) == 4
    assert cli._n_workers(2, None) == 2


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


def test_benchmark_numeric_abort_fails_only_that_static_cell(tmp_path, monkeypatch):
    # glad and the baseline's stage one of every seed are fitted together;
    # a numeric abort of one seed's glad member fails that glad cell, and
    # every other cell, the baseline's of the same seed included, still scores
    monkeypatch.setenv("GLAD_THREADS", "1")
    real = cli.fit_members

    def fit_members(members, n_groups):
        results = real(members, n_groups)
        for i in range(0, len(members), 2):  # (glad, stage one) per seed
            if members[i].config.seed == 4:
                results[i] = GladNumericsError("lower bound is non-finite at iteration 2; aborting")
        return results

    monkeypatch.setattr(cli, "fit_members", fit_members)
    cfg = tmp_path / "suite.cfg"
    _suite_config(cfg, group_counts="3", n_seeds=2, n_nodes=60, max_iters=5, seed=3)
    out = tmp_path / "bench"
    assert run("benchmark", "--config", cfg, "--out", out) == 0
    rows = [line.split(",") for line in (out / "cells.csv").read_text().splitlines()[1:]]
    status = {(method, seed): row[-1] for _, method, seed, *row in rows}
    assert status.pop(("glad", "4")) == (
        "error: GladNumericsError: lower bound is non-finite at iteration 2; aborting"
    )
    assert set(status.values()) == {"ok"} and len(status) == 3
    assert json.loads((out / "benchmark.json").read_text())["n_failed"] == 1


@pytest.mark.parametrize("value", ["abc", "-3", "0", "2.5"])
def test_benchmark_rejects_a_bad_thread_cap_before_writing(tmp_path, monkeypatch, capsys, value):
    # GLAD_THREADS must be a positive integer; anything else is a usage
    # error that names the variable, and the results directory is not made
    monkeypatch.setenv("GLAD_THREADS", value)
    cfg = tmp_path / "suite.cfg"
    _suite_config(cfg, group_counts="3", n_seeds=1, n_nodes=30, max_iters=2, dynamic="false")
    out = tmp_path / "bench"
    assert run("benchmark", "--config", cfg, "--out", out) == 1
    assert f"GLAD_THREADS must be a positive integer, not '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_seed_flag_changes_cells(tmp_path, monkeypatch):
    monkeypatch.setenv("GLAD_THREADS", "1")
    cfg = tmp_path / "suite.cfg"
    _suite_config(cfg, group_counts="3", n_seeds=1, n_nodes=60, max_iters=25)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("benchmark", "--config", cfg, "--out", a) == 0
    assert run("benchmark", "--config", cfg, "--out", b, "--seed", 5) == 0
    assert (a / "cells.csv").read_text() != (b / "cells.csv").read_text()
    assert "seed=5" in (b / "config.txt").read_text()


def test_benchmark_cells_take_their_configs_from_the_registry(tmp_path, monkeypatch):
    # each cell's config equals the one the grid used to build by hand: the
    # grid's max_iters for glad and the baseline, which the member fit
    # receives in that order for each seed, and its sampler keys for dglad
    monkeypatch.setenv("GLAD_THREADS", "1")
    seen = []

    def fit_members(members, n_groups):
        methods = itertools.cycle(("glad", "mmsb-lda"))
        seen.extend(zip(methods, (member.config for member in members)))
        return real_fit_members(members, n_groups)

    def run_sampler(*args):
        seen.append(("dglad", args[-1]))
        return model.fit(*args)

    real_fit_members, model = cli.fit_members, cli._MODELS["dglad"]
    monkeypatch.setattr(cli, "fit_members", fit_members)
    monkeypatch.setitem(cli._MODELS, "dglad", model._replace(fit=run_sampler))
    cfg = tmp_path / "suite.cfg"
    _suite_config(
        cfg, group_counts="3", n_seeds=2, n_nodes=60, max_iters=7, seed=3,
        dynamic="true", dyn_nodes=40, dyn_groups=3, dyn_seeds=2,
        sweeps=3, burn_in=1, particles=20, sigma=0.3,
    )
    out = tmp_path / "bench"
    assert run("benchmark", "--config", cfg, "--out", out) == 0
    assert json.loads((out / "benchmark.json").read_text())["n_failed"] == 0
    expect = [
        (method, FitConfig(max_iters=7, seed=seed))
        for method in ("glad", "mmsb-lda") for seed in (3, 4)
    ] + [
        ("dglad", DGladConfig(sweeps=3, burn_in=1, n_particles=20, sigma=0.3, seed=seed))
        for seed in (3, 4)
    ]
    assert sorted(seen, key=repr) == sorted(expect, key=repr)


def test_benchmark_cells_match_the_cli_pipeline(tmp_path, monkeypatch):
    # a static glad cell scores as `glad generate`, `glad fit` and `glad
    # evaluate` do at its sizes and seed; a dynamic cell's curve is
    # evaluate_dynamic on the change scores of `glad score --truth`
    monkeypatch.setenv("GLAD_THREADS", "1")
    seed, grid = 2, np.linspace(0.0, 3.0, 9)
    people = "n_roles=2\ntrials_per_person=30\nanomaly_fraction=0.2\nblock_in=0.3\nblock_out=0.05\n"
    dynamic = "horizon=4\nchange_time=3\nchanged_fraction=0.5\ndrift_sigma=0.05\n"
    suite = tmp_path / "suite.cfg"
    suite.write_text(
        f"group_counts=3\nn_seeds=1\nn_nodes=60\nmax_iters=25\nfraction=0.2\nseed={seed}\n"
        f"dynamic=true\ndyn_nodes=50\ndyn_groups=3\ndyn_seeds=1\nsweeps=5\nburn_in=2\n"
        f"particles=30\nsigma=0.4\nthresholds=9\ngrid_max=3.0\n{people}{dynamic}"
    )
    bench = tmp_path / "bench"
    assert run("benchmark", "--config", suite, "--out", bench) == 0

    gen = tmp_path / "static.cfg"
    gen.write_text(f"kind=static\nn_nodes=60\nn_groups=3\nseed={seed}\n{people}")
    data, fit_dir, ev = tmp_path / "static", tmp_path / "static_fit", tmp_path / "static_eval"
    assert run("generate", "--config", gen, "--out", data) == 0
    assert run("fit", "--model", "glad", "--data", data, "--out", fit_dir, "--groups", 3,
               "--max-iters", 25, "--seed", seed) in (0, 2)
    assert run("evaluate", "--fit", fit_dir, "--out", ev, "--truth", data / "truth.json",
               "--fraction", 0.2) == 0
    rows = dict(line.split(",") for line in (ev / "accuracy.csv").read_text().splitlines()[1:])
    cell = json.loads((bench / "cells" / f"static_g003_glad_s{seed:03d}.json").read_text())
    assert cell["accuracy"] == float(rows["accuracy"])

    gen = tmp_path / "dynamic.cfg"
    gen.write_text(f"kind=dynamic\nn_nodes=50\nn_groups=3\nseed={seed}\n{people}{dynamic}")
    data, fit_dir, sc = tmp_path / "dynamic", tmp_path / "dynamic_fit", tmp_path / "dynamic_score"
    assert run("generate", "--config", gen, "--out", data) == 0
    assert run("fit", "--model", "dglad", "--data", data, "--out", fit_dir, "--groups", 3,
               "--sweeps", 5, "--burn-in", 2, "--particles", 30, "--sigma", 0.4,
               "--seed", seed) == 0
    assert run("score", "--fit", fit_dir, "--out", sc, "--truth", data / "truth.json") == 0
    _, change = io.read_matrix_csv(sc / "change_scores.csv")
    change_times = io.read_truth(data / "truth.json")["change_times"]
    curve = evaluate_dynamic(change[:, 1:], change_times, grid)
    cell = json.loads((bench / "cells" / f"dynamic_s{seed:03d}.json").read_text())
    assert cell["fpr"] == curve["fpr"].tolist()
    assert cell["recall"] == curve["recall"].tolist()
