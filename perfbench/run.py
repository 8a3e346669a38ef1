#!/usr/bin/env python3
"""Benchmark for glad: run one workload through the CLI, check it, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--holdout] [--tiny]

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload's CLI pipeline runs as separate processes
(``glad generate -> fit -> evaluate``, or ``glad benchmark`` for the study
grid) as many times as ``--seconds`` allows, at least twice; the first two
repetitions include the set-up stage.  The end-to-end metrics are medians
per stage over those repetitions.  With ``--trace 1``
the pipeline runs once through the CLI, then the same inputs go through the
modules' public functions in this process, once untraced and once with one
span per layer call (see ``layers.py``); the per-layer metrics come from the
spans.  Every stage's outputs are checked; a stage that exits with an
unexpected code or leaves a bad artifact counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the run metadata and the detection-quality figures of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
RUN_LIMIT_S = 170.0  # stages still running this long after the start are killed
SETUP_REPS = 2  # repetitions that run the set-up stage; later ones reuse its output
MIN_REPS = 2  # repetitions per run at least
TRACE_TOL = 1e-8  # largest step down the EM bound may take, as in the acceptance battery

# Sizes and flags of each workload; "tiny" overrides them for the self-test.
# Iteration counts are pinned (tol 0, inner tol 0, small caps) so every seed
# does about the same work: the spread between runs on different seeds then
# reflects the program and the machine, not how fast one input converges.
WORKLOADS = {
    "static-large": {
        # N=2000, not 4000: at 4000 the fit's run-to-run spread on a shared 2-core
        # host (minute-long speed swings of the memory-bound N x N passes) left
        # too few repetitions per run to keep the median steady
        "generate": {"kind": "static", "n_nodes": 2000, "n_groups": 5},
        "fit": {"model": "glad", "groups": 5, "max_iters": 4, "tol": 0.0},
        "evaluate": {},
        "fit_codes": (0, 2),
        "tiny": {"generate": {"n_nodes": 60}},
    },
    "activity-pairs": {
        "generate": {"kind": "activity", "n_nodes": 200, "trials_per_person": 10},
        "fit": {"model": "glad0", "groups": 5, "max_iters": 5, "inner_tol": 0.0},
        "evaluate": {},
        "fit_codes": (0, 2),
        "tiny": {
            "generate": {"n_nodes": 20, "trials_per_person": 4},
            "fit": {"max_iters": 2, "inner_max": 3},
        },
    },
    "dynamic-drift": {
        "generate": {
            "kind": "dynamic", "n_nodes": 300, "n_groups": 4, "horizon": 6, "change_time": 4,
        },
        "fit": {
            "model": "dglad", "groups": 4, "sweeps": 40, "burn_in": 20,
            "particles": 100, "sigma": 0.4, "init_fit_iters": 4,
        },
        "evaluate": {"threshold": 1.0, "fraction": 0.5},
        "fit_codes": (0,),
        "tiny": {
            "generate": {"n_nodes": 24, "horizon": 3, "change_time": 2},
            "fit": {"sweeps": 3, "burn_in": 1, "particles": 20, "init_fit_iters": 3,
                    "init_restarts": 1},
        },
    },
    "study-grid": {
        # every key `glad benchmark` reads, so the in-process cells match the CLI
        "grid": {
            "group_counts": "3,5", "n_seeds": 6, "n_nodes": 300, "n_roles": 2,
            "trials_per_person": 50, "anomaly_fraction": 0.2, "block_in": 0.3,
            "block_out": 0.05, "max_iters": 4, "fraction": 0.2, "dynamic": "true",
            "dyn_nodes": 120, "dyn_groups": 4, "dyn_seeds": 2, "horizon": 5,
            "change_time": 4, "changed_fraction": 0.5, "drift_sigma": 0.05,
            "sweeps": 20, "burn_in": 10, "particles": 80, "sigma": 0.4,
            "thresholds": 21, "grid_max": 4.0,
        },
        "tiny": {
            "grid": {"group_counts": "2,3", "n_seeds": 1, "n_nodes": 40, "dyn_nodes": 24,
                     "dyn_seeds": 1, "max_iters": 5, "sweeps": 2, "burn_in": 1,
                     "particles": 20, "horizon": 3, "change_time": 2},
        },
    },
}

# `glad evaluate` accuracy.csv rows reported as detection quality
QUALITY = {"accuracy": "detect_accuracy", "change_recall": "change_recall",
           "change_fpr": "change_fpr"}

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "cells_per_s": "1/s",
}


def workload_spec(name: str, tiny: bool) -> dict:
    spec = {k: (dict(v) if isinstance(v, dict) else v) for k, v in WORKLOADS[name].items()}
    if tiny:
        for part, values in spec["tiny"].items():
            spec[part].update(values)
    spec["name"] = name
    return spec


def workload_seed(seed: int, holdout: bool) -> int:
    """Seed of the generated inputs; ``--holdout`` draws from a disjoint stream."""
    if not holdout:
        return seed
    return 10**6 + seed * 7919 % 10**6


def thread_settings(name: str) -> dict:
    """Thread budget: never more threads than cores, recorded with the run."""
    pool = name == "study-grid"
    blas = "1" if pool else str(NPROC)
    env = {key: blas for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if pool:
        env["GLAD_THREADS"] = str(NPROC)
    return env


def cli_args(options: dict) -> list:
    out = []
    for key, value in options.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def config_text(options: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in options.items())


# ---------------------------------------------------------------------------
# stage processes
# ---------------------------------------------------------------------------

class Stage:
    """One CLI process: wall time, peak RSS, exit code, problems found."""

    def __init__(self, name, wall, rss_mb, code, allowed):
        self.name, self.wall, self.rss_mb, self.code = name, wall, rss_mb, code
        self.problems = [] if code in allowed else [f"{name}: exit code {code}"]


def run_stage(name, argv, log_dir: Path, deadline: float, allowed=(0,)) -> Stage:
    """Run ``python -m glad.cli argv``; peak RSS comes from wait4 of that process."""
    cmd = [sys.executable, "-m", "glad.cli", *argv]
    with open(log_dir / f"{name}.log", "w") as log:
        start = time.perf_counter()
        # own session, so a timeout also ends the worker pool of `glad benchmark`
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: end the stage before leaving
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Stage(name, wall, usage.ru_maxrss / 1024.0, proc.returncode, allowed)


def startup_wall(deadline: float) -> float:
    """Wall time of a process that imports the CLI and exits."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import glad.cli"], cwd=ROOT, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def failed_operations(stages) -> int:
    """A stage is one operation; it failed if its exit code or any output check did."""
    return sum(1 for stage in stages if stage.problems)


def read_tables(directory: Path, problems: list) -> dict:
    from glad import io as gio

    tables = {}
    for path in sorted(directory.glob("*.csv")):
        try:
            tables[path.name] = gio.read_matrix_csv(path)[1]
        except (ValueError, OSError) as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
    return tables


def check_fit(fit_dir: Path, model: str) -> list:
    """Problems in a fit directory: unreadable or non-finite tables, a falling bound."""
    import numpy as np

    problems = []
    tables = read_tables(fit_dir, problems)
    need = ["grouping.csv", "trace.csv", "theta_mean.csv" if model == "dglad" else "theta.csv"]
    problems += [f"{name}: missing or unreadable" for name in need if name not in tables]
    for name, table in tables.items():
        if not np.all(np.isfinite(table)):
            problems.append(f"{name}: non-finite entries")
    if model != "dglad" and "trace.csv" in tables:
        steps = np.diff(tables["trace.csv"][:, 1])
        if steps.size and steps.min() < -TRACE_TOL:
            problems.append(f"trace.csv: bound fell by {-steps.min():.3g}")
    return problems


def read_metrics(path: Path, problems: list) -> dict:
    try:
        rows = path.read_text().split()[1:]
        return {k: float(v) for k, v in (row.split(",") for row in rows)}
    except (ValueError, OSError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return {}


def check_study(out: Path) -> tuple:
    """(problems, quality) of a `glad benchmark` results directory."""
    import numpy as np

    problems = []
    try:
        summary = json.loads((out / "benchmark.json").read_text())
        cells = int(summary["n_cells"])
        if summary["n_failed"] != 0:
            problems.append(f"benchmark.json: {summary['n_failed']} failed cells")
    except (ValueError, KeyError, OSError) as exc:
        return [f"benchmark.json: unreadable ({exc})"], {}
    means = {}
    try:
        for line in (out / "summary.csv").read_text().split()[1:]:
            _, method, mean, _, _ = line.split(",")
            means.setdefault(method, []).append(float(mean))
    except (ValueError, OSError) as exc:
        problems.append(f"summary.csv: unreadable ({exc})")
    quality = {"cells": cells}
    if "glad" in means and "mmsb-lda" in means:
        quality["detect_accuracy"] = float(np.mean(means["glad"]))
        quality["baseline_accuracy"] = float(np.mean(means["mmsb-lda"]))
    else:
        problems.append("summary.csv: missing methods")
    return problems, quality


# ---------------------------------------------------------------------------
# one repetition of a workload through the CLI
# ---------------------------------------------------------------------------

def pipeline_rep(spec: dict, seed: int, rep_dir: Path, deadline: float, setup: bool) -> tuple:
    """(stages, quality, fingerprint) of [generate ->] fit -> evaluate."""
    data, fit_dir, eval_dir = rep_dir.parent / "data", rep_dir / "fit", rep_dir / "eval"
    seed_arg = ["--seed", str(seed)]
    stages = []
    if setup:
        shutil.rmtree(data, ignore_errors=True)
        cfg = rep_dir / "generate.cfg"
        cfg.write_text(config_text(spec["generate"]))
        stages.append(run_stage("generate", ["generate", "--config", str(cfg), "--out",
                                             str(data), *seed_arg], rep_dir, deadline))
    stages.append(run_stage(
        "fit", ["fit", "--data", str(data), "--out", str(fit_dir), *seed_arg,
                *cli_args(spec["fit"])], rep_dir, deadline, spec["fit_codes"]))
    stages[-1].problems += check_fit(fit_dir, spec["fit"]["model"])
    stages.append(run_stage(
        "evaluate", ["evaluate", "--fit", str(fit_dir), "--out", str(eval_dir), "--truth",
                     str(data / "truth.json"), *cli_args(spec["evaluate"])], rep_dir, deadline))
    accuracy = read_metrics(eval_dir / "accuracy.csv", stages[-1].problems)
    quality = {QUALITY[k]: v for k, v in accuracy.items() if k in QUALITY}
    trace = fit_dir / "trace.csv"
    fingerprint = trace.read_bytes() if trace.exists() else b""
    if spec["fit"]["model"] != "dglad" and trace.exists():
        from glad import io as gio

        bound = gio.read_matrix_csv(trace)[1][-1, 1]
        quality["elbo_per_node"] = float(bound) / spec["generate"]["n_nodes"]
    return stages, quality, fingerprint


def study_rep(spec: dict, seed: int, rep_dir: Path, deadline: float, setup: bool) -> tuple:
    """(stages, quality, fingerprint) of [CLI start-up ->] `glad benchmark`."""
    cfg = rep_dir / "grid.cfg"
    cfg.write_text(config_text(spec["grid"]))
    out = rep_dir / "study"
    stages = [run_stage("setup", ["--help"], rep_dir, deadline)] if setup else []
    stages.append(run_stage("benchmark", ["benchmark", "--config", str(cfg), "--out", str(out),
                                          "--seed", str(seed)], rep_dir, deadline))
    problems, quality = check_study(out)
    stages[-1].problems += problems
    cells = out / "cells.csv"
    return stages, quality, cells.read_bytes() if cells.exists() else b""


def run_rep(spec, seed, work: Path, index: int, deadline: float):
    rep_dir = work / f"rep{index}"
    rep_dir.mkdir(parents=True)
    rep = study_rep if spec["name"] == "study-grid" else pipeline_rep
    stages, quality, fingerprint = rep(spec, seed, rep_dir, deadline, index < SETUP_REPS)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return stages, quality, fingerprint


def stage_roles(spec) -> tuple:
    """Names of the set-up and the fit stage of a workload."""
    return ("setup", "benchmark") if spec["name"] == "study-grid" else ("generate", "fit")


def run_metrics(spec, stages, quality) -> dict:
    """End-to-end metrics from every stage of a run: medians per stage."""
    walls = {}
    for stage in stages:
        walls.setdefault(stage.name, []).append(stage.wall)
    median = {name: statistics.median(values) for name, values in walls.items()}
    setup, fit = stage_roles(spec)
    cells = quality.get("cells", 0) if spec["name"] == "study-grid" else 1
    return {
        "setup_s": median[setup],
        "fit_s": median[fit],
        "pipeline_s": sum(median.values()),
        "peak_rss_mb": max(stage.rss_mb for stage in stages),
        "cells_per_s": statistics.median(cells / wall for wall in walls[fit]),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def untraced_run(spec, seed, seconds, work, start) -> tuple:
    """(metrics, stages, quality, reps): repetitions until ``seconds`` is spent."""
    deadline = start + RUN_LIMIT_S
    reps, all_stages, quality, first = 0, [], {}, None
    while True:
        began = time.monotonic()
        stages, q, fingerprint = run_rep(spec, seed, work, reps, deadline)
        if first is None:
            first, quality = fingerprint, q
        elif fingerprint != first:
            stages[-1].problems.append("seeded rerun gave different results")
        all_stages += stages
        reps += 1
        rep_wall = time.monotonic() - began
        elapsed = time.monotonic() - start
        if reps >= MIN_REPS and elapsed + rep_wall > seconds:
            break
        if elapsed + rep_wall > RUN_LIMIT_S - 10:
            break
    metrics = {name: {"value": value, "unit": END_TO_END[name]}
               for name, value in run_metrics(spec, all_stages, quality).items()}
    return metrics, all_stages, quality, reps


def traced_run(spec, seed, work, start) -> tuple:
    """(metrics, stages, quality, 1): one CLI pass, then two in-process passes."""
    import layers

    deadline = start + RUN_LIMIT_S
    stages, quality, _ = run_rep(spec, seed, work, 0, deadline)
    cli = run_metrics(spec, stages, quality)
    began = time.perf_counter()
    layers.run_workload(spec, seed, layers.Recorder(enabled=False), work / "inproc-off")
    untraced_wall = time.perf_counter() - began
    rec = layers.Recorder()
    began = time.perf_counter()
    counts = layers.run_workload(spec, seed, rec, work / "inproc-on")
    traced_wall = time.perf_counter() - began
    rec.write(WORK / f"spans-{spec['name']}-{seed}.json")
    metrics = layers.layer_metrics(rec, counts)
    # the CLI stages against the same layer calls made in-process
    workers = NPROC if spec["name"] == "study-grid" else 1
    stage_wall = cli["fit_s"] if spec["name"] == "study-grid" else cli["pipeline_s"]
    busy = rec.total_under("cli.")
    metrics.update({
        "cli.import_s": (statistics.median(startup_wall(deadline) for _ in range(3)), "s"),
        "cli.overhead_s": (stage_wall - busy / workers, "s"),
        "cli.pool_efficiency": (busy / (stage_wall * workers), "ratio"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(rec.spans), "count"),
    })
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return metrics, stages, quality, 1


def metadata(spec, seed, args, threads, reps, stages) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": spec["name"], "seed": args.seed, "input_seed": seed,
        "holdout": args.holdout, "tiny": args.tiny, "trace": args.trace,
        "reps": reps,
        "fit_s_per_rep": [round(s.wall, 4) for s in stages if s.name == stage_roles(spec)[1]],
        "nproc": NPROC, "threads": threads, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="draw inputs from a seed stream disjoint from plain --seed values")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "glad" / "cli.py").is_file():
        print(f"error: {SRC}/glad/cli.py not found; run from the root of a glad checkout",
              file=sys.stderr)
        return 2
    threads = thread_settings(args.workload)
    os.environ.update(threads)  # before numpy loads, here and in every stage
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    spec = workload_spec(args.workload, args.tiny)
    seed = workload_seed(args.seed, args.holdout)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        startup_wall(start + RUN_LIMIT_S)  # warm the interpreter and byte-code caches
        if args.trace:
            metrics, stages, quality, reps = traced_run(spec, seed, work, start)
        else:
            metrics, stages, quality, reps = untraced_run(spec, seed, args.seconds, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for s in stages for p in s.problems]
    if spec["name"] == "study-grid" and quality.get("detect_accuracy", 0.0) < quality.get(
            "baseline_accuracy", math.inf):
        problems.append("study-grid: glad accuracy below the two-stage baseline")
    for problem in problems:
        print(f"failed: {problem}", file=sys.stderr)
    info = {"meta": metadata(spec, seed, args, threads, reps, stages), "quality": quality}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(stages),
        "failed": failed_operations(stages),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
