"""Self-test of the benchmark: a tiny pass of every workload, plus the output checks.

    python3 -m pytest -q perfbench/test_run.py

Run from the root of a checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_prints_every_metric_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace,
                "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    meta = json.loads(out.stdout.splitlines()[-2])["meta"]
    assert meta["nproc"] >= 1 and meta["src_lines"] > 0 and meta["threads"]


def write_fit(directory: Path, bound: list) -> None:
    directory.mkdir()
    rows = "".join(f"{i},{b!r}\n" for i, b in enumerate(bound))
    (directory / "trace.csv").write_text("iter,elbo\n" + rows)
    (directory / "theta.csv").write_text("r_0,r_1\n0.5,0.5\n0.25,0.75\n")
    (directory / "grouping.csv").write_text("node_id,group\n0,0\n1,1\n")


def test_falling_bound_counts_as_a_failed_operation(tmp_path):
    write_fit(tmp_path / "good", [-10.0, -5.0, -5.0])
    write_fit(tmp_path / "bad", [-10.0, -5.0, -6.0])
    stages = [run.Stage("fit", 1.0, 10.0, 0, (0,)) for _ in range(2)]
    stages[0].problems += run.check_fit(tmp_path / "good", "glad")
    stages[1].problems += run.check_fit(tmp_path / "bad", "glad")
    assert stages[0].problems == []
    assert run.failed_operations(stages) == 1


def test_unreadable_or_nonfinite_artifacts_fail(tmp_path):
    write_fit(tmp_path / "fit", [-10.0, -5.0])
    (tmp_path / "fit" / "theta.csv").write_text("r_0,r_1\n0.5,nan\n")
    assert run.check_fit(tmp_path / "fit", "glad")
    (tmp_path / "fit" / "theta.csv").write_text("r_0,r_1\n0.5,x\n")
    assert run.check_fit(tmp_path / "fit", "glad")


def test_unexpected_exit_code_fails():
    assert run.failed_operations([run.Stage("fit", 1.0, 1.0, 2, (0,))]) == 1
    assert run.failed_operations([run.Stage("fit", 1.0, 1.0, 2, (0, 2))]) == 0


def test_holdout_seed_is_outside_the_plain_seeds():
    held = {run.workload_seed(s, True) for s in range(100)}
    assert len(held) == 100 and min(held) >= 10**6
    assert run.workload_seed(7, False) == 7


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study-grid",
                          "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
