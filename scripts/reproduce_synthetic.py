#!/usr/bin/env python3
"""Reproduce the synthetic study end to end through the command line.

Writes, under ``--out`` (default ``results/``):

  demo/    one generate -> fit -> score -> evaluate walk-through, with the
           anomaly report, per-group scores, metrics, and an FPR-curve plot
  suite/   the benchmark sweep: detection accuracy vs group count for the
           joint model and the two-stage baseline, plus the change-point
           FPR/recall operating curve for the dynamic model

Every command is seeded, so a rerun reproduces the directory byte for
byte.  ``--quick`` shrinks all sizes for a fast smoke pass; the defaults
match the numbers quoted in the README and take a few minutes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from glad.cli import main as glad_main


def run(*argv) -> None:
    argv = [str(a) for a in argv]
    print("+ glad " + " ".join(argv))
    rc = glad_main(argv)
    if rc not in (0, 2):  # 2 = iteration cap reached; artifacts still valid
        sys.exit(f"command failed with exit code {rc}: glad {' '.join(argv)}")


def demo(out: Path, quick: bool) -> None:
    cfg = out / "generate.cfg"
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_text(
        "kind=static\n"
        f"n_nodes={120 if quick else 300}\n"
        "n_groups=5\n"
        "anomaly_fraction=0.2\n"
        "seed=0\n"
    )
    data = out / "data"
    fit = out / "fit"
    run("generate", "--config", cfg, "--out", data)
    run("fit", "--model", "glad", "--data", data, "--out", fit,
        "--groups", 5, "--max-iters", 40 if quick else 150, "--seed", 0)
    run("score", "--fit", fit, "--out", out / "report",
        "--truth", data / "truth.json")
    run("evaluate", "--fit", fit, "--out", out / "metrics",
        "--truth", data / "truth.json", "--svg")


def suite(out: Path, quick: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "suite.cfg"
    if quick:
        cfg.write_text(
            "group_counts=3,4\nn_seeds=2\nn_nodes=120\nmax_iters=40\n"
            "dyn_nodes=80\ndyn_groups=3\ndyn_seeds=2\n"
            "sweeps=8\nburn_in=4\nparticles=40\nsigma=0.4\nseed=0\n"
        )
    else:
        cfg.write_text(
            "group_counts=3,5,7\nn_seeds=5\nn_nodes=500\nmax_iters=120\n"
            "dyn_nodes=200\ndyn_groups=4\ndyn_seeds=5\n"
            "sweeps=30\nburn_in=15\nparticles=100\nsigma=0.4\nseed=0\n"
        )
    run("benchmark", "--config", cfg, "--out", out)
    print("\n" + (out / "summary.csv").read_text(), end="")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for a smoke pass (about 2 s on a 2-core host)")
    args = parser.parse_args()
    demo(args.out / "demo", args.quick)
    suite(args.out / "suite", args.quick)
    print(f"\nall artifacts under {args.out}/")


if __name__ == "__main__":
    main()
