import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_reproduce_synthetic_quick_reruns_byte_identical(tmp_path):
    # the script's docstring promises a byte-for-byte reproducible directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "reproduce_synthetic.py"), "--quick",
             "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        trees.append(_tree(out))
    assert trees[0], "the script wrote nothing"
    assert trees[0].keys() == trees[1].keys()
    differing = [name for name in trees[0] if trees[0][name] != trees[1][name]]
    assert not differing, differing
