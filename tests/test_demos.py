"""Every demo, and README's Quick-start block, runs end to end with every
warning an error."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qmemsim

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd):
    """Run python with args, the package's source directory on PYTHONPATH."""
    src = str(Path(qmemsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-W", "error", *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("[0-9][0-9]_*.py")))
def test_demo_runs(demo, tmp_path):
    out = _run([str(ROOT / "demos" / demo)], tmp_path)
    assert out.returncode == 0, out.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Quick start\n\n```python\n(.*?)```", readme, re.S)
    out = _run(["-c", block], tmp_path)
    assert out.returncode == 0, out.stderr
