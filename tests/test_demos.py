"""Every demo runs end to end with every warning an error."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmemsim

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("[0-9][0-9]_*.py")))
def test_demo_runs(demo, tmp_path):
    src = str(Path(qmemsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
