"""Every demo runs to the end: exit 0, nothing on stderr, no RuntimeWarning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import momcert

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(momcert.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert not list(tmp_path.iterdir())
