"""Every demo and README example runs to the end: exit 0, nothing on
stderr, no RuntimeWarning."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import momcert

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)
CASES = [pytest.param([str(d)], id=d.stem) for d in DEMOS] + [
    pytest.param(["-c", code], id=f"readme-{i}") for i, code in enumerate(README_BLOCKS, 1)
]


@pytest.mark.parametrize("argv", CASES)
def test_demo_runs_clean(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(momcert.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert not list(tmp_path.iterdir())
