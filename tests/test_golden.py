"""The CLI's traces stay byte-identical to the committed golden listing."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
LISTING = ROOT / "tools" / "golden.txt"


def test_cli_traces_match_the_golden_listing():
    # the hashes depend on the numpy and BLAS build the listing was made with
    header = LISTING.read_text().splitlines()[0]
    if header != f"# numpy {np.__version__}":
        pytest.skip(f"listing recorded with {header[2:]}, running numpy {np.__version__}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden.py"), "--check", str(LISTING)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
