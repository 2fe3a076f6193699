"""The CLI's traces stay byte-identical to the committed golden listing."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
LISTING = ROOT / "tools" / "golden.txt"


# golden.py with every run's recursion forked off (one spare core, no row
# minimum); it prints its fork count to stderr
FORKED = """
import atexit, os, runpy, sys
import momcert.driver
momcert.driver.PIPELINE_MIN_ROWS = 0
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
atexit.register(lambda: print(f"forks: {len(forks)}", file=sys.stderr))
sys.argv = sys.argv[1:]  # python -c FORKED golden.py ...
runpy.run_path(sys.argv[0], run_name="__main__")
"""

# FORKED with every forked child exiting after its first item: a recursion
# child after its first block, a CSV part writer after its first 256 rows and
# a sweep worker after its first row, so that the calling process computes the
# rest itself. A child that had more to send prints "cut: <module>" to stderr.
CUT_SHORT = """
import itertools, os
import momcert.driver, momcert.harness, momcert.trace

def cut(module, forked):
    def first(items):
        items = iter(items)
        yield from itertools.islice(items, 1)
        if next(items, None) is not None:
            os.write(2, f"cut: {module.__name__}\\n".encode())
    module.forked = lambda n, work: forked(n, lambda i: first(work(i)))

for module in (momcert.driver, momcert.trace, momcert.harness):
    cut(module, module.forked)
""" + FORKED


def _check(*python_args) -> str:
    # the hashes depend on the numpy and BLAS build the listing was made with
    header = LISTING.read_text().splitlines()[0]
    if header != f"# numpy {np.__version__}":
        pytest.skip(f"listing recorded with {header[2:]}, running numpy {np.__version__}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, *python_args, str(ROOT / "tools" / "golden.py"),
         "--check", str(LISTING)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    n = len([line for line in LISTING.read_text().splitlines() if not line.startswith("#")])
    assert proc.stdout.endswith(f"{n} of {n} lines match\n")
    return proc.stderr


def test_cli_traces_match_the_golden_listing():
    _check()


def _check_forked(script: str) -> str:
    stderr = _check("-c", script)
    forks = int(stderr.rsplit("forks: ", 1)[1])
    commands = {line.split()[1].split("/")[0] for line in LISTING.read_text().splitlines()
                if not line.startswith("#")}
    assert forks >= len(commands)  # a sweep's members stay in their processes
    return stderr


def test_cli_traces_match_the_golden_listing_with_every_recursion_forked():
    _check_forked(FORKED)


def test_cli_traces_match_the_golden_listing_with_every_forked_child_cut_short():
    cut = _check_forked(CUT_SHORT).splitlines()
    # ode-pl-sine-fine writes its CSV in two parts, sweep-quadratic forks a worker
    for module in ("driver", "trace", "harness"):
        assert f"cut: momcert.{module}" in cut
