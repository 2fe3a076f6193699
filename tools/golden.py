"""Golden hashes of momcert's command-line outputs.

Runs a fixed list of CLI commands, each into its own directory under a
temporary directory, and prints one `sha256  name` line per CSV trace and
per JSON summary. A summary is hashed without `wall_time_s`, `csv_path`
and `json_path`, the only keys that change from one run to the next.
The listing starts with a `# numpy <version>` line, because the hashes
depend on the numpy and BLAS build. `tools/golden.txt` is the committed
listing; check a change against it, and regenerate it with a change that
is meant to move bytes:

    PYTHONPATH=src python3 tools/golden.py --check tools/golden.txt
    PYTHONPATH=src python3 tools/golden.py > tools/golden.txt

With `--check FILE` the command prints the lines that differ from FILE and
exits 1 on any mismatch, 0 when every line matches; lines of FILE that
start with `#` are not compared. It uses numpy's version string, the
standard library and momcert.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from momcert.harness import main as momcert_main

# Config-file-only keys, written next to the runs.
CONFIGS = {"nocert.cfg": "certify = false\n", "big.cfg": "x0_scale = 1e160\n"}

# (name, argv): the pl_sine and flow runs first, then one sweep, one lasso
# certify, one overflowing start point per solver and one uncertified run per
# discrete solver.
COMMANDS = [
    ("ode-pl-sine", "ode --problem pl_sine --regime pl --seed 0"),
    ("ode-pl-sine-fine", "ode --problem pl_sine --regime pl --x0 2.0 --dt 0.001 --seed 1"),
    ("ode-pl-sine-nocert",
     "ode --config {dir}/nocert.cfg --problem pl_sine --regime pl --dt 0.01"),
    ("ode-pl-sine-x0-1e300", "ode --problem pl_sine --regime pl --x0 1e300"),
    ("ode-pl-sine-unstable", "ode --problem pl_sine --regime pl --dt 3 -T 600"),
    ("solve-pl-sine", "solve --problem pl_sine --regime pl -k 500"),
    ("solve-pl-sine-x0-1e300", "solve --problem pl_sine --regime pl --x0 1e300"),
    ("certify-pl-sine", "certify --problem pl_sine --regime pl -k 500 --seed 2"),
    ("certify-ode-pl-sine", "certify --solver ode --problem pl_sine --regime pl -T 20"),
    ("ode-quadratic-d10", "ode --problem quadratic --d 10 --omega 1.0 --seed 1"),
    ("ode-quadratic-d10-qg", "ode --problem quadratic --d 10 --regime qg --seed 2"),
    ("ode-quadratic-d10-unstable", "ode --problem quadratic --d 10 --seed 1 --dt 0.5"),
    ("ode-quadratic-d10-nocert",
     "ode --config {dir}/nocert.cfg --problem quadratic --d 10 --seed 7"),
    ("sweep-quadratic", "sweep --problem quadratic --d 20 -k 500 --seed 6 --gamma 1,2 --omega 0,1"),
    ("certify-lasso", "certify --problem lasso --d 50 -k 1000 --seed 3"),
    ("solve-pl-sine-x0-1e160", "solve --problem pl_sine --regime pl --x0 1e160"),
    ("solve-lasso-x0-scale-1e160", "solve --config {dir}/big.cfg --problem lasso --d 5 -k 50"),
    ("ode-pl-sine-x0-1e160", "ode --problem pl_sine --regime pl --x0 1e160"),
    ("solve-quadratic-nocert",
     "solve --config {dir}/nocert.cfg --problem quadratic --d 20 -k 300 --seed 5"),
    ("solve-lasso-nocert",
     "solve --config {dir}/nocert.cfg --problem lasso --d 20 -k 300 --seed 5"),
]

VOLATILE = ("wall_time_s", "csv_path", "json_path")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        summary = json.loads(data)
        for key in VOLATILE:
            summary.pop(key, None)
        data = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def golden_lines(root: Path) -> list[str]:
    """Run every command under root and return its `sha256  name` lines."""
    for name, text in CONFIGS.items():
        (root / name).write_text(text)
    lines = []
    for name, argv in COMMANDS:
        out = root / name
        args = argv.format(dir=root).split() + ["--quiet", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            momcert_main(args)
        lines += [f"{_digest(p)}  {name}/{p.name}" for p in sorted(out.iterdir())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the lines in FILE; exit 1 on any mismatch")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="momcert-golden-") as tmp:
        lines = golden_lines(Path(tmp))
    if args.check is None:
        print("\n".join([f"# numpy {np.__version__}"] + lines))
        return 0
    want = [line for line in Path(args.check).read_text().splitlines()
            if not line.startswith("#")]
    missing = [line for line in want if line not in lines]
    extra = [line for line in lines if line not in want]
    for line in missing:
        print(f"- {line}")
    for line in extra:
        print(f"+ {line}")
    print(f"{len(lines) - len(extra)} of {len(want)} lines match")
    return 1 if missing or extra else 0


if __name__ == "__main__":
    sys.exit(main())
