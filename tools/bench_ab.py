"""A/B runs of one benchmark workload on two commits, written as BENCH_<workload>.json.

Extracts each commit with `git archive` into a temporary directory, then runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

in the two checkouts alternately, for --pairs pairs, the parent first in
even pairs and the change first in odd ones. Every run's end-to-end metrics
are kept; per metric the file gives each side's runs, median and quartiles
(`statistics.quantiles`, n = 4), and the number of pairs the change won,
by the metric's direction in the change's BENCHMARK.json (ties count for
neither side). It also records the seed, the run length, the pair count,
the usable cores and both commit hashes. From the root of a checkout:

    python3 tools/bench_ab.py --parent HEAD~1 --change HEAD \\
        --workload certify_lasso --seed 7 --seconds 30 --pairs 10

exits 1 when any run fails its checks or a command fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def checkout(rev: str, into: Path) -> str:
    """Extract commit rev into the directory `into`; returns its full hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def bench(tree: Path, argv: list[str]) -> dict:
    """One run of bench/run.py argv in tree: its final JSON line."""
    proc = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench/run.py in {tree} printed nothing: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit measured as the baseline")
    parser.add_argument("--change", required=True, help="commit measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="output file (default BENCH_<workload>.json)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    argv = ["bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", f"{args.seconds:g}", "--trace", "0"]
    sides = ("parent", "change")
    results: dict = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp, side) for side in sides}
        commits = {side: checkout(getattr(args, side), trees[side]) for side in sides}
        bounds = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        for i in range(args.pairs):
            for side in sides if i % 2 == 0 else sides[::-1]:
                results[side].append(bench(trees[side], argv))
                print(f"pair {i} {side}: {json.dumps(results[side][-1]['metrics'])}",
                      file=sys.stderr)

    metrics = {}
    for spec in bounds:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
        wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                         **{side: spread(runs[side]) for side in sides},
                         "change_wins": wins}
    ok = all(r["correct"] and r["failed"] == 0 for side in sides for r in results[side])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs,
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "parent": commits["parent"], "change": commits["change"],
        "command": ["python3", *argv],
        "correct": ok,
        "failed": sum(r["failed"] for side in sides for r in results[side]),
        "attempted": sum(r["attempted"] for side in sides for r in results[side]),
        "metrics": metrics,
    }
    out = Path(args.out or ROOT / f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
