"""Benchmark for momcert: drive the public CLI in-process and measure it.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep_quadratic --seed 1 --seconds 20 --trace 0

One process runs one workload. It imports momcert from ``src/`` of the
checkout (no install step), builds every problem instance and parameter
bundle the workload uses (set-up), then runs whole rounds of the workload's
CLI commands through ``momcert.harness.main(argv)`` with ``--quiet`` and an
``--out`` under ``bench/out/``, until ``--seconds`` have passed (at least
two rounds). Afterwards it checks every output (see checks.py) and prints
one JSON line: ``correct``, ``attempted`` and ``failed`` CLI commands, and
the metrics.

``--trace 0`` reports the end-to-end metrics, as medians over rounds:
``wall_s``, ``setup_s``, ``solve_steps_per_s`` and ``peak_rss_mb``.
``--trace 1`` spends half the time on untraced rounds and half on traced
ones, and reports the per-layer metrics of tracer.py, including the tracing
overhead; the raw spans go to ``bench/out/<workload>/``.

BLAS and OpenMP run one thread (BLAS_THREADS); the setting is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Forced before numpy loads, so every run uses the same BLAS code path.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
MIN_ROUNDS = 2   # the byte-identity check compares rounds


def import_program():
    """Import momcert from the checkout's src/; returns (module, seconds)."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "momcert" / "__init__.py").is_file():
        raise FileNotFoundError(f"no momcert sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    momcert = importlib.import_module("momcert")
    seconds = time.perf_counter() - start
    if Path(momcert.__file__).resolve().parent != (src / "momcert").resolve():
        raise ImportError(f"momcert was imported from {momcert.__file__}, not {src}")
    return momcert, seconds


def build_cases(harness, workload):
    """Build every problem instance and bundle the workload's runs use."""
    from checks import Case

    instances = {}
    cases = []
    for command in workload.commands:
        for cfg in command.configs():
            config = harness.ExperimentConfig(**cfg).validated()
            key = (config.problem, config.d, config.q, config.L, config.seed, config.x0)
            if key not in instances:
                instances[key] = harness.build_problem(config)
            obj, x0 = instances[key]
            cases.append(Case(command.subdir, cfg, obj, x0,
                              harness.build_params(config, obj)))
    return cases


def timed_setup(harness, workload, repeats: int):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        cases = build_cases(harness, workload)
        times.append(time.perf_counter() - start)
    return cases, statistics.median(times)


def hash_csvs(out_root: Path) -> dict:
    return {str(p.relative_to(out_root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_root.rglob("*.csv"))}


class Rounds:
    """Runs whole rounds of a workload's commands and keeps their figures."""

    def __init__(self, harness, workload, out_root: Path, tracer):
        self.harness, self.workload, self.out_root, self.tracer = (
            harness, workload, out_root, tracer)
        self.attempted = 0
        self.failed = 0
        self.hashes: list[dict] = []

    def _command(self, command) -> int:
        try:
            with self.tracer.span("harness.main"):
                return self.harness.main(command.argv(str(self.out_root / command.subdir)))
        except SystemExit as err:
            return err.code if isinstance(err.code, int) else 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return 1

    def phase(self, seconds: float, min_rounds: int) -> dict:
        """Rounds until ``seconds`` pass; per-round wall and steps/s."""
        walls, rates = [], []
        lo = self.tracer.mark()
        start = time.perf_counter()
        while len(walls) < min_rounds or time.perf_counter() - start < seconds:
            first = self.tracer.mark()
            with self.tracer.span("bench.round"):
                t0 = time.perf_counter()
                for command in self.workload.commands:
                    self.attempted += 1
                    if self._command(command) != 0:
                        self.failed += 1
                walls.append(time.perf_counter() - t0)
            run_s, steps = self.tracer.run_time_and_steps(first, self.tracer.mark())
            rates.append(steps / run_s if run_s > 0 else 0.0)
            self.hashes.append(hash_csvs(self.out_root))
        return {"walls": walls, "rates": rates, "lo": lo, "hi": self.tracer.mark()}


def execute(workload, seconds: float, trace: bool, out_root: Path,
            import_s: float, momcert) -> tuple[dict, list]:
    """Set up, measure and check one workload.

    Returns the result object and the wall time of every round.
    """
    from checks import check_identical, check_workload, load_outputs
    from tracer import Tracer

    harness = momcert.harness
    cases, build_s = timed_setup(harness, workload, SETUP_REPEATS)
    if out_root.exists():
        shutil.rmtree(out_root)
    out_root.mkdir(parents=True)

    tracer = Tracer()
    rounds = Rounds(harness, workload, out_root, tracer)
    try:
        if trace:
            metrics, walls = _traced(rounds, tracer, seconds, workload, out_root)
        else:
            tracer.install(layers=False)
            plain = rounds.phase(seconds, MIN_ROUNDS)
            walls = plain["walls"]
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (import_s + build_s, "s"),
                "solve_steps_per_s": (statistics.median(plain["rates"]), "steps/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
    finally:
        tracer.uninstall()

    failures = check_workload(workload.name, cases, load_outputs(out_root))
    failures += check_identical(rounds.hashes)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, walls


def _traced(rounds: Rounds, tracer, seconds: float, workload, out_root: Path):
    """Half the time untraced, half traced; the per-layer metrics."""
    from tracer import PER_LAYER, per_layer_metrics

    tracer.install(layers=False)
    plain = rounds.phase(seconds / 2, 1)
    tracer.uninstall()
    tracer.csv_bytes = 0
    tracer.install(layers=True)
    traced = rounds.phase(seconds / 2, 1)
    tracer.uninstall()
    for target in tracer.skipped:
        print(f"not traced, the program has no {target}", file=sys.stderr)

    table = tracer.layer_table(traced["lo"], traced["hi"])
    overhead = statistics.median(traced["walls"]) - statistics.median(plain["walls"])
    values = per_layer_metrics(table, tracer.steps_by_run(traced["lo"], traced["hi"]),
                               tracer.csv_bytes, len(traced["walls"]), overhead)
    tracer.write(str(out_root / f"trace_s{workload.seed}"),
                 {"workload": workload.name, "seed": workload.seed,
                  "traced_rounds": len(traced["walls"]), "blas_threads": BLAS_THREADS},
                 table)
    return ({name: (values[name], unit) for name, unit in PER_LAYER},
            plain["walls"] + traced["walls"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload runs in seconds")
    args = parser.parse_args(argv)

    from workloads import make_workload

    try:
        workload = make_workload(args.workload, args.seed, args.smoke)
        momcert, import_s = import_program()
    except (ValueError, ImportError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result, walls = execute(workload, args.seconds, bool(args.trace),
                            OUT_DIR / workload.name, import_s, momcert)
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    print(f"# workload={workload.name} seed={workload.seed} smoke={args.smoke} {threads}"
          f" round_wall_s={','.join(f'{w:.4f}' for w in walls)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
