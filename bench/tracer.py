"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces public functions on the modules that call them (the
solvers look them up through their module globals, so patching
``momcert.agm.agm_step`` is seen by ``agm_run``), and wraps the objective
callables that ``harness.build_problem`` returns. Each call becomes a span
with its name, its parent span, and its start and end times. Spans are kept
in flat arrays in memory and written out once, at the end.

A target the program no longer has (a later change inlined or renamed it)
is skipped; its metrics then read 0 calls, which is visible in the output.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Run functions: timed in every mode, since solve_steps_per_s needs them.
RUN_TARGETS = (
    ("momcert.agm:agm_run", "agm.run"),
    ("momcert.pgm:pgm_run", "pgm.run"),
    ("momcert.ode:ode_run", "ode.run"),
)

# Layers traced only with --trace 1. Several call sites may share a name.
LAYER_TARGETS = (
    ("momcert.harness:run_experiment", "harness.run_experiment"),
    ("momcert.harness:build_problem", "harness.build_problem"),
    ("momcert.harness:build_params", "harness.build_params"),
    ("momcert.harness:fit_linear_rate", "harness.fit_linear_rate"),
    ("momcert.harness:agm_params_sc", "params.bundle"),
    ("momcert.harness:agm_params_qg", "params.bundle"),
    ("momcert.harness:agm_params_pl", "params.bundle"),
    ("momcert.harness:pgm_params_sc", "params.bundle"),
    ("momcert.harness:pgm_params_qg", "params.bundle"),
    ("momcert.harness:ode_params_sc", "params.bundle"),
    ("momcert.harness:ode_params_qg", "params.bundle"),
    ("momcert.harness:ode_params_pl", "params.bundle"),
    ("momcert.oracle:reference_minimizer", "oracle.reference_minimizer"),
    ("momcert.oracle:estimate_pl_constant", "oracle.estimate_pl_constant"),
    ("momcert.agm:agm_step", "agm.step"),
    ("momcert.agm:agm_energy", "agm.energy"),
    ("momcert.agm:energy_contraction", "certificates.energy_contraction"),
    ("momcert.pgm:pgm_step", "pgm.step"),
    ("momcert.pgm:pgm_energy", "pgm.energy"),
    ("momcert.pgm:energy_contraction", "certificates.energy_contraction"),
    ("momcert.pgm:grad_mapping", "oracle.grad_mapping"),
    ("momcert.ode:rk4_step", "ode.rk4_step"),
    ("momcert.ode:ode_energy", "ode.energy"),
    ("momcert.ode:ode_certify", "ode.certify"),
    ("momcert.trace:Trace.write_csv", "trace.write_csv"),
    ("momcert.trace:Trace.write_json", "trace.write_json"),
)

RUN_NAMES = tuple(name for _, name in RUN_TARGETS)

# name, unit. Times per call are means over every call in the traced rounds;
# "per round" figures are totals divided by the number of traced rounds;
# calls_per_step counts calls made inside a run function, over its steps.
PER_LAYER = (
    ("oracle.grad.calls_per_step", "calls/step"),
    ("oracle.eval.calls_per_step", "calls/step"),
    ("oracle.prox.calls_per_step", "calls/step"),
    ("oracle.grad_mapping.calls_per_step", "calls/step"),
    ("oracle.grad.us", "us"),
    ("oracle.eval.us", "us"),
    ("oracle.prox.us", "us"),
    ("oracle.reference_minimizer.s", "s"),
    ("oracle.estimate_pl_constant.s", "s"),
    ("params.bundle.us", "us"),
    ("harness.build_problem.s", "s"),
    ("harness.build_params.s", "s"),
    ("agm.step.self_us", "us"),
    ("agm.energy.self_us", "us"),
    ("agm.run.self_us_per_step", "us/step"),
    ("certificates.energy_contraction.us", "us"),
    ("pgm.step.self_us", "us"),
    ("pgm.energy.self_us", "us"),
    ("pgm.run.self_us_per_step", "us/step"),
    ("ode.rk4_step.self_us", "us"),
    ("ode.energy.self_us", "us"),
    ("ode.run.self_us_per_step", "us/step"),
    ("ode.certify.s", "s"),
    ("trace.write_csv.s", "s"),
    ("trace.write_csv.mb_per_s", "MB/s"),
    ("trace.csv_mb", "MB"),
    ("trace.write_json.s", "s"),
    ("harness.fit_linear_rate.s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("tracing_overhead_s", "s"),
)


def _resolve(target: str):
    """Owner object and attribute name of 'module:attr.path', or None."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans of wrapped calls; ``install`` patches, ``uninstall`` undoes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.run_steps: dict[int, int] = {}   # run span index -> steps taken
        self.csv_bytes = 0
        self.skipped: list[str] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        i = self._name_id(name)
        nid, parent, t0, t1, stack = self.nid, self.parent, self.t0, self.t1, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(t0)
            nid.append(i)
            parent.append(stack[-1])
            t0.append(0.0)
            t1.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                t0[idx] = start
                stack.pop()
            if on_return is not None:
                on_return(idx, result, args)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.t0)
        self.nid.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.t0.append(0.0)
        self.t1.append(0.0)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.t1[idx] = time.perf_counter()
            self.t0[idx] = start
            self._stack.pop()

    def mark(self) -> int:
        return len(self.t0)

    # -- patching -----------------------------------------------------

    def _patch(self, target: str, name: str, on_return=None, outer=None) -> None:
        found = _resolve(target)
        if found is None:
            if target not in self.skipped:
                self.skipped.append(target)
            return
        owner, attr = found
        original = getattr(owner, attr)
        traced = self.wrap(name, original, on_return)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced if outer is None else outer(traced))

    def install(self, layers: bool) -> None:
        """Wrap the run functions, and with ``layers`` every traced layer."""
        for target, name in RUN_TARGETS:
            self._patch(target, name, on_return=self._count_steps)
        if not layers:
            return
        for target, name in LAYER_TARGETS:
            if target.endswith(":build_problem"):
                self._patch(target, name, outer=self._objective_wrapping)
            elif target.endswith(":Trace.write_csv"):
                self._patch(target, name, on_return=self._count_csv_bytes)
            else:
                self._patch(target, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _count_steps(self, idx, trace, args) -> None:
        self.run_steps[idx] = trace.n_rows - 1

    def _count_csv_bytes(self, idx, result, args) -> None:
        self.csv_bytes += os.path.getsize(args[1])

    def _objective_wrapping(self, build_problem):
        def build_and_wrap(*args, **kwargs):
            obj, x0 = build_problem(*args, **kwargs)
            return self.wrap_objective(obj), x0
        return build_and_wrap

    def wrap_objective(self, obj):
        """Copy of an objective whose eval, grad and prox calls are spans."""
        if not dataclasses.is_dataclass(obj):
            return obj
        if hasattr(obj, "smooth") and hasattr(obj, "prox_term"):
            prox_term = dataclasses.replace(
                obj.prox_term, prox=self.wrap("oracle.prox", obj.prox_term.prox))
            return dataclasses.replace(
                obj, smooth=self.wrap_objective(obj.smooth), prox_term=prox_term)
        return dataclasses.replace(
            obj, eval=self.wrap("oracle.eval", obj.eval),
            grad=self.wrap("oracle.grad", obj.grad))

    # -- analysis -----------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.nid, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        return nid, parent, dur

    def run_time_and_steps(self, lo: int, hi: int) -> tuple[float, int]:
        """Seconds spent inside run functions, and their steps, in spans [lo, hi)."""
        seconds, steps = 0.0, 0
        for idx, n in self.run_steps.items():
            if lo <= idx < hi:
                seconds += self.t1[idx] - self.t0[idx]
                steps += n
        return seconds, steps

    def steps_by_run(self, lo: int, hi: int) -> dict:
        """Steps taken by each run function in spans [lo, hi)."""
        steps = dict.fromkeys(RUN_NAMES, 0)
        for idx, n in self.run_steps.items():
            if lo <= idx < hi:
                steps[self.names[self.nid[idx]]] += n
        return steps

    def layer_table(self, lo: int, hi: int) -> dict:
        """Per span name: calls, calls inside a run function, total and self time."""
        nid, parent, dur = self.arrays()
        nid, parent, dur = nid[lo:hi], parent[lo:hi], dur[lo:hi]
        local_parent = np.where(parent >= lo, parent - lo, -1)
        has_parent = local_parent >= 0
        n_names = len(self.names)
        child = np.bincount(local_parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        # A span is inside a run when it or an ancestor is a run function;
        # parents precede children, so a few passes settle every depth.
        run_ids = [self._ids[n] for n in RUN_NAMES if n in self._ids]
        in_run = np.isin(nid, run_ids)
        while True:
            inherited = in_run | np.where(has_parent, in_run[np.maximum(local_parent, 0)], False)
            if np.array_equal(inherited, in_run):
                break
            in_run = inherited
        inner = (in_run & ~np.isin(nid, run_ids)).astype(float)
        calls_in_run = np.bincount(nid, weights=inner, minlength=n_names)
        calls = np.bincount(nid, minlength=n_names)
        total = np.bincount(nid, weights=dur, minlength=n_names)
        own = np.bincount(nid, weights=self_time, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "calls_in_run": int(calls_in_run[i]),
                   "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path_prefix: str, meta: dict, table: dict) -> None:
        """Write the raw spans (.npz) and the per-name table (.json)."""
        np.savez(path_prefix + "_spans.npz",
                 name_id=np.frombuffer(self.nid, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.t0, dtype=float),
                 end=np.frombuffer(self.t1, dtype=float),
                 names=np.array(self.names))
        with open(path_prefix + "_layers.json", "w") as fh:
            json.dump({"meta": meta, "skipped": self.skipped, "layers": table},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")


def per_layer_metrics(table: dict, steps: dict, csv_bytes: int, rounds: int,
                      tracing_overhead_s: float) -> dict:
    """The PER_LAYER figures from a layer table of ``rounds`` traced rounds.

    ``steps`` maps each run function name to the steps it took. A layer that
    made no calls reports 0.
    """
    empty = {"calls": 0, "calls_in_run": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return table.get(name, empty)

    def mean_us(name, key="total_s"):
        r = row(name)
        return 1e6 * r[key] / r["calls"] if r["calls"] else 0.0

    def per_round(name, key="total_s"):
        return row(name)[key] / rounds

    all_steps = sum(steps.values())

    def per_step(name):
        return row(name)["calls_in_run"] / all_steps if all_steps else 0.0

    def run_self_us(name):
        n = steps.get(name, 0)
        return 1e6 * row(name)["self_s"] / n if n else 0.0

    csv_s = row("trace.write_csv")["total_s"]
    values = {
        "oracle.grad.calls_per_step": per_step("oracle.grad"),
        "oracle.eval.calls_per_step": per_step("oracle.eval"),
        "oracle.prox.calls_per_step": per_step("oracle.prox"),
        "oracle.grad_mapping.calls_per_step": per_step("oracle.grad_mapping"),
        "oracle.grad.us": mean_us("oracle.grad"),
        "oracle.eval.us": mean_us("oracle.eval"),
        "oracle.prox.us": mean_us("oracle.prox"),
        "oracle.reference_minimizer.s": per_round("oracle.reference_minimizer"),
        "oracle.estimate_pl_constant.s": per_round("oracle.estimate_pl_constant"),
        "params.bundle.us": mean_us("params.bundle"),
        "harness.build_problem.s": per_round("harness.build_problem"),
        "harness.build_params.s": per_round("harness.build_params"),
        "agm.step.self_us": mean_us("agm.step", "self_s"),
        "agm.energy.self_us": mean_us("agm.energy", "self_s"),
        "agm.run.self_us_per_step": run_self_us("agm.run"),
        "certificates.energy_contraction.us": mean_us("certificates.energy_contraction"),
        "pgm.step.self_us": mean_us("pgm.step", "self_s"),
        "pgm.energy.self_us": mean_us("pgm.energy", "self_s"),
        "pgm.run.self_us_per_step": run_self_us("pgm.run"),
        "ode.rk4_step.self_us": mean_us("ode.rk4_step", "self_s"),
        "ode.energy.self_us": mean_us("ode.energy", "self_s"),
        "ode.run.self_us_per_step": run_self_us("ode.run"),
        "ode.certify.s": per_round("ode.certify"),
        "trace.write_csv.s": csv_s / rounds,
        "trace.write_csv.mb_per_s": csv_bytes / 1e6 / csv_s if csv_s else 0.0,
        "trace.csv_mb": csv_bytes / 1e6 / rounds,
        "trace.write_json.s": per_round("trace.write_json"),
        "harness.fit_linear_rate.s": per_round("harness.fit_linear_rate"),
        "harness.run_experiment.self_s": per_round("harness.run_experiment", "self_s"),
        "tracing_overhead_s": tracing_overhead_s,
    }
    if set(values) != {name for name, _ in PER_LAYER}:
        raise RuntimeError("per_layer_metrics and PER_LAYER name different metrics")
    return values
