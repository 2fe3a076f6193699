"""Self-tests of the benchmark: its checks reject perturbed output.

Run from the root of the checkout:

    python3 -m pytest bench -q

Each workload runs once at smoke size; the checks must pass on that output
and fail on each perturbed copy of it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run as bench
from checks import check_identical, check_workload, load_outputs
from tracer import PER_LAYER, Tracer, per_layer_metrics
from workloads import WORKLOADS, make_workload

RUN_PY = Path(bench.__file__).resolve()
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def momcert():
    module, _ = bench.import_program()
    return module


@pytest.fixture(scope="module", params=WORKLOADS)
def smoke(request, momcert, tmp_path_factory):
    workload = make_workload(request.param, seed=1, smoke=True)
    out_root = tmp_path_factory.mktemp(request.param)
    result, _ = bench.execute(workload, 0.0, False, out_root, 0.0, momcert)
    cases = bench.build_cases(momcert.harness, workload)
    return workload, result, cases, load_outputs(out_root)


def test_smoke_output_passes(smoke):
    workload, result, cases, outputs = smoke
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == bench.MIN_ROUNDS * len(workload.commands)
    assert check_workload(workload.name, cases, outputs) == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def _run(outputs, subdir, **match):
    for run in outputs["runs"][subdir]:
        if all(run.summary["config"][k] == v for k, v in match.items()):
            return run
    raise LookupError(subdir)


def _scale_gap(subdir, column, **match):
    def perturb(outputs, cases):
        run = _run(outputs, subdir, **match)
        run.data[:, run.columns.index(column)] *= 1.0 + 1e-6
    return perturb


def _set_summary(subdir, key, delta, **match):
    def perturb(outputs, cases):
        _run(outputs, subdir, **match).summary[key] += delta
    return perturb


def _break_bound(subdir):
    def perturb(outputs, cases):
        run = outputs["runs"][subdir][0]
        k = run.data.shape[0] // 10
        run.data[k, run.columns.index("theorem_bound")] = 0.5 * run.col("f_gap_y")[k]
    return perturb


def _fail_certificate(subdir):
    def perturb(outputs, cases):
        run = outputs["runs"][subdir][0]
        run.data[5, run.columns.index("certificate_slack")] = -1.0
    return perturb


def _shift_minimizer(index):
    def perturb(outputs, cases):
        obj = cases[index].obj
        xstar = np.array(obj.minimizer, dtype=float)
        xstar[0] += 1e-6
        cases[index] = dataclasses.replace(
            cases[index], obj=dataclasses.replace(obj, minimizer=xstar))
    return perturb


def _slow_rate(outputs, cases):
    row = outputs["rates"]["q0.01"][4]
    row["rho_emp"] = str(0.5 * float(row["rho_theory"]))


def _raise_energy(outputs, cases):
    run = outputs["runs"]["quadratic_w1"][0]
    j = run.data.shape[0] // 3
    run.data[j, run.columns.index("energy")] = 2.0 * run.col("energy")[0]


def _below_optimum(outputs, cases):
    run = outputs["runs"]["lasso_s4"][0]
    run.data[-1, run.columns.index("f_gap_x")] = -1e-9


def _drop_run(outputs, cases):
    subdir = cases[0].subdir
    outputs["runs"][subdir] = outputs["runs"][subdir][1:]


PERTURBATIONS = {
    "sweep_quadratic": {
        "gap_scaled": (_scale_gap("q0.01", "f_gap_x", gamma=1.5, omega=0.5), "vs replay"),
        "gamma_off": (_set_summary("q0.001", "gamma", 1e-3, gamma=2.0, omega=1.0), "vs replay"),
        "bound_broken": (_break_bound("q0.01"), "above theorem_bound"),
        "certificate_failed": (_fail_certificate("q0.001"), "certificate at k=5"),
        "rate_below_theory": (_slow_rate, "rho_emp"),
        "wrong_minimizer": (_shift_minimizer(0), "minimizer differs"),
        "run_missing": (_drop_run, "no trace written"),
    },
    "flow_rk4": {
        "quadratic_gap_scaled": (_scale_gap("quadratic_w0", "f_gap"), "RK4 propagator"),
        "pl_sine_gap_scaled": (_scale_gap("pl_sine", "f_gap"), "DOP853"),
        "beta_off": (_set_summary("quadratic_w1", "beta", 1e-3), "RK4 propagator"),
        "energy_above_envelope": (_raise_energy, "energy above its envelope"),
        "run_missing": (_drop_run, "no trace written"),
    },
    "certify_lasso": {
        "gap_scaled": (_scale_gap("lasso_s3", "f_gap_y"), "vs replay"),
        "below_optimum": (_below_optimum, "below F*"),
        "kkt_violated": (_shift_minimizer(1), "KKT"),
        "bound_broken": (_break_bound("lasso_s5"), "above theorem_bound"),
        "certificate_failed": (_fail_certificate("lasso_s3"), "certificate at k=5"),
        "run_missing": (_drop_run, "no trace written"),
    },
}


def test_every_perturbation_is_rejected(smoke):
    workload, _, cases, outputs = smoke
    for label, (perturb, expected) in PERTURBATIONS[workload.name].items():
        bad_outputs, bad_cases = copy.deepcopy(outputs), list(cases)
        perturb(bad_outputs, bad_cases)
        failures = check_workload(workload.name, bad_cases, bad_outputs)
        assert any(expected in msg for msg in failures), (label, failures)


def test_changed_bytes_between_rounds_are_rejected():
    same = {"a/x.csv": "00", "b/y.csv": "11"}
    assert check_identical([same, dict(same)]) == []
    assert check_identical([same, dict(same, **{"b/y.csv": "12"})])


def _bench(args, cwd):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_command_line_smoke_and_trace(workload):
    args = [str(RUN_PY), "--workload", workload, "--seed", "2", "--seconds", "0",
            "--trace", "1", "--smoke"]
    results = []
    for _ in range(2):
        code, out = _bench(args, bench.ROOT)
        assert code == 0, out
        results.append(json.loads(out.strip().splitlines()[-1]))
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    assert list(results[0]["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith("calls_per_step")}
              for r in results]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN_PY.parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out = _bench(["bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                        "--seconds", "1"], tmp_path)
    assert code != 0
    assert out == ""


def test_self_time_excludes_children_and_missing_layers_read_zero():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))

    def outer_body():
        inner()
        inner()
        time.sleep(0.001)

    tracer.wrap("outer", outer_body)()
    table = tracer.layer_table(0, tracer.mark())
    nid, parent, dur = tracer.arrays()
    assert table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)
    assert 0.0 < table["outer"]["self_s"] < table["outer"]["total_s"]

    tracer._patch("momcert.agm:no_such_function", "agm.step")
    assert tracer.skipped == ["momcert.agm:no_such_function"]
    values = per_layer_metrics({}, {}, 0, 1, 0.0)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["agm.step.self_us"] == 0.0
    assert values["oracle.grad.calls_per_step"] == 0.0
