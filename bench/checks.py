"""Correctness checks on the files a workload's CLI commands wrote.

Nothing here compares against a stored copy of earlier output. Each check
either recomputes a quantity apart from the program (the minimizer of a
quadratic from gradient differences, a replay of the documented recursion,
the exact RK4 propagator and the matrix exponential of a linear flow, a
reference ODE solve, the L1 optimality conditions) or tests a property the
method must have (certificates pass, gaps stay under the theorem bound and
above the optimum, the fitted rate is at least the certified one).

The program's objects from set-up serve only as inputs: the gradient oracle
that defines the problem, the start point and the initial-velocity
coefficient. Every check returns a list of failure messages; empty means
the check passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = np.finfo(float).eps
# Gaps are compared where they stand this far above the initial gap; below
# it the CSV holds float noise of f(x) - f*, not the iterate.
GAP_RESOLVED = 1e-9
REPLAY_RTOL = 1e-8


@dataclass
class Run:
    """One trace CSV and its summary JSON, as the CLI wrote them."""

    columns: tuple
    data: np.ndarray
    summary: dict

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]


@dataclass
class Case:
    """One run a workload expects: its config and its set-up objects."""

    subdir: str
    config: dict
    obj: object
    x0: np.ndarray
    bundle: object


def load_outputs(out_root: Path) -> dict:
    """Every trace under out_root, as {subdir: [Run]}, plus rate tables."""
    outputs = {"runs": {}, "rates": {}}
    for sub in sorted(p for p in out_root.iterdir() if p.is_dir()):
        runs = []
        for json_path in sorted(sub.glob("*.json")):
            csv_path = json_path.with_suffix(".csv")
            with open(csv_path) as fh:
                columns = tuple(fh.readline().strip().split(","))
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
            runs.append(Run(columns, data, json.loads(json_path.read_text())))
        outputs["runs"][sub.name] = runs
        for table in sub.glob("*_rates.csv"):
            with open(table) as fh:
                outputs["rates"][sub.name] = list(csv.DictReader(fh))
    return outputs


def find_run(outputs: dict, case: Case):
    """The run whose recorded config matches the case, or None."""
    keys = [k for k in case.config if k != "solver"]
    for run in outputs["runs"].get(case.subdir, []):
        cfg = run.summary.get("config", {})
        if all(cfg.get(k) == case.config[k] for k in keys):
            return run
    return None


def check_workload(name: str, cases: list, outputs: dict) -> list[str]:
    per_run = {"sweep_quadratic": _check_sweep_run,
               "flow_rk4": _check_flow_run,
               "certify_lasso": _check_lasso_run}[name]
    failures = []
    for case in cases:
        run = find_run(outputs, case)
        label = f"{case.subdir}/{_label(case.config)}"
        if run is None:
            failures.append(f"{label}: no trace written")
            continue
        failures += [f"{label}: {msg}" for msg in _check_summary(run) + per_run(case, run)]
    if name == "sweep_quadratic":
        failures += _check_rate_tables(cases, outputs)
    return failures


def check_identical(hashes: list[dict]) -> list[str]:
    """Every round wrote the same CSV bytes as the first."""
    failures = []
    for r, h in enumerate(hashes[1:], start=1):
        if h != hashes[0]:
            differ = sorted(k for k in set(h) | set(hashes[0]) if h.get(k) != hashes[0].get(k))
            failures.append(f"round {r} CSVs differ from round 0: {differ[:3]}")
    return failures


def _label(config: dict) -> str:
    return ",".join(f"{k}={config[k]}" for k in ("seed", "gamma", "omega") if k in config)


def _check_summary(run: Run) -> list[str]:
    s = run.summary
    out = []
    if not s.get("certified"):
        out.append("run is not certified")
    if s.get("aborted_at") is not None:
        out.append(f"run aborted at {s['aborted_at']}")
    if s.get("certificates_failed") != 0:
        out.append(f"{s.get('certificates_failed')} certificates failed")
    expected = run.data.shape[0] if s.get("solver") == "ode" else run.data.shape[0] - 1
    if s.get("certificates_checked") != expected:
        out.append(f"{s.get('certificates_checked')} certificates checked, expected {expected}")
    return out


def _discrete_certificates(run: Run) -> list[str]:
    """Re-derive each step's verdict from the energy and slack columns."""
    energy, slack = run.col("energy"), run.col("certificate_slack")
    tol = 1e-12 * (1.0 + abs(energy[0])) + 1e-9 * np.abs(energy[:-1])
    bad = np.nonzero(~(slack[:-1] >= -tol))[0]
    if bad.size:
        return [f"certificate at k={int(bad[0])} fails: slack {slack[bad[0]]:.3e}"
                f" ({bad.size} rows)"]
    return []


def _bound_holds(run: Run, gap_col: str, bound_col: str) -> list[str]:
    gap, bound = run.col(gap_col), run.col(bound_col)
    floor = 1e-13 * (1.0 + abs(gap[0]))
    bad = np.nonzero(~(gap <= bound * (1.0 + 1e-9) + floor))[0]
    if bad.size:
        k = int(bad[0])
        return [f"{gap_col} {gap[k]:.6e} above {bound_col} {bound[k]:.6e} at row {k}"
                f" ({bad.size} rows)"]
    return []


def _compare_gaps(what: str, got: np.ndarray, want: np.ndarray, rtol: float,
                  noise) -> list[str]:
    """|got - want| <= rtol want + noise at every row down to GAP_RESOLVED.

    ``noise`` (a scalar or one value per row) bounds the rounding error of
    the program's f(x) - f* at that row.
    """
    rows = np.nonzero(want >= GAP_RESOLVED * want[0])[0]
    if rows.size < 2:
        return [f"{what}: fewer than 2 resolved rows to compare"]
    noise = np.broadcast_to(noise, want.shape)[rows]
    err = np.abs(got[rows] - want[rows]) - (rtol * want[rows] + noise)
    worst = int(rows[np.argmax(err)])
    if np.max(err) > 0 or not np.all(np.isfinite(got[rows])):
        return [f"{what} differs at row {worst}: {got[worst]!r} vs {want[worst]!r}"]
    return []


def eval_noise(q: np.ndarray, b: np.ndarray, xs: np.ndarray, xstar: np.ndarray) -> np.ndarray:
    """Rounding bound of f(x) - f* for f = x'Qx/2 - b'x, at each row of xs.

    Evaluating a length-d dot product errs by at most about d eps times the
    sum of its absolute terms; f(x) and f* each contribute one such error.
    """
    def terms(x):
        ax = np.abs(x)
        return 0.5 * np.einsum("...i,ij,...j->...", ax, np.abs(q), ax) + ax @ np.abs(b)

    return (q.shape[0] + 2) * EPS * (terms(xs) + terms(xstar))


def quadratic_from_gradients(grad, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Q and b of f = x'Qx/2 - b'x, assembled from gradient differences."""
    g0 = np.asarray(grad(np.zeros(d)), dtype=float)
    q = np.column_stack([np.asarray(grad(e), dtype=float) - g0 for e in np.eye(d)])
    return 0.5 * (q + q.T), -g0


# ----------------------------------------------------------------------
# sweep_quadratic


def _check_sweep_run(case: Case, run: Run) -> list[str]:
    s = run.summary
    d = case.x0.size
    q, b = quadratic_from_gradients(case.obj.grad, d)
    xstar = np.linalg.solve(q, b)
    fstar = -0.5 * float(b @ xstar)
    out = []
    if np.linalg.norm(xstar - case.obj.minimizer) > 1e-10 * max(1.0, np.linalg.norm(xstar)):
        out.append("program minimizer differs from the solve on Q")
    if abs(fstar - case.obj.min_value) > 1e-10 * max(1.0, abs(fstar)):
        out.append(f"program f* {case.obj.min_value!r} differs from {fstar!r}")

    # Replay the two-sequence recursion with the summary's constants; the
    # first step is x1 = x0 + h v0 with v0 = -v0_coeff h grad f(x0).
    h, alpha, gamma = s["h"], s["alpha"], s["gamma"]
    c = 1.0 / (1.0 + alpha * h)
    n = run.data.shape[0]
    xs = np.empty((n, d))
    x = case.x0.copy()
    g = q @ x - b
    y = x - h * h * g
    x_next = x - case.bundle.v0_coeff * h * h * g
    for k in range(n):
        xs[k] = x
        if k + 1 == n:
            break
        if k > 0:
            y_next = x - h * h * g
            x_next = y_next + c * (y_next - y) + (gamma * c - 1.0) * (y_next - x)
            y = y_next
        x = x_next
        g = q @ x - b
    dx = xs - xstar
    gaps = 0.5 * np.einsum("ij,jk,ik->i", dx, q, dx)
    out += _compare_gaps("f_gap_x vs replay", run.col("f_gap_x"), gaps, REPLAY_RTOL,
                         eval_noise(q, b, xs, xstar))
    out += _discrete_certificates(run)
    out += _bound_holds(run, "f_gap_y", "theorem_bound")
    fitted = s.get("fitted_rate")
    if fitted is None or not fitted >= s["rho_theory"]:
        out.append(f"fitted rate {fitted} below rho_theory {s['rho_theory']}")
    return out


def _check_rate_tables(cases: list, outputs: dict) -> list[str]:
    out = []
    for subdir in sorted({c.subdir for c in cases}):
        rows = outputs["rates"].get(subdir)
        expected = sum(1 for c in cases if c.subdir == subdir)
        if rows is None or len(rows) != expected:
            out.append(f"{subdir}: rate table has {None if rows is None else len(rows)}"
                       f" rows, expected {expected}")
            continue
        for r in rows:
            passed, checked = r["certificates"].split("/")
            if not float(r["rho_emp"]) >= float(r["rho_theory"]):
                out.append(f"{subdir}: rho_emp {r['rho_emp']} < rho_theory"
                           f" {r['rho_theory']} at gamma={r['gamma']} omega={r['omega']}")
            if passed != checked:
                out.append(f"{subdir}: certificates {r['certificates']}")
    return out


# ----------------------------------------------------------------------
# flow_rk4


def _flow_system(s: dict, q: np.ndarray) -> np.ndarray:
    """M of the shifted system (u, z)' = M (u, z), u = x - x*."""
    d = q.shape[0]
    alpha, beta, gamma = s["alpha"], s["beta"], s["gamma"]
    return np.block([[-beta * q, np.eye(d)],
                     [(alpha * beta - gamma) * q, -alpha * np.eye(d)]])


def _check_flow_run(case: Case, run: Run) -> list[str]:
    s = run.summary
    out = _envelopes(run)
    if s["config"]["problem"] == "pl_sine":
        return out + _check_pl_sine(case, run)
    from scipy.linalg import expm

    d = case.x0.size
    q, b = quadratic_from_gradients(case.obj.grad, d)
    xstar = np.linalg.solve(q, b)
    m = _flow_system(s, q)
    dt = float(s["dt"])
    # Classical RK4 on a linear system advances by the degree-4 Taylor
    # polynomial of exp(M dt), exactly.
    a = m * dt
    step = np.eye(2 * d) + a @ (np.eye(2 * d) + a @ (np.eye(2 * d) / 2 + a @ (
        np.eye(2 * d) / 6 + a / 24)))
    n = run.data.shape[0]
    states = np.empty((n, 2 * d))
    states[0] = np.concatenate([case.x0 - xstar, np.zeros(d)])
    for j in range(1, n):
        states[j] = step @ states[j - 1]
    u = states[:, :d]
    gaps = 0.5 * np.einsum("ij,jk,ik->i", u, q, u)
    noise = eval_noise(q, b, u + xstar, xstar)
    gap = run.col("f_gap")
    out += _compare_gaps("f_gap vs RK4 propagator", gap, gaps, REPLAY_RTOL, noise)

    # Against the exact flow what remains is RK4's global error, of order
    # (Lambda dt)^4 with Lambda the stiffness scale the CLI sizes dt by. On
    # these flows it stays below a tenth of (Lambda dt)^4 relative to the gap.
    lam_dt = math.sqrt(s["L"] * (1.0 + s["alpha"] * s["beta"])) * dt
    rtol = lam_dt ** 4
    t = run.col("t")
    rows = np.unique(np.linspace(0, n - 1, 40).astype(int))
    exact = np.array([expm(m * t[j]) @ states[0] for j in rows])[:, :d]
    exact_gaps = 0.5 * np.einsum("ij,jk,ik->i", exact, q, exact)
    out += _compare_gaps("f_gap vs expm", gap[rows], exact_gaps, rtol, noise[rows])
    return out


def _check_pl_sine(case: Case, run: Run) -> list[str]:
    from scipy.integrate import solve_ivp

    s = run.summary
    alpha, beta, gamma = s["alpha"], s["beta"], s["gamma"]

    def field(t, w):
        x, z = w
        g = 2.0 * x + 3.0 * math.sin(2.0 * x)
        return [z - beta * g, -alpha * z + (alpha * beta - gamma) * g]

    t = run.col("t")
    gap = run.col("f_gap")
    rows = np.nonzero(gap >= GAP_RESOLVED * gap[0])[0]
    rows = rows[np.unique(np.linspace(0, rows.size - 1, 200).astype(int))]
    sol = solve_ivp(field, (0.0, t[rows[-1]]), [float(case.x0[0]), 0.0],
                    method="DOP853", t_eval=t[rows], rtol=1e-12, atol=1e-20)
    if not sol.success:
        return [f"reference solve failed: {sol.message}"]
    x = sol.y[0]
    ref = x * x + 3.0 * np.sin(x) ** 2
    return _compare_gaps("f_gap vs DOP853", gap[rows], ref, 1e-7, 0.0)


def _envelopes(run: Run) -> list[str]:
    s = run.summary
    t, gap, energy = run.col("t"), run.col("f_gap"), run.col("energy")
    rate, eps0 = s["decay_rate"], energy[0]
    decay = np.exp(-rate * t)
    noise = 8 * EPS * (abs(eps0) + s["f_scale"])
    out = []
    envelope = s["prefactor"] * gap[0] * decay
    if not np.allclose(run.col("envelope"), envelope, rtol=1e-12, atol=0.0):
        out.append("envelope column is not prefactor * gap0 * exp(-rate t)")
    bad = np.nonzero(~(energy <= eps0 * decay * (1.0 + 1e-6) + noise))[0]
    if bad.size:
        out.append(f"energy above its envelope at row {int(bad[0])} ({bad.size} rows)")
    bad = np.nonzero(~(gap <= envelope * (1.0 + 1e-9) + noise))[0]
    if bad.size:
        out.append(f"f_gap above its envelope at row {int(bad[0])} ({bad.size} rows)")
    slack = run.col("certificate_slack")[1:]
    if not np.all(slack >= 0.0):
        out.append(f"{int(np.sum(~(slack >= 0.0)))} step certificates with negative slack")
    return out


# ----------------------------------------------------------------------
# certify_lasso


def _check_lasso_run(case: Case, run: Run) -> list[str]:
    s = run.summary
    smooth = case.obj.smooth
    # The CLI's documented default penalty: 0.3 max|A'b| = 0.3 max|grad f(0)|.
    lam = 0.3 * float(np.max(np.abs(smooth.grad(np.zeros(case.x0.size)))))
    xstar = np.asarray(case.obj.minimizer, dtype=float)
    g = smooth.grad(xstar)
    active = xstar != 0.0
    resid = np.where(active, np.abs(g + lam * np.sign(xstar)),
                     np.maximum(np.abs(g) - lam, 0.0))
    out = []
    if np.max(resid) > 1e-9 * max(1.0, lam):
        out.append(f"minimizer violates the L1 KKT conditions by {np.max(resid):.3e}")

    def big_f(x):
        return smooth.eval(x) + lam * float(np.abs(x).sum())

    fstar = big_f(xstar)
    noise = 64 * EPS * max(1.0, abs(fstar))
    if abs(fstar - case.obj.min_value) > noise:
        out.append(f"F(x*) {fstar!r} differs from the program's F* {case.obj.min_value!r}")
    for col in ("f_gap_x", "f_gap_y"):
        low = np.nonzero(~(run.col(col) >= -noise))[0]
        if low.size:
            out.append(f"{col} below F* by more than {noise:.1e} at row {int(low[0])}")

    # Replay the proximal recursion: y = x_k + (x_k - x_{k-1}) / (1 + alpha h),
    # x_{k+1} = prox_{s lam |.|}(y - s grad f(y)), from x_1 = x_0.
    h, alpha = s["h"], s["alpha"]
    step = h * h
    n = run.data.shape[0]
    gaps = np.empty(n)
    x_prev = x = case.x0.copy()
    for k in range(n):
        gaps[k] = big_f(x) - fstar
        if k + 1 == n:
            break
        y = x + (x - x_prev) / (1.0 + alpha * h)
        z = y - step * smooth.grad(y)
        x_prev, x = x, np.sign(z) * np.maximum(np.abs(z) - step * lam, 0.0)
    out += _compare_gaps("f_gap_y vs replay", run.col("f_gap_y"), gaps, REPLAY_RTOL, noise)
    out += _discrete_certificates(run)
    out += _bound_holds(run, "f_gap_y", "theorem_bound")
    return out
