"""Damped second-order flow with a gradient-difference damping term.

The flow is x'' + alpha x' + beta d/dt[grad f(x)] + gamma grad f(x) = 0.
Substituting z = x' + beta grad f(x) gives the first-order system actually
integrated here,

    x' = z - beta grad f(x)
    z' = -alpha z + (alpha beta - gamma) grad f(x),

which never evaluates a Hessian. Initial conditions are x(0) = x0 and
z(0) = 0, i.e. the velocity starts at -beta grad f(x0).

The certified energy is

    eps = ||z + xi (x - x*)||^2 / 2 - eta ||x - x*||^2 / 2 + theta (f - f*),

which decays like eps(t) <= eps(0) exp(-decay_rate t) for admissible
bundles. Integration is classical fixed-step RK4; certificates allow for
its O(dt^4) error through a stiffness-scaled per-step tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import CertificateResult, DivergenceError, certificate_results
from .oracle import SmoothObjective
from .params import OdeParams
from .trace import Trace

__all__ = [
    "OdeState",
    "OdeEnergy",
    "flow_vector_field",
    "rk4_step",
    "ode_energy",
    "ode_run",
    "ode_certify",
    "ode_certify_arrays",
    "default_dt",
    "ODE_COLUMNS",
]

ODE_COLUMNS = ("t", "f_gap", "energy", "envelope", "certificate_slack")


@dataclass(frozen=True)
class OdeState:
    t: float
    x: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class OdeEnergy:
    eps: float
    f_gap: float


# The integrators below work on the stacked state w = [x; z] of shape
# (2, d), whose field is k = a z + b grad f(x) with the coefficient
# columns a = [1, -alpha] and b = [-beta, alpha beta - gamma]. Each row
# rounds exactly as the componentwise formulas in the module docstring,
# so traces stay bit-identical to an x/z loop; keep the operation order.


def _coefficients(params: OdeParams) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([[1.0], [-params.alpha]])
    b = np.array([[-params.beta], [params.alpha * params.beta - params.gamma]])
    return a, b


def _field(w: np.ndarray, grad, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * w[1] + b * grad(w[0])


def _rk4(w: np.ndarray, dt: float, grad, a: np.ndarray, b: np.ndarray,
         k: int) -> np.ndarray:
    """Advance w by one RK4 step into sample k; raise if it goes non-finite."""
    k1 = _field(w, grad, a, b)
    k2 = _field(w + 0.5 * dt * k1, grad, a, b)
    k3 = _field(w + 0.5 * dt * k2, grad, a, b)
    k4 = _field(w + dt * k3, grad, a, b)
    w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(w).all():
        raise DivergenceError(k, f"state not finite at t = {k * dt:.6g}")
    return w


def _energy(x, z, f, xstar, fstar, params: OdeParams) -> tuple[float, float]:
    """(eps, f_gap) at the state (x, z) given its objective value f."""
    dx = x - xstar
    phi = z + params.xi * dx
    gap = float(f - fstar)
    eps = (
        0.5 * float(phi.dot(phi))
        - 0.5 * params.eta * float(dx.dot(dx))
        + params.theta * gap
    )
    return eps, gap


def flow_vector_field(
    state: OdeState, obj: SmoothObjective, params: OdeParams
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dx, dz) of the first-order reformulation."""
    k = _field(np.array((state.x, state.z), dtype=float), obj.grad,
               *_coefficients(params))
    return k[0], k[1]


def rk4_step(
    state: OdeState, dt: float, obj: SmoothObjective, params: OdeParams
) -> OdeState:
    """One classical Runge-Kutta step of size dt > 0.

    A non-finite result raises DivergenceError carrying the index of the
    sample the step produces on the fixed grid t = k dt started at 0.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    w = np.array((state.x, state.z), dtype=float)
    k = round(state.t / dt) + 1
    w = _rk4(w, dt, obj.grad, *_coefficients(params), k)
    return OdeState(t=state.t + dt, x=w[0], z=w[1])


def ode_energy(
    state: OdeState,
    obj: SmoothObjective,
    params: OdeParams,
    xstar: np.ndarray,
    fstar: float,
) -> OdeEnergy:
    eps, gap = _energy(state.x, state.z, obj.eval(state.x), xstar, fstar, params)
    return OdeEnergy(eps=eps, f_gap=gap)


def default_dt(obj: SmoothObjective, params: OdeParams) -> float:
    """Step small enough for RK4 on this problem's stiffness scale."""
    lam = math.sqrt(obj.lipschitz * (1.0 + params.alpha * params.beta))
    return 0.1 / lam


def ode_run(
    obj: SmoothObjective,
    params: OdeParams,
    x0: np.ndarray,
    horizon: float,
    dt: Optional[float] = None,
    certify: bool = True,
) -> Trace:
    """Integrate over [0, horizon] and return the sampled trace.

    Columns: t, f_gap, energy, envelope, certificate_slack. The envelope
    column is the certified gap bound prefactor * gap_0 * exp(-rate t).
    The requested dt (or the stiffness default) is shrunk to divide the
    horizon exactly. When `certify` is set and ground truth is available
    the energy decay certificates are evaluated immediately and their
    slack fills the last column (row j certifies the step into sample j;
    row 0 holds NaN); trace.certificates keeps only the failed checks.
    Otherwise energy and envelope are NaN and f_gap is measured against
    the best value seen. A step that leaves the state non-finite ends the
    run with aborted_at set to its index; a sampled objective value that
    is not finite marks the run aborted at the first such sample.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (obj.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({obj.dimension},)")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    t_start = time.perf_counter()
    if dt is None:
        dt = default_dt(obj, params)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = max(1, math.ceil(horizon / dt - 1e-12))
    dt = horizon / n

    xstar, fstar = obj.minimizer, obj.min_value
    certified = bool(certify and xstar is not None and fstar is not None)

    data = np.full((n + 1, len(ODE_COLUMNS)), np.nan)
    fvals = np.full(n + 1, np.nan)
    aborted_at: Optional[int] = None

    grad, feval = obj.grad, obj.eval
    a, b = _coefficients(params)
    w = np.zeros((2, x0.size))
    w[0] = x0
    rate = params.decay_rate

    rows = 0
    for j in range(n + 1):
        t = j * dt
        x, z = w[0], w[1]
        f = feval(x)
        fvals[j] = f
        data[j, 0] = t
        if certified:
            eps, gap = _energy(x, z, f, xstar, fstar, params)
            if j == 0:
                scale = params.prefactor * (f - fstar)
            data[j, 1] = gap
            data[j, 2] = eps
            data[j, 3] = scale * math.exp(-rate * t)
        rows = j + 1
        if j == n:
            break
        try:
            w = _rk4(w, dt, grad, a, b, j + 1)
        except DivergenceError as err:
            aborted_at = err.k
            break

    data = data[:rows]
    bad = np.flatnonzero(~np.isfinite(fvals[:rows]))
    if bad.size:
        aborted_at = int(bad[0])
    if not certified:
        best = np.nanmin(fvals[:rows])
        data[:, 1] = fvals[:rows] - best

    summary = {
        "solver": "ode",
        "regime": params.regime.value,
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "theta": params.theta,
        "omega": params.omega,
        "mu": params.mu,
        "L": obj.lipschitz,
        "decay_rate": rate,
        "prefactor": params.prefactor,
        "horizon": horizon,
        "dt": dt,
        "rows": int(rows),
        "certified": certified,
        "eps0": float(data[0, 2]) if certified else np.nan,
        "f_scale": float(abs(fvals[0]) + abs(fstar)) if certified else np.nan,
        "initial_gap": float(data[0, 1]),
        "final_gap": float(data[-1, 1]),
        "aborted_at": aborted_at,
        "certificates_checked": 0,
        "certificates_failed": 0,
    }
    trace = Trace(kind="ode", columns=ODE_COLUMNS, data=data, summary=summary)

    if certified and aborted_at is None:
        k, lhs, rhs, slack = ode_certify_arrays(data[:, 0], data[:, 2], rate, summary)
        data[1:, ODE_COLUMNS.index("certificate_slack")] = slack[:-1]
        passed = slack >= 0.0
        failed = np.flatnonzero(~passed)
        trace.certificates = certificate_results(k, lhs, rhs, slack, passed, failed)
        summary["certificates_checked"] = len(slack)
        summary["certificates_failed"] = len(failed)
        summary["min_certificate_slack"] = float(slack.min())
    summary["wall_time_s"] = time.perf_counter() - t_start
    return trace


def ode_certify_arrays(
    t: np.ndarray,
    eps: np.ndarray,
    rate: float,
    summary: dict,
    tol_glob: float = 1e-6,
    c_step: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array core of ode_certify: columns (k, lhs, rhs, slack).

    For n samples, entry j < n - 1 certifies the step into sample
    k = j + 1 and entry n - 1 is the global check (k = -1) at its worst
    sample. A check passes when its slack is nonnegative. The summary
    supplies dt, L, alpha, beta and, optionally, f_scale.
    """
    if np.any(~np.isfinite(eps)):
        raise ValueError("trace has no finite energy column; was the run certified?")
    s = summary
    dt = float(s["dt"])
    lam = math.sqrt(float(s["L"]) * (1.0 + float(s["alpha"]) * float(s["beta"])))
    tol_step = c_step * (lam * dt) ** 4
    eps0 = eps[0]

    growth = math.exp(rate * dt)
    env = eps0 * np.exp(-rate * t)
    noise = 8.0 * np.finfo(float).eps * (abs(eps0) + float(s.get("f_scale", 0.0)))
    floor = 1e-14 * env + noise
    lhs = eps[1:] * growth
    rhs = eps[:-1] * (1.0 + tol_step) + floor[:-1]

    bound = env * (1.0 + tol_glob) + 1e-18 * abs(eps0)
    slacks = bound - eps
    worst = int(np.argmin(slacks))
    return (
        np.append(np.arange(1, len(eps)), -1),
        np.append(lhs, eps[worst]),
        np.append(rhs, bound[worst]),
        np.append(rhs - lhs, slacks[worst]),
    )


def ode_certify(
    trace: Trace, rate: float, tol_glob: float = 1e-6, c_step: float = 1.0
) -> list[CertificateResult]:
    """Certify energy decay at the given exponential rate.

    Per step: the rescaled energy m(t) = eps(t) exp(rate t) must not grow,
    up to an integrator allowance c_step * (Lambda dt)^4 relative to the
    current energy, with Lambda = sqrt(L (1 + alpha beta)) the stiffness
    scale (checked in the overflow-safe stepwise form
    eps_{j+1} exp(rate dt) <= eps_j (1 + tol)). The absolute floor tracks
    the resolution of the energy measurement itself: once eps has decayed
    to a few ulps of the objective values entering it, consecutive
    samples wobble by rounding noise and the comparison carries no
    information. Globally: eps(t) <= eps(0) exp(-rate t) (1 + tol_glob)
    at every sample. The global check is appended as a final result with
    k = -1.
    """
    k, lhs, rhs, slack = ode_certify_arrays(trace.column("t"), trace.column("energy"),
                                            rate, trace.summary, tol_glob, c_step)
    return certificate_results(k, lhs, rhs, slack, slack >= 0.0, range(len(k)))
