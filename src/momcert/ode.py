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

from .certificates import DivergenceError, certify_trace
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


def _energy(x, z, f, xstar, fstar, params: OdeParams) -> float:
    """eps at the state (x, z) given its objective value f."""
    dx = x - xstar
    phi = z + params.xi * dx
    return (
        0.5 * float(phi.dot(phi))
        - 0.5 * params.eta * float(dx.dot(dx))
        + params.theta * float(f - fstar)
    )


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
    f = obj.eval(state.x)
    return OdeEnergy(eps=_energy(state.x, state.z, f, xstar, fstar, params),
                     f_gap=float(f - fstar))


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
    certify_trace checks the energy decay; row j's slack certifies the
    step into sample j (row 0 holds NaN) and trace.certificates keeps only
    the failed checks. Otherwise energy and envelope are NaN and f_gap is
    measured against the best value seen. The run ends, with aborted_at
    set to the sample's index, at the first sampled objective value that
    is not finite (kept as the last row) or at a step that leaves the
    state non-finite; an aborted run is not certified.
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
    aborted_at: Optional[int] = None

    grad, feval = obj.grad, obj.eval
    a, b = _coefficients(params)
    w = np.zeros((2, x0.size))
    w[0] = x0
    rate = params.decay_rate

    for j in range(n + 1):
        t = j * dt
        f = feval(w[0])
        data[j, 0], data[j, 1] = t, f
        if certified:
            if j == 0:
                scale = params.prefactor * (f - fstar)
            data[j, 2] = _energy(w[0], w[1], f, xstar, fstar, params)
            data[j, 3] = scale * math.exp(-rate * t)
        rows = j + 1
        if not math.isfinite(f):
            aborted_at = j
            break
        if j == n:
            break
        try:
            w = _rk4(w, dt, grad, a, b, j + 1)
        except DivergenceError as err:
            aborted_at = err.k
            break

    data = data[:rows]
    f0 = float(data[0, 1])
    data[:, 1] -= (fstar if certified else np.nanmin(data[:, 1]))

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
        "f_scale": float(abs(f0) + abs(fstar)) if certified else np.nan,
        "initial_gap": float(data[0, 1]),
        "final_gap": float(data[-1, 1]),
        "aborted_at": aborted_at,
    }
    trace = certify_trace(Trace(kind="ode", columns=ODE_COLUMNS, data=data,
                                summary=summary))
    summary["wall_time_s"] = time.perf_counter() - t_start
    return trace
