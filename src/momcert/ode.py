"""Damped second-order flow with a gradient-difference damping term.

The flow is x'' + alpha x' + beta d/dt[grad f(x)] + gamma grad f(x) = 0.
Substituting z = x' + beta grad f(x) gives the first-order system actually
integrated here,

    x' = z - beta grad f(x)
    z' = -alpha z + (alpha beta - gamma) grad f(x),

which never evaluates a Hessian. Initial conditions are x(0) = x0 and
z(0) = 0, i.e. the velocity starts at -beta grad f(x0).

RK4 evaluates k_x = z + (-beta) g, k_z = (-alpha) z + (alpha beta - gamma) g
at g = grad f(x), stages w + (dt/2) k and w + dt k, and the step
w + (dt/6) (((k1 + 2 k2) + 2 k3) + k4) for w = x, z, in one straight-line
kernel for both state types: a pair of 1-d arrays, or of Python floats when
the objective declares `takes_floats`. A non-finite x or z raises DivergenceError.

The certified energy is

    eps = ||z + xi (x - x*)||^2 / 2 - eta ||x - x*||^2 / 2 + theta (f - f*),

which decays like eps(t) <= eps(0) exp(-decay_rate t) for admissible
bundles. Integration is classical fixed-step RK4; certificates allow for
its O(dt^4) error through a stiffness-scaled per-step tolerance.
`rk4_step(x, z, dt, grad, c, k)` and `ode_energy(x, z, f(x), params, x*, f*)`
are the per-step API, and `ode_run`'s samples call these same functions.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from .certificates import DivergenceError, _stiffness
from .driver import run_trace
from .oracle import SmoothObjective
from .params import OdeParams
from .trace import Trace

__all__ = [
    "rk4_step",
    "ode_energy",
    "ode_run",
    "default_dt",
    "ODE_COLUMNS",
]

ODE_COLUMNS = ("t", "f_gap", "energy", "envelope", "certificate_slack")


# One kernel for both state types, so that there is one operation order:
# written with plain * and + in the module docstring's order, the same
# lines round identically on Python floats and on arrays, and a run on
# floats (NumPy's per-call overhead on one-element arrays would cost
# several times the arithmetic) is bit-identical to the array loop. It
# writes the field out per stage: a call took 0.05 us of a 1.7 us float step.
# On arrays, the coefficients come as 0-d arrays (see agm.py).


def _coefficients(params: OdeParams) -> tuple[float, float, float]:
    return -params.beta, -params.alpha, params.alpha * params.beta - params.gamma


def _all_finite(v) -> bool:
    # ||v||^2 is finite unless an entry is, or the squares of finite ones overflow
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def rk4_step(x, z, dt: float, grad, c, k: int):
    """Advance (x, z) by one RK4 step of size dt into sample k.

    grad is the objective's gradient on the state's type and c the
    bundle's field coefficients (-beta, -alpha, alpha beta - gamma). A
    non-finite result raises DivergenceError carrying k, the index of the
    sample the step produces on the grid t = k dt.
    """
    nbeta, nalpha, cg = c
    half, sixth = 0.5 * dt, dt / 6.0
    g = grad(x)
    k1x, k1z = z + nbeta * g, nalpha * z + cg * g
    xs, zs = x + half * k1x, z + half * k1z
    g = grad(xs)
    k2x, k2z = zs + nbeta * g, nalpha * zs + cg * g
    xs, zs = x + half * k2x, z + half * k2z
    g = grad(xs)
    k3x, k3z = zs + nbeta * g, nalpha * zs + cg * g
    xs, zs = x + dt * k3x, z + dt * k3z
    g = grad(xs)
    k4x, k4z = zs + nbeta * g, nalpha * zs + cg * g
    x = x + sixth * (((k1x + 2.0 * k2x) + 2.0 * k3x) + k4x)
    z = z + sixth * (((k1z + 2.0 * k2z) + 2.0 * k3z) + k4z)
    finite = math.isfinite if type(x) is float else _all_finite
    # x + z is finite unless x or z is, or the sum of two finite ones overflows
    if not (finite(x + z) or (finite(x) and finite(z))):
        raise DivergenceError(k, f"state not finite at t = {k * dt:.6g}")
    return x, z


def ode_energy(x, z, f, params: OdeParams, xstar, fstar: float) -> float:
    """eps at the state (x, z), given f = f(x) and the true minimizer and value.

    x, z and xstar are Python floats or 1-d arrays.
    """
    dx = x - xstar
    phi = z + params.xi * dx
    if isinstance(dx, float):
        pp, dd = phi * phi, dx * dx
    else:
        pp, dd = float(phi.dot(phi)), float(dx.dot(dx))
    return 0.5 * pp - 0.5 * params.eta * dd + params.theta * float(f - fstar)


def default_dt(obj: SmoothObjective, params: OdeParams) -> float:
    """Step small enough for RK4 on this problem's stiffness scale."""
    return 0.1 / _stiffness(obj.lipschitz, params.alpha, params.beta)


def _samples(obj: SmoothObjective, params: OdeParams, x0: np.ndarray, dt: float,
             certified: bool, summary: dict):
    """Rows (f, eps) at t = k dt, k = 0, 1, ..., for run_trace.

    One f evaluation per sample, which also serves eps. The first sample
    records eps0 and f_scale = |f_0| + |f*| (the scale of the certificates'
    noise floor) in `summary`; a step that leaves the state non-finite
    raises DivergenceError with the index of the sample it was to produce.
    """
    xstar, fstar, grad, feval = obj.minimizer, obj.min_value, obj.grad, obj.eval
    c = _coefficients(params)
    if obj.takes_floats:
        x, z = float(x0[0]), 0.0
        if certified:
            xstar = float(xstar[0])
    else:
        x, z, c = x0, np.zeros(x0.size), tuple(map(np.array, c))
    f = feval(x)
    summary["eps0"] = eps = ode_energy(x, z, f, params, xstar, fstar) if certified else math.nan
    summary["f_scale"] = float(abs(f) + abs(fstar)) if certified else math.nan
    yield f, eps
    for k in itertools.count(1):
        x, z = rk4_step(x, z, dt, grad, c, k)
        f = feval(x)
        yield f, ode_energy(x, z, f, params, xstar, fstar) if certified else math.nan


def ode_run(
    obj: SmoothObjective,
    params: OdeParams,
    x0: np.ndarray,
    horizon: float,
    dt: Optional[float] = None,
    certify: bool = True,
) -> Trace:
    """Integrate over [0, horizon] and return the sampled trace.

    Columns: t, f_gap, energy, envelope, certificate_slack; the envelope
    is the certified gap bound prefactor * gap_0 * exp(-rate t). The
    requested dt (or the stiffness default) is shrunk to divide the
    horizon exactly; more than MAX_ROWS samples raise RowLimitError. Row
    j's slack certifies the step into sample j (row 0 holds NaN); when
    not certified, energy and envelope are NaN and f_gap is measured
    against the best value seen. The run ends at the first sampled
    objective value that is not finite (kept as the last row) or at a
    step that leaves the state non-finite, with aborted_at set to the
    sample's index; an aborted run is not certified. A horizon or dt that
    is not positive, NaN included, raises ValueError.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (obj.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({obj.dimension},)")
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if dt is None:
        dt = default_dt(obj, params)
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = horizon / dt
    # an unbounded step count is left for the row limit to refuse
    n = max(1, math.ceil(steps - 1e-12)) if math.isfinite(steps) else steps
    dt = horizon / n
    rate, pref, exp = params.decay_rate, params.prefactor, math.exp
    own = {
        "beta": params.beta,
        "gamma": params.gamma,
        "theta": params.theta,
        "L": obj.lipschitz,
        "decay_rate": rate,
        "prefactor": pref,
        "horizon": horizon,
        "dt": dt,
    }
    return run_trace(
        "ode", obj, params, certify,
        lambda certified: _samples(obj, params, x0, dt, certified, own), n + 1,
        columns=ODE_COLUMNS, step=dt, gap=0, best_of=((0,),), blowup=math.inf,
        bound_column="envelope",
        bound=lambda gap0, n: (pref * gap0 * exp(-rate * (k * dt)) for k in range(n)),
        head=own,
    )
