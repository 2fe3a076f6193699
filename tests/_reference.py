"""Reference checks and wrappers that only the tests use.

None of these is on a run's path: they audit the package from outside
(central-difference gradients, the proximal descent inequality, the
flow's field and a classical RK4 step built from it, the solvers' steps
and energies on Python float scalars), adapt a smooth objective to the
composite solver for the equivalence tests, raise an exception that
pickle cannot rebuild, or cut a forked child's pickled items mid-item.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
from types import SimpleNamespace
from dataclasses import fields
from typing import Optional, Sequence

import numpy as np

from momcert import (
    AgmState,
    CompositeObjective,
    DivergenceError,
    PgmState,
    ProxTerm,
    SmoothObjective,
    grad_mapping,
)


def state_snapshot(state) -> list:
    """Each field of a solver state: its object, and its bytes if an array.

    Two snapshots compare equal exactly when no field was rebound and no
    array was written in place in between.
    """
    return [(name, id(v), v.tobytes() if isinstance(v, np.ndarray) else v)
            for name, v in ((f.name, getattr(state, f.name)) for f in fields(state))]


def agm_step_reference(state: AgmState, obj: SmoothObjective, params) -> AgmState:
    """`momcert.agm_step` written with the bundle's Python floats, in one expression per array.

    The kernels take their scalars as 0-d arrays and build temporaries in
    place; both must round exactly like this.
    """
    h = params.h
    ah = params.alpha * h
    y_next = state.x - state.hg
    x_next = (
        y_next
        + (y_next - state.y) / (1.0 + ah)
        + (params.gamma / (1.0 + ah) - 1.0) * (y_next - state.x)
    )
    sq = x_next.dot(x_next)
    if not (math.isfinite(sq) or np.isfinite(x_next).all()):
        raise DivergenceError(state.k + 1, "iterate is not finite")
    dv = x_next - (state.x + h * state.v)
    drift = math.sqrt(dv.dot(dv))
    if drift > 1e-12 * max(1.0, state.x_norm_max):
        raise RuntimeError(
            f"step {state.k + 1}: two-sequence and velocity forms disagree "
            f"by {drift:.3e}"
        )
    g_next = obj.grad(x_next)
    v_next = (
        state.v - h * (g_next - state.grad_x) - params.gamma * h * g_next
    ) / (1.0 + ah)
    return AgmState(state.k + 1, x_next, y_next, v_next, g_next, h * h * g_next,
                    float(g_next.dot(g_next)), max(state.x_norm_max, math.sqrt(sq)))


def agm_energy_reference(state: AgmState, fx: float, params, xstar: np.ndarray,
                         fstar: float) -> float:
    """`momcert.agm_energy` with the bundle's Python floats."""
    h = params.h
    dx = state.x - xstar
    phi = (1.0 + params.xi * h) * state.v + h * state.grad_x + params.xi * dx
    sigma = dx - state.hg
    psi = float(fx - fstar - 0.5 * h * h * state.grad_sq)
    return (
        0.5 * float(phi.dot(phi))
        - 0.5 * params.eta * float(sigma.dot(sigma))
        + params.theta * psi
    )


def pgm_step_reference(state: PgmState, obj: CompositeObjective, params) -> PgmState:
    """`momcert.pgm_step` with the bundle's Python floats, s = h^2 included."""
    h = params.h
    s = h * h
    y_next = state.x_curr + (state.x_curr - state.x_prev) / (1.0 + params.alpha * h)
    g = grad_mapping(obj, y_next, s)
    x_next = y_next - s * g
    if not (math.isfinite(x_next.dot(x_next)) or np.isfinite(x_next).all()):
        raise DivergenceError(state.k + 1, "iterate is not finite")
    return PgmState(state.k + 1, state.x_curr, x_next, y_next, (x_next - state.x_curr) / h, g)


def pgm_energy_reference(state: PgmState, f_curr: float, params, xstar: np.ndarray,
                         fstar: float) -> float:
    """`momcert.pgm_energy` with the bundle's Python floats."""
    dx = state.x_curr - xstar
    phi = state.v + params.xi * dx
    return (
        0.5 * float(phi.dot(phi))
        - 0.5 * params.eta * float(dx.dot(dx))
        + params.theta * (f_curr - fstar)
    )


def state_bytes(state) -> list:
    """Each field of a solver state: an array's bytes, a float's bytes, or the value."""
    return [v.tobytes() if isinstance(v, np.ndarray) else
            np.float64(v).tobytes() if isinstance(v, float) else v
            for v in (getattr(state, f.name) for f in fields(state))]


def zero_prox() -> ProxTerm:
    """The trivial prox term g = 0 (prox is the identity)."""
    return ProxTerm(eval=lambda x: 0.0, prox=lambda z, s: z)


def composite_from_smooth(obj: SmoothObjective) -> CompositeObjective:
    """Wrap a smooth objective as a composite with g = 0."""
    return CompositeObjective(
        smooth=obj,
        prox_term=zero_prox(),
        minimizer=obj.minimizer,
        min_value=obj.min_value,
        qg_constant=obj.qg_constant,
    )


def flow_field(x, z, grad, c):
    """The flow's field (z - beta g, -alpha z + (alpha beta - gamma) g) at g = grad(x).

    c = (-beta, -alpha, alpha beta - gamma), in the module docstring's
    operation order of `momcert.ode`.
    """
    nbeta, nalpha, cg = c
    g = grad(x)
    return z + nbeta * g, nalpha * z + cg * g


def classical_rk4(x, z, dt: float, grad, c):
    """One classical RK4 step of the flow, built from calls of flow_field."""
    half, sixth = 0.5 * dt, dt / 6.0
    k1x, k1z = flow_field(x, z, grad, c)
    k2x, k2z = flow_field(x + half * k1x, z + half * k1z, grad, c)
    k3x, k3z = flow_field(x + half * k2x, z + half * k2z, grad, c)
    k4x, k4z = flow_field(x + dt * k3x, z + dt * k3z, grad, c)
    return (x + sixth * (((k1x + 2.0 * k2x) + 2.0 * k3x) + k4x),
            z + sixth * (((k1z + 2.0 * k2z) + 2.0 * k3z) + k4z))


def finite_diff_gradient_check(
    obj: SmoothObjective, points: Sequence[np.ndarray], eps: float = 1e-6
) -> float:
    """Worst relative gap between grad and a central finite difference.

    Returns max over points of ||grad(x) - fd(x)|| / max(1, ||grad(x)||).
    """
    if not 1e-8 <= eps <= 1e-4:
        raise ValueError(f"eps {eps:g} outside [1e-8, 1e-4]")
    worst = 0.0
    for p in points:
        x = np.asarray(p, dtype=float)
        g = obj.grad(x)
        fd = np.empty_like(g)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = eps
            fd[i] = (obj.eval(x + e) - obj.eval(x - e)) / (2.0 * eps)
        err = np.linalg.norm(g - fd) / max(1.0, float(np.linalg.norm(g)))
        worst = max(worst, float(err))
    return worst


def prox_descent_check(
    obj: CompositeObjective,
    y: np.ndarray,
    x_ref: np.ndarray,
    s: float,
    mu: Optional[float] = None,
) -> bool:
    """Verify the descent inequality behind every proximal certificate.

    Checks, with G = G_s(y) and u = y - s G,

        F(u) <= F(x_ref) + <G, y - x_ref> - s ||G||^2 / 2
                - mu ||y - x_ref||^2 / 2

    up to 1e-10 * max(1, |F(x_ref)|). mu defaults to the strong convexity
    constant of the smooth part; pass mu = 0 for the merely convex form.
    """
    if mu is None:
        mu = obj.smooth.strong_convexity or 0.0
    g = grad_mapping(obj, y, s)
    u = y - s * g
    dy = y - x_ref
    lhs = obj.total(u)
    rhs = (
        obj.total(x_ref)
        + float(g @ dy)
        - 0.5 * s * float(g @ g)
        - 0.5 * mu * float(dy @ dy)
    )
    return bool(lhs <= rhs + 1e-10 * max(1.0, abs(obj.total(x_ref))))


class TwoArgError(Exception):
    """An exception whose __init__(code, message) differs from its args, so
    that pickle rebuilds it by calling TwoArgError(text) and fails."""

    def __init__(self, code: int, message: str):
        super().__init__(f"{message} (code {code})")


def cutting_pickle(items: int) -> SimpleNamespace:
    """A stand-in for momcert.parallel's pickle: a forked child writes its
    first `items` items whole, then half of the next one's bytes, and exits."""
    written = itertools.count()

    def dump(obj, fh):
        data = pickle.dumps(obj)
        if next(written) == items:
            fh.write(data[:len(data) // 2])
            fh.flush()
            os._exit(1)
        fh.write(data)
    return SimpleNamespace(dump=dump, load=pickle.load,
                           UnpicklingError=pickle.UnpicklingError)
