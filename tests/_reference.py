"""Reference checks and wrappers that only the tests use.

None of these is on a run's path: they audit the package from outside
(central-difference gradients, the proximal descent inequality, the
flow's field and a classical RK4 step built from it) or adapt a smooth
objective to the composite solver for the equivalence tests.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional, Sequence

import numpy as np

from momcert import CompositeObjective, ProxTerm, SmoothObjective, grad_mapping


def state_snapshot(state) -> list:
    """Each field of a solver state: its object, and its bytes if an array.

    Two snapshots compare equal exactly when no field was rebound and no
    array was written in place in between.
    """
    return [(name, id(v), v.tobytes() if isinstance(v, np.ndarray) else v)
            for name, v in ((f.name, getattr(state, f.name)) for f in fields(state))]


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
