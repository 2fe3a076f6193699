"""Reference checks and wrappers that only the tests use.

None of these is on a run's path: they audit the package from outside
(central-difference gradients, the proximal descent inequality) or adapt
a smooth objective to the composite solver for the equivalence tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from momcert import CompositeObjective, ProxTerm, SmoothObjective, grad_mapping


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
