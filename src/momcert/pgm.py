"""Proximal variant of the momentum method for composite objectives.

Minimizes F = f + g with f smooth and g accessed through its prox. With
s = h^2 and the gradient mapping G_s(y) = (y - prox_{s g}(y - s grad f(y))) / s,
one iteration reads

    y_k     = x_k + (x_k - x_{k-1}) / (1 + alpha h)
    x_{k+1} = y_k - s G_s(y_k),

started from x_1 = x_0 (zero initial velocity). In velocity form this is
v_k - v_{k-1} = -alpha h v_k - (1 + alpha h) h G_s(y_k), and the energy

    E_k = ||v_k + xi (x_{k+1} - x*)||^2 / 2
          - eta ||x_{k+1} - x*||^2 / 2 + theta (F(x_{k+1}) - F*)

contracts like (1 + A h) E_{k+1} <= E_k. The gap bound runs at rho, which
for omega > 0 is slightly below A h; certificates use A, bounds use rho.

`pgm_init`, `pgm_step` and `pgm_energy(state, F(x_{k+1}), params, x*, F*)`
are the per-step API, and `pgm_run` drives these same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import DivergenceError
from .driver import run_discrete
from .oracle import CompositeObjective, grad_mapping
from .params import PgmParams
from .trace import Trace

__all__ = [
    "PgmState",
    "pgm_init",
    "pgm_step",
    "pgm_energy",
    "pgm_run",
]


@dataclass(frozen=True)
class PgmState:
    """Index k holds x_k (x_prev), x_{k+1} (x_curr), y_k, v_k and g = G_s(y_k).

    v is defined as (x_curr - x_prev) / h rather than carried through a
    separate recursion, so the two can never drift apart.
    """

    k: int
    x_prev: np.ndarray
    x_curr: np.ndarray
    y: np.ndarray
    v: np.ndarray
    g: np.ndarray


def pgm_init(obj: CompositeObjective, params: PgmParams, x0: np.ndarray) -> PgmState:
    """State at k = 0: zero velocity, x_1 = x_0, y_0 taken as x_0, g = G_s(x_0)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (obj.smooth.dimension,):
        raise ValueError(
            f"x0 has shape {x0.shape}, expected ({obj.smooth.dimension},)"
        )
    return PgmState(
        k=0, x_prev=x0.copy(), x_curr=x0.copy(), y=x0.copy(),
        v=np.zeros_like(x0), g=grad_mapping(obj, x0, params.h * params.h),
    )


def pgm_step(state: PgmState, obj: CompositeObjective, params: PgmParams) -> PgmState:
    """Step k -> k+1; the new state keeps the G_s(y_{k+1}) it took as g."""
    h = params.h
    s = h * h
    y_next = state.x_curr + (state.x_curr - state.x_prev) / (1.0 + params.alpha * h)
    g = grad_mapping(obj, y_next, s)
    x_next = y_next - s * g
    # ||x||^2 is finite unless an entry is, or the squares of finite ones overflow
    if not (math.isfinite(x_next.dot(x_next)) or np.isfinite(x_next).all()):
        raise DivergenceError(state.k + 1, "iterate is not finite")
    return PgmState(
        k=state.k + 1,
        x_prev=state.x_curr,
        x_curr=x_next,
        y=y_next,
        v=(x_next - state.x_curr) / h,
        g=g,
    )


def pgm_energy(state: PgmState, f_curr: float, params: PgmParams, xstar: np.ndarray,
               fstar: float) -> float:
    """Energy E_k of the state, given f_curr = F(x_{k+1}) and the true F*."""
    dx = state.x_curr - xstar
    phi = state.v + params.xi * dx
    return (
        0.5 * float(phi.dot(phi))
        - 0.5 * params.eta * float(dx.dot(dx))
        + params.theta * (f_curr - fstar)
    )


def _rows(obj: CompositeObjective, params: PgmParams, x0: np.ndarray,
          certified: bool):
    """Rows (F(x_k), F(x_{k+1}), ||G_s(y_k)||, E_k) for run_discrete.

    Per step: one gradient mapping (one grad, one prox) in pgm_step, and
    one F at the new iterate, which serves the energy, then f_gap_y, then
    the next row's f_gap_x.
    """
    xstar, fstar = obj.minimizer, obj.min_value
    state = pgm_init(obj, params, x0)
    f_prev = f_curr = obj.total(state.x_curr)
    while True:
        yield (f_prev, f_curr, math.sqrt(state.g.dot(state.g)),
               pgm_energy(state, f_curr, params, xstar, fstar) if certified else math.nan)
        state = pgm_step(state, obj, params)
        f_prev, f_curr = f_curr, obj.total(state.x_curr)


def pgm_run(
    obj: CompositeObjective,
    params: PgmParams,
    x0: np.ndarray,
    iters: int,
    certify: bool = True,
) -> Trace:
    """Run for `iters` steps; same trace layout as the smooth solver.

    Here f_gap_x tracks F(x_k) - F*, f_gap_y tracks F(x_{k+1}) - F*, and
    grad_norm holds ||G_s(y_k)||. The certified bound
    F(x_{k+1}) - F* <= prefactor * gap_0 / (1 + rho)^k
    applies from k = 1 on; row 0 carries the k = 0 evaluation of the same
    expression, which holds trivially since x_1 = x_0. The blow-up rule
    and final_gap use f_gap_y; without ground truth both gap columns are
    measured against the best F seen.
    """
    return run_discrete("pgm", obj, params, x0, iters, certify, _rows, gap=1,
                        best_of=((0, 1), (0, 1)), extra={})
