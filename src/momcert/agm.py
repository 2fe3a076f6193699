"""Momentum method with a gradient-difference correction term.

One iteration advances the recursion

    (v_k - v_{k-1}) + alpha h v_k
        + h (grad f(x_k) - grad f(x_{k-1})) + gamma h grad f(x_k) = 0,

with v_k = (x_{k+1} - x_k) / h and step h = 1 / sqrt(L). In two-sequence
form this is

    y_{k+1} = x_k - h^2 grad f(x_k)
    x_{k+1} = y_{k+1} + (y_{k+1} - y_k) / (1 + alpha h)
                      + (gamma / (1 + alpha h) - 1) (y_{k+1} - x_k),

which is what `agm_step` executes; the velocity is carried along through
its own recursion and the two forms are cross-checked against each other
every step. Only gradients already evaluated at the x iterates are used;
there is no lookahead gradient anywhere.

The per-iterate energy

    E_k = ||phi_k||^2 / 2 - eta ||sigma_k||^2 / 2 + theta psi_k,
    phi_k   = (1 + xi h) v_k + h grad f(x_k) + xi (x_k - x*),
    sigma_k = x_k - x* - h^2 grad f(x_k),
    psi_k   = f(x_k) - f* - h^2 ||grad f(x_k)||^2 / 2,

contracts like (1 + A h) E_{k+1} <= E_k for admissible parameter bundles,
and that inequality is what the runtime certificates check.

`agm_init`, `agm_step` and `agm_energy(state, f(x_k), params, x*, f*)` are
the per-step API, and `agm_run` drives these same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import DivergenceError
from .driver import run_discrete
from .oracle import SmoothObjective
from .params import AgmParams
from .trace import Trace

__all__ = [
    "AgmState",
    "agm_init",
    "agm_step",
    "agm_energy",
    "agm_run",
    "nesterov_reference_step",
]


@dataclass(frozen=True)
class AgmState:
    """Iterate k of the recursion: x_k, y_k, v_k and the cached gradient.

    x_norm_max is the largest ||x_j|| over j <= k, the scale of the rounding
    that the check between the two recursion forms allows in step k -> k+1.
    hg = h^2 grad f(x_k) and grad_sq = ||grad f(x_k)||^2 serve the row, the
    energy and the step; a state built by hand, or given a new grad_x,
    must carry them for its grad_x.
    """

    k: int
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    grad_x: np.ndarray
    hg: np.ndarray
    grad_sq: float
    x_norm_max: float = 0.0


def agm_init(obj: SmoothObjective, params: AgmParams, x0: np.ndarray) -> AgmState:
    """State at k = 0 with the bundle's initial velocity.

    v0 = -v0_coeff * h * grad f(x0). The companion sequence value y_0 is
    reconstructed by running the x-update backwards through
    y_0 = y_1 + (1 + alpha h)(y_1 - x_1) + (gamma - (1 + alpha h))(y_1 - x_0)
    so that the first forward step already satisfies both recursion forms.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (obj.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({obj.dimension},)")
    h = params.h
    g0 = obj.grad(x0)
    v0 = -params.v0_coeff * h * g0
    x1 = x0 + h * v0
    hg = h * h * g0
    y1 = x0 - hg
    ah = params.alpha * h
    y0 = y1 + (1.0 + ah) * (y1 - x1) + (params.gamma - (1.0 + ah)) * (y1 - x0)
    return AgmState(k=0, x=x0, y=y0, v=v0, grad_x=g0, hg=hg, grad_sq=float(g0.dot(g0)),
                    x_norm_max=math.sqrt(x0.dot(x0)))


def agm_step(state: AgmState, obj: SmoothObjective, params: AgmParams) -> AgmState:
    h = params.h
    ah = params.alpha * h
    y_next = state.x - state.hg
    x_next = (
        y_next
        + (y_next - state.y) / (1.0 + ah)
        + (params.gamma / (1.0 + ah) - 1.0) * (y_next - state.x)
    )
    # ||x||^2 is finite unless an entry is, or the squares of finite ones overflow
    sq = x_next.dot(x_next)
    if not (math.isfinite(sq) or np.isfinite(x_next).all()):
        raise DivergenceError(state.k + 1, "iterate is not finite")
    # The velocity recursion must reproduce the same point. Both forms carry
    # the rounding of every iterate so far, so the largest one sets the scale.
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
    # positional: a frozen dataclass pays per keyword on this per-step path
    return AgmState(state.k + 1, x_next, y_next, v_next, g_next, h * h * g_next,
                    float(g_next.dot(g_next)), max(state.x_norm_max, math.sqrt(sq)))


def agm_energy(state: AgmState, fx: float, params: AgmParams, xstar: np.ndarray,
               fstar: float) -> float:
    """Energy E_k of the state, given fx = f(x_k) and the true minimizer and value.

    Uses the expanded anchor form of phi, so everything is computable from
    (x_k, v_k, grad f(x_k)) without evaluating any extra gradient.
    """
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


def _rows(obj: SmoothObjective, params: AgmParams, x0: np.ndarray, certified: bool):
    """Rows (f(x_k), f(y_{k+1}), ||grad f(x_k)||, E_k) for run_discrete.

    Per step: the gradient agm_step takes at x_{k+1}, and f at x_{k+1} and
    at the lookahead point y_{k+2}; f(x_k) also serves the energy.
    """
    xstar, fstar = obj.minimizer, obj.min_value
    state = agm_init(obj, params, x0)
    while True:
        fx = obj.eval(state.x)
        yield (fx, obj.eval(state.x - state.hg), math.sqrt(state.grad_sq),
               agm_energy(state, fx, params, xstar, fstar) if certified else math.nan)
        state = agm_step(state, obj, params)


def agm_run(
    obj: SmoothObjective,
    params: AgmParams,
    x0: np.ndarray,
    iters: int,
    certify: bool = True,
) -> Trace:
    """Run the method for `iters` steps and return the full trace.

    Columns: k, f_gap_x, f_gap_y, grad_norm, energy, certificate_slack,
    theorem_bound. Row k's slack certifies the transition k -> k+1 (the
    final row has none). f_gap_y is the gap at the lookahead point
    y_{k+1} = x_k - h^2 grad f(x_k), which is the quantity the certified
    bound controls; theorem_bound is prefactor * gap_0 / (1 + rho)^k.
    The blow-up rule and final_gap use f_gap_x.

    Certification needs the objective's minimizer and optimal value. When
    they are absent the run still executes: energies and bounds are NaN,
    f_gap_x is measured against the best f(x_k) seen, f_gap_y against the
    best of both columns, and the summary is flagged uncertified.
    """
    return run_discrete("agm", obj, params, x0, iters, certify, _rows, gap=0,
                        best_of=((0,), (0, 1)), extra={"gamma": params.gamma})


def nesterov_reference_step(
    y_prev: np.ndarray,
    y_curr: np.ndarray,
    tau: float,
    h: float,
    obj: SmoothObjective,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the classical two-sequence accelerated scheme.

    x = y_k + tau (y_k - y_{k-1}); y_{k+1} = x - h^2 grad f(x). Written
    independently of `agm_step` on purpose: the equivalence of the two
    under gamma = 1 + alpha h is something the tests verify, not assume.
    """
    x = y_curr + tau * (y_curr - y_prev)
    y_next = x - h * h * obj.grad(x)
    return x, y_next
