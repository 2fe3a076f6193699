"""The run driver shared by the two discrete solvers.

`agm_run` and `pgm_run` hand `run_discrete` a generator over their rows
and an energy function. Each row is (state, a, b, grad_norm), with a and b
the objective values behind the f_gap_x and f_gap_y columns; the solver
computes every oracle value once and carries it wherever else it is
needed, so the driver itself never calls the oracle.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterator, Optional

import numpy as np

from .certificates import DivergenceError, certify_trace
from .trace import Trace

__all__ = ["DISCRETE_COLUMNS", "run_discrete"]

DISCRETE_COLUMNS = (
    "k", "f_gap_x", "f_gap_y", "grad_norm", "energy",
    "certificate_slack", "theorem_bound",
)

# Gaps above this multiple of the initial gap abort a certified run.
_BLOWUP_FACTOR = 1e6


def run_discrete(
    kind: str,
    obj,
    params,
    x0: np.ndarray,
    iters: int,
    certify: bool,
    rows: Callable[..., Iterator[tuple]],
    energy: Callable[..., object],
    gap: int,
    best_of: tuple[tuple[int, ...], tuple[int, ...]],
    extra: dict,
) -> Trace:
    """Run `iters` steps of one discrete solver and return its trace.

    rows(obj, params, x0) generates the rows; energy(state, f, params,
    xstar, fstar).E is the energy of a state whose objective value is f.
    The solvers' differences are data:

    gap      which of (a, b) is the value at the state's own iterate: it
             feeds the energy, the blow-up rule and final_gap
    best_of  without ground truth, column j of (f_gap_x, f_gap_y) is
             measured against the best value seen among the raw values
             listed in best_of[j]
    extra    solver-specific summary entries

    A row with a non-finite objective value ends the run at that row, as
    does, on a certified run, a gap above 1e6 max(1, gap_0).

    The summary records A and h, and certify_trace then checks the
    energy column: row k's certificate_slack is the slack of the step
    k -> k+1, and trace.certificates keeps only the failed checks.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    t_start = time.perf_counter()
    xstar, fstar = obj.minimizer, obj.min_value
    certified = bool(certify and xstar is not None and fstar is not None)

    data = np.full((iters + 1, len(DISCRETE_COLUMNS)), np.nan)
    aborted_at: Optional[int] = None

    it = rows(obj, params, np.asarray(x0, dtype=float))
    n = 0
    for k in range(iters + 1):
        try:
            state, a, b, gnorm = next(it)
        except DivergenceError as err:
            aborted_at = err.k
            break
        f = (a, b)[gap]
        if k == 0:
            gap0 = a - fstar if certified else np.nan
        data[k, 1:4] = a, b, gnorm
        if certified:
            data[k, 4] = energy(state, f, params, xstar, fstar).E
        n = k + 1
        if not (math.isfinite(a) and math.isfinite(b)) or (
            certified and f - fstar > _BLOWUP_FACTOR * max(1.0, gap0)
        ):
            aborted_at = k
            break

    data = data[:n]
    data[:, 0] = np.arange(n)
    if certified:
        data[:, 1:3] -= fstar
        data[:, 6] = [params.bound_prefactor * gap0 / (1.0 + params.rho) ** k
                      for k in range(n)]
    else:
        best = np.nanmin(data[:, 1:3], axis=0).tolist()
        data[:, 1:3] -= [min(best[i] for i in cols) for cols in best_of]

    summary = {
        "solver": kind,
        "regime": params.regime.value,
        **extra,
        "omega": params.omega,
        "alpha": params.alpha,
        "h": params.h,
        "A": params.A,
        "mu": params.mu,
        "L": params.L,
        "rho_theory": params.rho,
        "bound_prefactor": params.bound_prefactor,
        "iters_requested": iters,
        "rows": int(n),
        "certified": certified,
        "initial_gap": float(data[0, 1]),
        "final_gap": float(data[-1, 1 + gap]),
        "aborted_at": aborted_at,
    }
    trace = certify_trace(Trace(kind=kind, columns=DISCRETE_COLUMNS, data=data,
                                summary=summary))
    summary["wall_time_s"] = time.perf_counter() - t_start
    return trace
