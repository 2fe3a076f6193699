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

from .certificates import (
    CertificateResult, DivergenceError, certificate_results, energy_contraction,
)
from .trace import Trace

__all__ = ["DISCRETE_COLUMNS", "certify_step", "run_discrete"]

DISCRETE_COLUMNS = (
    "k", "f_gap_x", "f_gap_y", "grad_norm", "energy",
    "certificate_slack", "theorem_bound",
)

# Gaps above this multiple of the initial gap abort a certified run.
_BLOWUP_FACTOR = 1e6
_TOL_REL = 1e-9


def certify_step(
    energy_now: float,
    energy_next: float,
    params,
    tol_rel: float = _TOL_REL,
    tol_abs: float = 1e-12,
    k: int = 0,
) -> CertificateResult:
    """Contraction certificate (1 + A h) E_{k+1} <= E_k between consecutive
    energies; run_discrete makes the same check over a whole run at once."""
    return energy_contraction(
        k, energy_now, energy_next, params.A, params.h, tol_rel, tol_abs
    )


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

    Row k's certificate_slack is certify_step's slack for the step
    k -> k+1 with tol_abs = 1e-12 (1 + |E_0|); both tolerances go into the
    summary and trace.certificates keeps only the failed checks.
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

    e = data[:, 4]
    m = n - 1 if certified else 0
    tol_abs = 1e-12 * (1.0 + abs(float(e[0])))
    rhs = e[:m]
    lhs = (1.0 + params.A * params.h) * e[1:m + 1]
    slack = rhs - lhs
    passed = slack >= -(tol_abs + _TOL_REL * np.abs(rhs))
    data[:m, 5] = slack
    failed = np.flatnonzero(~passed)

    summary = {
        "solver": kind,
        "regime": params.regime.value,
        **extra,
        "omega": params.omega,
        "alpha": params.alpha,
        "h": params.h,
        "mu": params.mu,
        "L": params.L,
        "rho_theory": params.rho,
        "bound_prefactor": params.bound_prefactor,
        "iters_requested": iters,
        "rows": int(n),
        "certified": certified,
        "certificates_checked": m,
        "certificates_failed": len(failed),
        "min_certificate_slack": min(slack.tolist(), default=np.nan),
        "certificate_tol_abs": tol_abs,
        "certificate_tol_rel": _TOL_REL,
        "initial_gap": float(data[0, 1]),
        "final_gap": float(data[-1, 1 + gap]),
        "aborted_at": aborted_at,
        "wall_time_s": time.perf_counter() - t_start,
    }
    return Trace(
        kind=kind, columns=DISCRETE_COLUMNS, data=data, summary=summary,
        certificates=certificate_results(np.arange(m), lhs, rhs, slack, passed,
                                         failed),
    )
