"""The run driver shared by all three solvers.

`agm_run`, `pgm_run` and `ode_run` each hand `run_trace` a generator over
their finished rows, plus the data that sets them apart. The solver
computes every oracle value once and carries it wherever else it is
needed, so the driver itself never calls the oracle.
"""

from __future__ import annotations

import math
import time
from array import array
from typing import Callable, Iterator, Optional

import numpy as np

from .certificates import DivergenceError, certify_trace
from .trace import Trace

__all__ = ["DISCRETE_COLUMNS"]

DISCRETE_COLUMNS = (
    "k", "f_gap_x", "f_gap_y", "grad_norm", "energy",
    "certificate_slack", "theorem_bound",
)

# Gaps above this multiple of the initial gap abort a certified discrete run.
_BLOWUP_FACTOR = 1e6

# 10**8 rows of five to seven float64 columns already take 4 to 5.6 GB.
MAX_ROWS = 10**8


class RowLimitError(ValueError):
    """A run asked for a trace of more than MAX_ROWS rows."""


def run_trace(kind: str, obj, params, certify: bool, rows: Callable[[bool], Iterator],
              n_rows: int, *, columns: tuple[str, ...], step: float, gap: int,
              best_of: tuple[tuple[int, ...], ...], blowup: float, bound_column: str,
              bound: Callable[[float, int], float], head: dict) -> Trace:
    """Run one solver for at most n_rows rows and return its certified trace.

    The run is certified when `certify` is set and obj carries x* and f*.
    rows(certified) yields the values of columns 1, 2, ... of each row:
    the raw objective values, grad_norm where the solver has one, and the
    energy (NaN when not certified). The rest is data:

    step     column 0 of row k holds k * step
    gap      the objective value at the state's own iterate, which feeds
             the blow-up rule and final_gap
    best_of  per objective value, the raw values whose best it is
             measured against when not certified (else f*)
    blowup   a certified run ends at a gap above blowup * max(1, gap_0)
    bound    bound(gap_0, k) fills bound_column of a certified run
    head     solver-specific summary entries, read once the last row is in

    A non-finite objective value ends the run at its row; a DivergenceError
    from rows ends it before row err.k. More than MAX_ROWS rows raise
    RowLimitError before the first step.
    """
    if not n_rows <= MAX_ROWS:
        raise RowLimitError(
            f"a trace of {n_rows:.6g} rows exceeds the limit of {MAX_ROWS:.0e} rows")
    t_start = time.perf_counter()
    fstar = obj.min_value
    certified = bool(certify and obj.minimizer is not None and fstar is not None)
    aborted_at: Optional[int] = None

    buf = array("d")  # the rows, flat: cheaper per step than a numpy row write
    it = rows(certified)
    n = 0
    # the run ends at its first non-finite value, so overflow warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_rows):
            try:
                row = next(it)
            except DivergenceError as err:
                aborted_at = err.k
                break
            if k == 0:
                gap0 = row[0] - fstar if certified else math.nan
                cap = blowup * max(1.0, gap0)
                width = 1 + len(row)
            buf.extend(row)
            n = k + 1
            if not all(map(math.isfinite, row[:len(best_of)])) or (
                certified and row[gap] - fstar > cap
            ):
                aborted_at = k
                break

    data = np.full((n, len(columns)), np.nan)
    data[:, 0] = np.arange(n) * step
    data[:, 1:width] = np.frombuffer(buf).reshape(n, width - 1)
    del buf
    values = data[:, 1:1 + len(best_of)]
    if certified:
        values -= fstar
        data[:, columns.index(bound_column)] = [bound(gap0, k) for k in range(n)]
    else:
        best = np.nanmin(values, axis=0).tolist()
        values -= [min(best[i] for i in cols) for cols in best_of]

    summary = {
        "solver": kind,
        "regime": params.regime.value,
        "omega": params.omega,
        "alpha": params.alpha,
        "mu": params.mu,
        **head,
        "rows": n,
        "certified": certified,
        "initial_gap": float(data[0, 1]),
        "final_gap": float(data[-1, 1 + gap]),
        "aborted_at": aborted_at,
    }
    trace = certify_trace(Trace(kind, columns, data, summary))
    summary["wall_time_s"] = time.perf_counter() - t_start
    return trace


def run_discrete(kind: str, obj, params, x0: np.ndarray, iters: int, certify: bool,
                 rows: Callable[..., Iterator[tuple]], gap: int,
                 best_of: tuple[tuple[int, ...], ...], extra: dict) -> Trace:
    """Run `iters` steps of agm or pgm through run_trace.

    rows(obj, params, x0, certified) yields (a, b, grad_norm, E), with a
    and b the objective values behind f_gap_x and f_gap_y. theorem_bound
    is prefactor * gap_0 / (1 + rho)^k. The summary records A and h, from
    which certify_trace checks each step k -> k+1 into row k's slack.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    pref, q = params.bound_prefactor, 1.0 + params.rho
    head = {
        **extra,
        "h": params.h,
        "A": params.A,
        "L": params.L,
        "rho_theory": params.rho,
        "bound_prefactor": pref,
        "iters_requested": iters,
    }
    return run_trace(
        kind, obj, params, certify,
        lambda certified: rows(obj, params, x0, certified), iters + 1,
        columns=DISCRETE_COLUMNS, step=1, gap=gap, best_of=best_of,
        blowup=_BLOWUP_FACTOR, bound_column="theorem_bound",
        bound=lambda gap0, k: pref * gap0 / q ** k,
        head=head,
    )
