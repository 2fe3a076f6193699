"""The run driver shared by all three solvers.

`agm_run`, `pgm_run` and `ode_run` each hand `run_trace` a generator over
their recursion's states, a function from those to finished rows, and the
data that sets them apart. The solver computes every oracle value once and
carries it wherever else it is needed, so the driver never calls the oracle.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from collections import namedtuple
from contextlib import closing
from operator import attrgetter
from typing import Callable, Iterator, Optional

import numpy as np

from .certificates import DivergenceError, certify_trace
from .parallel import forked, spare_cores
from .trace import Trace

__all__ = ["DISCRETE_COLUMNS"]

DISCRETE_COLUMNS = (
    "k", "f_gap_x", "f_gap_y", "grad_norm", "energy",
    "certificate_slack", "theorem_bound",
)

# Gaps above this multiple of the initial gap abort a certified discrete run.
_BLOWUP_FACTOR = 1e6

# 10**8 rows of five to seven float64 columns already take 4 to 5.6 GB, and a
# run peaks below twice that (tracemalloc, 20,001 rows): a certified pl_sine
# flow at 75.9 B/row for 40 B/row of data, a certified agm run at 89.2 for 56,
# its row buffer and its table, but no time column, alive during assembly.
MAX_ROWS = 10**8

# A run forks its recursion from this many rows on, a flow on floats from 7x as
# many. On 2 cores the fork costs ~1.8 ms; forking saves 2.4-5.3 us a row on
# arrays, repaid from ~1,000 rows, and 0.23 us on floats, from ~10,000.
PIPELINE_MIN_ROWS = 1_500


class RowLimitError(ValueError):
    """A run asked for a trace of more than MAX_ROWS rows."""


def run_trace(kind: str, obj, params, certify: bool, states: Iterator,
              rows: Callable[[Iterator, bool], Iterator], n_rows: int, *,
              fields: Optional[tuple[str, ...]], columns: tuple[str, ...], step: float,
              gap: int, best_of: tuple[tuple[int, ...], ...], blowup: float,
              bound_column: str, bound: Callable[[float, int], float], head: dict) -> Trace:
    """Run one solver for at most n_rows rows and return its certified trace.

    The run is certified when `certify` is set and obj carries x* and f*.
    rows(states, certified) yields, from the recursion's states, the values
    of columns 1, 2, ... of each row: the raw objective values, grad_norm
    where the solver has one, and the energy (NaN when not certified). The
    rest is data:

    fields   the state attributes rows reads, arrays first (None: each
             state is a tuple of them); a long run with a spare core
             computes states 1.. in a forked child, which sends only these
    step     column 0 of row k holds k * step
    gap      the objective value at the state's own iterate, which feeds
             the blow-up rule and final_gap
    best_of  per objective value (at most two), the raw values whose
             best it is measured against when not certified (else f*)
    blowup   a certified run ends at a gap above blowup * max(1, gap_0)
    bound    bound(gap_0, n), an iterator over n floats, fills bound_column
             of a certified run
    head     solver-specific summary entries, read once the last row is in

    A non-finite objective value ends the run at its row, a DivergenceError
    from rows before row err.k; more than MAX_ROWS rows raise RowLimitError
    before the first step; a forked recursion changes none of it, and raises here.
    """
    if not n_rows <= MAX_ROWS:
        raise RowLimitError(
            f"a trace of {n_rows:.6g} rows exceeds the limit of {MAX_ROWS:.0e} rows")
    t_start = time.perf_counter()
    fstar = obj.min_value
    certified = bool(certify and obj.minimizer is not None and fstar is not None)
    aborted_at: Optional[int] = None

    if n_rows >= PIPELINE_MIN_ROWS and spare_cores() > 0:
        states = _streamed(states, n_rows, fields)
    last, isfinite = len(best_of) - 1, math.isfinite
    # closed so that no held traceback keeps a forked recursion alive; the run
    # ends at its first non-finite value, so overflow warnings add nothing
    with closing(states), closing(rows(states, certified)) as it, \
            np.errstate(over="ignore", invalid="ignore"):
        row = next(it)
        gap0 = row[0] - fstar if certified else math.nan
        cap = blowup * max(1.0, gap0)
        width = 1 + len(row)
        buf = array("d")  # the rows, flat: cheaper per step than a numpy row write
        try:
            for row in itertools.chain((row,), itertools.islice(it, n_rows - 1)):
                buf.extend(row)
                if not (isfinite(row[0]) and isfinite(row[last])) or (
                    certified and row[gap] - fstar > cap
                ):
                    aborted_at = len(buf) // (width - 1) - 1
                    break
        except DivergenceError as err:
            aborted_at = err.k
    n = len(buf) // (width - 1)

    data = np.full((n, len(columns)), np.nan)
    data[:, 1:width] = np.frombuffer(buf).reshape(n, width - 1)
    del buf
    data[:, 0] = np.arange(n)  # k is exact, so k * step rounds as before
    data[:, 0] *= step
    values = data[:, 1:1 + len(best_of)]
    if certified:
        values -= fstar
        data[:, columns.index(bound_column)] = np.fromiter(bound(gap0, n), float, n)
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


def _streamed(states: Iterator, n: int, fields: Optional[tuple[str, ...]]) -> Iterator:
    """The first n states, as named tuples of `fields` or as tuples; 1.. come
    from a forked child that sends only data, in blocks that forked pickles.
    Where it stops short, this process's own recursion, held at state 0, steps
    past the states sent and goes on, so an exception is raised here as in a
    serial run."""
    first = next(states)
    pack = attrgetter(*fields) if fields else tuple
    values = pack(first)
    nv = sum(isinstance(v, np.ndarray) for v in values)
    # blocks of at most 256 states and about 32 KiB: the parent holds a whole one
    per_block = max(1, min(256, 4096 // sum(np.size(v) for v in values)))
    if not nv and n < 7 * PIPELINE_MIN_ROWS:
        yield first
        yield from states
        return

    def send(_):  # in the child; blocks grow from 1 state, for an early first row
        arrays, floats, size = [], [], 1
        for j, state in enumerate(itertools.islice(states, n - 1), 1):
            values = pack(state)
            arrays += values[:nv]
            floats.append(values[nv:])
            if len(floats) == size or j == n - 1:
                yield arrays and np.concatenate(arrays), floats
                arrays, floats, size = [], [], min(2 * size, per_block)

    shipped, sent = namedtuple("State", fields) if fields else None, 1
    with forked(2, send) as (blocks,):
        yield first
        for arrays, recs in blocks:
            if nv:
                recs = [(*a, *f) for a, f in zip(arrays.reshape(len(recs), nv, -1), recs)]
            yield from recs if shipped is None else itertools.starmap(shipped, recs)
            sent += len(recs)
        yield from itertools.islice(states, sent - 1, None)  # past where the child stopped


def _recursion(init, step, obj, params, x0: np.ndarray) -> Iterator:
    state = init(obj, params, x0)
    while True:
        yield state
        state = step(state, obj, params)


def _theorem_bound(b: float, q: float, n: int) -> Iterator[float]:
    """b / q^k for k < n, from the first overflowing q^k on b * q^-k (underflows to 0)."""
    try:
        for k in range(n):
            yield b / q ** k
    except OverflowError:
        yield from (b * q ** -j for j in range(k, n))


def run_discrete(kind: str, obj, params, x0: np.ndarray, iters: int, certify: bool,
                 init: Callable, step: Callable, rows: Callable[..., Iterator[tuple]],
                 fields: tuple[str, ...], gap: int,
                 best_of: tuple[tuple[int, ...], ...], extra: dict) -> Trace:
    """Run `iters` steps of agm or pgm through run_trace.

    The recursion is init(obj, params, x0), then step(state, obj, params);
    rows(obj, params, states, certified) yields (a, b, grad_norm, E), with a
    and b the objective values behind f_gap_x and f_gap_y. theorem_bound
    is prefactor * gap_0 / (1 + rho)^k (see _theorem_bound past the float
    range). The summary records A and h, from which certify_trace checks
    each step k -> k+1 into row k's slack.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    pref, q = params.prefactor, 1.0 + params.rho
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
        kind, obj, params, certify, _recursion(init, step, obj, params, x0),
        lambda states, certified: rows(obj, params, states, certified), iters + 1,
        fields=fields, columns=DISCRETE_COLUMNS, step=1, gap=gap, best_of=best_of,
        blowup=_BLOWUP_FACTOR, bound_column="theorem_bound",
        bound=lambda gap0, n: _theorem_bound(pref * gap0, q, n),
        head=head,
    )
