"""Every certificate check, read from a trace's columns and summary.

`certify_trace` is the one place a run's checks are made, and
`failed_checks` the one place they are judged: the drivers build a
`Trace` and hand it over, and a trace loaded back from its CSV and JSON
re-certifies to the same slacks, counts and failures. Discrete runs
(agm, pgm) check (1 + A h) E_{k+1} <= E_k per step; the flow checks the
per-sample decay of eps and its global envelope.
"""

from __future__ import annotations

import math

import numpy as np

from .trace import Trace

__all__ = ["DivergenceError", "certify_trace", "failed_checks"]

# Discrete tolerance: TOL_REL |E_k| + TOL_ABS (1 + |E_0|).
_TOL_REL = 1e-9
_TOL_ABS = 1e-12
# Flow: relative slack of the global envelope eps(t) <= eps(0) e^{-rate t}.
_TOL_GLOB = 1e-6


class DivergenceError(RuntimeError):
    """Raised when an iterate goes non-finite or the gap explodes."""

    def __init__(self, k: int, message: str):
        super().__init__(f"iteration {k}: {message}")
        self.k = k


def _stiffness(lipschitz: float, alpha: float, beta: float) -> float:
    """Lambda = sqrt(L (1 + alpha beta)), factored as sqrt(L) sqrt(...) on overflow."""
    scale = lipschitz * (1.0 + alpha * beta)
    if math.isfinite(scale):
        return math.sqrt(scale)
    return math.sqrt(lipschitz) * math.sqrt(1.0 + alpha * beta)


def _discrete_slack(trace: Trace) -> np.ndarray:
    """Slack E_k - (1 + A h) E_{k+1} of each step check k -> k+1.

    Needs the summary's certified, A and h; records both tolerances in it.
    """
    s = trace.summary
    e = trace.column("energy")
    m = len(e) - 1 if s["certified"] else 0
    s["certificate_tol_abs"] = _TOL_ABS * (1.0 + abs(float(e[0])))
    s["certificate_tol_rel"] = _TOL_REL
    return e[:m] - (1.0 + s["A"] * s["h"]) * e[1:m + 1]


def _flow_slack(trace: Trace, rate: float) -> tuple[np.ndarray, float]:
    """Slack of each step check of a flow trace, and of its global check.

    For n samples, entry j of the first array certifies the step into
    sample j + 1: the rescaled energy eps(t) exp(rate t) must not grow,
    checked in the overflow-safe form eps_{j+1} exp(rate dt) <= eps_j
    (1 + tol) + floor. tol = (Lambda dt)^4 (inf where it overflows), with
    Lambda the stiffness scale, allows for the RK4 error; the floor is the
    resolution of the energy measurement itself, a few ulps of the objective
    values entering it (summary f_scale). The global check is eps(t) <=
    eps(0) exp(-rate t) (1 + 1e-6) at its worst sample. The summary supplies
    dt, L, alpha, beta and, optionally, f_scale. A non-finite energy gives
    NaN slacks, which fail.
    """
    s, t, eps = trace.summary, trace.column("t"), trace.column("energy")
    dt = s["dt"]
    tol_step = np.float64(_stiffness(s["L"], s["alpha"], s["beta"]) * dt) ** 4
    eps0 = eps[0]

    env = eps0 * np.exp(-rate * t)
    noise = 8.0 * np.finfo(float).eps * (abs(eps0) + float(s.get("f_scale", 0.0)))
    # in place, so that at most three arrays of n are alive (a sum's operands swap)
    slack = env[:-1] * 1e-14 + noise
    slack += eps[:-1] * (1.0 + tol_step)
    slack -= eps[1:] * math.exp(rate * dt)

    env *= 1.0 + _TOL_GLOB
    env += 1e-18 * abs(eps0)
    return slack, float(np.min(env - eps))


def certify_trace(trace: Trace) -> Trace:
    """Make every certificate check of a trace from its columns and summary.

    Fills the certificate_slack column (row k holds check k) and the
    summary's certificates_checked, certificates_failed and
    min_certificate_slack; on agm and pgm also certificate_tol_abs and
    certificate_tol_rel, on the flow envelope_slack, the slack of its
    global check, which has no row (NaN when unchecked). Discrete traces
    are checked when certified, aborted or not; flow traces when
    certified and not aborted. Returns the trace.
    """
    s = trace.summary
    col = trace.column("certificate_slack")
    col[:] = np.nan
    with np.errstate(all="ignore"):  # an overflowing energy gives NaN slacks
        if trace.kind != "ode":
            slack = _discrete_slack(trace)
            col[:len(slack)] = slack
        elif s["certified"] and s["aborted_at"] is None:
            col[1:], s["envelope_slack"] = _flow_slack(trace, s["decay_rate"])
            slack = np.append(col[1:], s["envelope_slack"])
        else:
            slack, s["envelope_slack"] = np.empty(0), np.nan
    s["certificates_checked"] = len(slack)
    s["min_certificate_slack"] = float(np.min(slack)) if len(slack) else np.nan
    s["certificates_failed"] = len(failed_checks(trace)[0])
    return trace


def failed_checks(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Index k and slack of every failed check of a trace certify_trace filled.

    Reads only the certificate_slack and energy columns and the summary
    (certificates_checked and the tolerances or envelope_slack). Discrete
    check k (the step k -> k+1) passed when slack >= -(certificate_tol_abs
    + certificate_tol_rel |energy[k]|); flow check k (the step into sample
    k) when slack >= 0, and so the global envelope check, which comes last
    as k = -1. A NaN slack fails. The failures are in check order.
    """
    s = trace.summary
    n = s["certificates_checked"]
    col = trace.column("certificate_slack")
    if trace.kind != "ode":
        k, slack = np.arange(n), col[:n]
        tol = s["certificate_tol_abs"] + s["certificate_tol_rel"] * np.abs(
            trace.column("energy")[:n])
    else:
        k, slack, tol = np.arange(1, n), col[1:n], 0.0
        if n:
            k, slack = np.append(k, -1), np.append(slack, s["envelope_slack"])
    failed = ~(slack >= -tol)
    return k[failed], slack[failed]
