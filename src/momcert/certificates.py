"""Every certificate check, read from a trace's columns and summary.

`certify_trace` is the one place a run's verdicts are made: the drivers
build a `Trace` and hand it over, and a trace loaded back from its CSV
and JSON re-certifies to the same slacks, counts and failures. Discrete
runs (agm, pgm) check (1 + A h) E_{k+1} <= E_k per step; the flow checks
the per-sample decay of eps and its global envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trace import Trace

__all__ = [
    "CertificateResult", "DivergenceError", "certify_step", "certify_trace",
    "ode_certify",
]

# Discrete tolerance: TOL_REL |E_k| + TOL_ABS (1 + |E_0|).
_TOL_REL = 1e-9
_TOL_ABS = 1e-12
# Flow: relative slack of the global envelope eps(t) <= eps(0) e^{-rate t}.
_TOL_GLOB = 1e-6


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of one runtime inequality check.

    The check asserts lhs <= rhs up to tolerance; slack = rhs - lhs, so a
    healthy certificate has nonnegative slack and a failed one reports how
    far the inequality was missed.
    """

    k: int
    lhs: float
    rhs: float
    slack: float
    passed: bool


class DivergenceError(RuntimeError):
    """Raised when an iterate goes non-finite or the gap explodes."""

    def __init__(self, k: int, message: str):
        super().__init__(f"iteration {k}: {message}")
        self.k = k


def certify_step(
    energy_now: float,
    energy_next: float,
    params,
    tol_rel: float = _TOL_REL,
    tol_abs: float = _TOL_ABS,
    k: int = 0,
) -> CertificateResult:
    """Contraction certificate (1 + A h) E_{k+1} <= E_k between two energies.

    The scalar reference for the check certify_trace makes over a whole
    discrete trace, where tol_abs is scaled to 1e-12 (1 + |E_0|) so that
    late steps, with both sides float noise around zero, do not fail.
    """
    lhs = (1.0 + params.A * params.h) * energy_next
    rhs = energy_now
    slack = rhs - lhs
    passed = bool(slack >= -(tol_abs + tol_rel * abs(rhs)))
    return CertificateResult(k=k, lhs=lhs, rhs=rhs, slack=slack, passed=passed)


def _discrete_checks(trace: Trace):
    """(k, lhs, rhs, tol) of the step checks k -> k+1 of a discrete trace.

    Needs the summary's certified, A and h; records both tolerances in it.
    """
    s = trace.summary
    e = trace.column("energy")
    m = len(e) - 1 if s["certified"] else 0
    tol_abs = _TOL_ABS * (1.0 + abs(float(e[0])))
    s["certificate_tol_abs"], s["certificate_tol_rel"] = tol_abs, _TOL_REL
    rhs = e[:m]
    lhs = (1.0 + s["A"] * s["h"]) * e[1:m + 1]
    return np.arange(m), lhs, rhs, tol_abs + _TOL_REL * np.abs(rhs)


def _flow_checks(trace: Trace, rate: float):
    """(k, lhs, rhs) of a flow trace's checks; each passes when lhs <= rhs.

    For n samples, entry j < n - 1 certifies the step into sample k = j + 1:
    the rescaled energy eps(t) exp(rate t) must not grow, checked in the
    overflow-safe form eps_{j+1} exp(rate dt) <= eps_j (1 + tol) + floor.
    tol = (Lambda dt)^4, with Lambda = sqrt(L (1 + alpha beta)) the
    stiffness scale, allows for the RK4 error; the floor is the resolution
    of the energy measurement itself, a few ulps of the objective values
    entering it (summary f_scale). Entry n - 1 (k = -1) is the global check
    eps(t) <= eps(0) exp(-rate t) (1 + 1e-6) at its worst sample. The
    summary supplies dt, L, alpha, beta and, optionally, f_scale.
    """
    s, t, eps = trace.summary, trace.column("t"), trace.column("energy")
    if np.any(~np.isfinite(eps)):
        raise ValueError("trace has no finite energy column; was the run certified?")
    dt = float(s["dt"])
    lam = math.sqrt(float(s["L"]) * (1.0 + float(s["alpha"]) * float(s["beta"])))
    tol_step = (lam * dt) ** 4
    eps0 = eps[0]

    env = eps0 * np.exp(-rate * t)
    noise = 8.0 * np.finfo(float).eps * (abs(eps0) + float(s.get("f_scale", 0.0)))
    floor = 1e-14 * env + noise
    lhs = eps[1:] * math.exp(rate * dt)
    rhs = eps[:-1] * (1.0 + tol_step) + floor[:-1]

    bound = env * (1.0 + _TOL_GLOB) + 1e-18 * abs(eps0)
    worst = int(np.argmin(bound - eps))
    return (np.append(np.arange(1, len(eps)), -1), np.append(lhs, eps[worst]),
            np.append(rhs, bound[worst]))


def certify_trace(trace: Trace) -> Trace:
    """Make every certificate check of a trace from its columns and summary.

    Fills the certificate_slack column (row k holds check k; the flow's
    global check, k = -1, has no row), the summary's certificates_checked,
    certificates_failed and min_certificate_slack (plus, on agm and pgm,
    certificate_tol_abs and certificate_tol_rel), and trace.certificates
    with the failed checks only. Discrete traces are checked when
    certified, aborted or not; flow traces when certified and not aborted.
    Returns the trace.
    """
    s = trace.summary
    if trace.kind != "ode":
        k, lhs, rhs, tol = _discrete_checks(trace)
    elif s["certified"] and s["aborted_at"] is None:
        k, lhs, rhs = _flow_checks(trace, s["decay_rate"])
        tol = 0.0
    else:
        k, lhs, rhs, tol = np.empty(0, dtype=int), np.empty(0), np.empty(0), 0.0
    slack = rhs - lhs
    passed = slack >= -tol
    failed = np.flatnonzero(~passed)
    col = trace.column("certificate_slack")
    col[:] = np.nan
    col[k[k >= 0]] = slack[k >= 0]
    s["certificates_checked"] = len(k)
    s["certificates_failed"] = len(failed)
    s["min_certificate_slack"] = min(slack.tolist(), default=np.nan)
    trace.certificates = _results(k, lhs, rhs, slack, passed, failed)
    return trace


def ode_certify(trace: Trace, rate: float) -> list[CertificateResult]:
    """Every check of a certified flow trace at the given decay rate.

    The checks are certify_trace's (see _flow_checks), returned in full,
    passed or not; the global check comes last with k = -1. Raises
    ValueError when the energy column is not finite.
    """
    k, lhs, rhs = _flow_checks(trace, rate)
    slack = rhs - lhs
    return _results(k, lhs, rhs, slack, slack >= 0.0, range(len(k)))


def _results(k, lhs, rhs, slack, passed, rows) -> list[CertificateResult]:
    """CertificateResults for the given rows of array-valued checks."""
    return [
        CertificateResult(k=int(k[i]), lhs=float(lhs[i]), rhs=float(rhs[i]),
                          slack=float(slack[i]), passed=bool(passed[i]))
        for i in rows
    ]
