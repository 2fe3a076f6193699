"""Certificate records shared by the discrete solvers and the flow."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CertificateResult", "DivergenceError", "certificate_results", "energy_contraction",
]


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


def energy_contraction(
    k: int,
    energy_now: float,
    energy_next: float,
    contraction: float,
    h: float,
    tol_rel: float = 1e-9,
    tol_abs: float = 1e-12,
) -> CertificateResult:
    """Check the per-step decay (1 + A h) E_{k+1} <= E_k.

    tol_abs should be scaled by the caller to the size of the initial
    energy (the run drivers use 1e-12 * (1 + |E_0|)) so that late
    iterations, where both sides are float noise around zero, do not
    produce spurious failures.
    """
    lhs = (1.0 + contraction * h) * energy_next
    rhs = energy_now
    slack = rhs - lhs
    passed = bool(slack >= -(tol_abs + tol_rel * abs(rhs)))
    return CertificateResult(k=k, lhs=lhs, rhs=rhs, slack=slack, passed=passed)


def certificate_results(k, lhs, rhs, slack, passed, rows) -> list[CertificateResult]:
    """CertificateResults for the given rows of array-valued checks."""
    return [
        CertificateResult(k=int(k[i]), lhs=float(lhs[i]), rhs=float(rhs[i]),
                          slack=float(slack[i]), passed=bool(passed[i]))
        for i in rows
    ]
