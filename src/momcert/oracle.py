"""Test problems and ground-truth oracles.

Everything downstream (solvers, energy certificates, rate fits) is judged
against the objects built here, so this module keeps its own bookkeeping
honest: minimizers are computed by direct linear algebra or by a plain
proximal-gradient reference loop, gradients can be audited with central
differences, and growth constants are estimated from scans rather than
assumed.

Objectives are plain frozen dataclasses holding callables. Points are 1-d
numpy arrays of float64 throughout, including one-dimensional problems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SmoothObjective",
    "ProxTerm",
    "CompositeObjective",
    "quadratic_problem",
    "pl_sine_problem",
    "lasso_problem",
    "reference_minimizer",
    "grad_mapping",
    "finite_diff_gradient_check",
    "estimate_pl_constant",
    "soft_threshold",
    "zero_prox",
    "composite_from_smooth",
]


@dataclass(frozen=True)
class SmoothObjective:
    """A differentiable objective with whatever constants are known for it.

    `strong_convexity`, `pl_constant` and `qg_constant` are None when the
    problem does not come with that guarantee. `minimizer` / `min_value`
    are None when no ground truth is available; certificate code treats
    that as "run uncertified".
    """

    dimension: int
    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    strong_convexity: Optional[float] = None
    pl_constant: Optional[float] = None
    qg_constant: Optional[float] = None
    minimizer: Optional[np.ndarray] = None
    min_value: Optional[float] = None


@dataclass(frozen=True)
class ProxTerm:
    """Convex, possibly nonsmooth term accessed through its proximal map.

    prox(z, s) must return argmin_u  g(u) + ||u - z||^2 / (2 s).
    """

    eval: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class CompositeObjective:
    """Sum F = f + g of a smooth part and a prox-friendly part."""

    smooth: SmoothObjective
    prox_term: ProxTerm
    minimizer: Optional[np.ndarray] = None
    min_value: Optional[float] = None
    qg_constant: Optional[float] = None

    def total(self, x: np.ndarray) -> float:
        return float(self.smooth.eval(x) + self.prox_term.eval(x))


def soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * ||.||_1, applied componentwise."""
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


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


def _random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """A d x d orthogonal matrix drawn from rng (QR with a sign fix)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def quadratic_problem(
    spectrum: Sequence[float], b: Sequence[float], seed: int = 0
) -> SmoothObjective:
    """Quadratic f(x) = x'Qx/2 - b'x with prescribed eigenvalues.

    Q = U' diag(spectrum) U for a seeded random orthogonal U (seed 0 keeps
    U = I). The minimizer solves Qx = b and is verified to machine level
    before the objective is handed out. Since Q is positive definite the
    strong convexity, PL and quadratic growth constants all equal
    min(spectrum).
    """
    lam = np.asarray(spectrum, dtype=float)
    bvec = np.asarray(b, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("spectrum must be a nonempty 1-d sequence")
    if np.any(lam <= 0):
        raise ValueError(f"spectrum must be positive, got min {lam.min()}")
    if bvec.shape != lam.shape:
        raise ValueError(f"b has shape {bvec.shape}, spectrum {lam.shape}")

    d = lam.size
    # Seed 0 is reserved for the unrotated case so hand-checked
    # eigenbasis examples stay exact.
    u = np.eye(d) if seed == 0 else _random_orthogonal(d, np.random.default_rng(seed))
    qmat = u.T @ (lam[:, None] * u)
    qmat = 0.5 * (qmat + qmat.T)  # symmetrize away qr round-off

    xstar = np.linalg.solve(qmat, bvec)
    resid = np.linalg.norm(qmat @ xstar - bvec)
    if resid > 1e-12 * max(1.0, float(np.linalg.norm(bvec))):
        raise ArithmeticError(f"minimizer residual {resid:.3e} too large")
    fstar = float(0.5 * xstar @ (qmat @ xstar) - bvec @ xstar)

    mu = float(lam.min())
    big_l = float(lam.max())

    def f(x: np.ndarray) -> float:
        return float(0.5 * x @ (qmat @ x) - bvec @ x)

    def df(x: np.ndarray) -> np.ndarray:
        return qmat @ x - bvec

    return SmoothObjective(
        dimension=d,
        eval=f,
        grad=df,
        lipschitz=big_l,
        strong_convexity=mu,
        pl_constant=mu,
        qg_constant=mu,
        minimizer=xstar,
        min_value=fstar,
    )


def _sine_f(x: np.ndarray) -> float:
    return float(x[0] ** 2 + 3.0 * np.sin(x[0]) ** 2)


def _sine_grad(x: np.ndarray) -> np.ndarray:
    return np.array([2.0 * x[0] + 3.0 * np.sin(2.0 * x[0])])


def pl_sine_problem() -> SmoothObjective:
    """Nonconvex 1-d objective x^2 + 3 sin(x)^2 with a gradient-growth bound.

    f'' = 2 + 6 cos(2x) lies in [-4, 8], so the gradient is 8-Lipschitz and
    the function is not convex. The unique global minimizer is 0 with value
    0. The gradient-domination constant is estimated by a dense scan over
    [-20, 20]; no strong convexity constant is attached.
    """
    obj = SmoothObjective(
        dimension=1,
        eval=_sine_f,
        grad=_sine_grad,
        lipschitz=8.0,
        minimizer=np.zeros(1),
        min_value=0.0,
    )
    mu_pl = estimate_pl_constant(obj, -20.0, 20.0, 20001)
    return replace(obj, pl_constant=mu_pl)


def lasso_problem(a: np.ndarray, b: np.ndarray, lam: float) -> CompositeObjective:
    """L1-regularized least squares, F(x) = ||Ax - b||^2 / 2 + lam ||x||_1.

    A must have full column rank so the smooth part is strongly convex;
    rank-deficient inputs are rejected. The minimizer and optimal value are
    produced by the proximal-gradient reference loop and cached on the
    returned object. lam = 0 is allowed and reduces to least squares.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2:
        raise ValueError("A must be a 2-d array")
    if b.shape != (a.shape[0],):
        raise ValueError(f"b has shape {b.shape}, expected ({a.shape[0]},)")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")

    sv = np.linalg.svd(a, compute_uv=False)
    if a.shape[0] < a.shape[1] or sv[-1] <= 1e-12 * sv[0]:
        raise ValueError(
            "A is (numerically) rank deficient: smallest singular value "
            f"{sv[-1]:.3e} vs largest {sv[0]:.3e}"
        )
    mu = float(sv[-1] ** 2)
    big_l = float(sv[0] ** 2)

    def f(x: np.ndarray) -> float:
        r = a @ x - b
        return float(0.5 * r @ r)

    def df(x: np.ndarray) -> np.ndarray:
        return a.T @ (a @ x - b)

    smooth = SmoothObjective(
        dimension=a.shape[1],
        eval=f,
        grad=df,
        lipschitz=big_l,
        strong_convexity=mu,
    )
    prox_term = ProxTerm(
        eval=lambda x: float(lam * np.abs(x).sum()),
        prox=lambda z, s: soft_threshold(z, s * lam),
    )
    # F = f + g inherits strong convexity mu from f, hence mu-quadratic
    # growth around its (unique) minimizer.
    obj = CompositeObjective(smooth=smooth, prox_term=prox_term, qg_constant=mu)
    xstar, fstar = reference_minimizer(obj)
    return replace(obj, minimizer=xstar, min_value=fstar)


def grad_mapping(obj: CompositeObjective, y: np.ndarray, s: float) -> np.ndarray:
    """Gradient mapping G_s(y) = (y - prox_{s g}(y - s grad f(y))) / s.

    Coincides with grad f(y) when the prox term vanishes, and with the
    stationarity residual of F in general: G_s(x*) = 0.
    """
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    p = obj.prox_term.prox(y - s * obj.smooth.grad(y), s)
    return (y - p) / s


def reference_minimizer(
    obj: CompositeObjective, tol: float = 1e-12, max_iter: int = 10_000_000
) -> tuple[np.ndarray, float]:
    """Unaccelerated proximal gradient run to stationarity tol.

    Deliberately the dullest algorithm in the package: fixed step 1/L from
    the origin until ||G_{1/L}(x)|| <= tol. Used as the ground truth that
    the momentum methods are measured against, so it shares no code with
    them beyond the prox call.
    """
    s = 1.0 / obj.smooth.lipschitz
    x = np.zeros(obj.smooth.dimension)
    for _ in range(max_iter):
        g = grad_mapping(obj, x, s)
        if np.linalg.norm(g) <= tol:
            return x, obj.total(x)
        x = x - s * g
    raise RuntimeError(
        f"reference proximal gradient did not reach ||G|| <= {tol:g} "
        f"within {max_iter} iterations"
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


def estimate_pl_constant(
    obj: SmoothObjective,
    lo: float = -20.0,
    hi: float = 20.0,
    n: int = 20001,
    points: Optional[Sequence[np.ndarray]] = None,
) -> float:
    """Scan-based lower estimate of the gradient-domination constant.

    Minimizes ||grad f(x)||^2 / (2 (f(x) - f*)) over a uniform 1-d grid on
    [lo, hi], or over explicitly supplied points for higher dimensions.
    Points with f(x) - f* < 1e-12 are excluded as numerically degenerate.
    Requires min_value on the objective.
    """
    if obj.min_value is None:
        raise ValueError("estimate_pl_constant needs obj.min_value")
    if points is None:
        if obj.dimension != 1:
            raise ValueError("grid scan is 1-d only; pass points explicitly")
        points = [np.array([t]) for t in np.linspace(lo, hi, n)]
    best = np.inf
    for p in points:
        x = np.asarray(p, dtype=float)
        gap = obj.eval(x) - obj.min_value
        if gap < 1e-12:
            continue
        g = obj.grad(x)
        best = min(best, float(g @ g) / (2.0 * gap))
    if not np.isfinite(best):
        raise ValueError("no sample point had f(x) - f* >= 1e-12")
    return best
