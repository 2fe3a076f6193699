"""Test problems and ground-truth oracles.

Everything downstream (solvers, energy certificates, rate fits) is judged
against the objects built here, so this module keeps its own bookkeeping
honest: minimizers are computed by direct linear algebra or by restarted
FISTA stopped only by a stationarity certificate at the returned point, and
growth constants are estimated from scans rather than assumed.

Objectives are plain frozen dataclasses holding callables. Points are 1-d
numpy arrays of float64, including one-dimensional problems; a 1-d
objective with `takes_floats` set also takes a Python float and then
returns one.
"""

from __future__ import annotations

import math
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
    "estimate_pl_constant",
    "soft_threshold",
]

_HALF = np.array(0.5)  # a 0-d factor for the array objectives: see agm.py


@dataclass(frozen=True)
class SmoothObjective:
    """A differentiable objective with whatever constants are known for it.

    `strong_convexity`, `pl_constant` and `qg_constant` are None when the
    problem does not come with that guarantee. `minimizer` / `min_value`
    are None when no ground truth is available; certificate code treats
    that as "run uncertified". `takes_floats` declares that a 1-d
    objective's eval and grad also take a Python float and then return one,
    bit for bit as on a (1,) array; the flow then uses floats, the PL scan needs them.
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
    takes_floats: bool = False


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
    # a Q that overflows leaves a residual that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        qmat = u.T @ (lam[:, None] * u)
        qmat = 0.5 * (qmat + qmat.T)  # symmetrize away qr round-off
        xstar = np.linalg.solve(qmat, bvec)
        resid = np.linalg.norm(qmat @ xstar - bvec)
    if not resid <= 1e-12 * max(1.0, float(np.linalg.norm(bvec))):
        raise ArithmeticError(f"minimizer residual {resid:.3e} too large")
    fstar = float(0.5 * xstar @ (qmat @ xstar) - bvec @ xstar)

    mu = float(lam.min())
    big_l = float(lam.max())

    def f(x: np.ndarray) -> float:
        return float((_HALF * x).dot(qmat.dot(x)) - bvec.dot(x))

    def df(x: np.ndarray) -> np.ndarray:
        return qmat.dot(x) - bvec

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


# On Python floats; a (1,) array is unwrapped and a gradient wrapped back.
# From |u| = 1e154 (and at inf or nan), where u ** 2 or sin raises in Python,
# the same expression runs on numpy scalars and gives numpy's inf or nan.


def _sine_f(x) -> float:
    if type(x) is not float:  # a (1,) array
        return _sine_f(float(x[0]))
    if -1e154 < x < 1e154:
        return x ** 2 + 3.0 * math.sin(x) ** 2
    return float(np.float64(x) ** 2 + 3.0 * np.sin(x) ** 2)


def _sine_grad(x):
    if type(x) is not float:  # a (1,) array
        return np.array([_sine_grad(float(x[0]))])
    if -1e154 < x < 1e154:
        return 2.0 * x + 3.0 * math.sin(2.0 * x)
    return float(2.0 * np.float64(x) + 3.0 * np.sin(2.0 * x))


def pl_sine_problem() -> SmoothObjective:
    """Nonconvex 1-d objective x^2 + 3 sin(x)^2 with a gradient-growth bound.

    f'' = 2 + 6 cos(2x) lies in [-4, 8], so the gradient is 8-Lipschitz and
    the function is not convex. The unique global minimizer is 0 with value
    0. The gradient-domination constant is estimated by
    `estimate_pl_constant`'s scan of 20001 floats on [-20, 20]; no strong
    convexity constant is attached.
    """
    obj = SmoothObjective(
        dimension=1,
        eval=_sine_f,
        grad=_sine_grad,
        lipschitz=8.0,
        minimizer=np.zeros(1),
        min_value=0.0,
        takes_floats=True,
    )
    mu_pl = estimate_pl_constant(obj)
    return replace(obj, pl_constant=mu_pl)


def lasso_problem(a: np.ndarray, b: np.ndarray, lam: float) -> CompositeObjective:
    """L1-regularized least squares, F(x) = ||Ax - b||^2 / 2 + lam ||x||_1.

    A must have full column rank so the smooth part is strongly convex;
    rank-deficient inputs are rejected. The minimizer and optimal value are
    produced by reference_minimizer and cached on the returned object. lam = 0
    is allowed and reduces to least squares.
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
    # A on a 64-byte boundary: off it, OpenBLAS A x and A'r ran up to 1.5x slower (Xeon)
    buf = np.empty(a.size + 8)
    i = -buf.ctypes.data % 64 // 8
    buf[i:i + a.size] = a.ravel()
    a = buf[i:i + a.size].reshape(a.shape)

    def f(x: np.ndarray) -> float:
        r = a.dot(x) - b
        return float((_HALF * r).dot(r))

    def df(x: np.ndarray) -> np.ndarray:
        return a.T.dot(a.dot(x) - b)

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
    """FISTA with gradient restart, run until ||G_{1/L}(x)|| <= tol.

    Ground truth for the momentum methods because of that certificate,
    checked at the returned x itself (a prox output, with its exact zeros),
    not because of the algorithm, which shares no code with the solvers but
    the prox call: step 1/L from the origin (Beck & Teboulle 2009), t reset
    when G(y)'(x_new - x) > 0 (O'Donoghue & Candes 2015). ||G|| shrinks by
    about 1 - sqrt(mu/L) a step, so a G_0 that needs more than max_iter such
    steps (about sqrt(kappa) log(||G_0|| / tol)) is refused at once.
    """
    s = 1.0 / obj.smooth.lipschitz
    r = math.sqrt((obj.smooth.strong_convexity or 0.0) * s)  # sqrt(mu / L)
    x = y = np.zeros(obj.smooth.dimension)
    t = 1.0
    for k in range(max_iter):
        x_new = obj.prox_term.prox(y - s * obj.smooth.grad(y), s)
        g = (y - x_new) / s  # G_s(y), as grad_mapping forms it
        norm = math.sqrt(g.dot(g))
        if norm <= tol:
            if np.linalg.norm(grad_mapping(obj, x_new, s)) <= tol:
                return x_new, obj.total(x_new)
        elif k == 0 and 0.0 < r < 1.0 and math.log(norm / tol) > -math.log1p(-r) * max_iter:
            break
        t = 1.0 if g.dot(x_new - x) > 0.0 else t
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
    raise RuntimeError(
        f"reference FISTA did not reach ||G|| <= {tol:g} "
        f"within {max_iter} iterations"
    )


def estimate_pl_constant(obj: SmoothObjective) -> float:
    """Scan-based lower estimate of the gradient-domination constant.

    Minimizes ||grad f(x)||^2 / (2 (f(x) - f*)) over 20001 evenly spaced
    Python floats on [-20, 20]; obj must take floats and carry min_value.
    Points with f(x) - f* < 1e-12 are excluded as numerically degenerate.
    """
    if not obj.takes_floats:
        raise ValueError("estimate_pl_constant scans floats; obj must take them")
    if obj.min_value is None:
        raise ValueError("estimate_pl_constant needs obj.min_value")
    f, df = obj.eval, obj.grad
    best = np.inf
    for x in np.linspace(-20.0, 20.0, 20001).tolist():
        gap = f(x) - obj.min_value
        if gap < 1e-12:
            continue
        g = df(x)
        best = min(best, g * g / (2.0 * gap))
    if not np.isfinite(best):
        raise ValueError("no sample point had f(x) - f* >= 1e-12")
    return best
