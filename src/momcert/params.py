"""Certified parameter bundles for the momentum solvers and the flow.

Each constructor packages one admissible parameter choice together with
every derived constant the certificates need: the energy weights (xi, eta,
theta), the per-step contraction factor A, the geometric rate rho, the
positivity margin R_omega entering the gap bound, and the prescription for
the initial velocity. Bundles are frozen; anything downstream can re-audit
one with `check_constraints`, which feeds the bundle's own inputs back
through the constructor that made it, names every field that differs from
the rebuilt bundle, and checks the few relations between fields that no
constructor checks. The audit is not independent of the constructors: it
shares their formulas, so it catches a tampered or inconsistent bundle but
not a wrong closed form.

Three growth regimes are supported. "sc" assumes strong convexity along
rays to the minimizer, "qg" assumes quadratic growth plus plain convexity,
and "pl" assumes gradient domination only. alpha defaults to the largest
admissible damping for the requested regime, which maximizes the certified
rate; callers may pass a smaller alpha and keep certificates valid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Optional, Union

__all__ = [
    "Regime",
    "AgmParams",
    "PgmParams",
    "OdeParams",
    "agm_params_sc",
    "agm_params_qg",
    "agm_params_pl",
    "agm_params_nesterov",
    "pgm_params_sc",
    "pgm_params_qg",
    "ode_params_sc",
    "ode_params_qg",
    "ode_params_pl",
    "check_constraints",
]


class Regime(enum.Enum):
    STRONGLY_CONVEX = "sc"
    QUADRATIC_GROWTH = "qg"
    POLYAK_LOJASIEWICZ = "pl"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _check_mu_l(mu: float, big_l: float) -> None:
    _require(0.0 < mu < big_l < math.inf,
             f"need 0 < mu < L < inf, got mu={mu}, L={big_l}")


def _check_finite_positive(**values: float) -> None:
    for name, v in values.items():
        _require(0.0 < v < math.inf, f"need 0 < {name} < inf, got {name} = {v}")


# Relative slack used when validating a caller-supplied alpha against the
# regime maximum, so that alpha computed as exactly the maximum upstream
# round-trips through floats.
_ALPHA_SLACK = 1e-12


def _alpha_or_max(alpha: Optional[float], alpha_max: float) -> float:
    """alpha defaults to alpha_max; a caller's alpha must lie in (0, alpha_max]."""
    alpha = alpha_max if alpha is None else alpha
    _require(
        0.0 < alpha <= alpha_max * (1.0 + _ALPHA_SLACK),
        f"need 0 < alpha <= {alpha_max:.12g}, got {alpha}",
    )
    return alpha


@dataclass(frozen=True)
class AgmParams:
    """Parameters for the discrete momentum method with gradient correction."""

    regime: Regime
    mu: float
    L: float
    h: float            # step, 1 / sqrt(L)
    alpha: float        # viscous damping
    gamma: float        # gradient weight
    omega: float        # energy interpolation knob in [0, 1]
    xi: float           # energy anchor coefficient
    eta: float          # negative-quadratic energy weight
    theta: float        # gap weight inside the energy
    A: float            # certified contraction: (1 + A h) E_{k+1} <= E_k
    rho: float          # geometric rate in the gap bound (1 + rho)^-k
    R_omega: float      # positivity margin relating energy to gap
    v0_coeff: float     # v0 = -v0_coeff * h * grad f(x0)

    @property
    def bound_prefactor(self) -> float:
        """C in the certified bound gap_k <= C * gap_0 / (1 + rho)^k."""
        if self.regime is Regime.STRONGLY_CONVEX:
            return (2.0 + self.omega) / self.R_omega
        if self.regime is Regime.QUADRATIC_GROWTH:
            return 2.0 / self.R_omega
        return 1.0


@dataclass(frozen=True)
class PgmParams:
    """Parameters for the proximal variant (composite objectives)."""

    regime: Regime
    mu: float
    L: float
    h: float
    alpha: float
    omega: float
    xi: float
    eta: float
    theta: float
    A: float            # certificate contraction, rho <= A h
    rho: float          # rate actually used in the gap bound
    R_omega: float

    @property
    def bound_prefactor(self) -> float:
        if self.regime is Regime.STRONGLY_CONVEX:
            return (2.0 + self.omega) / self.R_omega
        return 2.0 / self.R_omega


@dataclass(frozen=True)
class OdeParams:
    """Parameters for the damped flow and its energy certificate."""

    regime: Regime
    mu: float
    alpha: float        # viscous damping
    beta: float         # gradient-difference damping
    gamma: float        # gradient weight
    theta: float        # gap weight inside the energy
    omega: float
    xi: float
    eta: float          # equals omega * xi * (alpha - xi)
    decay_rate: float   # certified: eps(t) <= eps(0) exp(-decay_rate t)
    prefactor: float    # certified: gap(t) <= prefactor * gap(0) exp(-decay_rate t)


# ----------------------------------------------------------------------
# discrete momentum bundles


def _agm_eta_theta(alpha: float, gamma: float, omega: float, xi: float, h: float):
    ah = alpha * h
    den = (1.0 + ah) * (1.0 + (1.0 + omega) * xi * h)
    eta = omega * (alpha - xi) * xi / den
    theta = gamma - omega * (alpha - xi) * h * (1.0 + (gamma + 1.0) * xi * h) / den
    return eta, theta


def _agm_contraction(alpha: float, omega: float, xi: float, h: float) -> float:
    return (1.0 + omega) * (alpha - xi) / (1.0 + (1.0 + omega) * xi * h)


def agm_params_sc(
    mu: float, L: float, gamma: float, omega: float, alpha: Optional[float] = None
) -> AgmParams:
    """Strongly convex bundle. gamma in [1, 2], omega in [0, 1].

    Defaults to the fastest admissible damping
    alpha = (2 + omega) sqrt(mu gamma / (1 + omega)); the certified rate is
    rho = (1 + omega) alpha h / ((2 + omega) + (1 + omega)^2 alpha h).
    """
    _check_mu_l(mu, L)
    _require(1.0 <= gamma <= 2.0, f"need gamma in [1, 2], got {gamma}")
    _require(0.0 <= omega <= 1.0, f"need omega in [0, 1], got {omega}")
    alpha_max = (2.0 + omega) * math.sqrt(mu * gamma / (1.0 + omega))
    alpha = _alpha_or_max(alpha, alpha_max)
    h = 1.0 / math.sqrt(L)
    ah = alpha * h
    xi = (1.0 + omega) / (2.0 + omega) * alpha
    eta, theta = _agm_eta_theta(alpha, gamma, omega, xi, h)
    big_a = _agm_contraction(alpha, omega, xi, h)
    rho = (1.0 + omega) * ah / ((2.0 + omega) + (1.0 + omega) ** 2 * ah)
    r_om = 1.0 - (2.0 * omega / ((1.0 + omega) * (2.0 + omega))) * (
        (2.0 + omega) + ah
    ) / (1.0 + ah)
    v0 = (2.0 + omega) / ((2.0 + omega) + (1.0 + omega) * ah)
    return AgmParams(
        regime=Regime.STRONGLY_CONVEX,
        mu=mu, L=L, h=h,
        alpha=alpha, gamma=gamma, omega=omega,
        xi=xi, eta=eta, theta=theta,
        A=big_a, rho=rho, R_omega=r_om, v0_coeff=v0,
    )


def agm_params_qg(
    mu: float, L: float, gamma: float, omega: float, alpha: Optional[float] = None
) -> AgmParams:
    """Quadratic-growth bundle (convex f with mu-quadratic growth).

    With r = sqrt(1 + omega), alpha defaults to
    (2 + omega + r) / (1 + omega + r) * sqrt(mu gamma).
    """
    _check_mu_l(mu, L)
    _require(1.0 <= gamma <= 2.0, f"need gamma in [1, 2], got {gamma}")
    _require(0.0 <= omega <= 1.0, f"need omega in [0, 1], got {omega}")
    r = math.sqrt(1.0 + omega)
    alpha_max = (2.0 + omega + r) / (1.0 + omega + r) * math.sqrt(mu * gamma)
    alpha = _alpha_or_max(alpha, alpha_max)
    h = 1.0 / math.sqrt(L)
    ah = alpha * h
    xi = (1.0 + omega + r) / (2.0 + omega + r) * alpha
    eta, theta = _agm_eta_theta(alpha, gamma, omega, xi, h)
    big_a = (1.0 + omega) / (1.0 + omega + r) * xi / (1.0 + (1.0 + omega) * xi * h)
    rho = (1.0 + omega) * ah / ((2.0 + omega + r) + (1.0 + omega + r) * (1.0 + omega) * ah)
    r_om = 1.0 - omega / (1.0 + omega + r)
    v0 = (2.0 + omega + r) / ((2.0 + omega + r) + (1.0 + omega + r) * ah)
    return AgmParams(
        regime=Regime.QUADRATIC_GROWTH,
        mu=mu, L=L, h=h,
        alpha=alpha, gamma=gamma, omega=omega,
        xi=xi, eta=eta, theta=theta,
        A=big_a, rho=rho, R_omega=r_om, v0_coeff=v0,
    )


def agm_params_pl(mu: float, L: float) -> AgmParams:
    """Gradient-domination bundle; no anchor term (xi = omega = 0).

    gamma and alpha are pinned by q = mu / L:
    gamma = (sqrt(2q - q^2) - q) / (1 - q), alpha h = 2q / (1 + sqrt(2q - q^2)).
    Here gamma falls in (0, 1) and the gap prefactor is exactly 1.
    """
    _check_mu_l(mu, L)
    q = mu / L
    s = math.sqrt(2.0 * q - q * q)
    gamma = (s - q) / (1.0 - q)
    ah = 2.0 * q / (1.0 + s)
    h = 1.0 / math.sqrt(L)
    alpha = ah / h
    eta, theta = _agm_eta_theta(alpha, gamma, 0.0, 0.0, h)  # eta = 0, theta = gamma
    return AgmParams(
        regime=Regime.POLYAK_LOJASIEWICZ,
        mu=mu, L=L, h=h,
        alpha=alpha, gamma=gamma, omega=0.0,
        xi=0.0, eta=eta, theta=theta,
        A=alpha, rho=ah, R_omega=1.0, v0_coeff=1.0,
    )


def agm_params_nesterov(mu: float, L: float) -> AgmParams:
    """Parameter map under which the method reproduces Nesterov's scheme.

    gamma = 1 + alpha h with alpha h = 2 sqrt(q) / (1 - sqrt(q)) makes the
    extrapolation coefficient equal (1 - sqrt(q)) / (1 + sqrt(q)) and kills
    the second correction term in the x-update. This alpha sits slightly
    above the strongly convex cap, so the bundle is meant for the
    equivalence comparison, not for certification; `check_constraints`
    will flag it.
    """
    _check_mu_l(mu, L)
    q = mu / L
    rq = math.sqrt(q)
    _require(q < 1.0 / 9.0, f"map needs q < 1/9 to keep gamma <= 2, got q={q}")
    h = 1.0 / math.sqrt(L)
    ah = 2.0 * rq / (1.0 - rq)
    alpha = ah / h
    gamma = 1.0 + ah
    omega = 0.0
    xi = alpha / 2.0
    eta, theta = _agm_eta_theta(alpha, gamma, omega, xi, h)
    big_a = _agm_contraction(alpha, omega, xi, h)
    return AgmParams(
        regime=Regime.STRONGLY_CONVEX,
        mu=mu, L=L, h=h,
        alpha=alpha, gamma=gamma, omega=omega,
        xi=xi, eta=eta, theta=theta,
        A=big_a, rho=big_a * h, R_omega=1.0,
        v0_coeff=1.0 / (1.0 + xi * h),
    )


# ----------------------------------------------------------------------
# proximal bundles


def _pgm_eta_theta(alpha: float, omega: float, xi: float, h: float):
    eta = omega * xi * (alpha - xi) / (1.0 + (1.0 + omega) * xi * h)
    theta = (1.0 + (alpha - xi) * h) * (1.0 + xi * h + omega * (alpha - xi) * h)
    return eta, theta


def _pgm_contraction(alpha: float, omega: float, xi: float, h: float) -> float:
    return (1.0 + omega) * (alpha - xi) * (
        1.0 - omega * xi * h / (1.0 + (1.0 + omega) * xi * h)
    )


def pgm_params_sc(
    mu: float, L: float, omega: float, alpha: Optional[float] = None
) -> PgmParams:
    """Strongly convex composite bundle.

    alpha defaults to (2 + omega) sqrt(mu / (1 + omega)). The bound rate
    rho = (1 + omega) alpha h / ((2 + omega) + omega (1 + omega) alpha h)
    satisfies rho <= A h, with equality only at omega = 0.
    """
    _check_mu_l(mu, L)
    _require(0.0 <= omega <= 1.0, f"need omega in [0, 1], got {omega}")
    alpha_max = (2.0 + omega) * math.sqrt(mu / (1.0 + omega))
    alpha = _alpha_or_max(alpha, alpha_max)
    h = 1.0 / math.sqrt(L)
    ah = alpha * h
    xi = (1.0 + omega) / (2.0 + omega) * alpha
    eta, theta = _pgm_eta_theta(alpha, omega, xi, h)
    big_a = _pgm_contraction(alpha, omega, xi, h)
    rho = (1.0 + omega) * ah / ((2.0 + omega) + omega * (1.0 + omega) * ah)
    r_om = ((1.0 - omega) + (1.0 + omega) * ah) / (1.0 + (1.0 + omega) * ah)
    return PgmParams(
        regime=Regime.STRONGLY_CONVEX,
        mu=mu, L=L, h=h,
        alpha=alpha, omega=omega,
        xi=xi, eta=eta, theta=theta,
        A=big_a, rho=rho, R_omega=r_om,
    )


def pgm_params_qg(
    mu: float, L: float, omega: float, alpha: Optional[float] = None
) -> PgmParams:
    """Composite bundle under quadratic growth of F (f merely convex).

    R_omega is stored as 1 / sqrt(1 + omega): the energy controls the gap
    through E_k >= theta * R_omega * gap, which makes the bound prefactor
    2 sqrt(1 + omega) come out of the same formula as everywhere else.
    """
    _check_mu_l(mu, L)
    _require(0.0 <= omega <= 1.0, f"need omega in [0, 1], got {omega}")
    r = math.sqrt(1.0 + omega)
    alpha_max = (2.0 + omega + r) / (1.0 + omega + r) * math.sqrt(mu)
    alpha = _alpha_or_max(alpha, alpha_max)
    h = 1.0 / math.sqrt(L)
    ah = alpha * h
    xi = (1.0 + omega + r) / (2.0 + omega + r) * alpha
    eta, theta = _pgm_eta_theta(alpha, omega, xi, h)
    big_a = _pgm_contraction(alpha, omega, xi, h)
    rho = (1.0 + omega) * ah / ((2.0 + omega + r) + omega * (1.0 + omega + r) * ah)
    return PgmParams(
        regime=Regime.QUADRATIC_GROWTH,
        mu=mu, L=L, h=h,
        alpha=alpha, omega=omega,
        xi=xi, eta=eta, theta=theta,
        A=big_a, rho=rho, R_omega=1.0 / r,
    )


# ----------------------------------------------------------------------
# flow bundles


def _theta_or_floor(theta_opt: Optional[float], lower: float, omega: float,
                    floor: str) -> float:
    """theta defaults to max(lower, omega/2); a caller's theta must clear both."""
    theta = max(lower, omega / 2.0) if theta_opt is None else float(theta_opt)
    _require(theta >= lower * (1.0 - 1e-12),
             f"need theta >= {floor} = {lower:.12g}, got theta = {theta}")
    _require(theta >= omega / 2.0 - 1e-15, f"need theta >= omega/2 = {omega/2}, got {theta}")
    return theta


def ode_params_sc(
    mu: float,
    alpha: float,
    beta: float,
    omega: float,
    theta_opt: Optional[float] = None,
) -> OdeParams:
    """Flow bundle under strong convexity along rays to the minimizer.

    theta defaults to the smallest admissible value
    max(omega / 2, (1+omega)/(2+omega)^2 * alpha^2/mu * (1 + omega alpha beta/(2+omega)));
    gamma is then theta + alpha beta / (2 + omega) and the energy decays at
    rate (1 + omega) / (2 + omega) * alpha.
    """
    _check_finite_positive(mu=mu, alpha=alpha, beta=beta)
    _require(0.0 <= omega <= 1.0, f"need omega in [0, 1], got {omega}")
    lower = (
        (1.0 + omega) / (2.0 + omega) ** 2
        * alpha ** 2 / mu
        * (1.0 + omega * alpha * beta / (2.0 + omega))
    )
    theta = _theta_or_floor(theta_opt, lower, omega,
                            "(1+w)/(2+w)^2 * a^2/mu * (1 + w a b/(2+w))")
    gamma = theta + alpha * beta / (2.0 + omega)
    xi = (1.0 + omega) / (2.0 + omega) * alpha
    eta = omega * xi * (alpha - xi)
    rate = (1.0 + omega) / (2.0 + omega) * alpha
    wab = omega * alpha * beta / (2.0 + omega)
    prefactor = (2.0 + wab) / ((1.0 - omega) + wab)
    return OdeParams(
        regime=Regime.STRONGLY_CONVEX,
        mu=mu, alpha=alpha, beta=beta, gamma=gamma, theta=theta,
        omega=omega, xi=xi, eta=eta,
        decay_rate=rate, prefactor=prefactor,
    )


def ode_params_qg(
    mu: float,
    alpha: float,
    beta: float,
    omega: float,
    theta_opt: Optional[float] = None,
) -> OdeParams:
    """Flow bundle under quadratic growth (convex f)."""
    _check_finite_positive(mu=mu, alpha=alpha, beta=beta)
    _require(0.0 <= omega <= 1.0, f"need omega in [0, 1], got {omega}")
    r = math.sqrt(1.0 + omega)
    lower = (
        (1.0 + omega + r) ** 2 / (2.0 + omega + r) ** 2
        * alpha ** 2 / mu
        * (1.0 + omega * alpha * beta / (r * (2.0 + omega + r)))
    )
    theta = _theta_or_floor(theta_opt, lower, omega,
                            "((1+w+r)/(2+w+r))^2 * a^2/mu * (1 + w a b/(r(2+w+r)))")
    gamma = theta + alpha * beta / (2.0 + omega + r)
    xi = (1.0 + omega + r) / (2.0 + omega + r) * alpha
    eta = omega * xi * (alpha - xi)
    rate = (1.0 + omega) / (2.0 + omega + r) * alpha
    return OdeParams(
        regime=Regime.QUADRATIC_GROWTH,
        mu=mu, alpha=alpha, beta=beta, gamma=gamma, theta=theta,
        omega=omega, xi=xi, eta=eta,
        decay_rate=rate, prefactor=1.0 + r,
    )


def ode_params_pl(mu: float, beta: float, theta: float = 1.0) -> OdeParams:
    """Flow bundle under gradient domination only; convexity not needed.

    The damping is tied to the geometry, alpha = mu beta, the energy is
    kinetic plus theta times the gap (no anchor), and the certified decay
    rate is 2 mu beta with prefactor exactly 1.
    """
    _check_finite_positive(mu=mu, beta=beta)
    _require(theta > 0, f"need theta > 0, got {theta}")
    alpha = mu * beta
    gamma = theta + alpha * beta
    return OdeParams(
        regime=Regime.POLYAK_LOJASIEWICZ,
        mu=mu, alpha=alpha, beta=beta, gamma=gamma, theta=theta,
        omega=0.0, xi=0.0, eta=0.0,
        decay_rate=2.0 * mu * beta, prefactor=1.0,
    )


# ----------------------------------------------------------------------
# audit


def _rebuild(p: Union[AgmParams, PgmParams, OdeParams]):
    """The bundle that p's own inputs give through the constructor that made it."""
    sc = p.regime is Regime.STRONGLY_CONVEX
    pl = p.regime is Regime.POLYAK_LOJASIEWICZ
    if isinstance(p, AgmParams):
        if pl:
            return agm_params_pl(p.mu, p.L)
        make = agm_params_sc if sc else agm_params_qg
        return make(p.mu, p.L, p.gamma, p.omega, p.alpha)
    if isinstance(p, PgmParams):
        _require(not pl, "no gradient-domination bundle exists for the proximal method")
        return (pgm_params_sc if sc else pgm_params_qg)(p.mu, p.L, p.omega, p.alpha)
    if pl:
        return ode_params_pl(p.mu, p.beta, p.theta)
    make = ode_params_sc if sc else ode_params_qg
    return make(p.mu, p.alpha, p.beta, p.omega, p.theta)


def _relations(p: Union[AgmParams, PgmParams, OdeParams]) -> list[tuple]:
    """(relation, lhs, rhs, holds) for each relation between fields that no
    constructor checks."""
    a, xi = p.alpha, p.xi
    if isinstance(p, OdeParams):
        rhs = p.gamma - (a - xi) * p.beta
        return [
            ("xi <= alpha", xi, a, xi <= a + 1e-12 * a),
            ("theta == gamma - (alpha - xi) beta", p.theta, rhs,
             abs(p.theta - rhs) <= 1e-12 * max(1.0, p.theta)),
        ]
    ah = p.A * p.h
    out = [("rho > 0", p.rho, 0.0, p.rho > 0.0),
           ("R_omega > 0", p.R_omega, 0.0, p.R_omega > 0.0)]
    if isinstance(p, PgmParams):
        return out + [("rho <= A h", p.rho, ah, p.rho <= ah + 1e-12 * max(1.0, ah)),
                      ("xi <= alpha", xi, a, xi <= a + 1e-12 * a)]
    if p.regime is Regime.POLYAK_LOJASIEWICZ:
        return out
    tol = 1e-12 * max(1.0, abs(a), abs(p.theta))
    low = (1.0 + p.omega) / (2.0 + p.omega) * a
    return out + [("rho == A h", p.rho, ah, abs(p.rho - ah) <= 1e-12 * max(1e-30, ah)),
                  ("xi >= (1+w)/(2+w) alpha", xi, low, xi >= low - tol),
                  ("xi <= alpha", xi, a, xi <= a + tol)]


def check_constraints(
    params: Union[AgmParams, PgmParams, OdeParams], regime: Regime
) -> list[str]:
    """Audit a bundle; return its violations (empty if clean).

    The bundle's inputs (mu, L, gamma, omega, alpha; for the flow mu,
    alpha, beta, omega, theta) go back through the constructor of its
    regime. A rejected input is reported with the constructor's message;
    otherwise every field more than 1e-12 relative away from the rebuilt
    bundle is named, and so is each failed relation that no constructor
    checks (see `_relations`). A regime mismatch is itself a violation.
    Sharing the constructors' formulas, the audit catches a tampered or
    inconsistent bundle, not a wrong closed form.
    """
    if params.regime is not regime:
        return [
            f"regime: bundle was built for {params.regime.value!r}, "
            f"checked against {regime.value!r}"
        ]
    if not isinstance(params, (AgmParams, PgmParams, OdeParams)):
        return [f"unknown bundle type {type(params).__name__}"]
    try:
        ref = _rebuild(params)
    except ValueError as err:
        return [f"inputs: {err}"]
    out = []
    for f in fields(params):
        got, want = getattr(params, f.name), getattr(ref, f.name)
        if f.name != "regime" and not math.isclose(got, want, rel_tol=1e-12):
            out.append(f"{f.name}: bundle has {got:.12g}, its inputs give {want:.12g}")
    for name, lhs, rhs, holds in _relations(params):
        if not holds:
            out.append(f"{name} fails: {lhs:.12g} vs {rhs:.12g}")
    return out
