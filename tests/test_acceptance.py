"""Acceptance gate for the certified-rate contracts.

Nine end-to-end checks, one per shipped claim: certified gap bounds and
energy certificates for the smooth solver, the classical-twin reduction,
the gradient-domination regime, composite bounds and the descent lemma
behind them, flow envelopes against an independent closed form, the
small-q rate-ratio windows (checked as a limit over a ladder of q), and
oracle hygiene. Each test prints a single "[criterion N] PASS/FAIL" line
regardless of capture settings.

Tolerances are pinned in this file on purpose. They are the external
contract, so they must not drift with library internals; a red test here
means the claim is not met as stated, not that a knob needs turning.
"""

import itertools
import math
import time

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.linalg import expm

from momcert import (
    agm_init,
    agm_params_nesterov,
    agm_params_pl,
    agm_params_sc,
    agm_run,
    agm_step,
    fit_linear_rate,
    grad_mapping,
    lasso_problem,
    ode_params_pl,
    ode_params_qg,
    ode_params_sc,
    ode_run,
    pgm_params_qg,
    pgm_params_sc,
    pgm_run,
    pl_sine_problem,
    quadratic_problem,
    rk4_step,
)
from momcert.ode import _coefficients

from _reference import (
    finite_diff_gradient_check,
    nesterov_reference_step,
    prox_descent_check,
)

BIG_L = 100.0


def _verdict(capsys, n, ok, detail=""):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)


def _noise_floor(fstar, gap0):
    """Absolute slack granted to objective evaluations near their limit."""
    return 1e-13 * (1.0 + abs(fstar) + gap0)


def _quadratic_instance(d, q, rot_seed, b_seed, x0_seed, x0_scale=5.0):
    spectrum = np.geomspace(q * BIG_L, BIG_L, d)
    b = 3.0 * default_rng(b_seed).standard_normal(d)
    obj = quadratic_problem(spectrum, b, seed=rot_seed)
    x0 = obj.minimizer + x0_scale * default_rng(x0_seed).standard_normal(d)
    return obj, x0


def _expm_gap(obj, params, x0, times):
    """Objective gap of the flow from the matrix-exponential closed form.

    The quadratic flow is affine, so stacking (x, z, 1) gives a linear
    system whose propagator scipy computes independently of the RK4 path.
    """
    d = obj.dimension
    g0 = obj.grad(np.zeros(d))
    q_mat = np.column_stack([obj.grad(e) - g0 for e in np.eye(d)])
    b = -g0
    m = np.zeros((2 * d + 1, 2 * d + 1))
    m[:d, :d] = -params.beta * q_mat
    m[:d, d:2 * d] = np.eye(d)
    m[:d, 2 * d] = params.beta * b
    m[d:2 * d, :d] = (params.alpha * params.beta - params.gamma) * q_mat
    m[d:2 * d, d:2 * d] = -params.alpha * np.eye(d)
    m[d:2 * d, 2 * d] = -(params.alpha * params.beta - params.gamma) * b
    v0 = np.concatenate([x0, np.zeros(d), [1.0]])
    gaps = []
    for t in times:
        v = expm(m * t) @ v0
        gaps.append(obj.eval(v[:d]) - obj.min_value)
    return np.array(gaps)


@pytest.fixture(scope="module")
def sc_grid():
    """The strongly convex run grid shared by criteria 1 and 2.

    27 runs: q in {1e-1, 1e-2, 1e-3} x (gamma, omega) in {1, 1.5, 2} x
    {0, 0.5, 1}, d = 50, 2000 iterations each, certificates on.
    """
    runs = []
    for iq, q in enumerate((1e-1, 1e-2, 1e-3)):
        obj, x0 = _quadratic_instance(50, q, rot_seed=13, b_seed=31 + iq,
                                      x0_seed=32 + iq)
        for gamma, omega in itertools.product((1.0, 1.5, 2.0), (0.0, 0.5, 1.0)):
            params = agm_params_sc(q * BIG_L, BIG_L, gamma, omega)
            if params.R_omega <= 0.0:
                continue
            trace = agm_run(obj, params, x0, 2000)
            runs.append({"q": q, "gamma": gamma, "omega": omega,
                         "obj": obj, "params": params, "trace": trace})
    return runs


def test_smooth_strongly_convex_bounds(sc_grid, capsys):
    """Criterion 1: the certified gap bound holds on the whole grid."""
    violations = []
    worst_ratio = 0.0
    max_wall = 0.0
    for run in sc_grid:
        tr = run["trace"]
        gap = tr.column("f_gap_y")
        bound = tr.column("theorem_bound")
        gap0 = tr.column("f_gap_x")[0]
        floor = _noise_floor(run["obj"].min_value, gap0)
        ok = np.all(gap <= bound * (1.0 + 1e-9) + floor)
        headroom = float(np.max((gap - floor) / np.maximum(bound, 1e-300)))
        worst_ratio = max(worst_ratio, headroom)
        max_wall = max(max_wall, tr.summary["wall_time_s"])
        if not ok or tr.summary["wall_time_s"] > 5.0:
            violations.append((run["q"], run["gamma"], run["omega"]))
    ok = len(sc_grid) == 27 and not violations
    _verdict(capsys, 1, ok,
             f"{len(sc_grid)} configs, worst gap/bound {worst_ratio:.3f}, "
             f"max wall {max_wall:.2f} s")
    assert len(sc_grid) == 27
    assert not violations, f"bound or runtime violations at {violations}"


def test_energy_certificates_all_pass(sc_grid, capsys):
    """Criterion 2: zero per-step certificate failures on the grid."""
    failed = sum(r["trace"].summary["certificates_failed"] for r in sc_grid)
    checked = sum(r["trace"].summary["certificates_checked"] for r in sc_grid)
    min_slack = min(r["trace"].summary["min_certificate_slack"] for r in sc_grid)
    ok = failed == 0 and checked == 27 * 2000
    _verdict(capsys, 2, ok,
             f"{checked - failed}/{checked} passed, min slack {min_slack:.2e}")
    assert checked == 27 * 2000
    assert failed == 0


def test_classical_twin_iterates_match(capsys):
    """Criterion 3: with gamma = 1 + alpha h the solver is the classical
    two-sequence accelerated method, iterate for iterate."""
    q = 1e-2
    worst = 0.0
    for d, seed in ((2, 1), (10, 2), (30, 3)):
        obj, x0 = _quadratic_instance(d, q, rot_seed=seed, b_seed=seed + 10,
                                      x0_seed=seed + 20)
        params = agm_params_nesterov(q * BIG_L, BIG_L)
        tau = (1.0 - math.sqrt(q)) / (1.0 + math.sqrt(q))
        h = params.h
        state = agm_init(obj, params, x0)
        y_prev = state.y
        y_curr = x0 - h * h * obj.grad(x0)
        for _ in range(100):
            state = agm_step(state, obj, params)
            x_ref, y_next = nesterov_reference_step(y_prev, y_curr, tau, h, obj)
            dev_x = np.linalg.norm(state.x - x_ref) / max(1.0, np.linalg.norm(x_ref))
            dev_y = np.linalg.norm(state.y - y_curr) / max(1.0, np.linalg.norm(y_curr))
            worst = max(worst, float(dev_x), float(dev_y))
            y_prev, y_curr = y_curr, y_next
    ok = worst <= 1e-12
    _verdict(capsys, 3, ok, f"3 instances, 100 steps, worst deviation {worst:.2e}")
    assert ok, f"iterate deviation {worst:.3e} exceeds 1e-12"


def test_gradient_domination_bound_and_rate(capsys):
    """Criterion 4: linear decay on the nonconvex sine benchmark."""
    obj = pl_sine_problem()
    params = agm_params_pl(obj.pl_constant, obj.lipschitz)
    q = obj.pl_constant / obj.lipschitz
    closed_form = 2.0 * q / (1.0 + math.sqrt(2.0 * q - q * q))
    assert params.rho == pytest.approx(closed_form, rel=1e-13)

    details = []
    all_ok = True
    for x0 in (0.5, 2.0, 5.0):
        tr = agm_run(obj, params, np.array([x0]), 2000)
        gap = tr.column("f_gap_y")
        bound = tr.column("theorem_bound")
        gap0 = tr.column("f_gap_x")[0]
        floor = _noise_floor(obj.min_value, gap0)
        bound_ok = bool(np.all(gap <= bound * (1.0 + 1e-9) + floor))

        rho_emp = fit_linear_rate(tr)
        if rho_emp is None:
            # The run reaches the relative noise floor in fewer steps
            # than the fitter's minimum window (the gradient substep is
            # nearly a Newton step at the curvature-8 wells), so measure
            # the mean per-step contraction over the observable prefix.
            above = np.nonzero(gap > 1e-13 * gap0)[0]
            n = max(int(above[-1]), 1) if above.size else 1
            rho_emp = (gap0 / gap[n]) ** (1.0 / n) - 1.0
        rate_ok = rho_emp >= params.rho
        all_ok = all_ok and bound_ok and rate_ok
        details.append(f"x0={x0:g}: rho_emp {rho_emp:.3g}, "
                       f"certs {tr.summary['certificates_failed']} failed")
        assert bound_ok, f"gap bound violated from x0 = {x0}"
        assert rate_ok, (f"empirical rate {rho_emp:.4g} below certified "
                         f"{params.rho:.4g} from x0 = {x0}")
    _verdict(capsys, 4, all_ok, f"rho_theory {params.rho:.4f}; " + "; ".join(details))


def _lasso_grid_instance(d, q, seed):
    """Build the criterion-5 instance: penalty from a fixed ladder so the
    reference solution is sparse but not degenerate."""
    rng = default_rng(seed)
    sv = np.sqrt(np.geomspace(q * BIG_L, BIG_L, d))
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = u @ np.diag(sv) @ v.T
    b = 3.0 * rng.standard_normal(d)
    lam_scale = float(np.max(np.abs(a.T @ b)))
    for frac in (0.1, 0.2, 0.3, 0.5):
        obj = lasso_problem(a, b, frac * lam_scale)
        zero_frac = float(np.mean(np.abs(obj.minimizer) < 1e-10))
        if 0.25 <= zero_frac < 1.0:
            return obj, zero_frac
    raise AssertionError(f"no ladder penalty gives 25-99% zeros at d={d}, q={q}")


@pytest.fixture(scope="module")
def lasso_instances():
    out = {}
    for d, q in itertools.product((5, 20), (1e-1, 1e-2)):
        seed = 40 + d + round(-math.log10(q))
        out[(d, q)] = _lasso_grid_instance(d, q, seed)
    return out


def test_composite_bounds_and_certificates(lasso_instances, capsys):
    """Criterion 5: composite bounds and certificates on sparse problems."""
    total_failed = 0
    total_checked = 0
    bound_violations = []
    for (d, q), (obj, zero_frac) in lasso_instances.items():
        g_star = np.linalg.norm(
            grad_mapping(obj, obj.minimizer, 1.0 / obj.smooth.lipschitz))
        assert g_star <= 1e-12, f"reference solution of d={d}, q={q} too loose"
        x0 = obj.minimizer + 5.0 * default_rng(70 + d).standard_normal(d)
        for omega in (0.0, 0.5, 1.0):
            for params in (pgm_params_sc(q * BIG_L, BIG_L, omega),
                           pgm_params_qg(q * BIG_L, BIG_L, omega)):
                tr = pgm_run(obj, params, x0, 1000)
                gap = tr.column("f_gap_y")
                bound = tr.column("theorem_bound")
                gap0 = tr.column("f_gap_x")[0]
                floor = _noise_floor(obj.min_value, gap0)
                if not np.all(gap <= bound * (1.0 + 1e-9) + floor):
                    bound_violations.append((d, q, params.regime.value, omega))
                total_failed += tr.summary["certificates_failed"]
                total_checked += tr.summary["certificates_checked"]
    ok = not bound_violations and total_failed == 0
    _verdict(capsys, 5, ok,
             f"4 instances x 6 bundles, {total_checked - total_failed}/"
             f"{total_checked} certificates")
    assert not bound_violations, f"bound violations at {bound_violations}"
    assert total_failed == 0


def test_prox_descent_lemma_property(lasso_instances, capsys):
    """Criterion 6: the descent inequality behind the composite
    certificates, on 1000 seeded point pairs per instance."""
    checked = 0
    for (d, q), (obj, _) in lasso_instances.items():
        s = 1.0 / obj.smooth.lipschitz
        rng = default_rng([60, d, round(-math.log10(q))])
        for _ in range(1000):
            y = obj.minimizer + 3.0 * rng.standard_normal(d)
            x_ref = obj.minimizer + 3.0 * rng.standard_normal(d)
            assert prox_descent_check(obj, y, x_ref, s), (
                f"descent inequality failed at d={d}, q={q}")
            checked += 1
    _verdict(capsys, 6, True, f"{checked} pairs across 4 instances")


def test_flow_envelopes_and_closed_form(capsys):
    """Criterion 7: energy and gap envelopes along the flow, plus an
    independent matrix-exponential cross-check."""
    obj, x0 = _quadratic_instance(10, 1e-2, rot_seed=7, b_seed=11, x0_seed=12)
    mu = 1e-2 * BIG_L
    beta = 1.0 / math.sqrt(BIG_L)
    bundles = [
        ode_params_sc(mu, 2.0 * math.sqrt(mu), beta, 0.0),
        ode_params_sc(mu, 2.0 * math.sqrt(mu), beta, 1.0),
        ode_params_qg(mu, 2.0 * math.sqrt(mu), beta, 0.0),
        ode_params_qg(mu, (2.0 - math.sqrt(2.0) / 2.0) * math.sqrt(mu), beta, 1.0),
    ]
    sine = pl_sine_problem()
    jobs = [(obj, x0, p) for p in bundles]
    jobs.append((sine, np.array([2.0]),
                 ode_params_pl(sine.pl_constant, 1.0 / math.sqrt(sine.lipschitz))))

    n_traj = 0
    max_wall = 0.0
    for problem, start, params in jobs:
        horizon = 20.0 / params.decay_rate
        tr = ode_run(problem, params, start, horizon, dt=1e-3)
        t = tr.column("t")
        eps = tr.column("energy")
        envelope = tr.column("envelope")
        gap = tr.column("f_gap")
        eps0 = eps[0]
        assert tr.summary["certificates_failed"] == 0, params.regime
        assert np.all(
            eps <= eps0 * np.exp(-params.decay_rate * t) * (1.0 + 1e-6)
            + 1e-18 * abs(eps0)), f"energy envelope violated for {params.regime}"
        assert np.all(
            gap <= envelope * (1.0 + 1e-6)
            + 1e-15 * (1.0 + abs(problem.min_value))), (
            f"gap envelope violated for {params.regime}")
        assert tr.summary["wall_time_s"] <= 10.0
        max_wall = max(max_wall, tr.summary["wall_time_s"])
        n_traj += 1

    small, small_x0 = _quadratic_instance(4, 1e-2, rot_seed=9, b_seed=21,
                                          x0_seed=22)
    worst_err = 0.0
    for params in (bundles[0], bundles[3]):
        horizon = 20.0 / params.decay_rate
        tr = ode_run(small, params, small_x0, horizon, dt=1e-3)
        t = tr.column("t")
        gap = tr.column("f_gap")
        idx = np.linspace(0, len(t) - 1, 9).astype(int)
        ref = _expm_gap(small, params, small_x0, t[idx])
        err = float(np.max(np.abs(gap[idx] - ref)))
        tol = 1e-8 * max(1.0, gap[0])
        assert err <= tol, f"closed-form mismatch {err:.3e} for {params.regime}"
        worst_err = max(worst_err, err)
    _verdict(capsys, 7, True,
             f"{n_traj} trajectories, max wall {max_wall:.1f} s, "
             f"closed-form err {worst_err:.1e}")


def test_rate_ratio_windows(capsys):
    """Criterion 8: small-q rate ratios against their pinned windows.

    Both ratios are taken against the classical (gamma=1, omega=0) bundle
    and both are claims about the limit q -> 0, so they are checked over a
    descending ladder of q. The stepsize ratio of (gamma=2, omega=0) is
    sqrt(2) (1 + s) / (1 + sqrt(2) s) with s = sqrt(q) and must sit in
    [1.40, 1.43] at every rung. The speedup ratio of (gamma=2, omega=1) is
    2 (1 + s) / (1 + 4 s): it must rise strictly towards 2 as q falls,
    never exceed 2, and sit in [1.96, 2.04] at every rung with
    q <= 1e-5. It first enters that window at q ~ 4.69e-5
    (sqrt(q) = 0.04 / 5.84), so the top rung q = 1e-4, where it is
    1.9423, is held only to the monotone approach.
    """
    ladder = (1e-4, 1e-5, 1e-6, 1e-8)
    speedups, steps = [], []
    for q in ladder:
        mu = q * BIG_L
        base = agm_params_sc(mu, BIG_L, 1.0, 0.0).rho
        speedups.append(agm_params_sc(mu, BIG_L, 2.0, 1.0).rho / base)
        steps.append(agm_params_sc(mu, BIG_L, 2.0, 0.0).rho / base)
    ok_step = all(1.40 <= r <= 1.43 for r in steps)
    ok_limit = all(a < b for a, b in zip(speedups, speedups[1:])) and all(
        r <= 2.0 for r in speedups)
    small_q = [(q, r) for q, r in zip(ladder, speedups) if q <= 1e-5]
    ok_speedup = all(1.96 <= r <= 2.04 for _, r in small_q)
    rungs = ", ".join(f"q={q:g}: {r:.6f}/{t:.6f}"
                      for q, r, t in zip(ladder, speedups, steps))
    _verdict(capsys, 8, ok_step and ok_limit and ok_speedup,
             f"speedup/stepsize ratios {rungs}; windows [1.96, 2.04] for "
             f"q <= 1e-5 and [1.40, 1.43] throughout")
    assert ok_step, f"stepsize ratios {steps!r} not all in [1.40, 1.43]"
    assert ok_limit, (
        f"speedup ratios {speedups!r} do not rise strictly to at most 2 "
        f"as q falls through {ladder}")
    assert ok_speedup, (
        f"speedup ratios (q, ratio) {small_q!r} not all in [1.96, 2.04]")


def test_oracle_hygiene(capsys):
    """Criterion 9: gradients, integrator order, and the rate fitter."""
    rng = default_rng(81)
    quad, _ = _quadratic_instance(8, 1e-2, rot_seed=5, b_seed=6, x0_seed=7)
    sine = pl_sine_problem()
    lasso, _ = _lasso_grid_instance(6, 1e-1, seed=47)
    worst_fd = 0.0
    for problem in (quad, sine, lasso.smooth):
        points = [2.0 * rng.standard_normal(problem.dimension) for _ in range(5)]
        worst_fd = max(worst_fd, finite_diff_gradient_check(problem, points))
    fd_ok = worst_fd <= 1e-6

    small, small_x0 = _quadratic_instance(2, 1e-1, rot_seed=3, b_seed=4,
                                          x0_seed=5)
    params = ode_params_sc(1e-1 * BIG_L, 2.0 * math.sqrt(1e-1 * BIG_L),
                           1.0 / math.sqrt(BIG_L), 0.0)
    horizon = 2.0
    ref = _expm_gap(small, params, small_x0, [horizon])[0]
    errs, c = [], _coefficients(params)
    for dt in (0.05, 0.025):
        x, z = small_x0, np.zeros(2)
        for k in range(1, round(horizon / dt) + 1):
            x, z = rk4_step(x, z, dt, small.grad, c, k)
        errs.append(abs((small.eval(x) - small.min_value) - ref))
    order = math.log2(errs[0] / errs[1])
    order_ok = 3.7 <= order <= 4.3

    from momcert import Trace
    k = np.arange(200, dtype=float)
    synth = Trace(kind="agm", columns=("k", "f_gap_y"),
                  data=np.column_stack([k, 7.0 * 1.1 ** (-k)]), summary={})
    fit_err = abs(fit_linear_rate(synth) - 0.1)
    fit_ok = fit_err <= 1e-12

    ok = fd_ok and order_ok and fit_ok
    _verdict(capsys, 9, ok,
             f"fd err {worst_fd:.1e}, rk4 order {order:.2f}, fit err {fit_err:.1e}")
    assert fd_ok, f"finite difference mismatch {worst_fd:.3e}"
    assert order_ok, f"observed integrator order {order:.3f}"
    assert fit_ok, f"rate fit error {fit_err:.3e}"
