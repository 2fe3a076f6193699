"""Proximal momentum method: equivalences, certificates, descent lemma.

The three-way orbit comparison pins the g = 0 case against both the
smooth solver (driven from a hand-built state) and an independently
written classical two-sequence scheme.
"""

from dataclasses import replace

import numpy as np
import pytest

from momcert import (
    DISCRETE_COLUMNS,
    AgmState,
    DivergenceError,
    ExperimentConfig,
    SmoothObjective,
    Trace,
    agm_params_sc,
    agm_step,
    certify_trace,
    failed_checks,
    grad_mapping,
    lasso_problem,
    nesterov_reference_step,
    pgm_energy,
    pgm_init,
    pgm_params_qg,
    pgm_params_sc,
    pgm_run,
    pgm_step,
    quadratic_problem,
)
from momcert.harness import build_params, build_problem

from _reference import composite_from_smooth, prox_descent_check


def _lasso_instance(seed=12, rows=20, cols=6, lam=2.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    b = rng.standard_normal(rows)
    return lasso_problem(a, b, lam)


class TestInit:
    def test_zero_velocity_start(self):
        obj = _lasso_instance()
        p = pgm_params_sc(obj.smooth.strong_convexity, obj.smooth.lipschitz, 0.0)
        st = pgm_init(obj, p, np.ones(6))
        np.testing.assert_array_equal(st.x_prev, st.x_curr)
        np.testing.assert_array_equal(st.v, 0.0)
        assert st.k == 0

    def test_stationary_at_minimizer(self):
        obj = _lasso_instance()
        p = pgm_params_sc(obj.smooth.strong_convexity, obj.smooth.lipschitz, 1.0)
        st = pgm_init(obj, p, obj.minimizer)
        assert pgm_energy(st, obj.total(st.x_curr), p, obj.minimizer,
                          obj.min_value) == 0.0
        st = pgm_step(st, obj, p)
        assert obj.total(st.x_curr) - obj.min_value <= 1e-12 * (1 + abs(obj.min_value))

    def test_shape_validation(self):
        obj = _lasso_instance()
        p = pgm_params_sc(obj.smooth.strong_convexity, obj.smooth.lipschitz, 0.0)
        with pytest.raises(ValueError):
            pgm_init(obj, p, np.zeros(7))


class TestThreeWayEquivalence:
    """With g = 0 and matched damping, the proximal orbit, the smooth
    solver's orbit and the classical scheme are the same sequence."""

    def test_orbits_coincide(self):
        quad = quadratic_problem(np.geomspace(1.0, 100.0, 3),
                                 np.array([1.0, 0.0, -2.0]), seed=2)
        comp = composite_from_smooth(quad)
        # alpha = 2 sits at the proximal cap and is admissible for the
        # smooth bundle once gamma = 1 + alpha h = 1.2 <= 2 sqrt(1.2)
        pp = pgm_params_sc(1.0, 100.0, omega=0.0, alpha=2.0)
        pa = agm_params_sc(1.0, 100.0, gamma=1.0 + 0.2, omega=0.0, alpha=2.0)
        assert pa.gamma / (1.0 + pa.alpha * pa.h) - 1.0 == 0.0
        tau = 1.0 / (1.0 + 0.2)
        h = pp.h
        x0 = quad.minimizer + np.array([2.0, -1.0, 0.5])
        scale = max(1.0, float(np.linalg.norm(x0)))

        pgm_state = pgm_init(comp, pp, x0)
        # Smooth-solver state whose companion sequence starts at x0. The
        # correspondence is offset by one: the proximal x-sequence tracks
        # the smooth y-sequence, the proximal extrapolation points track
        # the smooth x-iterates one index back.
        g0 = quad.grad(x0)
        agm_state = AgmState(k=0, x=x0, y=x0.copy(), v=-(1.0 + tau) * h * g0,
                             grad_x=g0, hg=h * h * g0, grad_sq=float(g0.dot(g0)))
        y_prev, y_curr = x0, x0

        for _ in range(100):
            prev_agm_x = agm_state.x
            pgm_state = pgm_step(pgm_state, comp, pp)
            agm_state = agm_step(agm_state, quad, pa)
            x_ref, y_next = nesterov_reference_step(y_prev, y_curr, tau, h, quad)
            # proximal extrapolation point == classical x == lagged smooth x
            assert np.linalg.norm(pgm_state.y - x_ref) <= 1e-12 * scale
            assert np.linalg.norm(pgm_state.y - prev_agm_x) <= 1e-12 * scale
            # proximal x-sequence == smooth companion sequence == classical y
            assert np.linalg.norm(pgm_state.x_curr - agm_state.y) <= 1e-12 * scale
            assert np.linalg.norm(pgm_state.x_curr - y_next) <= 1e-12 * scale
            y_prev, y_curr = y_curr, y_next

    def test_gradient_mapping_degenerates_to_gradient(self):
        quad = quadratic_problem([1.0, 5.0], [1.0, 1.0])
        comp = composite_from_smooth(quad)
        y = np.array([0.7, -0.2])
        np.testing.assert_allclose(
            grad_mapping(comp, y, 0.04), quad.grad(y), atol=1e-14
        )


class TestCertify:
    def test_boundary(self):
        p = pgm_params_sc(1.0, 100.0, 0.5)
        exact = 1.0 / (1.0 + p.A * p.h)
        data = np.full((2, len(DISCRETE_COLUMNS)), np.nan)
        failed = []
        for e_next in (exact, exact * 1.05):
            data[:, DISCRETE_COLUMNS.index("energy")] = 1.0, e_next
            tr = certify_trace(Trace("pgm", DISCRETE_COLUMNS, data.copy(),
                                     {"certified": True, "A": p.A, "h": p.h}))
            assert tr.summary["certificates_checked"] == 1
            failed.append(failed_checks(tr)[0].tolist())
        assert failed == [[], [0]]


class TestRun:
    @pytest.mark.parametrize("regime,omega", [
        ("sc", 0.0), ("sc", 0.5), ("sc", 1.0),
        ("qg", 0.0), ("qg", 1.0),
    ])
    def test_certificates_and_bound(self, regime, omega):
        obj = _lasso_instance()
        mu = obj.smooth.strong_convexity
        big_l = obj.smooth.lipschitz
        p = (pgm_params_sc(mu, big_l, omega) if regime == "sc"
             else pgm_params_qg(obj.qg_constant, big_l, omega))
        rng = np.random.default_rng(13)
        tr = pgm_run(obj, p, obj.minimizer + rng.standard_normal(6), 500)
        s = tr.summary
        assert s["certified"] and s["aborted_at"] is None
        assert s["certificates_failed"] == 0
        assert s["certificates_checked"] == 500

        e = tr.column("energy")
        assert np.all(np.diff(e) <= 1e-9 * np.abs(e[:-1]) + 1e-12 * (1 + abs(e[0])))

        gap = tr.column("f_gap_y")
        bound = tr.column("theorem_bound")
        floor = 1e-13 * (1.0 + abs(obj.min_value) + gap[0])
        assert np.all(gap <= bound * (1.0 + 1e-9) + floor)

    def test_row_zero_repeats_the_start(self):
        obj = _lasso_instance()
        p = pgm_params_sc(obj.smooth.strong_convexity, obj.smooth.lipschitz, 0.0)
        tr = pgm_run(obj, p, np.full(6, 2.0), 50)
        assert tr.column("f_gap_x")[0] == tr.column("f_gap_y")[0]

    def test_solution_is_sparse_here(self):
        # sanity of the test instance itself: the penalty actually bites
        obj = _lasso_instance()
        assert np.sum(np.abs(obj.minimizer) < 1e-10) >= 1

    def test_divergence_aborts(self):
        obj = _lasso_instance()
        p = pgm_params_sc(obj.smooth.strong_convexity, obj.smooth.lipschitz, 0.0)
        bad = replace(p, h=1.0)  # step length far beyond 1 / L
        tr = pgm_run(obj, bad, np.full(6, 2.0), 200)
        assert tr.summary["aborted_at"] is not None

    def test_uncertified_path(self):
        obj = replace(_lasso_instance(), minimizer=None, min_value=None)
        p = pgm_params_sc(obj.smooth.strong_convexity, obj.smooth.lipschitz, 0.0)
        tr = pgm_run(obj, p, np.full(6, 2.0), 60)
        assert not tr.summary["certified"]
        assert tr.summary["certificates_checked"] == 0
        assert np.all(np.isnan(tr.column("energy")))
        assert tr.column("f_gap_y").min() == 0.0

    def test_rejects_zero_iters(self):
        obj = _lasso_instance()
        p = pgm_params_sc(obj.smooth.strong_convexity, obj.smooth.lipschitz, 0.0)
        with pytest.raises(ValueError):
            pgm_run(obj, p, np.zeros(6), 0)


class TestStep:
    @pytest.mark.parametrize("d", [1, 4])
    def test_finite_iterate_whose_square_overflows_does_not_abort(self, d):
        # zero gradient from rest: x stays at 1e200 while ||x||^2 overflows
        flat = composite_from_smooth(SmoothObjective(
            dimension=d, eval=lambda x: 0.0, grad=lambda x: np.zeros(d), lipschitz=1.0))
        p = pgm_params_sc(1.0, 100.0, 0.0)
        with np.errstate(over="ignore"):
            nxt = pgm_step(pgm_init(flat, p, np.full(d, 1e200)), flat, p)
            assert nxt.x_curr.dot(nxt.x_curr) == np.inf
        assert np.array_equal(nxt.x_curr, np.full(d, 1e200))

    def test_nan_iterate_raises_at_the_step_it_makes(self):
        obj = _lasso_instance()
        p = pgm_params_sc(obj.smooth.strong_convexity, obj.smooth.lipschitz, 0.0)
        st = pgm_step(pgm_init(obj, p, np.full(6, 2.0)), obj, p)
        with pytest.raises(DivergenceError, match="not finite") as err:
            pgm_step(replace(st, x_curr=np.full(6, np.nan)), obj, p)
        assert err.value.k == 2


class TestProxDescent:
    def test_holds_on_lasso_pairs(self):
        obj = _lasso_instance()
        s = 1.0 / obj.smooth.lipschitz
        rng = np.random.default_rng(14)
        for _ in range(50):
            y = rng.standard_normal(6) * 3.0
            x_ref = rng.standard_normal(6) * 3.0
            assert prox_descent_check(obj, y, x_ref, s)
            assert prox_descent_check(obj, y, x_ref, s, mu=0.0)

    def test_holds_without_prox_term(self):
        comp = composite_from_smooth(
            quadratic_problem(np.geomspace(1.0, 30.0, 4), np.ones(4), seed=15)
        )
        s = 1.0 / comp.smooth.lipschitz
        rng = np.random.default_rng(15)
        for _ in range(20):
            assert prox_descent_check(
                comp, rng.standard_normal(4), rng.standard_normal(4), s
            )

    def test_rejects_an_overclaimed_mu(self):
        # f = x^2 / 2, s = 1, y = 2, x_ref = -2: claiming mu = 2 forces the
        # right side to -8 while the left side is 0
        comp = composite_from_smooth(quadratic_problem([1.0], [0.0]))
        assert not prox_descent_check(
            comp, np.array([2.0]), np.array([-2.0]), 1.0, mu=2.0
        )

    def test_gap_lower_bound_along_a_certified_run(self):
        # the angle inequality the certificates lean on, checked at the
        # iterates the solver actually visits:
        # <G, x_next - x*> >= gap_next / (1 - q) - s ||G||^2 / 2
        #                     + mu ||x_next - x*||^2 / (2 (1 - q))
        obj = _lasso_instance()
        mu = obj.smooth.strong_convexity
        p = pgm_params_sc(mu, obj.smooth.lipschitz, 1.0)
        s = p.h * p.h
        q = mu * s
        st = pgm_init(obj, p, obj.minimizer + 2.0)
        for _ in range(100):
            y_scan = st.x_curr + (st.x_curr - st.x_prev) / (1.0 + p.alpha * p.h)
            g = grad_mapping(obj, y_scan, s)
            st = pgm_step(st, obj, p)
            dx = st.x_curr - obj.minimizer
            lhs = float(g @ dx)
            gap = obj.total(st.x_curr) - obj.min_value
            rhs = (gap / (1.0 - q)
                   - 0.5 * s * float(g @ g)
                   + 0.5 * mu / (1.0 - q) * float(dx @ dx))
            assert lhs >= rhs - 1e-9 * (1.0 + abs(lhs))


def _loop_run(obj, p, x0, iters, certify=True):
    """pgm_run written as a loop over the public per-step functions.

    Returns (data, (k, slack, passed) of every check, aborted_at); the
    driver must reproduce data bit for bit and fail exactly these checks.
    """
    xstar, fstar = obj.minimizer, obj.min_value
    certified = certify and xstar is not None and fstar is not None
    st = pgm_init(obj, p, x0)
    e_now = (pgm_energy(st, obj.total(st.x_curr), p, xstar, fstar) if certified
             else np.nan)
    tol_abs = 1e-12 * (1.0 + abs(e_now))
    gap0 = obj.total(st.x_prev) - fstar if certified else np.nan
    rows, results, aborted = [], [], None
    for k in range(iters + 1):
        f_prev, f_curr = obj.total(st.x_prev), obj.total(st.x_curr)
        gnorm = np.linalg.norm(grad_mapping(obj, st.y, p.h * p.h))
        row = [k, f_prev, f_curr, gnorm, e_now, np.nan, np.nan]
        if certified:
            row[1:3] = f_prev - fstar, f_curr - fstar
            row[6] = p.bound_prefactor * gap0 / (1.0 + p.rho) ** k
        rows.append(row)
        if certified and f_curr - fstar > 1e6 * max(1.0, gap0):
            aborted = k
            break
        if k == iters:
            break
        try:
            st = pgm_step(st, obj, p)
        except DivergenceError as err:
            aborted = err.k
            break
        if certified:
            e_next = pgm_energy(st, obj.total(st.x_curr), p, xstar, fstar)
            slack = e_now - (1.0 + p.A * p.h) * e_next  # (1 + A h) E_{k+1} <= E_k
            results.append((k, slack, slack >= -(tol_abs + 1e-9 * abs(e_now))))
            rows[-1][5] = slack
            e_now = e_next
    data = np.array(rows, dtype=float)
    if not certified:
        best = min(np.nanmin(data[:, 1]), np.nanmin(data[:, 2]))
        data[:, 1:3] -= best
    return data, results, aborted


def _spread_lasso():
    """An 8-d lasso instance with q = 0.01, where a tripled A fails checks."""
    config = ExperimentConfig(problem="lasso", d=8, q=0.01, seed=2, omega=1.0)
    obj, x0 = build_problem(config)
    return obj, build_params(config, obj), x0


def _case(certify=True, scale_a=1.0):
    obj, p, x0 = _spread_lasso()
    return obj, replace(p, A=scale_a * p.A), x0, 300, certify


def _divergent_case():
    obj = _lasso_instance()
    p = pgm_params_sc(obj.smooth.strong_convexity, obj.smooth.lipschitz, 0.0)
    return obj, replace(p, h=1.0), np.full(6, 2.0), 200, True


class TestRunEquivalence:
    """The shared driver against the public step, energy and certificate."""

    @pytest.mark.parametrize("case", [
        pytest.param(lambda: _case(), id="certified"),
        pytest.param(lambda: _case(certify=False), id="uncertified"),
        pytest.param(_divergent_case, id="aborted"),
        pytest.param(lambda: _case(scale_a=3.0), id="tripled-A"),
    ])
    def test_data_and_failed_certificates_match_the_loop(self, case):
        obj, p, x0, iters, certify = case()
        tr = pgm_run(obj, p, x0, iters, certify=certify)
        data, results, aborted = _loop_run(obj, p, x0, iters, certify)
        assert tr.data.tobytes() == data.tobytes()
        failed = [(k, slack) for k, slack, passed in results if not passed]
        assert list(zip(*(a.tolist() for a in failed_checks(tr)))) == failed
        s = tr.summary
        assert s["aborted_at"] == aborted
        assert s["certificates_checked"] == len(results)
        assert s["certificates_failed"] == len(failed)

    def test_tripled_rate_fails_some_checks(self):
        tr = pgm_run(*_case(scale_a=3.0)[:4])
        assert 0 < tr.summary["certificates_failed"] < 300

    def test_run_calls_the_public_step_and_energy(self, monkeypatch):
        # one pgm_step per step and one pgm_energy per certified row
        steps, rows = [], []

        def step(state, *args):
            steps.append(state.k)
            return pgm_step(state, *args)

        def energy(state, *args):
            rows.append(state.k)
            return pgm_energy(state, *args)

        monkeypatch.setattr("momcert.pgm.pgm_step", step)
        monkeypatch.setattr("momcert.pgm.pgm_energy", energy)
        tr = pgm_run(*_case()[:4])
        assert steps == list(range(tr.n_rows - 1))
        assert rows == list(range(tr.n_rows))


class TestOracleBudget:
    def test_one_gradient_one_prox_one_value_per_step(self):
        # the gradient mapping taken by the step also fills the next row's
        # grad_norm, and F(x_{k+1}) serves the energy and both gap columns
        counts = {"eval": 0, "grad": 0, "prox": 0}

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)
            return call

        obj, p, x0 = _spread_lasso()
        smooth = replace(obj.smooth, eval=counted("eval", obj.smooth.eval),
                         grad=counted("grad", obj.smooth.grad))
        prox_term = replace(obj.prox_term, prox=counted("prox", obj.prox_term.prox))
        iters = 200
        tr = pgm_run(replace(obj, smooth=smooth, prox_term=prox_term), p, x0, iters)
        assert tr.summary["certificates_checked"] == iters
        for name in ("eval", "grad", "prox"):
            assert iters <= counts[name] <= iters + 2, (name, counts)
