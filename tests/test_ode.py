"""Continuous-time flow: vector field, integrator order, certificates.

For quadratics the flow is an affine ODE, so scipy's matrix exponential
provides an exact independent solution; the RK4 orbit and the certified
energy decay are both measured against it.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from momcert import (
    ODE_COLUMNS,
    OdeState,
    Regime,
    SmoothObjective,
    Trace,
    certify_trace,
    default_dt,
    failed_checks,
    flow_vector_field,
    ode_energy,
    ode_params_pl,
    ode_params_qg,
    ode_params_sc,
    ode_run,
    pl_sine_problem,
    quadratic_problem,
    rk4_step,
)
from momcert.certificates import DivergenceError
from momcert.params import OdeParams


def _expm_orbit(obj, params, x0, t):
    """Exact flow state at time t for a quadratic objective.

    grad f(x) = Qx - b turns the system into dw/dt = M w + c with
    w = (x, z); the affine part rides along in an augmented matrix.
    """
    d = obj.dimension
    q = np.column_stack([obj.grad(e) - obj.grad(np.zeros(d)) for e in np.eye(d)])
    b = -obj.grad(np.zeros(d))
    m = np.block([
        [-params.beta * q, np.eye(d)],
        [(params.alpha * params.beta - params.gamma) * q,
         -params.alpha * np.eye(d)],
    ])
    c = np.concatenate([params.beta * b, -(params.alpha * params.beta - params.gamma) * b])
    aug = np.zeros((2 * d + 1, 2 * d + 1))
    aug[: 2 * d, : 2 * d] = m
    aug[: 2 * d, -1] = c
    w = expm(t * aug) @ np.concatenate([x0, np.zeros(d), [1.0]])
    return w[:d], w[d : 2 * d]


class TestVectorField:
    def test_hand_values(self):
        # f = 2 x^2 (grad 4x), alpha = 1, beta = 0.5, gamma = 2:
        # at x = 1, z = 0: dx = -0.5 * 4 = -2, dz = (0.5 - 2) * 4 = -6
        obj = quadratic_problem([4.0], [0.0])
        p = ode_params_pl(2.0, beta=0.5, theta=1.5)
        assert p.alpha == 1.0 and p.gamma == 2.0
        dx, dz = flow_vector_field(OdeState(0.0, np.array([1.0]), np.zeros(1)), obj, p)
        np.testing.assert_allclose(dx, [-2.0])
        np.testing.assert_allclose(dz, [-6.0])

    def test_beta_zero_is_the_plain_momentum_flow(self):
        # with beta = 0 the reformulation collapses to x' = z,
        # z' = -alpha z - gamma grad f(x)
        obj = quadratic_problem([3.0], [1.0])
        p = OdeParams(
            regime=Regime.STRONGLY_CONVEX, mu=3.0, alpha=2.0, beta=0.0,
            gamma=1.5, theta=1.0, omega=0.0, xi=1.0, eta=0.0,
            decay_rate=1.0, prefactor=2.0,
        )
        st = OdeState(0.0, np.array([2.0]), np.array([-1.0]))
        dx, dz = flow_vector_field(st, obj, p)
        np.testing.assert_allclose(dx, st.z)
        np.testing.assert_allclose(dz, -2.0 * st.z - 1.5 * obj.grad(st.x))


class TestRk4:
    def test_fixed_point_of_zero_field(self):
        flat = SmoothObjective(dimension=1, eval=lambda x: 0.0,
                               grad=lambda x: np.zeros(1), lipschitz=1.0)
        p = ode_params_pl(1.0, beta=0.5)
        st = OdeState(0.0, np.array([1.5]), np.zeros(1))
        nxt = rk4_step(st, 0.1, flat, p)
        np.testing.assert_array_equal(nxt.x, st.x)
        np.testing.assert_array_equal(nxt.z, st.z)
        assert nxt.t == pytest.approx(0.1)

    def test_rejects_nonpositive_dt(self):
        obj = quadratic_problem([1.0], [0.0])
        p = ode_params_pl(1.0, beta=1.0)
        with pytest.raises(ValueError):
            rk4_step(OdeState(0.0, np.ones(1), np.zeros(1)), 0.0, obj, p)

    def test_fourth_order_against_exact_flow(self):
        obj = quadratic_problem([1.0, 4.0], [1.0, -1.0], seed=0)
        p = ode_params_sc(1.0, alpha=2.0, beta=0.5, omega=0.0)
        x0 = obj.minimizer + np.array([1.0, -2.0])
        x_exact, _ = _expm_orbit(obj, p, x0, 2.0)

        errs = []
        for dt in (0.05, 0.025):
            st = OdeState(0.0, x0, np.zeros(2))
            for _ in range(round(2.0 / dt)):
                st = rk4_step(st, dt, obj, p)
            errs.append(np.linalg.norm(st.x - x_exact))
        order = math.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_divergence_detected_at_huge_step(self):
        obj = quadratic_problem([1.0, 400.0], [0.0, 0.0])
        p = ode_params_sc(1.0, alpha=2.0, beta=0.05, omega=0.0)
        st = OdeState(0.0, np.array([1.0, 1.0]), np.zeros(2))
        with pytest.raises(DivergenceError), np.errstate(all="ignore"):
            for _ in range(400):
                st = rk4_step(st, 1.0, obj, p)


def _blow_up_objective(good_steps):
    """Flat 1-d objective whose gradient turns NaN after good_steps RK4 steps.

    Each step makes four gradient calls, so the step into sample
    good_steps + 1 is the first to produce a non-finite state.
    """
    calls = [0]

    def grad(x):
        calls[0] += 1
        return np.full(1, np.nan if calls[0] > 4 * good_steps else 0.0)

    return SmoothObjective(dimension=1, eval=lambda x: 0.5 * float(x @ x),
                           grad=grad, lipschitz=1.0)


class TestDivergenceIndex:
    def test_rk4_step_reports_the_sample_it_produces(self):
        obj = _blow_up_objective(good_steps=7)
        p = ode_params_pl(1.0, beta=0.5)
        st = OdeState(0.0, np.array([1.0]), np.zeros(1))
        for _ in range(7):
            st = rk4_step(st, 0.25, obj, p)
        with pytest.raises(DivergenceError) as info:
            rk4_step(st, 0.25, obj, p)
        assert info.value.k == 8

    def test_run_aborts_at_the_same_index(self):
        p = ode_params_pl(1.0, beta=0.5)
        tr = ode_run(_blow_up_objective(good_steps=7), p, np.array([1.0]),
                     horizon=10.0, dt=0.25)
        assert tr.summary["aborted_at"] == 8
        assert tr.summary["rows"] == 8
        np.testing.assert_array_equal(tr.column("t"), np.arange(8) * 0.25)


class TestEnergy:
    def test_rest_start_value(self):
        # z(0) = 0 gives eps(0) = (xi^2 - eta) ||x0 - x*||^2 / 2 + theta gap0
        obj = quadratic_problem(np.geomspace(1.0, 9.0, 3), np.ones(3), seed=3)
        p = ode_params_sc(1.0, alpha=1.5, beta=0.4, omega=0.5)
        x0 = obj.minimizer + np.array([1.0, 0.0, -2.0])
        f0 = obj.eval(x0)
        eps = ode_energy(x0, np.zeros(3), f0, p, obj.minimizer, obj.min_value)
        dx2 = float((x0 - obj.minimizer) @ (x0 - obj.minimizer))
        gap0 = obj.eval(x0) - obj.min_value
        expected = 0.5 * (p.xi**2 - p.eta) * dx2 + p.theta * gap0
        assert eps == pytest.approx(expected, rel=1e-13)
        assert float(f0 - obj.min_value) == pytest.approx(gap0, rel=1e-13)

    def test_vanishes_at_rest_on_the_minimizer(self):
        obj = quadratic_problem([2.0, 5.0], [1.0, 1.0])
        p = ode_params_qg(2.0, alpha=1.0, beta=0.3, omega=1.0)
        eps = ode_energy(obj.minimizer, np.zeros(2), obj.eval(obj.minimizer), p,
                         obj.minimizer, obj.min_value)
        assert abs(eps) <= 1e-14


class TestRun:
    def test_grid_and_envelope_columns(self):
        obj = quadratic_problem([1.0, 4.0], [0.0, 1.0])
        p = ode_params_sc(1.0, alpha=2.0, beta=0.5, omega=0.0)
        tr = ode_run(obj, p, obj.minimizer + 1.0, horizon=1.0, dt=0.3)
        t = tr.column("t")
        np.testing.assert_allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
        gap0 = tr.column("f_gap")[0]
        np.testing.assert_allclose(
            tr.column("envelope"),
            p.prefactor * gap0 * np.exp(-p.decay_rate * t),
            rtol=1e-13,
        )

    @pytest.mark.parametrize("make", [
        lambda mu: ode_params_sc(mu, 2.0 * math.sqrt(mu), 0.1, 0.0),
        lambda mu: ode_params_sc(mu, 2.0 * math.sqrt(mu), 0.1, 1.0),
        lambda mu: ode_params_qg(mu, 2.0 * math.sqrt(mu), 0.1, 1.0),
    ])
    def test_certified_run_is_clean_and_tracks_exact_flow(self, make):
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 4), np.ones(4), seed=6)
        p = make(1.0)
        x0 = obj.minimizer + np.array([2.0, -1.0, 0.5, 1.5])
        tr = ode_run(obj, p, x0, horizon=6.0)
        s = tr.summary
        assert s["certified"] and s["aborted_at"] is None
        assert s["certificates_checked"] == s["rows"]  # n step certs + global
        assert s["certificates_failed"] == 0
        assert s["min_certificate_slack"] >= 0.0
        # gap stays below its certified envelope at every sample
        assert np.all(tr.column("f_gap") <=
                      tr.column("envelope") * (1.0 + 1e-6) + 1e-15)
        # terminal state agrees with the matrix-exponential solution
        x_exact, _ = _expm_orbit(obj, p, x0, 6.0)
        fin = obj.eval(np.asarray(x_exact))
        assert abs(tr.column("f_gap")[-1] - (fin - obj.min_value)) <= 1e-8

    def test_pl_flow_on_the_sine_problem(self):
        obj = pl_sine_problem()
        p = ode_params_pl(obj.pl_constant, beta=1.0 / math.sqrt(obj.lipschitz))
        tr = ode_run(obj, p, np.array([2.0]), horizon=10.0)
        s = tr.summary
        assert s["certificates_failed"] == 0
        assert np.all(tr.column("f_gap") <=
                      tr.column("envelope") * (1.0 + 1e-6) + 1e-15)

    def test_default_dt_formula(self):
        obj = quadratic_problem([1.0, 25.0], [0.0, 0.0])
        p = ode_params_sc(1.0, alpha=2.0, beta=0.2, omega=0.0)
        assert default_dt(obj, p) == pytest.approx(
            0.1 / math.sqrt(25.0 * (1.0 + 0.4)), rel=1e-15
        )

    def test_uncertified_flow(self):
        obj = quadratic_problem([1.0, 4.0], [1.0, 1.0])
        anon = replace(obj, minimizer=None, min_value=None)
        p = ode_params_sc(1.0, alpha=2.0, beta=0.5, omega=0.0)
        tr = ode_run(anon, p, np.full(2, 3.0), horizon=2.0)
        assert not tr.summary["certified"]
        assert tr.summary["certificates_checked"] == 0
        assert np.all(np.isnan(tr.column("envelope")))
        assert tr.column("f_gap").min() == 0.0

    def test_unstable_step_aborts(self):
        obj = quadratic_problem([1.0, 400.0], [0.0, 0.0])
        p = ode_params_sc(1.0, alpha=2.0, beta=0.05, omega=0.0)
        tr = ode_run(obj, p, np.ones(2), horizon=400.0, dt=1.0)
        s = tr.summary
        assert s["aborted_at"] is not None
        assert s["certificates_checked"] == 0
        assert s["rows"] < 401

    def test_input_validation(self):
        obj = quadratic_problem([1.0, 4.0], [0.0, 0.0])
        p = ode_params_sc(1.0, alpha=2.0, beta=0.5, omega=0.0)
        with pytest.raises(ValueError):
            ode_run(obj, p, np.zeros(3), horizon=1.0)
        with pytest.raises(ValueError):
            ode_run(obj, p, np.zeros(2), horizon=-1.0)
        with pytest.raises(ValueError):
            ode_run(obj, p, np.zeros(2), horizon=1.0, dt=-0.1)


def _certified(eps, rate, dt, big_l=4.0, alpha=1.0, beta=0.5):
    """certify_trace on a flow trace with energy column eps at decay `rate`."""
    n = len(eps)
    data = np.full((n, len(ODE_COLUMNS)), np.nan)
    data[:, 0] = np.arange(n) * dt
    data[:, 2] = eps
    return certify_trace(Trace(
        kind="ode", columns=ODE_COLUMNS, data=data,
        summary={"dt": dt, "L": big_l, "alpha": alpha, "beta": beta,
                 "decay_rate": rate, "certified": True, "aborted_at": None},
    ))


class TestCertify:
    def test_exact_decay_passes(self):
        rate, dt = 1.0, 0.01
        t = np.arange(200) * dt
        tr = _certified(3.0 * np.exp(-rate * t), rate, dt)
        s = tr.summary
        # 199 step checks into samples 1 .. 199, then the global one
        assert s["certificates_checked"] == 200 and s["certificates_failed"] == 0
        col = tr.column("certificate_slack")
        assert s["envelope_slack"] >= 0 and np.all(col[1:] >= 0) and np.isnan(col[0])

    def test_single_bump_is_caught(self):
        rate, dt = 1.0, 0.01
        t = np.arange(200) * dt
        eps = 3.0 * np.exp(-rate * t)
        eps[50] *= 1.01
        tr = _certified(eps, rate, dt)
        k, slack = failed_checks(tr)
        # the jump into sample 50 fails; the global envelope fails with it
        assert 50 in k.tolist()
        assert k[-1] == -1 and slack[-1] == tr.summary["envelope_slack"] < 0
        assert tr.column("t")[50] == pytest.approx(0.5)

    def test_decay_slower_than_claimed_fails_globally(self):
        rate, dt = 1.0, 0.01
        t = np.arange(400) * dt
        tr = _certified(3.0 * np.exp(-0.8 * rate * t), rate, dt)
        assert tr.summary["envelope_slack"] < 0
        assert failed_checks(tr)[0][-1] == -1

    def test_integrator_allowance_scales_with_dt(self):
        # a relative wobble below (Lambda dt)^4 must be tolerated
        rate, dt = 1.0, 0.05
        lam = math.sqrt(4.0 * (1.0 + 0.5))
        tol = (lam * dt) ** 4
        t = np.arange(100) * dt
        eps = 3.0 * np.exp(-rate * t)
        eps[10] *= 1.0 + 0.5 * tol
        tr = _certified(eps, rate, dt)
        assert tr.column("certificate_slack")[10] >= 0
        assert 10 not in failed_checks(tr)[0].tolist()

    def test_refuses_uncertified_trace(self):
        with pytest.raises(ValueError):
            _certified(np.full(10, np.nan), 1.0, 0.01)


class TestRunEquivalence:
    """ode_run's inlined loop against the public per-step functions."""

    @staticmethod
    def _case(name):
        """(objective, bundle, x0, dt): a 3-d flow and d = 1 flows on floats."""
        if name == "quadratic-3d":
            obj = quadratic_problem(np.geomspace(1.0, 30.0, 3), np.ones(3), seed=5)
            p = ode_params_sc(1.0, alpha=2.0, beta=0.2, omega=1.0)
            return obj, p, obj.minimizer + np.array([1.5, -0.5, 2.0]), 0.01
        if name == "quadratic-1d":
            obj = quadratic_problem([4.0], [1.0])
            return obj, ode_params_sc(4.0, alpha=4.0, beta=0.5, omega=0.0), \
                np.array([3.0]), 0.01
        obj = pl_sine_problem()
        p = ode_params_pl(obj.pl_constant, beta=1.0 / math.sqrt(obj.lipschitz))
        if name == "pl_sine-uncertified":
            obj = replace(obj, minimizer=None, min_value=None)
        return obj, p, np.array([2.0]), 0.01

    @pytest.mark.parametrize("name", ["quadratic-3d", "quadratic-1d", "pl_sine",
                                      "pl_sine-uncertified"])
    def test_columns_match_public_step_and_energy_bitwise(self, name):
        obj, p, x0, dt = self._case(name)
        tr = ode_run(obj, p, x0, horizon=2.0, dt=dt)
        assert tr.summary["dt"] == dt and tr.n_rows == 201
        st = OdeState(0.0, x0, np.zeros(x0.size))
        fs, gaps, eps = [], [], []
        for j in range(tr.n_rows):
            if j:
                st = rk4_step(st, dt, obj, p)
            if obj.minimizer is None:
                fs.append(obj.eval(st.x))
            else:
                f = obj.eval(st.x)
                gaps.append(float(f - obj.min_value))
                eps.append(ode_energy(st.x, st.z, f, p, obj.minimizer, obj.min_value))
        t = np.arange(tr.n_rows) * dt
        assert tr.column("t").tobytes() == t.tobytes()
        if obj.minimizer is None:
            assert not tr.summary["certified"]
            gaps = np.array(fs) - min(fs)
            assert tr.column("f_gap").tobytes() == gaps.tobytes()
            return
        envelope = [p.prefactor * gaps[0] * math.exp(-p.decay_rate * u) for u in t]
        assert tr.column("f_gap").tobytes() == np.array(gaps).tobytes()
        assert tr.column("energy").tobytes() == np.array(eps).tobytes()
        assert tr.column("envelope").tobytes() == np.array(envelope).tobytes()

    @pytest.mark.parametrize("name", ["quadratic-3d", "pl_sine"])
    def test_run_calls_the_public_energy(self, monkeypatch, name):
        # one ode_energy call per sample, on arrays and on d = 1 floats
        obj, p, x0, dt = self._case(name)
        calls = []

        def counted(*args):
            calls.append(args)
            return ode_energy(*args)

        monkeypatch.setattr("momcert.ode.ode_energy", counted)
        tr = ode_run(obj, p, x0, horizon=2.0, dt=dt)
        assert len(calls) == tr.n_rows

    def test_array_certification_matches_the_list(self):
        rate, dt = 1.0, 0.01
        t = np.arange(200) * dt
        eps = 3.0 * np.exp(-rate * t)
        eps[50] *= 1.01
        eps[120] *= 1.0 + 1e-9
        tr = _certified(eps, rate, dt)
        # the checks written out one sample at a time, on Python floats
        tol = (math.sqrt(4.0 * (1.0 + 0.5)) * dt) ** 4
        noise = 8.0 * np.finfo(float).eps * eps[0]
        steps = [eps[j] * (1.0 + tol) + 1e-14 * eps[0] * math.exp(-rate * t[j]) + noise
                 - eps[j + 1] * math.exp(rate * dt) for j in range(199)]
        envelope = min(eps[0] * math.exp(-rate * u) * (1.0 + 1e-6) + 1e-18 * eps[0] - e
                       for u, e in zip(t, eps))
        np.testing.assert_allclose(tr.column("certificate_slack")[1:], steps,
                                   rtol=0.0, atol=1e-14)
        assert tr.summary["envelope_slack"] == pytest.approx(envelope, rel=1e-9)
        failed = [j + 1 for j, z in enumerate(steps) if z < 0]
        failed += [-1] if envelope < 0 else []
        k, slack = failed_checks(tr)
        assert k.tolist() == failed and 50 in failed and 120 not in failed
        s = tr.summary
        assert s["certificates_checked"] == 200
        assert s["certificates_failed"] == len(failed)
        assert s["min_certificate_slack"] == min(*tr.column("certificate_slack")[1:],
                                                 s["envelope_slack"])

    def test_run_keeps_only_failed_certificates(self):
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 4), np.ones(4), seed=6)
        base = ode_params_sc(1.0, 2.0, 0.1, 1.0)
        # claim three times the certified rate so that the checks fail
        p = replace(base, decay_rate=3.0 * base.decay_rate)
        tr = ode_run(obj, p, obj.minimizer + 1.0, horizon=6.0)
        s, col = tr.summary, tr.column("certificate_slack")
        # every check with negative slack is listed, in order, and no other
        failed = [j for j in range(1, tr.n_rows) if col[j] < 0]
        failed += [-1] if s["envelope_slack"] < 0 else []
        k, slack = failed_checks(tr)
        assert failed and k.tolist() == failed
        assert slack.tolist() == [col[j] if j > 0 else s["envelope_slack"] for j in failed]
        assert s["certificates_checked"] == tr.n_rows
        assert s["certificates_failed"] == len(failed)
        assert s["min_certificate_slack"] == min(*col[1:], s["envelope_slack"])
