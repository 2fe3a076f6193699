"""Continuous-time flow: vector field, integrator order, certificates.

For quadratics the flow is an affine ODE, so scipy's matrix exponential
provides an exact independent solution; the RK4 orbit and the certified
energy decay are both measured against it.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from momcert import (
    ODE_COLUMNS,
    Regime,
    SmoothObjective,
    Trace,
    certify_trace,
    default_dt,
    failed_checks,
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
from momcert.ode import _coefficients, _field
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
        dx, dz = _field(np.array([1.0]), np.zeros(1), obj.grad, _coefficients(p))
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
        x, z = np.array([2.0]), np.array([-1.0])
        dx, dz = _field(x, z, obj.grad, _coefficients(p))
        np.testing.assert_allclose(dx, z)
        np.testing.assert_allclose(dz, -2.0 * z - 1.5 * obj.grad(x))


class TestRk4:
    def test_fixed_point_of_zero_field(self):
        flat = SmoothObjective(dimension=1, eval=lambda x: 0.0,
                               grad=lambda x: np.zeros(1), lipschitz=1.0)
        p = ode_params_pl(1.0, beta=0.5)
        x, z = np.array([1.5]), np.zeros(1)
        nx, nz = rk4_step(x, z, 0.1, flat.grad, _coefficients(p), 1)
        np.testing.assert_array_equal(nx, x)
        np.testing.assert_array_equal(nz, z)

    @pytest.mark.parametrize("d", [1, 3, "float"])
    def test_finite_state_whose_sum_overflows_does_not_abort(self, d):
        # zero field and a tiny step: x and z barely move and stay finite,
        # while x + z = 1.9e308 overflows; "float" is a d = 1 run's state
        p = ode_params_pl(1.0, beta=0.5)
        if d == "float":
            x, z, grad = 1.7e308, 2e307, lambda u: 0.0
        else:
            x, z, grad = np.full(d, 1.7e308), np.full(d, 2e307), lambda u: np.zeros(d)
        with np.errstate(over="ignore"):
            x, z = rk4_step(x, z, 1e-300, grad, _coefficients(p), 1)
            assert not np.isfinite(x + z).any()
        assert np.isfinite(x).all() and np.isfinite(z).all()

    def test_fourth_order_against_exact_flow(self):
        obj = quadratic_problem([1.0, 4.0], [1.0, -1.0], seed=0)
        p = ode_params_sc(1.0, alpha=2.0, beta=0.5, omega=0.0)
        x0 = obj.minimizer + np.array([1.0, -2.0])
        x_exact, _ = _expm_orbit(obj, p, x0, 2.0)

        errs, c = [], _coefficients(p)
        for dt in (0.05, 0.025):
            x, z = x0, np.zeros(2)
            for k in range(1, round(2.0 / dt) + 1):
                x, z = rk4_step(x, z, dt, obj.grad, c, k)
            errs.append(np.linalg.norm(x - x_exact))
        order = math.log2(errs[0] / errs[1])
        assert 3.7 <= order <= 4.3

    def test_divergence_detected_at_huge_step(self):
        obj = quadratic_problem([1.0, 400.0], [0.0, 0.0])
        p = ode_params_sc(1.0, alpha=2.0, beta=0.05, omega=0.0)
        x, z, c = np.array([1.0, 1.0]), np.zeros(2), _coefficients(p)
        with pytest.raises(DivergenceError), np.errstate(all="ignore"):
            for k in range(1, 401):
                x, z = rk4_step(x, z, 1.0, obj.grad, c, k)


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
        x, z, c = np.array([1.0]), np.zeros(1), _coefficients(p)
        for k in range(1, 8):
            x, z = rk4_step(x, z, 0.25, obj.grad, c, k)
        with pytest.raises(DivergenceError) as info:
            rk4_step(x, z, 0.25, obj.grad, c, 8)
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

    def test_default_dt_where_the_stiffness_product_overflows(self):
        # L (1 + alpha beta) overflows at beta = 1e306; the step stays
        # positive and finite, sqrt(L) sqrt(1 + alpha beta) apart
        obj = quadratic_problem([1.0, 100.0], [0.0, 0.0])
        p = ode_params_sc(1.0, alpha=2.0, beta=1e306, omega=0.0)
        assert math.isinf(obj.lipschitz * (1.0 + p.alpha * p.beta))
        assert default_dt(obj, p) == pytest.approx(
            0.1 / (10.0 * math.sqrt(1.0 + 2e306)), rel=1e-15, abs=0.0
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

    @pytest.mark.parametrize("arg, value", [("dt", 0.0), ("dt", math.nan),
                                            ("horizon", 0.0), ("horizon", math.nan)])
    def test_rejects_nonpositive_dt_or_horizon(self, arg, value):
        # NaN fails every comparison, so it must not slip past as "not <= 0"
        obj = quadratic_problem([1.0], [0.0])
        p = ode_params_pl(1.0, beta=1.0)
        kwargs = {"horizon": 10.0, "dt": 0.1, arg: value}
        with pytest.raises(ValueError, match=f"{arg} must be positive"):
            ode_run(obj, p, np.ones(1), **kwargs)


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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_energy_fails_every_check(self, value):
        # an energy that overflowed gives NaN slacks, as on agm and pgm,
        # quietly: no ValueError and no RuntimeWarning
        rate, dt = 1.0, 0.01
        eps = 3.0 * np.exp(-rate * np.arange(10) * dt)
        eps[4:] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = _certified(eps, rate, dt)
        s = tr.summary
        assert s["certificates_checked"] == 10
        assert failed_checks(tr)[0].tolist() == [4, 5, 6, 7, 8, 9, -1]
        assert s["certificates_failed"] == 7 and not s["envelope_slack"] >= 0
        # the minimum is NaN too, not the smallest finite slack before it
        assert math.isnan(s["min_certificate_slack"])

    def test_overflowing_integrator_allowance_is_infinite(self):
        # Lambda dt = 3.2e152, so (Lambda dt)^4 overflows: every step check
        # passes and the global envelope still judges the decay
        rate, dt = 1.0, 1.0
        t = np.arange(20) * dt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = _certified(3.0 * np.exp(-0.5 * rate * t), rate, dt,
                            big_l=1e300, beta=1e5)
        assert np.all(tr.column("certificate_slack")[1:] == math.inf)
        assert failed_checks(tr)[0].tolist() == [-1]


class TestRunEquivalence:
    """ode_run's inlined loop against the public per-step functions."""

    @staticmethod
    def _case(name):
        """(objective, bundle, x0, dt): a 3-d flow and d = 1 flows.

        pl_sine takes floats, and its run steps on them; every other case,
        pl_sine-arrays included, steps on arrays.
        """
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
        if name == "pl_sine-arrays":
            obj = replace(obj, takes_floats=False)
        return obj, p, np.array([2.0]), 0.01

    @pytest.mark.parametrize("name", ["quadratic-3d", "quadratic-1d", "pl_sine",
                                      "pl_sine-uncertified", "pl_sine-arrays"])
    def test_columns_match_public_step_and_energy_bitwise(self, name):
        obj, p, x0, dt = self._case(name)
        tr = ode_run(obj, p, x0, horizon=2.0, dt=dt)
        assert tr.summary["dt"] == dt and tr.n_rows == 201
        # on arrays, also for pl_sine, whose run steps on Python floats
        x, z, c = x0, np.zeros(x0.size), _coefficients(p)
        fs, gaps, eps = [], [], []
        for j in range(tr.n_rows):
            if j:
                x, z = rk4_step(x, z, dt, obj.grad, c, j)
            if obj.minimizer is None:
                fs.append(obj.eval(x))
            else:
                f = obj.eval(x)
                gaps.append(float(f - obj.min_value))
                eps.append(ode_energy(x, z, f, p, obj.minimizer, obj.min_value))
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

    @pytest.mark.parametrize("name", ["quadratic-3d", "quadratic-1d", "pl_sine",
                                      "pl_sine-arrays"])
    def test_run_calls_the_public_energy(self, monkeypatch, name):
        # one ode_energy call per sample, on floats exactly when the
        # objective declares takes_floats, else on arrays
        obj, p, x0, dt = self._case(name)
        calls = []

        def counted(*args):
            calls.append(args)
            return ode_energy(*args)

        monkeypatch.setattr("momcert.ode.ode_energy", counted)
        tr = ode_run(obj, p, x0, horizon=2.0, dt=dt)
        assert len(calls) == tr.n_rows
        kind = float if obj.takes_floats else np.ndarray
        assert {type(u) for args in calls for u in (args[0], args[1], args[4])} == {kind}

    def test_floats_and_arrays_give_the_same_trace(self):
        # the number-type rule moves no byte: pl_sine on (1,) arrays
        # writes the columns and summary of its run on floats
        obj, p, x0, dt = self._case("pl_sine")
        floats = ode_run(obj, p, x0, horizon=2.0, dt=dt)
        arrays = ode_run(replace(obj, takes_floats=False), p, x0, horizon=2.0, dt=dt)
        for name in ODE_COLUMNS:
            assert arrays.column(name).tobytes() == floats.column(name).tobytes()
        del floats.summary["wall_time_s"], arrays.summary["wall_time_s"]
        assert repr(arrays.summary) == repr(floats.summary)

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


class TestOracleBudget:
    @pytest.mark.parametrize("name, kind", [("pl_sine", float),
                                            ("quadratic-1d", np.ndarray),
                                            ("pl_sine-arrays", np.ndarray)])
    def test_four_gradients_and_one_value_per_sample(self, name, kind):
        # the README table: 4 gradients (the RK4 stages) and 1 value per
        # sample, every one through the objective's own callables; pl_sine
        # declares takes_floats and gets Python floats, others (1,) arrays
        obj, p, x0, dt = TestRunEquivalence._case(name)
        args = {"eval": [], "grad": []}

        def counted(key, fn):
            def call(u):
                args[key].append(u)
                return fn(u)
            return call

        obj = replace(obj, eval=counted("eval", obj.eval), grad=counted("grad", obj.grad))
        tr = ode_run(obj, p, x0, horizon=2.0, dt=dt)
        assert tr.n_rows == 201 and tr.summary["certificates_failed"] == 0
        assert len(args["eval"]) == tr.n_rows
        assert len(args["grad"]) == 4 * (tr.n_rows - 1)
        assert {type(u) for u in args["eval"] + args["grad"]} == {kind}
