"""Discrete momentum method: recursion identities, energies, certificates.

The recursion oracle below re-transcribes the velocity form of the
iteration directly, sharing no code with `agm_step`, and the two are
required to produce the same orbit.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from momcert import (
    DISCRETE_COLUMNS,
    DivergenceError,
    SmoothObjective,
    Trace,
    agm_energy,
    agm_init,
    agm_params_nesterov,
    agm_params_pl,
    agm_params_qg,
    agm_params_sc,
    agm_run,
    agm_step,
    certify_trace,
    failed_checks,
    pl_sine_problem,
    quadratic_problem,
)

from _reference import (
    agm_energy_reference,
    agm_step_reference,
    nesterov_reference_step,
    state_bytes,
    state_snapshot,
)


def _velocity_form_orbit(obj, params, x0, n):
    """Independent transcription of the one-line recursion.

    v_k = (v_{k-1} - h (g_k - g_{k-1}) - gamma h g_k) / (1 + alpha h),
    x_{k+1} = x_k + h v_k, seeded with v_0 = -v0_coeff h g_0.
    """
    h, ah, gam = params.h, params.alpha * params.h, params.gamma
    xs = [np.asarray(x0, dtype=float)]
    g_prev = obj.grad(xs[0])
    v = -params.v0_coeff * h * g_prev
    xs.append(xs[0] + h * v)
    for _ in range(1, n):
        g = obj.grad(xs[-1])
        v = (v - h * (g - g_prev) - gam * h * g) / (1.0 + ah)
        g_prev = g
        xs.append(xs[-1] + h * v)
    return xs


class TestInit:
    def test_at_minimizer_everything_vanishes(self):
        obj = quadratic_problem([1.0, 4.0], [2.0, 0.0])
        p = agm_params_sc(1.0, 4.0, 1.0, 0.0)
        st = agm_init(obj, p, obj.minimizer)
        np.testing.assert_array_equal(st.v, 0.0)
        np.testing.assert_allclose(st.y, obj.minimizer, atol=1e-15)
        assert agm_energy(st, obj.eval(st.x), p, obj.minimizer, obj.min_value) == 0.0

    def test_initial_velocity_formula(self):
        obj = quadratic_problem([2.0, 9.0], [1.0, -1.0])
        p = agm_params_sc(2.0, 9.0, 1.5, 1.0)
        x0 = np.array([1.0, 2.0])
        st = agm_init(obj, p, x0)
        np.testing.assert_allclose(st.v, -p.v0_coeff * p.h * obj.grad(x0),
                                   atol=1e-15)

    def test_companion_point_reconstruction(self):
        # the first forward step must reproduce y_1 = x_0 - h^2 g_0 and
        # satisfy the internal cross-check between both update forms
        obj = quadratic_problem([1.0, 7.0], [0.5, 0.5], seed=2)
        p = agm_params_sc(1.0, 7.0, 2.0, 0.5)
        x0 = np.array([3.0, -1.0])
        st = agm_init(obj, p, x0)
        nxt = agm_step(st, obj, p)
        np.testing.assert_allclose(nxt.y, x0 - p.h**2 * obj.grad(x0), atol=1e-14)

    def test_shape_validation(self):
        obj = quadratic_problem([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            agm_init(obj, agm_params_sc(1.0, 2.0, 1.0, 0.0), np.zeros(3))


class TestStep:
    def test_lookahead_point_annihilates_pure_quadratic(self):
        # f = 50 x^2: y_{k+1} = x_k - x_k up to one rounding of h^2 L
        obj = quadratic_problem([100.0], [0.0])
        p = agm_params_sc(100.0 * (1.0 - 1e-9), 100.0, 1.0, 0.0)  # q ~ 1
        st = agm_init(obj, p, np.array([1.0]))
        nxt = agm_step(st, obj, p)
        assert abs(nxt.y[0]) <= 1e-14

    @pytest.mark.parametrize("make", [
        lambda: agm_params_sc(1.0, 100.0, 1.0, 0.0),
        lambda: agm_params_sc(1.0, 100.0, 2.0, 1.0),
        lambda: agm_params_qg(1.0, 100.0, 1.3, 0.7),
        lambda: agm_params_pl(1.0, 100.0),
    ])
    def test_orbit_matches_velocity_transcription(self, make):
        p = make()
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 5), np.arange(5.0), seed=3)
        x0 = obj.minimizer + np.linspace(-2.0, 2.0, 5)
        expected = _velocity_form_orbit(obj, p, x0, 50)
        st = agm_init(obj, p, x0)
        for k in range(1, 51):
            st = agm_step(st, obj, p)
            scale = max(1.0, float(np.linalg.norm(expected[k])))
            assert np.linalg.norm(st.x - expected[k]) <= 1e-10 * scale

    def test_velocity_off_by_more_than_rounding_raises(self):
        p = agm_params_sc(1.0, 100.0, 2.0, 1.0)
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 5), np.arange(5.0), seed=3)
        st = agm_step(agm_init(obj, p, obj.minimizer + 5.0), obj, p)
        agm_step(st, obj, p)
        with pytest.raises(RuntimeError, match="forms disagree"):
            agm_step(replace(st, v=st.v * (1.0 + 1e-9)), obj, p)

    def test_drift_check_scales_with_the_largest_iterate(self):
        # from x0 = 1e100 the iterates shrink by many orders while both
        # forms keep the rounding of the largest one
        obj = pl_sine_problem()
        p = agm_params_pl(obj.pl_constant, obj.lipschitz)
        st = agm_init(obj, p, np.array([1e100]))
        for _ in range(200):
            st = agm_step(st, obj, p)
        assert st.x_norm_max == 1e100 and abs(st.x[0]) < 1e90

    @pytest.mark.parametrize("d", [1, 4])
    def test_finite_iterate_whose_square_overflows_does_not_abort(self, d):
        # zero gradient from rest: x stays at 1e200 while ||x||^2 overflows
        flat = SmoothObjective(dimension=d, eval=lambda x: 0.0,
                               grad=lambda x: np.zeros(d), lipschitz=1.0)
        p = agm_params_sc(1.0, 100.0, 1.0, 0.0)
        with np.errstate(over="ignore"):
            nxt = agm_step(agm_init(flat, p, np.full(d, 1e200)), flat, p)
            assert nxt.x.dot(nxt.x) == np.inf
        assert np.array_equal(nxt.x, np.full(d, 1e200))

    @pytest.mark.parametrize("make", [
        lambda: agm_params_sc(1.0, 100.0, 2.0, 1.0),
        lambda: agm_params_pl(1.0, 100.0),
    ])
    def test_init_and_step_leave_their_inputs_unchanged(self, make):
        # the states are mutable slotted dataclasses: nothing may write them
        p = make()
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 5), np.arange(5.0), seed=3)
        x0 = obj.minimizer + np.linspace(-2.0, 2.0, 5)
        before = x0.tobytes()
        st = agm_init(obj, p, x0)
        assert x0.tobytes() == before
        for _ in range(30):
            snap = state_snapshot(st)
            nxt = agm_step(st, obj, p)
            assert state_snapshot(st) == snap
            st = nxt
        assert x0.tobytes() == before

    def test_nan_iterate_raises_at_the_step_it_makes(self):
        obj = quadratic_problem([1.0, 4.0], [1.0, 2.0])
        p = agm_params_sc(1.0, 4.0, 1.5, 0.5)
        st = agm_step(agm_init(obj, p, np.array([2.0, -1.0])), obj, p)
        with pytest.raises(DivergenceError, match="not finite") as err:
            agm_step(replace(st, x=np.array([np.nan, 1.0])), obj, p)
        assert err.value.k == 2


_BUNDLES = {
    "sc": lambda: agm_params_sc(1.0, 100.0, 1.5, 0.5),
    "qg": lambda: agm_params_qg(1.0, 100.0, 1.0, 1.0),
    "pl": lambda: agm_params_pl(1.0, 100.0),
}


def _assert_step_and_energy_match_the_reference(st, obj, p):
    """agm_energy and agm_step at st equal their float-scalar references, byte for byte."""
    with np.errstate(over="ignore", invalid="ignore"):
        fx = obj.eval(st.x)
        got = agm_energy(st, fx, p, obj.minimizer, obj.min_value)
        want = agm_energy_reference(st, fx, p, obj.minimizer, obj.min_value)
        nxt = agm_step(st, obj, p)
        assert state_bytes(nxt) == state_bytes(agm_step_reference(st, obj, p))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    return nxt


class TestBitIdentity:
    # the kernels take the bundle's scalars as 0-d arrays and build their
    # temporaries in place; both must round exactly like the float form
    @pytest.mark.parametrize("regime", _BUNDLES)
    @pytest.mark.parametrize("d", [1, 5, 50])
    @pytest.mark.parametrize("scale", [1.0, 1e200], ids=["moderate", "squares-overflow"])
    def test_step_and_energy_equal_the_float_scalar_reference(self, d, regime, scale):
        p = _BUNDLES[regime]()
        obj = quadratic_problem(np.geomspace(1.0, 100.0, d), np.linspace(-1.0, 2.0, d),
                                seed=d)
        x0 = obj.minimizer + scale * np.linspace(-2.0, 3.0, d)
        with np.errstate(over="ignore"):
            st = agm_init(obj, p, x0)
            assert math.isfinite(st.x.dot(st.x)) == (scale == 1.0)
        for _ in range(25):
            st = _assert_step_and_energy_match_the_reference(st, obj, p)

    def test_no_stale_scalars_across_interleaved_bundles(self):
        # one orbit each for p, a bundle with another gamma, and a bundle
        # equal to p but not p, stepped in turn
        p = _BUNDLES["sc"]()
        bundles = (p, replace(p, gamma=1.25), replace(p))
        assert bundles[2] == p and bundles[2] is not p
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 5), np.arange(5.0), seed=3)
        x0 = obj.minimizer + np.linspace(-2.0, 2.0, 5)
        states = [agm_init(obj, b, x0) for b in bundles]
        assert agm_step(states[0], obj, p).x.tobytes() != \
            agm_step(states[1], obj, bundles[1]).x.tobytes()
        for k in range(30):
            i = k % 3
            states[i] = _assert_step_and_energy_match_the_reference(states[i], obj, bundles[i])


class TestEnergy:
    def test_formula_against_inline_computation(self):
        obj = quadratic_problem([1.0, 4.0], [1.0, 2.0])
        p = agm_params_sc(1.0, 4.0, 1.5, 0.5)
        st = agm_step(agm_init(obj, p, np.array([2.0, -1.0])), obj, p)
        fx = obj.eval(st.x)
        energy = agm_energy(st, fx, p, obj.minimizer, obj.min_value)
        h = p.h
        dx = st.x - obj.minimizer
        phi = (1.0 + p.xi * h) * st.v + h * st.grad_x + p.xi * dx
        sigma = dx - h * h * st.grad_x
        psi = fx - obj.min_value - 0.5 * h * h * st.grad_x @ st.grad_x
        e = 0.5 * phi @ phi - 0.5 * p.eta * sigma @ sigma + p.theta * psi
        # with eta = theta = 0 the energy is its phi term alone
        phi_term = agm_energy(st, fx, replace(p, eta=0.0, theta=0.0),
                              obj.minimizer, obj.min_value)
        assert phi_term == pytest.approx(0.5 * phi @ phi, abs=1e-15)
        assert energy == pytest.approx(e, abs=1e-15)

    def test_lookahead_gap_term_is_nonnegative(self):
        # psi >= 0 by smoothness with h^2 = 1 / L
        obj = quadratic_problem(np.geomspace(1.0, 50.0, 4), np.ones(4), seed=5)
        p = agm_params_sc(1.0, 50.0, 1.0, 0.0)
        h = p.h
        st = agm_init(obj, p, obj.minimizer + 3.0)
        for _ in range(30):
            psi = obj.eval(st.x) - obj.min_value - 0.5 * h * h * st.grad_x @ st.grad_x
            assert psi >= -1e-12
            st = agm_step(st, obj, p)


def _one_step_trace(p, e_next):
    """A certified two-row agm trace with energies 1 and e_next."""
    data = np.full((2, len(DISCRETE_COLUMNS)), np.nan)
    data[:, DISCRETE_COLUMNS.index("energy")] = 1.0, e_next
    summary = {"certified": True, "A": p.A, "h": p.h}
    return certify_trace(Trace("agm", DISCRETE_COLUMNS, data, summary))


class TestCertify:
    def test_boundary_cases(self):
        p = agm_params_sc(1.0, 100.0, 1.0, 0.0)
        exact = 1.0 / (1.0 + p.A * p.h)
        for e_next in (exact, exact * (1.0 + 1e-10)):  # the second within slack
            tr = _one_step_trace(p, e_next)
            assert tr.summary["certificates_checked"] == 1
            assert tr.summary["certificates_failed"] == 0
        bad = _one_step_trace(p, exact * 1.02)
        k, slack = failed_checks(bad)
        assert k.tolist() == [0] and bad.summary["certificates_failed"] == 1
        assert slack[0] == bad.column("certificate_slack")[0] < 0
        assert slack[0] == pytest.approx(1.0 - (1.0 + p.A * p.h) * exact * 1.02,
                                         rel=1e-13)

    def test_nan_slack_fails(self):
        tr = _one_step_trace(agm_params_sc(1.0, 100.0, 1.0, 0.0), np.nan)
        k, slack = failed_checks(tr)
        assert k.tolist() == [0] and np.isnan(slack[0])
        assert tr.summary["certificates_failed"] == 1


class TestRun:
    @pytest.mark.parametrize("make", [
        lambda: agm_params_sc(1.0, 100.0, 1.5, 0.5),
        lambda: agm_params_qg(1.0, 100.0, 1.0, 1.0),
        lambda: agm_params_pl(1.0, 100.0),
    ], ids=["sc", "qg", "pl"])
    def test_summary_records_the_bundle_prefactor(self, make):
        p = make()
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 5), np.arange(5.0), seed=3)
        tr = agm_run(obj, p, obj.minimizer + 1.0, 20)
        assert tr.summary["bound_prefactor"] == p.prefactor

    def test_certified_run_peaks_below_1_7_times_its_trace(self):
        # the time column is filled after the row buffer is freed, so its
        # temporaries and the buffer are never alive together: 89 B/row
        # measured for 56 of data (104 when they were)
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 5), np.arange(5.0), seed=3)
        p = agm_params_sc(1.0, 100.0, 1.5, 0.5)
        x0 = obj.minimizer + np.linspace(-2.0, 2.0, 5)
        tracemalloc.start()
        try:
            tr = agm_run(obj, p, x0, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.n_rows == 20_001 and tr.summary["certificates_failed"] == 0
        assert peak < 1.7 * tr.data.nbytes

    @pytest.mark.parametrize("make", [
        lambda: agm_params_sc(1.0, 100.0, 1.0, 0.0),
        lambda: agm_params_sc(1.0, 100.0, 1.5, 0.5),
        lambda: agm_params_sc(1.0, 100.0, 2.0, 1.0),
        lambda: agm_params_qg(1.0, 100.0, 1.0, 1.0),
    ])
    def test_certificates_energy_and_bound(self, make):
        p = make()
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 8), np.ones(8), seed=8)
        rng = np.random.default_rng(8)
        tr = agm_run(obj, p, obj.minimizer + rng.standard_normal(8), 400)
        s = tr.summary
        assert s["certified"] and s["aborted_at"] is None
        assert s["certificates_checked"] == 400
        assert s["certificates_failed"] == 0

        e = tr.column("energy")
        assert np.all(e >= -1e-12 * (1.0 + abs(e[0])))
        assert np.all(np.diff(e) <= 1e-9 * np.abs(e[:-1]) + 1e-12 * (1.0 + abs(e[0])))

        gap = tr.column("f_gap_y")
        bound = tr.column("theorem_bound")
        floor = 1e-13 * (1.0 + abs(obj.min_value) + gap[0])
        assert np.all(gap <= bound * (1.0 + 1e-9) + floor)

    def test_pl_bound_on_the_nonconvex_sine(self):
        obj = pl_sine_problem()
        p = agm_params_pl(obj.pl_constant, obj.lipschitz)
        tr = agm_run(obj, p, np.array([2.0]), 800)
        gap = tr.column("f_gap_y")
        bound = tr.column("theorem_bound")
        floor = 1e-13 * (1.0 + gap[0])
        assert np.all(gap <= bound * (1.0 + 1e-9) + floor)
        assert tr.summary["final_gap"] <= 1e-9 * tr.summary["initial_gap"]

    def test_divergent_parameters_abort_with_index(self):
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 4), np.ones(4), seed=9)
        bad = replace(agm_params_sc(1.0, 100.0, 2.0, 0.0), gamma=50.0)
        tr = agm_run(obj, bad, obj.minimizer + 1.0, 300)
        s = tr.summary
        assert s["aborted_at"] is not None
        assert s["rows"] < 301

    def test_uncertified_path(self):
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 4), np.ones(4), seed=10)
        anon = replace(obj, minimizer=None, min_value=None)
        tr = agm_run(anon, agm_params_sc(1.0, 100.0, 1.0, 0.0),
                     np.full(4, 2.0), 100)
        s = tr.summary
        assert not s["certified"]
        assert s["certificates_checked"] == 0
        assert np.all(np.isnan(tr.column("energy")))
        assert np.all(np.isnan(tr.column("theorem_bound")))
        gap = tr.column("f_gap_x")
        assert np.all(gap >= 0.0) and gap.min() == 0.0

    def test_uncertified_divergence_still_aborts(self):
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 4), np.ones(4), seed=10)
        anon = replace(obj, minimizer=None, min_value=None)
        bad = replace(agm_params_sc(1.0, 100.0, 2.0, 0.0), gamma=50.0)
        tr = agm_run(anon, bad, np.full(4, 2.0), 400)
        assert tr.summary["aborted_at"] is not None

    def test_rejects_zero_iters(self):
        obj = quadratic_problem([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            agm_run(obj, agm_params_sc(1.0, 2.0, 1.0, 0.0), np.zeros(2), 0)

    @pytest.mark.parametrize("threshold", [0.8, 0.3])
    @pytest.mark.parametrize("certify", [True, False])
    def test_non_finite_lookahead_value_ends_the_run_at_its_row(self, threshold, certify):
        # f = x^2 / 2 from x0 = 1 with h^2 = 1/4, so y_{k+1} = 3 x_k / 4: the
        # value at y_{k+1} turns infinite (below the threshold) while the
        # value at x_k is still finite
        quad = quadratic_problem([1.0], [0.0])
        obj = replace(quad, eval=lambda x: math.inf if x[0] < threshold else quad.eval(x))
        p = agm_params_sc(1.0, 4.0, 1.0, 0.0)
        x0 = np.ones(1)
        st, k = agm_init(obj, p, x0), 0
        while math.isfinite(obj.eval(st.x - st.hg)):
            st, k = agm_step(st, obj, p), k + 1
        assert math.isfinite(obj.eval(st.x))
        assert k == (0 if threshold == 0.8 else 5)
        run = obj if certify else replace(obj, minimizer=None, min_value=None)
        tr = agm_run(run, p, x0, 50)
        assert tr.summary["certified"] == certify
        assert tr.summary["aborted_at"] == k and tr.n_rows == k + 1
        assert math.isinf(tr.column("f_gap_y")[k])
        assert np.all(np.isfinite(tr.column("f_gap_x")[:k + 1]))


class TestNesterovEquivalence:
    def test_orbits_coincide(self):
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 2), np.array([1.0, -2.0]),
                                seed=1)
        p = agm_params_nesterov(1.0, 100.0)
        tau = (1.0 - 0.1) / (1.0 + 0.1)
        x0 = obj.minimizer + np.array([2.0, -1.0])

        st = agm_init(obj, p, x0)
        y_prev = st.y
        y_curr = x0 - p.h**2 * obj.grad(x0)
        scale = max(1.0, float(np.linalg.norm(x0)))
        for _ in range(100):
            st = agm_step(st, obj, p)
            x_ref, y_next = nesterov_reference_step(y_prev, y_curr, tau, p.h, obj)
            assert np.linalg.norm(st.x - x_ref) <= 1e-12 * scale
            np.testing.assert_allclose(st.y, y_curr, atol=1e-12 * scale)
            y_prev, y_curr = y_curr, y_next

    def test_correction_coefficient_vanishes_exactly(self):
        p = agm_params_nesterov(1.0, 100.0)
        assert p.gamma / (1.0 + p.alpha * p.h) - 1.0 == 0.0


def _loop_run(obj, p, x0, iters, certify=True):
    """agm_run written as a loop over the public per-step functions.

    Returns (data, (k, slack, passed) of every check, aborted_at); the
    driver must reproduce data bit for bit and fail exactly these checks.
    """
    xstar, fstar = obj.minimizer, obj.min_value
    certified = certify and xstar is not None and fstar is not None
    st = agm_init(obj, p, x0)
    e_now = agm_energy(st, obj.eval(st.x), p, xstar, fstar) if certified else np.nan
    tol_abs = 1e-12 * (1.0 + abs(e_now))
    gap0 = obj.eval(st.x) - fstar if certified else np.nan
    rows, results, aborted = [], [], None
    for k in range(iters + 1):
        fx, fy = obj.eval(st.x), obj.eval(st.x - p.h * p.h * st.grad_x)
        row = [k, fx, fy, np.linalg.norm(st.grad_x), e_now, np.nan, np.nan]
        if certified:
            row[1:3] = fx - fstar, fy - fstar
            row[6] = p.prefactor * gap0 / (1.0 + p.rho) ** k
        rows.append(row)
        if certified and fx - fstar > 1e6 * max(1.0, gap0):
            aborted = k
            break
        if k == iters:
            break
        try:
            st = agm_step(st, obj, p)
        except DivergenceError as err:
            aborted = err.k
            break
        if certified:
            e_next = agm_energy(st, obj.eval(st.x), p, xstar, fstar)
            slack = e_now - (1.0 + p.A * p.h) * e_next  # (1 + A h) E_{k+1} <= E_k
            results.append((k, slack, slack >= -(tol_abs + 1e-9 * abs(e_now))))
            rows[-1][5] = slack
            e_now = e_next
    data = np.array(rows, dtype=float)
    if not certified:
        best_x = np.nanmin(data[:, 1])
        best_y = min(best_x, np.nanmin(data[:, 2]))
        data[:, 1] -= best_x
        data[:, 2] -= best_y
    return data, results, aborted


def _quad8():
    return quadratic_problem(np.geomspace(1.0, 100.0, 8), np.ones(8), seed=8)


def _divergent_case():
    obj = quadratic_problem(np.geomspace(1.0, 100.0, 4), np.ones(4), seed=9)
    bad = replace(agm_params_sc(1.0, 100.0, 2.0, 0.0), gamma=50.0)
    return obj, bad, obj.minimizer + 1.0, 300, True


_SC = agm_params_sc(1.0, 100.0, 1.5, 0.5)
_X8 = _quad8().minimizer + np.random.default_rng(8).standard_normal(8)


class TestRunEquivalence:
    """The shared driver against the public step, energy and certificate."""

    @pytest.mark.parametrize("case", [
        pytest.param(lambda: (_quad8(), _SC, _X8, 300, True), id="certified"),
        pytest.param(lambda: (_quad8(), _SC, _X8, 300, False), id="uncertified"),
        pytest.param(_divergent_case, id="aborted"),
        pytest.param(lambda: (_quad8(), replace(_SC, A=3.0 * _SC.A), _X8, 300, True),
                     id="tripled-A"),
    ])
    def test_data_and_failed_certificates_match_the_loop(self, case):
        obj, p, x0, iters, certify = case()
        tr = agm_run(obj, p, x0, iters, certify=certify)
        data, results, aborted = _loop_run(obj, p, x0, iters, certify)
        assert tr.data.tobytes() == data.tobytes()
        failed = [(k, slack) for k, slack, passed in results if not passed]
        assert list(zip(*(a.tolist() for a in failed_checks(tr)))) == failed
        s = tr.summary
        assert s["aborted_at"] == aborted
        assert s["certificates_checked"] == len(results)
        assert s["certificates_failed"] == len(failed)

    def test_tripled_rate_fails_some_checks(self):
        tr = agm_run(_quad8(), replace(_SC, A=3.0 * _SC.A), _X8, 300)
        assert 0 < tr.summary["certificates_failed"] < 300

    def test_run_calls_the_public_energy(self, monkeypatch):
        # one agm_energy call per certified row, none without certification
        rows = []

        def counted(state, *args):
            rows.append(state.k)
            return agm_energy(state, *args)

        monkeypatch.setattr("momcert.agm.agm_energy", counted)
        tr = agm_run(_quad8(), _SC, _X8, 300)
        assert rows == list(range(tr.n_rows))
        agm_run(_quad8(), _SC, _X8, 300, certify=False)
        assert len(rows) == tr.n_rows


def _counting(obj, counts):
    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call
    return replace(obj, eval=counted("eval", obj.eval), grad=counted("grad", obj.grad))


class TestOracleBudget:
    def test_one_gradient_and_two_values_per_step(self):
        # the correction term reuses grad f(x_k): no lookahead gradient, and
        # f(x_k) serves both the energy and the f_gap_x column
        counts = {"eval": 0, "grad": 0}
        iters = 200
        tr = agm_run(_counting(_quad8(), counts), _SC, _X8, iters)
        assert tr.summary["certificates_checked"] == iters
        assert iters <= counts["grad"] <= iters + 2
        assert 2 * iters <= counts["eval"] <= 2 * iters + 3
