"""Ground-truth checks for the problem factories and oracles.

Expected values are frozen from hand computation (diagonal quadratics,
1-d lasso with a known subgradient solution) or from independent numpy
routines (lstsq, eigvalsh) computed here in the test, never from the
code under test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momcert import (
    CompositeObjective,
    ProxTerm,
    SmoothObjective,
    estimate_pl_constant,
    grad_mapping,
    lasso_problem,
    pl_sine_problem,
    quadratic_problem,
    reference_minimizer,
    soft_threshold,
)
from momcert.oracle import _sine_f, _sine_grad

from _reference import composite_from_smooth, finite_diff_gradient_check

# Frozen once from a dense scan of |f'|^2 / (2 f) for x^2 + 3 sin(x)^2
# over [-20, 20] with 20001 points; a Brent refinement puts the continuum
# minimum 6.3e-7 (relative) below this, at x ~ -2.2017.
PL_SINE_MU = 0.1755310956972175


class TestQuadratic:
    def test_diagonal_hand_case(self):
        # seed 0 keeps the eigenbasis unrotated: Q = diag(1, 2), b = (1, 0)
        obj = quadratic_problem([1.0, 2.0], [1.0, 0.0], seed=0)
        np.testing.assert_allclose(obj.minimizer, [1.0, 0.0], atol=1e-14)
        assert obj.min_value == pytest.approx(-0.5, abs=1e-15)
        assert obj.strong_convexity == 1.0
        assert obj.lipschitz == 2.0
        assert obj.pl_constant == 1.0
        assert obj.qg_constant == 1.0
        assert obj.eval(np.zeros(2)) == 0.0
        np.testing.assert_allclose(obj.grad(np.array([3.0, -1.0])), [2.0, -2.0])

    def test_scalar_hand_case(self):
        # f(x) = 2.5 x^2 - 10 x, minimum at x = 2 with value -10
        obj = quadratic_problem([5.0], [10.0])
        assert obj.minimizer[0] == pytest.approx(2.0, abs=1e-14)
        assert obj.min_value == pytest.approx(-10.0, abs=1e-12)

    def test_rotated_spectrum_is_preserved(self):
        spectrum = np.array([0.5, 2.0, 7.0, 11.0])
        obj = quadratic_problem(spectrum, np.ones(4), seed=9)
        # recover Q from the gradient, column by column
        q = np.column_stack([
            obj.grad(e) - obj.grad(np.zeros(4)) for e in np.eye(4)
        ])
        np.testing.assert_allclose(np.linalg.eigvalsh(q), spectrum, rtol=1e-10)
        np.testing.assert_allclose(q, q.T, atol=1e-12)

    def test_minimizer_is_stationary_and_consistent(self):
        obj = quadratic_problem(np.geomspace(1.0, 100.0, 6), np.arange(6.0), seed=4)
        assert np.linalg.norm(obj.grad(obj.minimizer)) <= 1e-10
        assert obj.eval(obj.minimizer) == pytest.approx(obj.min_value, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic_problem([1.0, -2.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            quadratic_problem([1.0, 2.0], [0.0])
        with pytest.raises(ValueError):
            quadratic_problem([], [])

    def test_strong_convexity_inequality_at_seeded_points(self):
        obj = quadratic_problem(np.geomspace(2.0, 50.0, 5), np.ones(5), seed=7)
        mu = obj.strong_convexity
        rng = np.random.default_rng(7)
        for _ in range(32):
            x = rng.standard_normal(5) * 3.0
            y = rng.standard_normal(5) * 3.0
            lower = obj.eval(x) + obj.grad(x) @ (y - x) + 0.5 * mu * np.sum((y - x) ** 2)
            assert obj.eval(y) >= lower - 1e-9 * (1.0 + abs(obj.eval(y)))


class TestPlSine:
    def test_values_and_constants(self):
        obj = pl_sine_problem()
        assert obj.dimension == 1
        assert obj.eval(np.array([np.pi])) == pytest.approx(np.pi**2, rel=1e-14)
        np.testing.assert_allclose(obj.grad(np.array([np.pi])), [2.0 * np.pi],
                                   atol=1e-14)
        assert obj.lipschitz == 8.0
        assert obj.min_value == 0.0
        assert obj.minimizer[0] == 0.0
        assert obj.strong_convexity is None
        assert obj.pl_constant == pytest.approx(PL_SINE_MU, rel=1e-13)

    def test_not_convex(self):
        # midpoint above the chord between x = 1.2 and x = 2.2
        obj = pl_sine_problem()
        a, b = np.array([1.2]), np.array([2.2])
        mid = obj.eval((a + b) / 2.0)
        chord = 0.5 * (obj.eval(a) + obj.eval(b))
        assert mid > chord + 1e-3

    def test_gradient_domination_at_seeded_points(self):
        obj = pl_sine_problem()
        rng = np.random.default_rng(11)
        for x in rng.uniform(-20.0, 20.0, 32):
            p = np.array([x])
            gap = obj.eval(p) - obj.min_value
            g = obj.grad(p)
            # rounded grid estimate; continuum minimum is 6.3e-7 below it
            assert 0.5 * float(g @ g) >= obj.pl_constant * gap * (1.0 - 2e-6)


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


class TestSineOnFloats:
    """pl_sine's callables on a Python float against a (1,) array."""

    def test_declared_and_kept_by_replace(self):
        obj = pl_sine_problem()
        assert obj.takes_floats and replace(obj, min_value=None).takes_floats
        assert not quadratic_problem([1.0], [0.0]).takes_floats

    # signed zeros, subnormals, both sides of the float fast path's 1e154
    # guard, u ** 2 past the range, 2 u past the range, sin of an infinity,
    # and nan always run
    @settings(max_examples=200, deadline=None)
    @given(st.floats())
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.5e-310)
    @example(1e154)
    @example(-1e154)
    @example(math.nextafter(1e154, 0))
    @example(-math.nextafter(1e154, 0))
    @example(1e155)
    @example(-1e155)
    @example(1.7e308)
    @example(-1.7e308)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    def test_float_and_array_forms_agree_bitwise(self, u):
        with np.errstate(all="ignore"):
            x = np.array([u])
            # reference: the same formulas on numpy scalars
            want_f = float(x[0] ** 2 + 3.0 * np.sin(x[0]) ** 2)
            want_g = 2.0 * x[0] + 3.0 * np.sin(2.0 * x[0])
            f_float, f_array = _sine_f(u), _sine_f(x)
            g_float, g_array = _sine_grad(u), _sine_grad(x)
        assert type(f_float) is float and type(g_float) is float
        assert type(f_array) is float and g_array.shape == (1,)
        assert _bits(f_float) == _bits(f_array) == _bits(want_f)
        assert _bits(g_float) == _bits(g_array[0]) == _bits(want_g)


class TestSoftThreshold:
    def test_hand_values(self):
        np.testing.assert_allclose(soft_threshold(np.array([3.0]), 1.0), [2.0])
        np.testing.assert_allclose(soft_threshold(np.array([-0.5]), 1.0), [0.0])
        np.testing.assert_allclose(
            soft_threshold(np.array([-3.0, 0.2, 1.5]), 0.5), [-2.5, 0.0, 1.0]
        )

    @given(
        a=st.floats(-1e6, 1e6),
        b=st.floats(-1e6, 1e6),
        t=st.floats(0.0, 1e6),
    )
    def test_nonexpansive(self, a, b, t):
        pa = soft_threshold(np.array([a]), t)[0]
        pb = soft_threshold(np.array([b]), t)[0]
        assert abs(pa - pb) <= abs(a - b) + 1e-9 * max(1.0, abs(a - b))

    @given(
        z=st.floats(-100.0, 100.0),
        t=st.floats(0.0, 100.0),
        u=st.floats(-200.0, 200.0),
    )
    @settings(max_examples=200)
    def test_prox_optimality(self, z, t, u):
        # p minimizes |x| * t + (x - z)^2 / 2, so no u can do better
        p = soft_threshold(np.array([z]), t)[0]
        obj_p = t * abs(p) + 0.5 * (p - z) ** 2
        obj_u = t * abs(u) + 0.5 * (u - z) ** 2
        assert obj_p <= obj_u + 1e-9 * (1.0 + obj_u)


def _scalar_prox_problem() -> CompositeObjective:
    # f(x) = x^2 / 2, g(x) = |x|; composite minimum at 0 with F(0) = 0
    smooth = SmoothObjective(
        dimension=1,
        eval=lambda x: float(0.5 * x[0] ** 2),
        grad=lambda x: x.copy(),
        lipschitz=1.0,
        strong_convexity=1.0,
    )
    prox = ProxTerm(
        eval=lambda x: float(np.abs(x).sum()),
        prox=lambda z, s: soft_threshold(z, s),
    )
    return CompositeObjective(smooth=smooth, prox_term=prox,
                              minimizer=np.zeros(1), min_value=0.0)


class TestGradMapping:
    def test_hand_case(self):
        # y = 3, s = 1: y - s f'(y) = 0, prox(0) = 0, so G = 3
        obj = _scalar_prox_problem()
        np.testing.assert_allclose(grad_mapping(obj, np.array([3.0]), 1.0), [3.0])

    def test_reduces_to_gradient_without_prox(self):
        obj = composite_from_smooth(quadratic_problem([2.0, 5.0], [1.0, 1.0]))
        y = np.array([0.3, -1.7])
        for s in (0.05, 0.2):
            np.testing.assert_allclose(
                grad_mapping(obj, y, s), obj.smooth.grad(y), atol=1e-13
            )

    def test_vanishes_at_minimizer(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 4))
        obj = lasso_problem(a, rng.standard_normal(10), 0.3)
        g = grad_mapping(obj, obj.minimizer, 1.0 / obj.smooth.lipschitz)
        assert np.linalg.norm(g) <= 1e-8

    def test_rejects_bad_step(self):
        obj = _scalar_prox_problem()
        with pytest.raises(ValueError):
            grad_mapping(obj, np.zeros(1), 0.0)


class TestLasso:
    def test_scalar_hand_case(self):
        # F(x) = (x - 3)^2 / 2 + |x|; optimality x - 3 + sign(x) = 0 at x = 2
        obj = lasso_problem(np.array([[1.0]]), np.array([3.0]), 1.0)
        assert obj.minimizer[0] == pytest.approx(2.0, abs=1e-10)
        assert obj.min_value == pytest.approx(2.5, abs=1e-10)
        assert obj.smooth.strong_convexity == pytest.approx(1.0)
        assert obj.qg_constant == pytest.approx(1.0)

    def test_large_penalty_kills_all_coordinates(self):
        a = np.eye(2)
        b = np.array([0.5, -0.3])
        obj = lasso_problem(a, b, 1.0)  # lam >= ||A'b||_inf = 0.5
        np.testing.assert_allclose(obj.minimizer, np.zeros(2), atol=1e-11)
        assert obj.min_value == pytest.approx(0.5 * b @ b, abs=1e-12)

    def test_zero_penalty_matches_lstsq(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        obj = lasso_problem(a, b, 0.0)
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(obj.minimizer, expected, atol=1e-9)

    def test_constants_match_singular_values(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 5))
        obj = lasso_problem(a, rng.standard_normal(12), 0.1)
        sv = np.linalg.svd(a, compute_uv=False)
        assert obj.smooth.lipschitz == pytest.approx(sv[0] ** 2, rel=1e-12)
        assert obj.smooth.strong_convexity == pytest.approx(sv[-1] ** 2, rel=1e-12)

    def test_rejects_rank_deficiency(self):
        with pytest.raises(ValueError):
            lasso_problem(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2), 0.1)
        with pytest.raises(ValueError):
            lasso_problem(np.ones((1, 2)), np.ones(1), 0.1)  # fewer rows than cols
        with pytest.raises(ValueError):
            lasso_problem(np.eye(2), np.ones(2), -0.5)


class TestReferenceMinimizer:
    def test_stationarity_of_result(self):
        obj = lasso_problem(np.diag([1.0, 2.0]), np.array([4.0, -2.0]), 0.5)
        x, fval = reference_minimizer(obj, tol=1e-13)
        assert np.linalg.norm(grad_mapping(obj, x, 1.0 / obj.smooth.lipschitz)) <= 1e-13
        assert fval == pytest.approx(obj.total(x), abs=1e-15)

    def test_iteration_cap(self):
        obj = lasso_problem(np.array([[1.0]]), np.array([100.0]), 0.0)
        with pytest.raises(RuntimeError):
            reference_minimizer(obj, tol=1e-13, max_iter=1)

    def test_hopeless_conditioning_is_refused_after_one_mapping(self):
        # kappa = 1e9 needs about 3e10 steps to reach 1e-12 from ||G_0|| ~ 1,
        # far past the cap: refused on the first mapping, not after 10^7
        smooth = quadratic_problem([1e-9, 1.0], [1.0, 1.0])
        calls = []
        counted = replace(smooth, grad=lambda x: calls.append(1) or smooth.grad(x))
        with pytest.raises(RuntimeError, match="did not reach"):
            reference_minimizer(composite_from_smooth(counted))
        assert len(calls) == 1
        # at kappa = 100 the estimate (about 3e3 steps) is far under the cap
        x, _ = reference_minimizer(composite_from_smooth(
            quadratic_problem([0.01, 1.0], [1.0, 1.0])))
        np.testing.assert_allclose(x, [100.0, 1.0], rtol=1e-9)


class TestFiniteDiff:
    def test_quadratic_and_sine_pass(self):
        rng = np.random.default_rng(6)
        quad = quadratic_problem(np.geomspace(1.0, 100.0, 4), np.ones(4), seed=6)
        pts = [rng.standard_normal(4) for _ in range(5)]
        assert finite_diff_gradient_check(quad, pts) <= 1e-6
        sine = pl_sine_problem()
        pts1 = [np.array([t]) for t in (-3.3, -0.7, 0.4, 2.9)]
        assert finite_diff_gradient_check(sine, pts1) <= 1e-6

    def test_catches_a_wrong_gradient(self):
        bad = SmoothObjective(
            dimension=1,
            eval=lambda x: float(x[0] ** 2),
            grad=lambda x: 3.0 * x,  # should be 2x
            lipschitz=2.0,
        )
        assert finite_diff_gradient_check(bad, [np.array([1.0])]) > 1e-2

    def test_eps_window_enforced(self):
        obj = quadratic_problem([1.0], [0.0])
        with pytest.raises(ValueError):
            finite_diff_gradient_check(obj, [np.zeros(1)], eps=1e-10)


class TestEstimatePl:
    def test_exact_on_scalar_quadratic(self):
        obj = quadratic_problem([0.7], [0.0])
        assert estimate_pl_constant(obj) == pytest.approx(0.7, rel=1e-12)

    def test_explicit_points_for_higher_dimensions(self):
        obj = quadratic_problem([1.0, 4.0], [0.0, 0.0], seed=0)
        pts = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        # ratios are 1, 4 and 17/5; the scan keeps the smallest
        assert estimate_pl_constant(obj, points=pts) == pytest.approx(1.0, rel=1e-13)
        with pytest.raises(ValueError):
            estimate_pl_constant(obj)  # no grid scan above dimension 1

    @pytest.mark.parametrize("make", [pl_sine_problem,
                                      lambda: quadratic_problem([0.7], [0.3])],
                             ids=["pl_sine-floats", "quadratic-arrays"])
    def test_grid_scan_equals_the_array_scan_bitwise(self, make):
        # the 1-d grid scan runs on floats when the objective takes them
        # (pl_sine) and on (1,) arrays otherwise; the explicit points run
        # on arrays with g @ g
        obj = make()
        grid = [np.array([t]) for t in np.linspace(-20.0, 20.0, 20001)]
        scan, points = estimate_pl_constant(obj), estimate_pl_constant(obj, points=grid)
        assert float(scan).hex() == float(points).hex()

    def test_grid_scan_on_arrays_equals_the_scan_on_floats(self):
        obj = pl_sine_problem()  # its pl_constant is the scan on floats
        arrays = estimate_pl_constant(replace(obj, takes_floats=False))
        assert float(arrays).hex() == float(obj.pl_constant).hex()

    def test_degenerate_inputs(self):
        obj = quadratic_problem([1.0], [0.0])
        with pytest.raises(ValueError):
            estimate_pl_constant(obj, points=[obj.minimizer])
        anon = SmoothObjective(dimension=1, eval=lambda x: float(x[0] ** 2),
                               grad=lambda x: 2.0 * x, lipschitz=2.0)
        with pytest.raises(ValueError):
            estimate_pl_constant(anon)


class TestComposite:
    def test_wrap_smooth(self):
        obj = quadratic_problem([2.0], [4.0])
        comp = composite_from_smooth(obj)
        x = np.array([1.3])
        assert comp.total(x) == obj.eval(x)
        np.testing.assert_allclose(comp.prox_term.prox(x, 0.7), x)
        assert comp.min_value == obj.min_value
        assert comp.qg_constant == obj.qg_constant
