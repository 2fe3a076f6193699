"""Parameter bundles: frozen reference values and the audit round-trip.

The reference numbers below were derived by hand from the closed forms
(mu = 1, L = 100, so h = 0.1 and sqrt(q) = 0.1 keep the arithmetic
short) and frozen as exact float literals.
"""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from momcert import (
    Regime,
    agm_params_nesterov,
    agm_params_pl,
    agm_params_qg,
    agm_params_sc,
    check_constraints,
    ode_params_pl,
    ode_params_qg,
    ode_params_sc,
    pgm_params_qg,
    pgm_params_sc,
)


class TestAgmStronglyConvex:
    def test_omega_zero_reference(self):
        # alpha = 2 sqrt(1 * 1 / 1) = 2, ah = 0.2,
        # rho = 0.2 / (2 + 0.2) = 1/11, v0 = 2 / 2.2 = 10/11
        p = agm_params_sc(1.0, 100.0, gamma=1.0, omega=0.0)
        assert p.alpha == 2.0
        assert p.h == 0.1
        assert p.rho == 0.09090909090909091
        assert p.v0_coeff == 0.9090909090909091
        assert p.R_omega == 1.0
        assert p.bound_prefactor == 2.0
        assert p.xi == 1.0           # alpha / 2
        assert p.eta == 0.0          # omega = 0 kills the negative term
        assert p.theta == p.gamma

    def test_omega_one_reference(self):
        # alpha = 3 sqrt(2 / 2) = 3, ah = 0.3,
        # rho = 2 * 0.3 / (3 + 4 * 0.3) = 1/7
        p = agm_params_sc(1.0, 100.0, gamma=2.0, omega=1.0)
        assert p.alpha == 3.0
        assert p.rho == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert p.R_omega == pytest.approx(2.0 / 13.0, rel=1e-12)
        assert p.v0_coeff == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert p.xi == pytest.approx(2.0, rel=1e-15)
        assert p.bound_prefactor == pytest.approx(19.5, rel=1e-12)

    def test_caller_alpha_respected_and_capped(self):
        p = agm_params_sc(1.0, 100.0, gamma=1.0, omega=0.0, alpha=1.0)
        assert p.alpha == 1.0
        assert p.rho == pytest.approx(0.1 / 2.1, rel=1e-15)
        with pytest.raises(ValueError):
            agm_params_sc(1.0, 100.0, gamma=1.0, omega=0.0, alpha=2.01)
        # the exact cap round-trips
        assert agm_params_sc(1.0, 100.0, 1.0, 0.0, alpha=2.0).alpha == 2.0

    def test_input_windows(self):
        with pytest.raises(ValueError):
            agm_params_sc(1.0, 100.0, gamma=0.9, omega=0.0)
        with pytest.raises(ValueError):
            agm_params_sc(1.0, 100.0, gamma=2.1, omega=0.0)
        with pytest.raises(ValueError):
            agm_params_sc(1.0, 100.0, gamma=1.0, omega=1.5)
        with pytest.raises(ValueError):
            agm_params_sc(100.0, 1.0, gamma=1.0, omega=0.0)  # mu >= L

    def test_rate_monotone_in_mu(self):
        rhos = [agm_params_sc(mu, 100.0, 1.5, 0.5).rho for mu in (0.1, 1.0, 10.0)]
        assert rhos[0] < rhos[1] < rhos[2]

    def test_rate_ordering_across_knobs(self):
        # at small q, both knobs help: (2, 1) > (2, 0) > (1, 0)
        for big_l in (100.0, 10_000.0):
            slow = agm_params_sc(1.0, big_l, 1.0, 0.0).rho
            mid = agm_params_sc(1.0, big_l, 2.0, 0.0).rho
            fast = agm_params_sc(1.0, big_l, 2.0, 1.0).rho
            assert fast > mid > slow


class TestAgmQuadraticGrowth:
    def test_omega_zero_reference(self):
        # r = 1: alpha = (3/2) sqrt(1) = 1.5, ah = 0.15,
        # rho = 0.15 / (3 + 2 * 0.15) = 1/22
        p = agm_params_qg(1.0, 100.0, gamma=1.0, omega=0.0)
        assert p.alpha == 1.5
        assert p.rho == 0.04545454545454546
        assert p.R_omega == 1.0
        assert p.bound_prefactor == 2.0

    def test_omega_one_reference(self):
        # r = sqrt(2): alpha = (3 + r)/(2 + r) with mu gamma = 1
        p = agm_params_qg(1.0, 100.0, gamma=1.0, omega=1.0)
        assert p.alpha == pytest.approx((3 + math.sqrt(2)) / (2 + math.sqrt(2)),
                                        rel=1e-15)
        assert p.alpha == 1.2928932188134525
        assert p.rho == 0.04881553646890875
        assert p.R_omega == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert p.bound_prefactor == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_slower_than_strongly_convex(self):
        sc = agm_params_sc(1.0, 100.0, 1.0, 0.0).rho
        qg = agm_params_qg(1.0, 100.0, 1.0, 0.0).rho
        assert qg < sc


class TestAgmPl:
    def test_reference_values(self):
        # q = 0.01: s = sqrt(0.0199), gamma = (s - q)/(1 - q)
        p = agm_params_pl(1.0, 100.0)
        assert p.gamma == 0.13239127252187763
        assert p.rho == 0.01752744903996207
        assert p.rho == pytest.approx(p.alpha * p.h, abs=0.0)
        assert p.A == p.alpha
        assert p.xi == 0.0 and p.omega == 0.0 and p.eta == 0.0
        assert p.theta == p.gamma
        assert p.R_omega == 1.0 and p.v0_coeff == 1.0
        assert p.bound_prefactor == 1.0

    @given(q=st.floats(1e-6, 0.99))
    def test_gamma_always_in_unit_interval(self, q):
        p = agm_params_pl(q * 50.0, 50.0)
        assert 0.0 < p.gamma < 1.0
        assert 0.0 < p.rho < 1.0


class TestAgmNesterov:
    def test_extrapolation_coefficient(self):
        # tau = 1 / (1 + ah) must equal (1 - sqrt q) / (1 + sqrt q) exactly
        p = agm_params_nesterov(1.0, 100.0)
        assert 1.0 / (1.0 + p.alpha * p.h) == (1.0 - 0.1) / (1.0 + 0.1)
        assert p.gamma == 1.0 + p.alpha * p.h

    def test_flagged_by_audit(self):
        p = agm_params_nesterov(1.0, 100.0)
        bad = check_constraints(p, Regime.STRONGLY_CONVEX)
        assert len(bad) == 1
        assert "alpha" in bad[0]

    def test_needs_small_q(self):
        with pytest.raises(ValueError):
            agm_params_nesterov(13.0, 100.0)  # q > 1/9


class TestPgm:
    def test_sc_omega_zero_reference(self):
        # alpha = 2, ah = 0.2, rho = 0.2 / 2 = 0.1,
        # theta = (1 + 0.1)(1 + 0.1) = 1.21
        p = pgm_params_sc(1.0, 100.0, omega=0.0)
        assert p.alpha == 2.0
        assert p.rho == 0.1
        assert p.A * p.h == 0.1
        assert p.theta == pytest.approx(1.21, rel=1e-15)
        assert p.R_omega == 1.0
        assert p.bound_prefactor == 2.0

    def test_sc_omega_one_reference(self):
        p = pgm_params_sc(1.0, 100.0, omega=1.0)
        assert p.alpha == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-15)
        assert p.rho == 0.12389934309929543
        # the bound rate genuinely undercuts the certificate rate here
        assert p.A * p.h == 0.12583098042154037
        assert p.rho < p.A * p.h
        assert p.R_omega == 0.2978830106243031

    def test_qg_references(self):
        p0 = pgm_params_qg(1.0, 100.0, omega=0.0)
        assert p0.alpha == 1.5
        assert p0.rho == pytest.approx(0.05, rel=1e-15)
        p1 = pgm_params_qg(1.0, 100.0, omega=1.0)
        # closed form at the default alpha: (2 - sqrt 2) sqrt(q) / (1 + sqrt q)
        expected = (2.0 - math.sqrt(2.0)) * 0.1 / 1.1
        assert p1.rho == pytest.approx(expected, rel=1e-14)
        assert p1.R_omega == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert p1.bound_prefactor == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    @given(omega=st.floats(0.0, 1.0), q=st.floats(1e-5, 0.5))
    def test_bound_rate_never_beats_certificate_rate(self, omega, q):
        p = pgm_params_sc(q * 30.0, 30.0, omega)
        assert p.rho <= p.A * p.h * (1.0 + 1e-12)
        p = pgm_params_qg(q * 30.0, 30.0, omega)
        assert p.rho <= p.A * p.h * (1.0 + 1e-12)


class TestOde:
    def test_sc_omega_zero_reference(self):
        # theta defaults to alpha^2 / (4 mu), the omega = 0 cap made tight
        p = ode_params_sc(1.0, alpha=2.0, beta=0.5, omega=0.0)
        assert p.theta == 1.0
        assert p.gamma == 1.5
        assert p.xi == 1.0
        assert p.eta == 0.0
        assert p.decay_rate == 1.0   # alpha / 2
        assert p.prefactor == 2.0

    def test_sc_omega_one_reference(self):
        p = ode_params_sc(1.0, alpha=3.0, beta=1.0 / 3.0, omega=1.0)
        assert p.theta == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert p.gamma == pytest.approx(3.0, rel=1e-15)
        assert p.xi == pytest.approx(2.0, rel=1e-15)
        assert p.eta == pytest.approx(2.0, rel=1e-14)
        assert p.decay_rate == pytest.approx(2.0, rel=1e-15)  # (2/3) alpha
        # closed form 1 + 6 / (alpha beta) at omega = 1
        assert p.prefactor == pytest.approx(7.0, rel=1e-14)

    def test_sc_theta_floor_enforced(self):
        with pytest.raises(ValueError):
            ode_params_sc(1.0, alpha=2.0, beta=0.5, omega=0.0, theta_opt=0.9)
        p = ode_params_sc(1.0, alpha=2.0, beta=0.5, omega=0.0, theta_opt=1.5)
        assert p.theta == 1.5
        assert p.gamma == 2.0

    def test_qg_omega_one_rate_closed_form(self):
        # alpha = (2 - sqrt(2)/2) sqrt(mu) gives decay (2 - sqrt 2) sqrt(mu)
        mu = 3.0
        alpha = (2.0 - math.sqrt(2.0) / 2.0) * math.sqrt(mu)
        p = ode_params_qg(mu, alpha=alpha, beta=0.1, omega=1.0)
        assert p.decay_rate == pytest.approx((2.0 - math.sqrt(2.0)) * math.sqrt(mu),
                                             rel=1e-14)
        assert p.prefactor == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)

    def test_pl_reference(self):
        p = ode_params_pl(2.0, beta=0.25, theta=1.0)
        assert p.alpha == 0.5          # mu beta
        assert p.gamma == 1.125        # theta + alpha beta
        assert p.decay_rate == 1.0     # 2 mu beta
        assert p.prefactor == 1.0
        assert p.xi == 0.0 and p.eta == 0.0 and p.omega == 0.0

    @pytest.mark.parametrize("v", [math.inf, math.nan])
    @pytest.mark.parametrize("make", [
        lambda v: ode_params_sc(v, 2.0, 0.5, 0.0),
        lambda v: ode_params_sc(1.0, v, 0.5, 0.0),
        lambda v: ode_params_sc(1.0, 2.0, v, 0.0),
        lambda v: ode_params_qg(v, 1.2, 0.3, 1.0),
        lambda v: ode_params_qg(1.0, v, 0.3, 1.0),
        lambda v: ode_params_qg(1.0, 1.2, v, 1.0),
        lambda v: ode_params_pl(v, 0.25),
        lambda v: ode_params_pl(2.0, v),
    ], ids=["sc-mu", "sc-alpha", "sc-beta", "qg-mu", "qg-alpha", "qg-beta",
            "pl-mu", "pl-beta"])
    def test_non_finite_inputs_are_rejected(self, make, v):
        with pytest.raises(ValueError, match="< inf"):
            make(v)


FACTORIES = [
    lambda: agm_params_sc(1.0, 100.0, 1.0, 0.0),
    lambda: agm_params_sc(0.5, 80.0, 1.7, 0.3, alpha=1.0),
    lambda: agm_params_qg(1.0, 100.0, 2.0, 1.0),
    lambda: agm_params_pl(1.0, 100.0),
    lambda: pgm_params_sc(1.0, 100.0, 1.0),
    lambda: pgm_params_qg(2.0, 60.0, 0.4),
    lambda: ode_params_sc(1.0, 2.0, 0.5, 0.0),
    lambda: ode_params_qg(1.0, 1.2, 0.3, 1.0),
    lambda: ode_params_pl(2.0, 0.25),
]

TAMPERS = {"x2": lambda v: 2.0 * v, "negated": lambda v: -v, "plus0.1": lambda v: v + 0.1}


def _tamper_cases(admissible: bool) -> list:
    """(make, field, tamper) over FACTORIES x float fields x TAMPERS, skipping
    tampers that leave the value unchanged (x2 or negating 0.0). Raising mu
    on an sc/qg bundle keeps its alpha under the larger mu's cap, so only
    those tampers leave an admissible bundle; `admissible` picks them."""
    cases = []
    for i, make in enumerate(FACTORIES):
        p = make()
        for f in fields(p):
            if f.name == "regime":
                continue
            v = getattr(p, f.name)
            for name, tamper in TAMPERS.items():
                if tamper(v) == v:
                    continue
                raises_mu = (f.name == "mu" and tamper(v) > v
                             and p.regime is not Regime.POLYAK_LOJASIEWICZ)
                if raises_mu == admissible:
                    cases.append(pytest.param(make, f.name, tamper,
                                              id=f"{i}-{f.name}-{name}"))
    return cases


class TestAudit:
    @pytest.mark.parametrize("make", FACTORIES)
    def test_clean_bundles_pass(self, make):
        p = make()
        assert check_constraints(p, p.regime) == []

    def test_regime_mismatch_is_reported(self):
        p = agm_params_sc(1.0, 100.0, 1.0, 0.0)
        bad = check_constraints(p, Regime.QUADRATIC_GROWTH)
        assert len(bad) == 1 and "regime" in bad[0]

    def test_tampered_values_are_named(self):
        p = agm_params_sc(1.0, 100.0, 1.0, 0.0)
        assert any("theta" in v for v in
                   check_constraints(replace(p, theta=p.theta * 1.01), p.regime))
        assert any("rho" in v for v in
                   check_constraints(replace(p, rho=p.rho * 2.0), p.regime))
        assert any("alpha" in v for v in
                   check_constraints(replace(p, alpha=p.alpha * 1.1), p.regime))
        o = ode_params_sc(1.0, 2.0, 0.5, 1.0)
        assert any("eta" in v for v in
                   check_constraints(replace(o, eta=o.eta + 0.1), o.regime))
        assert any("gamma" in v for v in
                   check_constraints(replace(o, gamma=o.gamma + 0.1), o.regime))
        g = pgm_params_sc(1.0, 100.0, 0.5)
        assert any("rho <= A h" in v for v in
                   check_constraints(replace(g, rho=g.A * g.h * 1.5), g.regime))

    def test_xi_identity_everywhere(self):
        for make in FACTORIES:
            p = make()
            # xi never exceeds alpha, and the anchored energies keep
            # alpha - xi strictly positive
            assert 0.0 <= p.xi <= p.alpha * (1.0 + 1e-15)
            if p.xi > 0.0:
                assert p.alpha - p.xi > 0.0

    @pytest.mark.parametrize("make,field,tamper", _tamper_cases(admissible=False))
    def test_every_single_field_tamper_is_flagged(self, make, field, tamper):
        p = make()
        bad = check_constraints(replace(p, **{field: tamper(getattr(p, field))}), p.regime)
        assert bad

    @pytest.mark.parametrize("make,field,tamper", _tamper_cases(admissible=True))
    def test_raising_mu_keeps_sc_and_qg_bundles_admissible(self, make, field, tamper):
        p = make()
        assert check_constraints(replace(p, mu=tamper(p.mu)), p.regime) == []

    def test_infinite_curvature_is_a_rejected_input(self):
        # at L = inf agm_params_pl would divide 0 by 0
        p = agm_params_pl(1.0, 100.0)
        bad = check_constraints(replace(p, L=math.inf), p.regime)
        assert len(bad) == 1 and bad[0].startswith("inputs: need 0 < mu < L < inf")

    def test_infinite_flow_mu_is_a_rejected_input(self):
        # at mu = inf the sc theta floor is 0, which the relations let pass
        p = ode_params_sc(1.0, 2.0, 0.5, 0.0)
        bad = check_constraints(replace(p, mu=math.inf), Regime.STRONGLY_CONVEX)
        assert len(bad) == 1 and bad[0].startswith("inputs: need 0 < mu < inf")
