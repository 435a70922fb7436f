import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melsplit import (
    ConvergenceRegionError,
    FlowParams,
    McGeheeState,
    PoincareReturnError,
    build_equilateral,
    build_polygon,
    build_rp3bp,
    c_coeffs,
    duffing_rhs,
    hd_value,
    homoclinic,
    integrate,
    jacobi_constant,
    poincare_numeric,
    rhs_mcgehee_t,
    s_closed_form,
    simple_zeros,
    splitting_measure,
    splitting_terms,
    theta_from_jacobi,
)
from melsplit import dynamics
from melsplit.config import rotate
from melsplit.dynamics import (
    SQRT2,
    integrate_mcgehee,
    rhs_mcgehee_tau,
)


class TestClosedForms:
    def test_homoclinic_at_zero(self):
        x, y = homoclinic(0.0, 2.0)
        assert x == pytest.approx(SQRT2 / 2.0)
        assert y == 0.0

    def test_homoclinic_decay(self):
        for tau in (20.0, -20.0):
            x, y = homoclinic(tau, 1.0)
            assert abs(x) <= 1e-8 and abs(y) <= 1e-8

    def test_homoclinic_needs_theta0(self):
        with pytest.raises(ValueError):
            homoclinic(0.0, 0.0)

    def test_energy_vanishes_on_homoclinic(self):
        for theta0 in (0.7, -1.3):
            for tau in np.linspace(-8, 8, 100):
                x, y = homoclinic(float(tau), theta0)
                assert abs(hd_value(x, y, theta0)) <= 1e-13

    def test_homoclinic_solves_oscillator(self):
        h = 1e-6
        for tau in np.linspace(-5, 5, 100):
            x, y = homoclinic(float(tau), 1.0)
            dx, dy = duffing_rhs(x, y, 1.0)
            fd_x = (homoclinic(tau + h, 1.0)[0] - homoclinic(tau - h, 1.0)[0]) / (2 * h)
            fd_y = (homoclinic(tau + h, 1.0)[1] - homoclinic(tau - h, 1.0)[1]) / (2 * h)
            assert fd_x == pytest.approx(dx, abs=5e-10)
            assert fd_y == pytest.approx(dy, abs=5e-10)

    def test_oscillator_fixed_points(self):
        for x in (0.0, 1.0 / 0.7, -1.0 / 0.7):
            dx, dy = duffing_rhs(x, 0.0, 0.7)
            assert dx == 0.0 and abs(dy) <= 1e-15
        assert hd_value(0.0, 0.0, 1.0) == 0.0


class TestFastAngle:
    def test_initial_value(self):
        assert s_closed_form(0.0, 0.37, 1.0, 0.5) == pytest.approx(0.37)

    @pytest.mark.parametrize("theta0", [1.0, -1.0, 0.6])
    def test_derivative_formula(self, theta0):
        eps = 0.5
        h = 1e-6
        for tau in (0.3, 1.0, -0.7):
            fd = (
                s_closed_form(tau + h, 0.2, theta0, eps)
                - s_closed_form(tau - h, 0.2, theta0, eps)
            ) / (2 * h)
            sign = 1.0 if theta0 > 0 else -1.0
            analytic = sign * (
                0.5 * eps**-3 * theta0**3 * math.cosh(tau) ** 3 - 2.0 / math.cosh(tau)
            )
            assert fd == pytest.approx(analytic, rel=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-2.5, max_value=2.5),
    )
    def test_odd_in_tau(self, tau, s0):
        # the fast angle is centered at s0: s(tau) + s(-tau) = 2 s0 per branch
        for theta0 in (1.0, -1.0):
            total = s_closed_form(tau, s0, theta0, 0.5) + s_closed_form(-tau, s0, theta0, 0.5)
            assert total == pytest.approx(2 * s0, abs=1e-9)


class TestAngularMomentumBranch:
    def test_zero_set_value(self):
        assert theta_from_jacobi(0.0, 0.0, 2.0, 0.5) == -2.0

    def test_quartic_approach(self):
        # beyond the explicit -eps^3 (x^2 - y^2) drift the branch approaches
        # -C like x^4: halving x cuts the remainder sixteenfold
        c, eps = 1.5, 0.5
        d1 = theta_from_jacobi(0.02, 0.0, c, eps) + c + eps**3 * 0.02**2
        d2 = theta_from_jacobi(0.01, 0.0, c, eps) + c + eps**3 * 0.01**2
        assert d1 / d2 == pytest.approx(16.0, rel=1e-3)

    def test_series_matches_radical(self):
        c, eps = 1.2, 0.8
        x = (1.00001e-6 / eps**3) ** 0.25  # just above the series switch point
        direct = theta_from_jacobi(x, 0.1, c, eps)
        v = eps**3 * x**4
        g = c + eps**3 * (x * x - 0.01)
        assert direct == pytest.approx((1.0 - math.sqrt(1.0 + 2 * v * g)) / v, rel=1e-10)

    def test_negative_radicand(self):
        with pytest.raises(ValueError):
            theta_from_jacobi(1.5, 0.0, -40.0, 0.9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=2.5e-3, max_value=0.05), st.floats(min_value=-1.0, max_value=1.0))
    def test_series_continuity_property(self, x, y):
        # reference radical in extended precision; the double-precision radical
        # itself loses ~7 digits to cancellation in this regime
        c, eps = 1.0, 0.5
        got = theta_from_jacobi(x, y, c, eps)
        ld = np.longdouble
        v = ld(eps) ** 3 * ld(x) ** 4
        g = ld(c) + ld(eps) ** 3 * (ld(x) * ld(x) - ld(y) * ld(y))
        exact = float((1.0 - np.sqrt(1.0 + 2.0 * v * g)) / v)
        assert got == pytest.approx(exact, rel=5e-8)


class TestStatesAndFields:
    def test_mcgehee_state_normalizes_angle(self):
        st_ = McGeheeState(0.1, 0.0, 7.0, 1.0)
        assert 0.0 <= st_.s < 2 * math.pi

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            McGeheeState(-0.1, 0.0, 0.0, 1.0)

    def test_periodic_orbit_is_fixed_line(self, rp3bp_03):
        params = FlowParams(epsilon=0.5, config=rp3bp_03, truncation_order=9)
        d = rhs_mcgehee_t(McGeheeState(0.0, 0.0, 1.2, 0.7), params)
        assert d == (0.0, 0.0, 1.0, 0.0)

    def test_truncation_three_is_kepler_form(self, rp3bp_03):
        params = FlowParams(epsilon=0.5, config=rp3bp_03, truncation_order=3)
        x, y, s, th = 0.4, 0.1, 0.9, 1.1
        dx, dy, ds, dth = rhs_mcgehee_t(McGeheeState(x, y, s, th), params)
        e3 = 0.5**3
        assert dx == pytest.approx(e3 * x**3 * y / SQRT2)
        assert dy == pytest.approx(e3 * (x**4 - th**2 * x**6) / SQRT2)
        assert ds == pytest.approx(1.0 - e3 * th * x**4)
        assert dth == 0.0

    def test_collinear_theta_dot_vanishes_at_zero_angle(self, collinear8):
        params = FlowParams(epsilon=0.5, config=collinear8, truncation_order=9)
        d = rhs_mcgehee_t(McGeheeState(0.3, 0.1, 0.0, 1.0), params)
        assert d[3] == pytest.approx(0.0, abs=1e-18)

    def test_convergence_region_guard(self, rp3bp_03):
        params = FlowParams(epsilon=0.5, config=rp3bp_03, truncation_order=9)
        with pytest.raises(ConvergenceRegionError):
            rhs_mcgehee_t(McGeheeState(3.0, 0.0, 0.0, 1.0), params)

    @pytest.mark.parametrize("order", [3, 7, 9])
    def test_time_form_is_the_rescaled_slow_time_form(self, rp3bp_03, rotated_equilateral, order):
        # d tau/dt = eps^3 x^3 / sqrt(2) at random states; the rotated
        # equilateral has every c and d coefficient nonzero, sine channels included
        rng = np.random.default_rng(5)
        for cfg in (rp3bp_03, rotated_equilateral):
            for _ in range(150):
                x, y, theta = rng.uniform(0.05, 0.6), rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
                s, eps = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.3, 1.0)
                params = FlowParams(epsilon=eps, config=cfg, truncation_order=order)
                got = rhs_mcgehee_t(McGeheeState(x, y, s, theta), params)
                want = rhs_mcgehee_tau((x, y, s, theta), params) * eps**3 * x**3 / SQRT2
                assert got == pytest.approx(tuple(want), rel=1e-12, abs=0.0)

    def test_flow_params_validation(self, rp3bp_03):
        with pytest.raises(ValueError):
            FlowParams(epsilon=0.5, config=rp3bp_03, truncation_order=5)
        with pytest.raises(ValueError):
            FlowParams(epsilon=-0.1, config=rp3bp_03)


class TestIntegrate:
    def test_oscillator_tracks_homoclinic(self):
        theta0 = 1.0

        def rhs(_t, yv):
            return np.array(duffing_rhs(yv[0], yv[1], theta0))

        x0, y0 = homoclinic(-10.0, theta0)
        traj = integrate(rhs, (x0, y0), (-10.0, 10.0), tol=1e-10)
        worst = 0.0
        for tau in np.linspace(-10, 10, 201):
            xt, yt = traj.sol(float(tau))
            xe, ye = homoclinic(float(tau), theta0)
            worst = max(worst, abs(xt - xe), abs(yt - ye))
        assert worst <= 1e-6

    def test_energy_drift_on_oscillator(self):
        theta0 = 0.8

        def rhs(_t, yv):
            return np.array(duffing_rhs(yv[0], yv[1], theta0))

        traj = integrate(rhs, (0.9, 0.0), (0.0, 20.0), tol=1e-10)
        h0 = hd_value(0.9, 0.0, theta0)
        for tau in np.linspace(0, 20, 100):
            xt, yt = traj.sol(float(tau))
            assert abs(hd_value(float(xt), float(yt), theta0) - h0) <= 1e-9

    def test_zero_set_invariant(self, rp3bp_03):
        params = FlowParams(epsilon=0.5, config=rp3bp_03, truncation_order=9)
        traj = integrate_mcgehee(
            McGeheeState(0.0, 0.0, 0.25, 1.0), params, (0.0, 4 * math.pi), tol=1e-10
        )
        assert np.max(np.abs(traj.states[0])) <= 1e-14
        assert np.max(np.abs(traj.states[1])) <= 1e-14

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, (1.0,), (0.0, 1.0), tol=1.0)

    def test_jacobi_drift(self, rp3bp_03, rotated_equilateral):
        # the rotated equilateral has every c and d coefficient nonzero
        for cfg in (rp3bp_03, rotated_equilateral):
            params = FlowParams(epsilon=0.5, config=cfg, truncation_order=9)
            st0 = McGeheeState(0.4, 0.1, 0.0, 1.0)
            traj = integrate_mcgehee(st0, params, (0.0, 50.0), tol=1e-11)
            c0 = jacobi_constant(st0, params)
            for i in range(traj.states.shape[1]):
                st_i = McGeheeState(*(float(v) for v in traj.states[:, i]))
                assert abs(jacobi_constant(st_i, params) - c0) <= 1e-8

    def test_time_rescaling_consistency(self, rp3bp_03):
        # the t-form and tau-form flows trace the same curve
        params = FlowParams(epsilon=0.5, config=rp3bp_03, truncation_order=9)
        st0 = (0.4, 0.05, 0.3, 1.0)

        def rhs_t_aug(_t, yv):
            d = np.empty(5)
            state = McGeheeState(yv[0], yv[1], yv[2], yv[3])
            d[:4] = rhs_mcgehee_t(state, params)
            d[4] = params.epsilon**3 * yv[0] ** 3 / SQRT2  # slow-time odometer
            return d

        traj_t = integrate(rhs_t_aug, (*st0, 0.0), (0.0, 30.0), tol=1e-11)
        tau_end = float(traj_t.states[4, -1])

        def rhs_tau(_tau, yv):
            return rhs_mcgehee_tau(yv, params)

        traj_tau = integrate(rhs_tau, st0, (0.0, tau_end), tol=1e-11)
        worst = 0.0
        for t in np.linspace(0.0, 30.0, 60):
            xt, yt, st_, tht, tau = (float(v) for v in traj_t.sol(float(t)))
            xs, ys, ss, ths = (float(v) for v in traj_tau.sol(tau))
            worst = max(
                worst,
                abs(xt - xs),
                abs(yt - ys),
                abs(tht - ths),
                abs((st_ - ss + math.pi) % (2 * math.pi) - math.pi),
            )
        assert worst <= 1e-7


class TestPoincare:
    def params(self, config, trunc=3):
        return FlowParams(epsilon=0.5, config=config, jacobi_C=-1.0, truncation_order=trunc)

    def test_leading_term_ratios(self, rp3bp_03):
        params = self.params(rp3bp_03)
        x0, y0, s0 = 0.02, 0.01, 0.3
        x1, y1, rt = poincare_numeric(x0, y0, s0, params, tol=1e-12)
        eps3 = 0.5**3
        lead_x = SQRT2 * math.pi * eps3 * x0**3 * y0
        lead_y = SQRT2 * math.pi * eps3 * x0**4 * (1.0 - params.jacobi_C**2 * x0**2)
        assert (x1 - x0) / lead_x == pytest.approx(1.0, abs=0.05)
        assert (y1 - y0) / lead_y == pytest.approx(1.0, abs=0.05)
        assert rt == pytest.approx(2 * math.pi, abs=0.5)

    def test_fixed_point(self, rp3bp_03):
        x1, y1, rt = poincare_numeric(0.0, 0.0, 0.7, self.params(rp3bp_03), tol=1e-12)
        assert x1 == 0.0 and y1 == 0.0
        assert rt == pytest.approx(2 * math.pi, abs=1e-10)

    def test_requires_jacobi_constant(self, rp3bp_03):
        params = FlowParams(epsilon=0.5, config=rp3bp_03)
        with pytest.raises(ValueError):
            poincare_numeric(0.01, 0.0, 0.0, params)

    def test_requires_small_x(self, rp3bp_03):
        with pytest.raises(ValueError):
            poincare_numeric(0.5, 0.0, 0.0, self.params(rp3bp_03))


def measure(cfg, theta0, eps, tol=1e-12):
    """Flow-side order-4 plus order-6 splitting as a function of s0."""
    m4 = splitting_measure(cfg, 4, theta0, eps, tol)
    m6 = splitting_measure(cfg, 6, theta0, eps, tol)
    return lambda s0: eps**4 * m4.value(s0) + eps**6 * m6.value(s0)


def assert_terms_agree(flow, closed):
    """Same harmonics, and amplitudes equal within the sum of both errors."""
    assert flow.epsilon_order == closed.epsilon_order
    assert [t[0] for t in flow.terms] == [t[0] for t in closed.terms]
    for (_, a, b, err), (_, a_c, b_c, err_c) in zip(flow.terms, closed.terms):
        assert abs(a - a_c) <= err + err_c
        assert abs(b - b_c) <= err + err_c


@pytest.fixture(scope="module")
def rotated_equilateral():
    return rotate(build_equilateral(0.2, 0.3), 0.7)


def integrand_values(integrand, sigma):
    """Pointwise value of a cubic-phase integrand, odd parts included."""
    phase = integrand.phase_scale * (sigma + sigma**3 / 3.0)
    num = (P.polyval(sigma, integrand.cos_numerator) * np.cos(phase)
           + P.polyval(sigma, integrand.sin_numerator) * np.sin(phase))
    return num / (1.0 + sigma * sigma) ** integrand.denominator_power


class TestSplittingMeasure:
    def test_matches_closed_forms_on_grid(self, rp3bp_03, rotated_equilateral):
        for cfg in (rp3bp_03, rotated_equilateral):
            for theta0 in (1.0, -1.0):
                for order in (4, 6):
                    flow = splitting_measure(cfg, order, theta0, 0.5, tol=1e-12)
                    closed = splitting_terms(cfg, order, theta0, 0.5, tol=1e-12)
                    assert_terms_agree(flow, closed)

    def test_negative_branch(self, rp3bp_03):
        # default tolerances on both sides, on the branch where the amplitudes are small
        for order in (4, 6):
            flow = splitting_measure(rp3bp_03, order, -1.0, 0.8)
            assert_terms_agree(flow, splitting_terms(rp3bp_03, order, -1.0, 0.8))

    def test_zeros_bracketed(self, rp3bp_03):
        d1, d2, _, _ = (0.252, 0.0, 0.0, 0.0)
        predicted = simple_zeros(d2, -d1, 1)
        flow = measure(rp3bp_03, 1.0, 0.5, tol=1e-9)
        for z in predicted:
            assert flow(z - 1e-3) * flow(z + 1e-3) < 0.0

    def test_selection_rule_suppression(self):
        pentagon = build_polygon(6)
        assert abs(measure(pentagon, 1.0, 0.5, tol=1e-9)(0.7)) <= 1e-12

    def test_domain(self, rp3bp_03):
        for theta0, eps in ((0.0, 0.5), (math.nan, 0.5), (math.inf, 0.5),
                            (1.0, 0.0), (1.0, -0.5), (1.0, 1.5), (1.0, math.nan)):
            with pytest.raises(ValueError):
                splitting_measure(rp3bp_03, 4, theta0, eps)
        with pytest.raises(ValueError):
            splitting_measure(rp3bp_03, 5, 1.0, 0.5)

    @pytest.mark.parametrize("theta0", [1.0, -1.0])
    def test_integrands_are_the_energy_derivative(
        self, monkeypatch, rp3bp_03, rotated_equilateral, theta0
    ):
        # the harmonics the engine integrates, recombined at a few s0, equal
        # dH_D/dtau dtau/dsigma from the slow-time field on the separatrix
        integrands = []
        engine = dynamics.eval_oscillatory
        monkeypatch.setattr(dynamics, "eval_oscillatory",
                            lambda f, tol: integrands.append(f) or engine(f, tol))
        eps = 0.5
        sigmas = np.linspace(-2.5, 2.5, 21)
        for cfg in (rp3bp_03, rotated_equilateral):
            params = FlowParams(epsilon=eps, config=cfg, truncation_order=9)
            c1 = c_coeffs(cfg)[0]
            harmonics = []  # (epsilon power, k, X integrand, Y integrand)
            for order in (4, 6):
                integrands.clear()
                terms = splitting_measure(cfg, order, theta0, eps).terms
                assert len(integrands) == 2 * len(terms)
                harmonics += [(eps**order, k, integrands[2 * i], integrands[2 * i + 1])
                              for i, (k, *_) in enumerate(terms)]
            for s0 in (0.0, 0.9, 4.1):
                got = sum(w * (integrand_values(fx, sigmas) * math.cos(k * s0)
                               - integrand_values(fy, sigmas) * math.sin(k * s0))
                          for w, k, fx, fy in harmonics)
                for sigma, value in zip(sigmas, got):
                    tau = math.asinh(sigma)
                    x, y = homoclinic(tau, theta0)
                    s = s_closed_form(tau, s0, theta0, eps)
                    _, dy, _, dtheta = rhs_mcgehee_tau((x, y, s, theta0), params)
                    dh = y * (dy - (1.0 - theta0**2 * x * x) * x) + 0.5 * theta0 * x**4 * dtheta
                    dh -= 0.75 * eps**4 * c1 * x**5 * y  # odd in sigma, left out of the harmonics
                    assert value == pytest.approx(dh / math.sqrt(1.0 + sigma * sigma),
                                                  rel=1e-10, abs=1e-14)
