import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import melsplit
from melsplit import (
    ConvergenceRegionError,
    FlowParams,
    IntegrationError,
    McGeheeState,
    build_equilateral,
    build_polygon,
    build_rhomboid,
    build_rp3bp,
    harmonic_table,
    hd_value,
    homoclinic,
    integrate,
    s_closed_form,
    simple_zeros,
    solve_collinear_equal,
    splitting_terms,
)
from melsplit import dynamics, melnikov, quadrature
from melsplit.config import rotate, scale
from melsplit.dynamics import SQRT2, _field_harmonics, integrate_mcgehee
from quadrature_oracles import eval_polynomial, f4_integrand, f61_integrand, f62_integrand
import references
from references import (
    c_coeffs,
    d_coeffs,
    duffing_rhs,
    hamiltonian,
    mass_array,
    position_array,
    rhs_array,
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
        assert s_closed_form(0.0, 0.37, 2.0) == pytest.approx(0.37)

    @pytest.mark.parametrize("theta0", [1.0, -1.0, 0.6])
    def test_derivative_formula(self, theta0):
        eps = 0.5
        h = 1e-6
        for tau in (0.3, 1.0, -0.7):
            fd = (
                s_closed_form(tau + h, 0.2, theta0 / eps)
                - s_closed_form(tau - h, 0.2, theta0 / eps)
            ) / (2 * h)
            sign = 1.0 if theta0 > 0 else -1.0
            analytic = sign * (
                0.5 * eps**-3 * theta0**3 * math.cosh(tau) ** 3 - 2.0 / math.cosh(tau)
            )
            assert fd == pytest.approx(analytic, rel=1e-8)

    @pytest.mark.parametrize("theta0", [1.0, -1.0, 0.6])
    def test_matches_the_closed_form_at_40_digits(self, theta0):
        # a Python float from the math library, within 2e-15 of the formula
        eps, s0 = 0.5, 0.2
        sign = 1 if theta0 > 0 else -1
        for tau in np.linspace(-3.0, 3.0, 61).tolist():
            got = s_closed_form(tau, s0, theta0 / eps)
            with mp.workdps(40):
                t = mp.mpf(tau)
                fast = mp.mpf(theta0) ** 3 / (24 * mp.mpf(eps) ** 3) * (9 * mp.sinh(t)
                                                                        + mp.sinh(3 * t))
                want = float(s0 - sign * 4 * mp.atan(mp.tanh(t / 2)) + sign * fast)
            assert type(got) is float
            assert abs(got - want) <= 2e-15 * max(1.0, abs(want))

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-2.5, max_value=2.5),
    )
    def test_odd_in_tau(self, tau, s0):
        # the fast angle is centered at s0: s(tau) + s(-tau) = 2 s0 per branch
        for theta0 in (1.0, -1.0):
            total = s_closed_form(tau, s0, theta0) + s_closed_form(-tau, s0, theta0)
            assert total == pytest.approx(2 * s0, abs=1e-9)


def exact_potential_field(state, eps, config):
    """(y', theta', H) of the time-form flow under the exact potential, at 40 digits.

    The particle sits at r = x^-2 and angle -s in the rotating frame, so the
    potential is U = -sum m_i / |q - eps^2 a_i| with q = r (cos s, -sin s), and
    y' = eps^3 x^3 / (2 sqrt 2) (-2 theta^2 x^3 - dU/dx), theta' = eps^3 dU/ds,
    H = eps^3 (y^2 + theta^2 x^4 / 2 + U).
    """
    with mp.workdps(40):
        x, y, s, theta = map(mp.mpf, state)
        eps = mp.mpf(eps)
        r = 1 / x**2
        radial, angular = (mp.cos(s), -mp.sin(s)), (-r * mp.sin(s), -r * mp.cos(s))
        u = du_dr = du_ds = mp.mpf(0)
        for m, (ax, ay) in zip(mass_array(config), position_array(config)):
            d = (r * radial[0] - eps**2 * float(ax), r * radial[1] - eps**2 * float(ay))
            dist = mp.hypot(*d)
            u -= float(m) / dist
            du_dr += float(m) * (d[0] * radial[0] + d[1] * radial[1]) / dist**3
            du_ds += float(m) * (d[0] * angular[0] + d[1] * angular[1]) / dist**3
        du_dx = -2 * du_dr / x**3
        dy = eps**3 * x**3 / (2 * mp.sqrt(2)) * (-2 * theta**2 * x**3 - du_dx)
        return dy, eps**3 * du_ds, eps**3 * (y**2 + theta**2 * x**4 / 2 + u)


def _term_sizes(state, params):
    """Bounds on the terms that x', y', s' and theta' each sum."""
    x, y, theta = state.x, state.y, state.theta
    size_dy = (1.0 + theta * theta * x * x) * x**4 / SQRT2
    size_dtheta = 0.0
    for j, entries in _field_harmonics(params.config, params.truncation_order):
        amplitude = sum(abs(a) + abs(b) for _, a, b in entries)
        size_dy += (j + 1) / SQRT2 * amplitude * x ** (2 * j + 4)
        size_dtheta += j * amplitude * x ** (2 * j + 2)
    return (abs(x**3 * y / SQRT2), size_dy, 1.0 + abs(theta) * x**4, size_dtheta)


def _jacobi(state, params):
    """The first integral H - theta of the truncated flow, H the oracle's truncated energy."""
    return hamiltonian(state, params) - state.theta


def scaled(state, eps=0.5):
    """The unscaled state (x, y, s, theta) at ``eps`` as (eps x, eps y, s, theta/eps)."""
    x, y, s, theta = state
    return eps * x, eps * y, s, theta / eps


class TestStatesAndFields:
    def test_mcgehee_state_normalizes_angle(self):
        st_ = McGeheeState(0.1, 0.0, 7.0, 1.0)
        assert 0.0 <= st_.s < 2 * math.pi

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            McGeheeState(-0.1, 0.0, 0.0, 1.0)

    def test_periodic_orbit_is_fixed_line(self, rp3bp_03):
        params = FlowParams(rp3bp_03, truncation_order=9)
        assert dynamics._field(params)(0.0, 0.0, 1.2, 0.7) == (0.0, 0.0, 1.0, 0.0)

    def test_truncation_three_is_kepler_form(self, rp3bp_03):
        params = FlowParams(rp3bp_03, truncation_order=3)
        x, y, s, th = 0.4, 0.1, 0.9, 1.1
        dx, dy, ds, dth = dynamics._field(params)(x, y, s, th)
        assert dx == pytest.approx(x**3 * y / SQRT2)
        assert dy == pytest.approx((x**4 - th**2 * x**6) / SQRT2)
        assert ds == pytest.approx(1.0 - th * x**4)
        assert dth == 0.0

    def test_collinear_theta_dot_vanishes_at_zero_angle(self, collinear8):
        params = FlowParams(collinear8, truncation_order=9)
        d = dynamics._field(params)(0.3, 0.1, 0.0, 1.0)
        assert d[3] == pytest.approx(0.0, abs=1e-18)

    def test_convergence_region_guard(self, rp3bp_03):
        params = FlowParams(rp3bp_03, truncation_order=9)
        with pytest.raises(ConvergenceRegionError):
            integrate_mcgehee(McGeheeState(3.0, 0.0, 0.0, 1.0), params, (0.0, 1.0))

    @pytest.mark.parametrize("order", [3, 7, 9])
    def test_time_form_is_the_rescaled_slow_time_form(self, rp3bp_03, rotated_equilateral, order):
        # d tau/dt = x^3 / sqrt(2) at random states; the rotated equilateral
        # has every c and d coefficient nonzero, sine channels included
        rng = np.random.default_rng(5)
        for cfg in (rp3bp_03, rotated_equilateral):
            params = FlowParams(cfg, truncation_order=order)
            field = dynamics._field(params)
            for _ in range(150):
                x, y, theta = rng.uniform(0.05, 0.6), rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
                s = rng.uniform(0.0, 2 * math.pi)
                got = field(x, y, s, theta)
                want = rhs_mcgehee_tau((x, y, s, theta), params) * x**3 / SQRT2
                assert got == pytest.approx(tuple(want), rel=1e-12, abs=0.0)

    def test_flow_params_validation(self, rp3bp_03):
        for order in (1, 5, 8, 10, 133, 7.0):
            with pytest.raises(ValueError):
                FlowParams(rp3bp_03, truncation_order=order)
        for order in (3, 7, 11, 131):
            assert FlowParams(rp3bp_03, truncation_order=order)
        # eps is a gauge, applied by the command line, not a parameter of the flow
        assert [f.name for f in dataclasses.fields(FlowParams)] == ["config", "truncation_order"]

    def test_field_is_built_once_per_flow_params(self, monkeypatch, rp3bp_03):
        builds = []
        build = dynamics._field
        monkeypatch.setattr(dynamics, "_field", lambda p: builds.append(p) or build(p))
        params = FlowParams(rp3bp_03)
        state = McGeheeState(0.3, 0.05, 0.5, 1.0)
        runs = [integrate_mcgehee(state, params, (0.0, 1.0)).states for _ in range(3)]
        assert builds == [params] and runs[1:] == runs[:-1]
        # equal parameters are a separate object with their own field
        assert integrate_mcgehee(state, FlowParams(rp3bp_03), (0.0, 1.0)).states == runs[0]
        assert len(builds) == 2

    @pytest.mark.parametrize("order", [3, 7, 9, 13, 131])
    def test_field_matches_the_order_by_order_reference(self, rp3bp_03, rotated_equilateral,
                                                        order):
        # the field takes cos ks and sin ks for each entry of a row, as the
        # reference does, but the powers of x as running products; against the
        # reference that raises x to every order's power, each component agrees
        # within 4 ulp of the size of the terms it sums (2.05 at most here).  Not
        # of the value itself: where the rows cancel, theta' differs by hundreds
        # of its own ulp.
        rng = np.random.default_rng(order)
        for cfg in (rp3bp_03, rotated_equilateral):
            params = FlowParams(cfg, truncation_order=order)
            field = dynamics._field(params)
            for _ in range(100):
                x, y, theta = rng.uniform(0.05, 0.6), rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
                state = McGeheeState(x, y, rng.uniform(0.0, 2 * math.pi), theta)
                got = field(x, y, state.s, theta)
                want = rhs_array((x, y, state.s, theta), 1.0, _field_harmonics(cfg, order))
                for g, w, size in zip(got, want, _term_sizes(state, params), strict=True):
                    assert abs(g - w) <= 4 * np.finfo(float).eps * size

    @pytest.mark.parametrize("big_j", [2, 3, 4, 6])
    def test_generic_field_matches_the_exact_potential(self, rotated_equilateral, big_j):
        # the field truncated at 2J + 3 leaves the row J + 1 out: the remainder
        # falls like x^(2J+6) in y' and x^(2J+4) in theta'.  The field runs on
        # the scaled state, and y' = Y'/eps and theta' = eps Theta'
        eps = 0.7
        params = FlowParams(rotated_equilateral, truncation_order=2 * big_j + 3)
        gaps = []
        for x in (0.4, 0.2):
            state = (x, 0.13, 1.1, 0.9)
            _, dy, _, dtheta = dynamics._field(params)(*scaled(state, eps))
            dy, dtheta = dy / eps, dtheta * eps
            want_dy, want_dtheta, _ = exact_potential_field(state, eps, rotated_equilateral)
            gaps.append((abs(dy - want_dy), abs(dtheta - want_dtheta)))
        slopes = [float(mp.log(a / b, 2)) for a, b in zip(*gaps)]
        assert slopes == pytest.approx([2 * big_j + 6, 2 * big_j + 4], abs=0.25)

    @pytest.mark.parametrize("order", [7, 9, 11])
    def test_truncated_energy_is_the_exact_potential_energy(self, rotated_equilateral, order):
        # the oracle's energy truncated at 2J + 3 misses the exact one by the row
        # J + 1, of size x^(2J+4); the unscaled energy is eps times the scaled one
        eps, big_j = 0.7, (order - 3) // 2
        params = FlowParams(rotated_equilateral, truncation_order=order)
        gaps = []
        for x in (0.4, 0.2):
            state = (x, 0.13, 1.1, 0.9)
            _, _, want = exact_potential_field(state, eps, rotated_equilateral)
            got = eps * hamiltonian(McGeheeState(*scaled(state, eps)), params)
            gaps.append(abs(got - want))
        assert float(mp.log(gaps[0] / gaps[1], 2)) == pytest.approx(2 * big_j + 4, abs=0.25)


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
        params = FlowParams(rp3bp_03, truncation_order=9)
        traj = integrate_mcgehee(
            McGeheeState(0.0, 0.0, 0.25, 1.0), params, (0.0, 4 * math.pi), tol=1e-10
        )
        assert max(abs(v) for y in traj.states for v in y[:2]) <= 1e-14

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            integrate(lambda t, y: [-y[0]], (1.0,), (0.0, 1.0), tol=1.0)

    def test_backward_span_retraces_the_forward_run(self):
        def rhs(_t, yv):
            return duffing_rhs(yv[0], yv[1], 0.8)

        forward = integrate(rhs, (0.9, 0.0), (0.0, 5.0), tol=1e-11)
        back = integrate(rhs, forward.states[-1], (5.0, 0.0), tol=1e-11)
        assert back.t[0] == 5.0 and back.t[-1] == 0.0 and np.all(np.diff(back.t) < 0)
        for t in np.linspace(0.0, 5.0, 11):
            assert np.max(np.abs(np.subtract(back.sol(float(t)), forward.sol(float(t))))) <= 1e-9

    def test_zero_length_span_is_the_initial_state(self):
        state0 = (0.3, 0.05, 1.0, 0.8)
        traj = integrate(lambda t, y: [-v for v in y], state0, (2.0, 2.0), tol=1e-10)
        assert traj.t == (2.0, 2.0)
        assert list(traj.states) == [list(state0)] * 2
        assert list(traj.sol(2.0)) == list(state0)

    @pytest.mark.parametrize("t_span", [(0.0, 3.0), (3.0, 0.0), (2.0, 2.0)],
                             ids=["forward", "backward", "zero-length"])
    def test_trajectory_is_a_tuple_of_floats(self, t_span):
        # (t, states, sol): the mesh as floats, one state list per mesh point, no arrays
        state0 = (1.0, 0.0)
        traj = integrate(lambda t, y: [y[1], -y[0]], state0, t_span, tol=1e-10)
        assert isinstance(traj, dynamics.Trajectory) and isinstance(traj, tuple)
        t, states, sol = traj
        assert dynamics.Trajectory._fields == ("t", "states", "sol") and sol is traj.sol
        assert isinstance(t, tuple) and all(type(v) is float for v in t)
        assert (t[0], t[-1]) == t_span and len(states) == len(t) >= 2
        assert all(type(y) is list and len(y) == 2 and all(type(v) is float for v in y)
                   for y in states)
        assert states[0] == list(state0) and sol(t[0]) == states[0]
        for ti, y in zip(t, states):
            assert sol(ti) == pytest.approx(y, rel=0.0, abs=1e-15)
            assert y == pytest.approx([math.cos(ti - t[0]), -math.sin(ti - t[0])], abs=1e-8)

    @pytest.mark.parametrize("t_span, outside", [
        ((0.0, 1.0), (2.0, -5.0, 1.0 + 1e-15, -1e-300)),
        ((1.0, 0.0), (2.0, -5.0, 1.0 + 1e-15, -1e-300)),
        ((2.0, 2.0), (2.0 + 1e-15, 2.0 - 1e-15, 0.0)),
    ], ids=["forward", "backward", "zero-length"])
    def test_dense_output_refuses_a_time_outside_the_span(self, t_span, outside):
        # sol once extrapolated the end step's quartic: sol(2.0) on a [0, 1] run of
        # y' = -y gave 0.138 for e^-2 = 0.135, and sol(-5.0) gave 65.3 for e^5 = 148
        traj = integrate(lambda t, y: [-y[0]], (1.0,), t_span, tol=1e-10)
        for t in (*outside, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"t = {re.escape(repr(t))} lies outside "
                                                 rf"the span \[{t_span[0]!r}, {t_span[1]!r}\]"):
                traj.sol(t)
        for t in t_span:  # both end points stay legal
            assert traj.sol(t)[0] == pytest.approx(math.exp(t_span[0] - t), rel=1e-9)
        assert traj.sol(t_span[0])[0] == 1.0

    def test_dense_output_starts_at_the_initial_state_exactly(self, rp3bp_03):
        rng = np.random.default_rng(17)
        params = FlowParams(rp3bp_03, truncation_order=9)
        for t_span in ((0.0, 20.0), (20.0, 0.0)):
            state = McGeheeState(*scaled((rng.uniform(0.2, 0.5), rng.uniform(-0.1, 0.1),
                                          rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.5))))
            traj = integrate_mcgehee(state, params, t_span, tol=1e-11)
            assert list(traj.sol(t_span[0])) == [state.x, state.y, state.s, state.theta]

    def test_blow_up_raises_integration_error(self):
        # y' = y^2, y(0) = 1 leaves every step size behind at t = 1
        with pytest.raises(IntegrationError, match="10 ulp"):
            integrate(lambda t, y: [y[0] * y[0]], (1.0,), (0.0, 2.0), tol=1e-10)

    @pytest.mark.parametrize("call, message", [
        ("integrate(lambda t, y: [-y[0]], (math.nan,), (0.0, 1.0), 1e-10)",
         "ValueError: state and span must be finite"),
        ("integrate(lambda t, y: [math.nan], (1.0,), (0.0, 1.0), 1e-10)",
         "IntegrationError: first step size nan"),
    ], ids=["nan-state", "nan-field"])
    def test_non_finite_start_fails_at_once(self, call, message):
        # a NaN first step once kept the retry loop going forever; in a
        # subprocess, so that a hang fails the test instead of stalling it
        code = ("import math\nfrom melsplit import IntegrationError, integrate\ntry:\n"
                f"    {call}\nexcept (ValueError, IntegrationError) as exc:\n"
                "    print(f'{type(exc).__name__}: {exc}')\n")
        env = dict(os.environ, PYTHONPATH=str(Path(melsplit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout.startswith(message), proc

    def test_field_turning_nan_mid_run_fails_at_once(self):
        # not after shrinking the step down to 10 ulp
        with pytest.raises(IntegrationError, match=r"error norm nan of the step from t = 0\.\d+ "):
            integrate(lambda t, y: [-y[0] if t < 0.5 else math.nan], (1.0,), (0.0, 1.0),
                      tol=1e-10)

    def test_jacobi_drift(self, rp3bp_03, rotated_equilateral):
        # the rotated equilateral has every c and d coefficient nonzero; beside
        # one long run, the RK45 oracle's ten seeded starts, which draw x, t and
        # the tolerance as the benchmark's integrate ops do at eps = 1/2 and are
        # held to the drift bound its check applies to the unscaled constant,
        # eps times the scaled one
        rng = np.random.default_rng(2018)
        runs = [((0.4, 0.1, 0.0, 1.0), 50.0)] + [
            ((rng.uniform(0.2, 0.5), rng.uniform(-0.1, 0.1), rng.uniform(0.0, 2.0 * math.pi),
              rng.uniform(0.5, 1.5)), 20.0) for _ in range(10)]
        for cfg in (rp3bp_03, rotated_equilateral):
            params = FlowParams(cfg, truncation_order=9)
            for state, t1 in runs:
                st0 = McGeheeState(*scaled(state))
                traj = integrate_mcgehee(st0, params, (0.0, t1), tol=1e-11)
                c0 = _jacobi(st0, params)
                for y in traj.states:
                    assert 0.5 * abs(_jacobi(McGeheeState(*y), params) - c0) <= 1e-8

    def test_time_rescaling_consistency(self, rp3bp_03):
        # the t-form and tau-form flows trace the same curve
        params = FlowParams(rp3bp_03, truncation_order=9)
        field = dynamics._field(params)
        st0 = scaled((0.4, 0.05, 0.3, 1.0))

        def rhs_t_aug(_t, yv):
            d = np.empty(5)
            d[:4] = field(*yv[:4])
            d[4] = yv[0] ** 3 / SQRT2  # slow-time odometer
            return d

        traj_t = integrate(rhs_t_aug, (*st0, 0.0), (0.0, 30.0), tol=1e-11)
        tau_end = traj_t.states[-1][4]

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


def _section_time(g, a: float, b: float) -> float:
    """Bisect g(a) < 0 <= g(b) to a bracket of 4 eps (1 + |b|); returns its upper end."""
    while b - a > 4.0 * sys.float_info.epsilon * (1.0 + abs(b)):
        m = 0.5 * (a + b)
        if g(m) < 0.0:
            a = m
        else:
            b = m
    return b


def _first_turn(traj, target: float) -> float:
    """The time at which s first reaches ``target``, on the run's dense output."""
    i = next(i for i, y in enumerate(traj.states) if y[2] >= target)
    return _section_time(lambda t: traj.sol(t)[2] - target, traj.t[i - 1], traj.t[i])


class TestOneTurn:
    """One turn of s of the flow near x = y = 0, where s' = 1 - theta x^4."""

    @pytest.mark.parametrize("trunc", [3, 9])
    def test_leading_term_ratios(self, rp3bp_03, trunc):
        # x' = x^3 y / sqrt 2 and y' = x^4 (1 - theta^2 x^2) / sqrt 2
        params = FlowParams(rp3bp_03, truncation_order=trunc)
        x0, y0, s0, theta = 0.02, 0.01, 0.3, 1.0
        traj = integrate_mcgehee(McGeheeState(x0, y0, s0, theta), params, (0.0, 3 * math.pi),
                                 tol=1e-12)
        x1, y1, _, _ = traj.sol(2 * math.pi)
        lead_x = SQRT2 * math.pi * x0**3 * y0
        lead_y = SQRT2 * math.pi * x0**4 * (1.0 - theta**2 * x0**2)
        assert (x1 - x0) / lead_x == pytest.approx(1.0, abs=0.05)
        assert (y1 - y0) / lead_y == pytest.approx(1.0, abs=0.05)
        assert _first_turn(traj, s0 + 2 * math.pi) == pytest.approx(2 * math.pi, abs=0.5)

    def test_fixed_point(self, rp3bp_03):
        params = FlowParams(rp3bp_03)
        traj = integrate_mcgehee(McGeheeState(0.0, 0.0, 0.7, 1.0), params, (0.0, 3 * math.pi),
                                 tol=1e-12)
        x1, y1, s1, theta1 = traj.sol(2 * math.pi)
        assert x1 == 0.0 and y1 == 0.0 and theta1 == 1.0
        assert s1 == pytest.approx(0.7 + 2 * math.pi, abs=1e-12)
        assert _first_turn(traj, 0.7 + 2 * math.pi) == pytest.approx(2 * math.pi, abs=1e-10)


class TestScipyOracle:
    """The stepper agrees with scipy's RK45, the integrator it replaces."""

    def test_integrate_matches_rk45(self, monkeypatch, rp3bp_03, rotated_equilateral):
        # Same method and controller, but the stepper sums its stages and error
        # norm in Python floats, which round differently from the BLAS dot
        # products scipy uses; the controller turns that into mesh shifts of
        # about 1e-8 (9.2e-9 at most over these runs).  So: as many steps, a
        # mesh within 1e-7, and every state on scipy's interpolant.
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        fields = []
        monkeypatch.setattr(dynamics, "integrate",
                            lambda rhs, *args: fields.append(rhs) or integrate(rhs, *args))
        rng = np.random.default_rng(2018)
        for i in range(10):
            params = FlowParams((rp3bp_03, rotated_equilateral)[i % 2])
            state = scaled((rng.uniform(0.2, 0.5), rng.uniform(-0.1, 0.1),
                            rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.5)))
            traj = integrate_mcgehee(McGeheeState(*state), params, (0.0, 20.0), tol=1e-11)
            ref = solve_ivp(fields[-1], (0.0, 20.0), np.array(state), method="RK45",
                            rtol=1e-11, atol=1e-12, dense_output=True)
            assert len(traj.t) == len(ref.t)
            assert np.max(np.abs(np.subtract(traj.t, ref.t))) <= 1e-7
            for t, y in zip(traj.t, traj.states):
                assert np.max(np.abs(np.subtract(y, ref.sol(t)))) <= 1e-13
            for t in np.linspace(0.0, 20.0, 41):
                assert np.max(np.abs(traj.sol(float(t)) - ref.sol(float(t)))) <= 1e-13

    @pytest.mark.parametrize("trunc", [3, 9])
    def test_one_turn_matches_an_event_run(self, rp3bp_03, rotated_equilateral, trunc):
        # the section s = s0 + 2 pi, found on the dense output, against scipy's event
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        rng = np.random.default_rng(trunc)
        for cfg in (rp3bp_03, rotated_equilateral):
            params = FlowParams(cfg, truncation_order=trunc)
            field = dynamics._field(params)
            for tol in (1e-12, 1e-10):
                state = scaled((rng.uniform(0.005, 0.08), rng.uniform(-0.02, 0.02),
                                rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.5)))
                target = state[2] + 2.0 * math.pi
                traj = integrate_mcgehee(McGeheeState(*state), params, (0.0, 3.0 * math.pi),
                                         tol=tol)
                t1 = _first_turn(traj, target)
                x1, y1, _, theta1 = traj.sol(t1)

                def crossing(_t, v):
                    return v[2] - target

                crossing.terminal, crossing.direction = True, 1.0
                ref = solve_ivp(lambda _t, v: field(*v),
                                (0.0, 3.0 * math.pi), state, method="RK45", rtol=tol,
                                atol=tol / 10.0, events=crossing)
                at = ref.y_events[0][0]
                want = (at[0], at[1], at[3], ref.t_events[0][0])
                assert (x1, y1, theta1, t1) == pytest.approx(want, rel=0.0, abs=1e-12)


def _bits(values) -> list[str]:
    """Floats by their bits: -0.0 and 0.0 differ, and so does any last-place change."""
    return [float(v).hex() for v in values]


def _steps_of_both(rhs, t0, y0, t1, tol):
    """Steps of today's stepper, after checking them against the oracle's bit for bit.

    Both steppers see the same rhs; each call's time and state, every accepted
    step and the dense output at five points of each step must agree.
    """
    runs = []
    for stepper in (dynamics._dormand_prince, references._dormand_prince):
        calls = []

        def counted(t, y):
            calls.append(_bits([t, *y]))
            return rhs(t, y)

        steps = list(stepper(counted, t0, [float(v) for v in y0], t1, tol))
        runs.append((steps, calls))
    (new, new_calls), (old, old_calls) = runs
    assert len(new_calls) == len(old_calls) and new_calls == old_calls
    assert [_bits([t, *y]) for t, y, _ in new] == [_bits([t, *y]) for t, y, _ in old]
    start = t0
    for (t, _, piece), (_, _, oracle_piece) in zip(new, old):
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            at = start + x * (t - start)
            assert _bits(piece(at)) == _bits(oracle_piece(at))
        start = t
    return new, new_calls


class TestStepperOracle:
    """The stepper matches, bit for bit, the one before its per-call wrappers went."""

    @pytest.mark.parametrize("order", [3, 9, 13, 131])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_flow_runs_match_the_oracle(self, monkeypatch, rotated_equilateral, order,
                                        direction):
        fields = []
        monkeypatch.setattr(dynamics, "integrate",
                            lambda rhs, *args: fields.append(rhs) or integrate(rhs, *args))
        params = FlowParams(rotated_equilateral, truncation_order=order)
        t1 = 5.0 if order == 131 else 20.0
        t_span = (0.0, t1) if direction == "forward" else (t1, 0.0)
        state = scaled((0.35, 0.03, 1.0, 1.1))
        traj = integrate_mcgehee(McGeheeState(*state), params, t_span, tol=1e-11)
        steps, _ = _steps_of_both(fields[-1], t_span[0], state, t_span[1], 1e-11)
        # the trajectory is the oracle's mesh and states, and its dense output the oracle's
        assert _bits(traj.t) == _bits([t_span[0], *[t for t, _, _ in steps]])
        states = [state, *[y for _, y, _ in steps]]
        assert [_bits(y) for y in traj.states] == [_bits(y) for y in states]
        mesh = [t_span[0], *[t for t, _, _ in steps]]
        for i, (t, _, piece) in enumerate(steps):
            for x in (0.125, 0.5, 0.875, 1.0):
                at = mesh[i] + x * (t - mesh[i])
                assert _bits(traj.sol(at)) == _bits(piece(at))

    def test_ndarray_slopes(self):
        _steps_of_both(lambda t, y: np.array(duffing_rhs(y[0], y[1], 0.8)),
                       0.0, (0.9, 0.0), 20.0, 1e-10)

    def test_one_dimensional_system(self):
        _steps_of_both(lambda t, y: [-y[0] + math.sin(t)], 0.0, (1.0,), 10.0, 1e-12)

    def test_five_dimensional_system(self):
        def rhs(t, y):
            a, b, c, d, e = y
            return (b, -a + 0.1 * c, -0.5 * c + 0.2 * d * e, -d + math.sin(t), a * b - e)

        _steps_of_both(rhs, 0.0, (1.0, 0.0, 0.5, -0.2, 1.0), 8.0, 1e-11)

    def test_rejected_steps(self):
        # van der Pol at mu = 8: each attempt calls the field six times, and
        # the runs make more attempts than they keep
        def rhs(t, y):
            return [y[1], 8.0 * (1.0 - y[0] * y[0]) * y[1] - y[0]]

        steps, calls = _steps_of_both(rhs, 0.0, (2.0, 0.0), 10.0, 1e-8)
        assert len(calls) > 2 + 6 * len(steps)

    def test_zero_length_span(self):
        steps, calls = _steps_of_both(lambda t, y: [-v for v in y], 2.0, (0.3, 0.05), 2.0, 1e-10)
        assert steps == [] and len(calls) == 1

    @pytest.mark.parametrize("order", [3, 7, 9, 13, 131])
    def test_field_matches_the_oracle(self, rp3bp_03, rotated_equilateral, order):
        # x up to the edge of the convergence region, where the rows beyond the
        # first two still reach the last bits of the sums; the oracle at eps = 1
        rng = np.random.default_rng(order)
        for cfg in (rp3bp_03, rotated_equilateral):
            params = FlowParams(cfg, truncation_order=order)
            field = dynamics._field(params)
            oracle_field = references._field(params)
            x_edge = params._reach ** -0.5
            for _ in range(50):
                # s of either sign, as a backward run reaches it
                state = (rng.uniform(0.0, x_edge), rng.uniform(-1.0, 1.0),
                         rng.uniform(-7.0, 7.0), rng.uniform(-2.0, 2.0))
                assert _bits(field(*state)) == _bits(oracle_field(*state))


class TestGauge:
    """eps is a gauge: the unscaled flow at any eps is the one flow in scaled variables."""

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_unscaled_runs_rescaled_are_the_scaled_run(self, rotated_equilateral, eps):
        # the unscaled field at eps, from the state (X/eps, Y/eps, s, Theta eps),
        # traces (eps x, eps y, s, theta/eps) along the library's one run
        rows = _field_harmonics(rotated_equilateral, 9)
        start = (0.3, 0.05, 0.4, 1.2)
        run = integrate_mcgehee(McGeheeState(*start), FlowParams(rotated_equilateral),
                                (0.0, 3.0), tol=1e-12)
        x, y, s, theta = start
        unscaled = integrate(lambda _t, v: rhs_array(v, eps, rows),
                             (x / eps, y / eps, s, theta * eps), (0.0, 3.0), tol=1e-12)
        for t in np.linspace(0.0, 3.0, 13).tolist():
            xt, yt, st_, tht = unscaled.sol(t)
            assert [eps * xt, eps * yt, st_, tht / eps] == pytest.approx(run.sol(t), abs=1e-9)

    @pytest.mark.parametrize("c", [0.5, 2.0, 0.125])
    def test_the_configuration_scale_separates_orders(self, rotated_equilateral, c):
        # what eps cannot do, the configuration's scale does: at c times the
        # positions, row j of the field and order 2j of the splitting are c^j
        # times their values, exactly where c is a power of two, while the
        # Kepler part and every F_(j,k) stay as they are
        scaled_cfg = scale(rotated_equilateral, c)
        rows = _field_harmonics(rotated_equilateral, 13)
        assert _field_harmonics(scaled_cfg, 13) == tuple(
            (j, tuple((k, c**j * a, c**j * b) for k, a, b in entries)) for j, entries in rows)
        for j in (2, 3, 5):
            want = splitting_terms(rotated_equilateral, 2 * j, 1.5).terms
            assert splitting_terms(scaled_cfg, 2 * j, 1.5).terms == tuple(
                (k, c**j * a, c**j * b, c**j * err) for k, a, b, err in want)


def measure(cfg, theta_tilde, tol=1e-12):
    """Order-4 plus order-6 splitting as a function of s0."""
    m4 = splitting_terms(cfg, 4, theta_tilde, tol)
    m6 = splitting_terms(cfg, 6, theta_tilde, tol)
    return lambda s0: m4.value(s0) + m6.value(s0)


def paper_terms(cfg, order, theta_tilde, tol=1e-10):
    """The paper's rows: the literal F4, F61, F62 with the c and d pairs, as (k, A, B, error)."""
    if order == 4:
        _, c2, c3 = c_coeffs(cfg)
        pref, rows = 2.0 / theta_tilde**6, [(2, f4_integrand, -c3, c2)]
    else:
        d1, d2, d3, d4 = d_coeffs(cfg)
        pref = 2.0 / theta_tilde**8
        rows = [(1, f61_integrand, d2, -d1), (3, f62_integrand, d4, -d3)]
    sign = math.copysign(1.0, theta_tilde)
    terms = []
    for k, builder, a, b in rows:
        f = eval_polynomial(builder(theta_tilde), tol)
        amp = sign * pref * f.value
        terms.append((k, amp * a, amp * b, abs(pref) * f.error_estimate * (abs(a) + abs(b))))
    return terms


def assert_terms_agree(terms, paper):
    """Same harmonics, and amplitudes equal within the sum of both errors."""
    assert [t[0] for t in terms.terms] == [t[0] for t in paper]
    for (_, a, b, err), (_, a_p, b_p, err_p) in zip(terms.terms, paper):
        assert abs(a - a_p) <= err + err_p
        assert abs(b - b_p) <= err + err_p


@pytest.fixture(scope="module")
def rotated_equilateral():
    return rotate(build_equilateral(0.2, 0.3), 0.7)


def integrand_values(integrand, sigma):
    """Pointwise value of a cubic-phase integrand on the real line, odd parts included."""
    z = np.asarray(sigma, dtype=complex)
    return ((integrand.alpha * z + integrand.beta) * (z + 1j) ** -integrand.a
            * (z - 1j) ** -integrand.b * np.exp(1j * integrand.phase_scale * (z + z**3 / 3.0))).real


class TestSplittingMeasure:
    """The generic splitting terms against the paper's rows and the flow."""

    def test_matches_closed_forms_on_grid(self, rp3bp_03, rotated_equilateral):
        for cfg in (rp3bp_03, rotated_equilateral):
            for theta_tilde in (2.0, -2.0):
                for order in (4, 6):
                    terms = splitting_terms(cfg, order, theta_tilde, tol=1e-12)
                    assert_terms_agree(terms, paper_terms(cfg, order, theta_tilde, tol=1e-12))

    @pytest.mark.parametrize("theta_tilde", [1.0, -1.0, 0.7])
    def test_paper_rows_on_symmetric_configurations(self, theta_tilde):
        # the rhombus and the collinear chain have harmonics that vanish by
        # symmetry; they agree only with the tables' rounding bound in the error
        for cfg in (build_rp3bp(0.3), rotate(build_equilateral(0.2, 0.3), 0.7),
                    build_rhomboid(1.2, 1.0), solve_collinear_equal(7)):
            for order in (4, 6):
                assert_terms_agree(splitting_terms(cfg, order, theta_tilde),
                                   paper_terms(cfg, order, theta_tilde))

    def test_negative_branch(self, rp3bp_03):
        # default tolerances on both sides, on the branch where the amplitudes are small
        for order in (4, 6):
            assert_terms_agree(splitting_terms(rp3bp_03, order, -1.25),
                               paper_terms(rp3bp_03, order, -1.25))

    def test_zeros_bracketed(self, rp3bp_03):
        d1, d2, _, _ = (0.252, 0.0, 0.0, 0.0)
        predicted = simple_zeros(d2, -d1, 1)
        flow = measure(rp3bp_03, 2.0, tol=1e-9)
        for z in predicted:
            assert flow(z - 1e-3) * flow(z + 1e-3) < 0.0

    def test_selection_rule_suppression(self):
        pentagon = build_polygon(6)
        assert abs(measure(pentagon, 2.0, tol=1e-9)(0.7)) <= 1e-12

    def test_domain(self, rp3bp_03):
        for theta_tilde in (0.0, -0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="need finite nonzero angular momentum"):
                splitting_terms(rp3bp_03, 4, theta_tilde)
        for order in (5, 2, 130, "8.0", "-4"):
            with pytest.raises(ValueError):
                splitting_terms(rp3bp_03, order, 2.0)

    @pytest.mark.parametrize("theta_tilde", [2.0, -2.0])
    def test_integrands_are_the_energy_derivative(
        self, monkeypatch, rp3bp_03, rotated_equilateral, theta_tilde
    ):
        # the integrands F_(j,k), weighted by the table entries and recombined
        # at a few s0, equal the sigma-even part of dH_D/dtau dtau/dsigma from
        # the slow-time field on the separatrix (the odd part integrates to 0)
        integrands = []
        outcomes = quadrature._outcomes
        monkeypatch.setattr(quadrature, "_outcomes",
                            lambda fs, tol: integrands.extend(fs) or outcomes(fs, tol))
        sigmas = np.linspace(-2.5, 2.5, 21)
        for cfg in (rp3bp_03, rotated_equilateral):
            params = FlowParams(cfg, truncation_order=9)
            harmonics = []  # (weight, k, a, b, integrand)
            for order in (4, 6):
                integrands.clear()
                terms = splitting_terms(cfg, order, theta_tilde).terms
                assert len(integrands) == len(terms)
                j = order // 2
                weight = math.copysign(2.0 ** (j + 1), theta_tilde) / theta_tilde ** (order + 2)
                table = harmonic_table(cfg, j)
                harmonics += [(weight, k, *table.pair(k), f)
                              for (k, *_), f in zip(terms, integrands)]

            def dh(sigma, s0):
                tau = math.asinh(sigma)
                x, y = homoclinic(tau, theta_tilde)
                s = s_closed_form(tau, s0, theta_tilde)
                _, dy, _, dtheta = rhs_mcgehee_tau((x, y, s, theta_tilde), params)
                return (y * (dy - (1.0 - theta_tilde**2 * x * x) * x)
                        + 0.5 * theta_tilde * x**4 * dtheta)

            for s0 in (0.0, 0.9, 4.1):
                got = sum(w * integrand_values(f, sigmas)
                          * (a * math.sin(k * s0) - b * math.cos(k * s0))
                          for w, k, a, b, f in harmonics)
                for sigma, value in zip(sigmas, got):
                    even = 0.5 * (dh(sigma, s0) + dh(-sigma, s0))
                    assert value == pytest.approx(even / math.sqrt(1.0 + sigma * sigma),
                                                  rel=1e-10, abs=1e-14)
