"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, none deferred.
"""
import math
import time

import numpy as np
import pytest

from melsplit import (
    build_equilateral,
    build_polygon,
    build_rhomboid,
    build_rp3bp,
    classify,
    eval_oscillatory,
    find_zeros,
    harmonic_integrand,
    harmonic_table,
    hd_value,
    homoclinic,
    ik_asymptotic,
    legendre_cos_coeffs,
    simple_zeros,
    solve_collinear_equal,
    solve_collinear_equidistant,
    splitting_terms,
)
from melsplit.config import rotate
from melsplit.dynamics import FlowParams, McGeheeState, integrate, integrate_mcgehee
from melsplit.harmonics import HarmonicTables
from melsplit.quadrature import named_integrand
from quadrature_oracles import (
    assert_contour_shift_agrees,
    eval_polynomial,
    expanded,
    f4_integrand,
    f61_integrand,
    f62_integrand,
    ik_integrand,
    jk_integrand,
)
from references import c_coeffs, d_coeffs, duffing_rhs, hamiltonian, leading_splitting


def _report(n: int, detail: str) -> None:
    print(f"[criterion {n}] PASS - {detail}")


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def _paper(config, name):
    """The paper's pair ``name`` read from the harmonic tables."""
    return HarmonicTables(config, 3).paper(name)


def _c2(config):
    return _paper(config, "c2, c3")[0]


def test_criterion_1_coefficient_golden_suite():
    with Timer() as t:
        assert _c2(solve_collinear_equal(7)) == pytest.approx(1.76876487, abs=1e-6)
        assert _c2(solve_collinear_equidistant(10)) == pytest.approx(1.95579995, abs=1e-6)
        assert _c2(build_rp3bp(0.5)) == pytest.approx(0.75, abs=1e-6)
        d4 = _paper(build_equilateral(1.0 / 3.0, 1.0 / 3.0), "d3, d4")[1]
        assert d4 == pytest.approx(5.0 / (3.0 * math.sqrt(3.0)), abs=1e-6)
        for mu in (0.1, 0.3, 0.49):
            d1 = _paper(build_rp3bp(mu), "d1, d2")[0]
            assert d1 == pytest.approx(3 * mu * (1 - mu) * (1 - 2 * mu), abs=1e-6)
    assert t.elapsed < 5.0
    _report(1, f"coefficient golden values reproduced in {t.elapsed:.2f}s")


def test_criterion_2_configuration_solvers():
    with Timer() as t:
        col7 = solve_collinear_equal(7)
        golden7 = (-1.17858061, -0.73861375, -0.35910513)
        for body, want in zip(col7.bodies, golden7):
            assert body.position[0] == pytest.approx(want, abs=1e-6)
        col10 = solve_collinear_equidistant(10)
        golden10 = (0.05585772, 0.08684056, 0.10794726, 0.12139042, 0.12796403)
        for body, want in zip(col10.bodies, golden10):
            assert body.mass == pytest.approx(want, abs=1e-6)
        assert col10.bodies[0].position[0] == pytest.approx(-1.44194062, abs=1e-6)

        roots = find_zeros(
            lambda r: _c2(build_rhomboid(r, 1.0)), 0.6, 1.7, grid=256, xtol=1e-13
        )
        assert len(roots) == 3
        assert roots[0] == pytest.approx(0.75746994, abs=1e-6)
        assert roots[2] == pytest.approx(1.32018439, abs=1e-6)
    assert t.elapsed < 30.0
    _report(2, f"collinear and rhomboidal solvers match published digits in {t.elapsed:.2f}s")


def test_criterion_3_oscillatory_roots_and_signs():
    with Timer() as t:
        tol = 1e-11
        f4, f61, f62 = ((lambda tt, f=named_integrand(name): eval_oscillatory(f(tt), tol).value)
                        for name in ("F4", "F61", "F62"))

        roots4 = find_zeros(f4, 0.1, 1.5, grid=64)
        assert len(roots4) == 1 and roots4[0] == pytest.approx(0.61078210, abs=1e-6)
        roots62 = find_zeros(f62, 0.05, 1.2, grid=128)
        assert len(roots62) == 2
        assert roots62[0] == pytest.approx(0.15745028, abs=1e-6)
        assert roots62[1] == pytest.approx(0.87685728, abs=1e-6)

        assert abs(f4(0.0)) <= 1e-10
        for tt in (-1.5, -0.5, 0.3, 0.55):
            assert f4(tt) < 0.0
        for tt in (0.7, 1.2, 2.0):
            assert f4(tt) > 0.0

        assert abs(f61(0.0)) <= 1e-10
        for tt in (-2.0, -0.5):
            assert f61(tt) > 0.0
        for tt in (0.5, 2.0):
            assert f61(tt) < 0.0

        assert abs(f62(0.0)) <= 1e-10
        for tt in (-1.5, -0.4, 0.4, 0.7):
            assert f62(tt) > 0.0
        for tt in (0.08, 0.13, 1.0, 1.8):
            assert f62(tt) < 0.0
    assert t.elapsed < 120.0
    _report(3, f"roots 0.61078210 / (0.15745028, 0.87685728) and signs in {t.elapsed:.2f}s")


def test_criterion_4_dual_backend_oracle():
    with Timer() as t:
        for builder in map(named_integrand, ("F4", "F61", "F62")):
            for tt in np.linspace(-2.0, 2.0, 32):
                # the same integral with the contour's arms at pi/8 and pi/5, not pi/6
                assert_contour_shift_agrees(builder(float(tt)), 1e-11)

        # identity grid inside [0.5, 50]; past delta ~ 30 the integrals fall
        # under 1e-13 and double precision cannot hold 1e-8 relative, so the
        # upper points are asserted against the reported error estimates
        for delta in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 30.0):
            for k in range(1, 7):
                # both full-line integrals, twice J_(k+2) and I_k
                j = eval_oscillatory(jk_integrand(k + 2, delta), 1e-13).value
                ik = eval_oscillatory(ik_integrand(k, delta), 1e-13).value
                assert j == pytest.approx(delta / (2.0 * (k + 1)) * ik, rel=1e-8)
        for delta in (40.0, 50.0):
            for k in range(1, 7):
                res_j = eval_oscillatory(jk_integrand(k + 2, delta), 1e-13)
                res_i = eval_oscillatory(ik_integrand(k, delta), 1e-13)
                rec = delta / (2.0 * (k + 1)) * 0.5 * res_i.value
                err = res_j.error_estimate + delta / (2.0 * (k + 1)) * res_i.error_estimate
                assert abs(0.5 * res_j.value - rec) <= max(1e-8 * abs(rec), err)
    assert t.elapsed < 120.0
    _report(4, f"contour shifts agree within both estimates; identity holds in {t.elapsed:.2f}s")


def test_criterion_5_polygonal_integrand_generation():
    with Timer() as t:
        p1 = (6, 0, -480, 0, 4510, 0, -11088, 0, 8514, 0, -1936, 0, 90)
        p2 = (0, 79, 0, -1782, 0, 8217, 0, -11220, 0, 4785, 0, -534, 0, 7)
        p3 = (-7, 0, 749, 0, -9919, 0, 37037, 0, -48477, 0, 23023, 0, -3549, 0, 119)
        p4 = (0, -106, 0, 3276, 0, -22022, 0, 48048, 0, -38038, 0, 10556, 0, -826, 0, 8)
        # poly:N is the (N-1, N-1) harmonic integrand, with constant 2^N p_(N-1,N-1)
        gen7 = expanded(harmonic_integrand(6, 6, 1.0))
        assert (gen7.cos_numerator, gen7.sin_numerator) == (p1, p2)
        gen8 = expanded(harmonic_integrand(7, 7, 1.0))
        # the published eight-body integrand carries an overall minus sign
        assert (gen8.cos_numerator, gen8.sin_numerator) == (tuple(-c for c in p3),
                                                            tuple(-c for c in p4))
        assert 2**7 * legendre_cos_coeffs(6)[6] == 231 / 4
        # the general product form gives 429/4; the published display drops
        # the factor 4 and is inconsistent with its own integrand normalization
        assert 2**8 * legendre_cos_coeffs(7)[7] == 429 / 4
    _report(5, f"numerators match coefficientwise; prefactors 231/4 and 429/4 in {t.elapsed:.2f}s")


def test_criterion_6_classifier_suite():
    with Timer() as t:
        v = classify(build_rp3bp(0.3))
        assert (v.witness.harmonic, v.witness.epsilon_order) == (1, 6)
        assert v.witness.coefficient_pair[0] == pytest.approx(0.252, abs=1e-9)

        v = classify(build_rp3bp(0.5))
        assert (v.witness.harmonic, v.witness.epsilon_order) == (2, 4)
        assert v.witness.coefficient_pair[0] == pytest.approx(0.75, abs=1e-12)

        v = classify(build_equilateral(1.0 / 3.0, 1.0 / 3.0))
        assert (v.witness.harmonic, v.witness.epsilon_order) == (3, 6)

        for cfg in (solve_collinear_equal(7), solve_collinear_equidistant(10)):
            v = classify(cfg)
            assert (v.witness.harmonic, v.witness.epsilon_order) == (2, 4)

        for n_total in (4, 5, 6, 7, 8):
            v = classify(build_polygon(n_total))
            assert v.witness.harmonic == n_total - 1

        ratio_high = find_zeros(
            lambda r: _c2(build_rhomboid(r, 1.0)), 1.30, 1.34, grid=16, xtol=1e-14
        )[0]
        ratio_low = find_zeros(
            lambda r: _c2(build_rhomboid(r, 1.0)), 0.74, 0.78, grid=16, xtol=1e-14
        )[0]
        vh = classify(build_rhomboid(ratio_high, 1.0))
        vl = classify(build_rhomboid(ratio_low, 1.0))
        for v in (vh, vl):
            assert v.status == "transversal"
            assert (v.witness.harmonic, v.witness.epsilon_order) == (2, 8)
        assert vh.witness.coefficient_pair[0] > 0.0 > vl.witness.coefficient_pair[0]

        # every verdict's witness pair yields 2k simple zeros
        for cfg in (build_rp3bp(0.3), build_polygon(6), solve_collinear_equal(5)):
            v = classify(cfg)
            assert len(v.witness.zero_locations) == 2 * v.witness.harmonic
    assert t.elapsed < 60.0
    _report(6, f"verdicts and witnesses for all application cases in {t.elapsed:.2f}s")


def test_criterion_7_asymptotics_validation():
    with Timer() as t:
        delta = 30.0
        for k in (2, 3, 4):
            ik = 0.5 * eval_oscillatory(ik_integrand(k, delta), 1e-13).value
            ratio = ik / ik_asymptotic(k, delta)
            assert abs(ratio - 1.0) <= 3.0 / math.sqrt(delta)

        cfg = build_rp3bp(0.5)
        for tt3 in (60.0, 70.0):
            eps = tt3 ** (-1.0 / 3.0)  # theta0 = 1
            quad = eps**-2 * splitting_terms(cfg, 4, 1.0 / eps, tol=1e-13).value(0.7)
            lead = leading_splitting(cfg, 4, 1.0, eps, 0.7)
            assert quad / lead == pytest.approx(1.0, abs=0.1)
    _report(
        7,
        "I_k window 3/sqrt(delta) at delta=30 and splitting ratio within 10% "
        f"for scaled phase >= 60 in {t.elapsed:.2f}s",
    )


def test_criterion_7_asymptotics_beyond_double_precision():
    for delta in (100.0, 300.0):
        for k in (2, 3, 4):
            ik = 0.5 * eval_oscillatory(ik_integrand(k, delta), 1e-13).value
            ratio = ik / ik_asymptotic(k, delta)
            assert abs(ratio - 1.0) <= 3.0 / math.sqrt(delta)


def test_criterion_8_dynamics_property_suite():
    with Timer() as t:
        theta0 = 1.0
        # separatrix residual against the oscillator field
        h = 1e-5
        worst = 0.0
        for tau in np.linspace(-8, 8, 100):
            x, y = homoclinic(float(tau), theta0)
            dx, dy = duffing_rhs(x, y, theta0)
            fd_x = (homoclinic(tau + h, theta0)[0] - homoclinic(tau - h, theta0)[0]) / (2 * h)
            fd_y = (homoclinic(tau + h, theta0)[1] - homoclinic(tau - h, theta0)[1]) / (2 * h)
            worst = max(worst, abs(fd_x - dx) - 2e-9, abs(fd_y - dy) - 2e-9)
            worst = max(worst, abs(hd_value(x, y, theta0)))
        assert worst <= 1e-12

        # energy conservation along the unperturbed reduced flow
        def rhs(_t, yv):
            return np.array(duffing_rhs(yv[0], yv[1], theta0))

        traj = integrate(rhs, (0.9, 0.0), (0.0, 20.0), tol=1e-10)
        h0 = hd_value(0.9, 0.0, theta0)
        for tau in np.linspace(0, 20, 200):
            xt, yt = (float(v) for v in traj.sol(float(tau)))
            assert abs(hd_value(xt, yt, theta0) - h0) <= 1e-9

        # first-integral drift of the truncated flow, from the scaled state
        # (eps x, eps y, s, theta/eps) of (0.4, 0.1, 0, 1) at eps = 1/2: the
        # oracle's truncated energy minus theta is conserved
        cfg = build_rp3bp(0.3)
        params = FlowParams(cfg, truncation_order=9)
        st0 = McGeheeState(0.2, 0.05, 0.0, 2.0)
        full = integrate_mcgehee(st0, params, (0.0, 50.0), tol=1e-11)
        c0 = hamiltonian(st0, params) - st0.theta
        for y in full.states:
            assert abs(hamiltonian(McGeheeState(*y), params) - y[3] - c0) <= 1e-8

        # leading terms of one turn of the Kepler flow near x = y = 0:
        # x' = x^3 y / sqrt 2 and y' = x^4 (1 - theta^2 x^2) / sqrt 2
        kepler, theta = FlowParams(cfg, truncation_order=3), 1.0
        x0, y0 = 0.02, 0.01
        turn = integrate_mcgehee(McGeheeState(x0, y0, 0.3, theta), kepler, (0.0, 2 * math.pi),
                                 tol=1e-12)
        x1, y1, _, _ = turn.sol(2 * math.pi)
        assert (x1 - x0) / (math.sqrt(2) * math.pi * x0**3 * y0) == pytest.approx(1.0, abs=0.05)
        assert (y1 - y0) / (
            math.sqrt(2) * math.pi * x0**4 * (1 - theta**2 * x0**2)
        ) == pytest.approx(1.0, abs=0.05)

        # the splitting from the field's harmonic tables against the paper's
        # rows, term by term within the sum of both error bounds, on both
        # branches, at theta_tilde = theta0/eps = 2
        _, c2, c3 = c_coeffs(cfg)
        d1, d2, d3, d4 = d_coeffs(cfg)
        paper = {4: [(2, f4_integrand, -c3, c2)],
                 6: [(1, f61_integrand, d2, -d1), (3, f62_integrand, d4, -d3)]}
        for th in (2.0, -2.0):
            for order, rows in paper.items():
                terms = splitting_terms(cfg, order, th, tol=1e-12).terms
                pref = math.copysign(2.0, th) / th ** (order + 2)
                assert [k for k, *_ in terms] == [k for k, *_ in rows]
                for (_, a, b, err), (_, builder, a_p, b_p) in zip(terms, rows):
                    f = eval_polynomial(builder(th), 1e-12)
                    err_p = abs(pref) * f.error_estimate * (abs(a_p) + abs(b_p))
                    assert abs(a - pref * f.value * a_p) <= err + err_p
                    assert abs(b - pref * f.value * b_p) <= err + err_p

        # zero locations bracket the witness predictions within 1e-3
        m4, m6 = (splitting_terms(cfg, order, 2.0, tol=1e-8) for order in (4, 6))
        d1, d2 = d_coeffs(cfg)[:2]
        for z in simple_zeros(d2, -d1, 1):
            lo, hi = (m4.value(s) + m6.value(s) for s in (z - 1e-3, z + 1e-3))
            assert lo * hi < 0.0
    assert t.elapsed < 120.0
    _report(8, f"flow properties, return map, and splitting agreement in {t.elapsed:.2f}s")


def test_criterion_9_symmetry_property_suite():
    with Timer() as t:
        # polygon selection rule
        for n_total in (4, 5, 6, 7):
            cfg = build_polygon(n_total)
            for j in range(2, 2 * n_total - 2):
                for m, a, b in harmonic_table(cfg, j).entries:
                    if 1 <= m < n_total - 1:
                        assert abs(a) <= 1e-12 and abs(b) <= 1e-12

        # collinear sine-kill rule
        col = solve_collinear_equal(7)
        for j in range(2, 9):
            assert all(b == 0.0 for _, _, b in harmonic_table(col, j).entries)

        # rotational covariance
        base = build_rp3bp(0.3)
        for phi in (0.4, math.pi / 5):
            rot = rotate(base, phi)
            for j, m in ((2, 2), (3, 1), (3, 3), (5, 3)):
                a, b = harmonic_table(base, j).pair(m)
                ar, br = harmonic_table(rot, j).pair(m)
                assert ar == pytest.approx(
                    a * math.cos(m * phi) + b * math.sin(m * phi), abs=1e-10
                )
                assert br == pytest.approx(
                    b * math.cos(m * phi) - a * math.sin(m * phi), abs=1e-10
                )

        # normalization ladder
        for cfg in (build_rp3bp(0.21), build_rhomboid(1.15, 1.0), rotate(build_rp3bp(0.4), 1.1)):
            c1, c2, c3 = c_coeffs(cfg)
            t2 = harmonic_table(cfg, 2)
            assert (4 * t2.pair(0)[0], 4 * t2.pair(2)[0], 4 * t2.pair(2)[1]) == pytest.approx(
                (c1, c2, c3), abs=1e-12
            )
            d1, d2, d3, d4 = d_coeffs(cfg)
            t3 = harmonic_table(cfg, 3)
            got = (
                8 * t3.pair(1)[0],
                8 * t3.pair(1)[1],
                8 * t3.pair(3)[0],
                8 * t3.pair(3)[1],
            )
            assert got == pytest.approx((d1, d2, d3, d4), abs=1e-12)

        # symmetric-pair vanishing of the higher radial weights
        for l in range(2, 9):
            d_l = HarmonicTables(build_rp3bp(0.5), 2 * l + 1).d_weight(l)
            assert d_l == pytest.approx((0.0, 0.0), abs=1e-15)
    assert t.elapsed < 10.0
    _report(9, f"selection rules, covariance, and normalization ladder in {t.elapsed:.2f}s")
