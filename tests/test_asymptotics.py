import math

import mpmath as mp
import pytest

from melsplit import (
    CubicPhaseIntegrand,
    build_equilateral,
    eval_oscillatory,
    harmonic_integrand,
    ik_asymptotic,
    leading_term,
    splitting_terms,
)
from melsplit.quadrature import ik_integrand, jk_integrand
from references import c_coeffs, d_coeffs, leading_splitting

SQRT_PI = math.sqrt(math.pi)
SQRT2 = math.sqrt(2.0)


class TestIkAsymptotic:
    def test_first_order_prefactor(self):
        # k = 1: exp(-2 d/3) pi/4
        d = 7.3
        assert ik_asymptotic(1, d) == pytest.approx(math.exp(-2 * d / 3) * math.pi / 4)

    def test_even_odd_form(self):
        d = 11.0
        assert ik_asymptotic(4, d) == pytest.approx(
            math.exp(-2 * d / 3) * SQRT_PI * d**1.5 / (8 * 3)
        )
        assert ik_asymptotic(3, d) == pytest.approx(math.exp(-2 * d / 3) * math.pi * d / 16)

    def test_exponential_dominates_growth(self):
        for k in (1, 2, 3):
            for d in (50.0, 120.0):
                assert ik_asymptotic(k, 2 * d) / ik_asymptotic(k, d) < math.exp(-d / 2)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_quadrature_agreement_window(self, k):
        d = 30.0
        # I_k over [0, inf), half the engine's integral over R
        ratio = 0.5 * eval_oscillatory(ik_integrand(k, d), 1e-13).value / ik_asymptotic(k, d)
        assert abs(ratio - 1.0) <= 3.0 / math.sqrt(d)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_attainable_convergence_is_monotone(self, k):
        # deviation from the leading term shrinks with the phase scale over
        # the range where the integrals stay above the double-precision floor
        devs = [abs(0.5 * eval_oscillatory(ik_integrand(k, d), 1e-13).value / ik_asymptotic(k, d)
                    - 1.0) for d in (20.0, 30.0, 60.0)]
        assert devs[0] > devs[1] > devs[2]

    def test_domain(self):
        with pytest.raises(ValueError):
            ik_asymptotic(0, 1.0)
        with pytest.raises(ValueError):
            ik_asymptotic(2, -1.0)

    @pytest.mark.parametrize("k, delta", [(300, 10.0), (300, 1000.0), (60, 5000.0)])
    def test_large_orders_do_not_overflow(self, k, delta):
        # pi d^((k-1)/2) / (2^(k+1) Gamma((k+1)/2)) exp(-2d/3), in 50 digits
        with mp.workdps(50):
            d = mp.mpf(delta)
            want = mp.pi * d ** (mp.mpf(k - 1) / 2) * mp.exp(-2 * d / 3) / (
                2 ** (k + 1) * mp.gamma(mp.mpf(k + 1) / 2))
        assert ik_asymptotic(k, delta) == pytest.approx(float(want), rel=1e-12)


class TestJkFromIk:
    """The identity J_(k+2)(delta) = delta/(2(k+1)) I_k(delta), on the integrals over R."""

    def test_matches_direct_quadrature(self):
        assert 5.0 / 6.0 * eval_oscillatory(ik_integrand(2, 5.0), 1e-12).value == pytest.approx(
            eval_oscillatory(jk_integrand(4, 5.0), 1e-12).value, rel=1e-8
        )

    def test_zero(self):
        assert eval_oscillatory(jk_integrand(5, 0.0), 1e-10).value == 0.0

    def test_odd_in_delta(self):
        # I_k is even, so the prefactor delta carries the odd symmetry of J_(k+2)
        i_minus, i_plus, j_minus, j_plus = (
            eval_oscillatory(f, 1e-11).value for f in (
                ik_integrand(2, -5.0), ik_integrand(2, 5.0),
                jk_integrand(4, -5.0), jk_integrand(4, 5.0)))
        assert i_minus == pytest.approx(i_plus, rel=1e-10)
        assert j_minus == pytest.approx(-j_plus, rel=1e-10)
        assert -5.0 / 6.0 * i_minus == pytest.approx(j_minus, rel=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("delta", [0.5, 2.0, 10.0, 30.0])
    def test_identity_across_grid(self, k, delta):
        ik = eval_oscillatory(ik_integrand(k, delta), 1e-13).value
        assert delta / (2.0 * (k + 1)) * ik == pytest.approx(
            eval_oscillatory(jk_integrand(k + 2, delta), 1e-13).value, rel=1e-8
        )


class TestLeadingTerm:
    """``leading_term`` against the contour engine, which stays accurate far below 1e-300."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    @pytest.mark.parametrize("j, k", [(2, 2), (3, 1), (3, 3), (5, 3), (6, 2), (9, 9)])
    def test_ratio_to_the_engine_tends_to_one(self, j, k, sign):
        gaps = []
        for tt in (4.0, 6.0):
            f = harmonic_integrand(j, k, sign * tt)
            gaps.append(abs(eval_oscillatory(f, 1e-13).value / leading_term(f) - 1.0))
        assert gaps[1] < gaps[0] < 1.0

    def test_numerator_zero_of_odd_excess_gives_zero(self):
        # (z - i)^4 over (1 + z^2)^3 is (z - i)/(z + i)^3: p = -1, 1/Gamma(0) = 0
        f = CubicPhaseIntegrand(1.0, -1j, 3, 0, 20.0)
        assert leading_term(f) == 0.0

    def test_numerator_zero_of_even_excess(self):
        # (z - i)^6 over (1 + z^2)^4 is (z - i)(z - i)/(z + i)^4: p = -2, Gamma(-1/2) < 0
        gaps = []
        for delta in (20.0, 80.0):
            f = CubicPhaseIntegrand(1.0, -1j, 4, -1, delta)
            gaps.append(abs(eval_oscillatory(f, 1e-13).value / leading_term(f) - 1.0))
        assert gaps[1] < gaps[0] < 0.5

    def test_zero_numerator(self):
        # for a + b even only i Im alpha and Re beta are mirror-symmetric
        assert leading_term(CubicPhaseIntegrand(1.0, 2j, 2, 2, 5.0)) == 0.0

    @pytest.mark.parametrize("j, k, tt", [(2, 2, 3.0), (64, 64, 2.5), (1, 27, -4.0), (2, 28, -4.0),
                                          (30, 40, -2.5), (64, 30, -1.5)])
    def test_high_orders_match_the_formula_in_50_digits(self, j, k, tt):
        # Re[(alpha i + beta)(2i)^-a i^p] pi d^((p-1)/2) / Gamma((p+1)/2) e^(-2d/3),
        # with d < 0 conjugated and a, b swapped.  Read off the expanded
        # numerator, whose coefficients C(2k, m) no longer fit a double from
        # k = 27, F_(1,27)(-4) came out as -4.7e-228
        f = harmonic_integrand(j, k, tt)
        alpha, beta, a, p, d = f.alpha, f.beta, f.a, f.b, f.phase_scale
        if d < 0:
            alpha, beta, a, p, d = alpha.conjugate(), beta.conjugate(), p, a, -d
        with mp.workdps(50):
            want = mp.re((alpha * 1j + beta) * mp.power(2j, -a) * mp.power(1j, p)) * mp.pi * (
                mp.mpf(d) ** (mp.mpf(p - 1) / 2) * mp.rgamma(mp.mpf(p + 1) / 2) * mp.exp(-2 * mp.mpf(d) / 3))
        assert leading_term(f) == pytest.approx(float(want), rel=1e-12)

    def test_zero_phase_scale_raises(self):
        with pytest.raises(ValueError):
            leading_term(harmonic_integrand(2, 2, 0.0))


class TestLeadingSplitting:
    def test_positive_branch_agreement(self, rp3bp_half):
        s0 = 0.7
        for tt3 in (60.0, 70.0):
            tt = tt3 ** (1.0 / 3.0)
            eps = 1.0 / tt  # theta0 = 1
            quad = eps**-2 * splitting_terms(rp3bp_half, 4, tt, tol=1e-13).value(s0)
            lead = leading_splitting(rp3bp_half, 4, 1.0, eps, s0)
            assert quad / lead == pytest.approx(1.0, abs=0.1)

    def test_m4_zero_channel(self, collinear8):
        # c3 = 0 makes the leading form vanish with sin(2 s0)
        assert leading_splitting(collinear8, 4, 1.0, 0.3, 0.0) == 0.0

    @pytest.mark.parametrize("theta0, eps", [(1.0, 0.3), (1.2, 0.4), (0.8, 0.25), (2.0, 0.9)])
    def test_positive_branch_is_the_paper_form(self, rp3bp_03, theta0, eps):
        # the paper's Theta0 > 0 leading forms in (c2, c3) and (d1, .., d4)
        _, c2, c3 = c_coeffs(rp3bp_03)
        d1, d2, d3, d4 = d_coeffs(rp3bp_03)
        rate = theta0**3 / eps**3
        for s0 in (0.3, 0.7, 2.0):
            m4 = ((4 * SQRT_PI / 3) * eps**-3.5 * theta0**1.5 * math.exp(-2 * rate / 3)
                  * (c2 * math.sin(2 * s0) - c3 * math.cos(2 * s0)))
            first = -(SQRT_PI / (12 * SQRT2)) * eps**-1.5 * theta0**-0.5 * math.exp(-rate / 3)
            third = -(9 * math.sqrt(3 * math.pi) / (5 * SQRT2)) * eps**-4.5 * theta0**2.5
            m6 = (first * (d2 * math.cos(s0) - d1 * math.sin(s0))
                  + third * math.exp(-rate) * (d4 * math.cos(3 * s0) - d3 * math.sin(3 * s0)))
            assert leading_splitting(rp3bp_03, 4, theta0, eps, s0) == pytest.approx(m4, rel=1e-13)
            assert leading_splitting(rp3bp_03, 6, theta0, eps, s0) == pytest.approx(m6, rel=1e-13)

    def test_m6_first_harmonic_amplitude(self, rp3bp_03):
        # cos s0 amplitude equals -(sqrt(pi)/(12 sqrt(2))) eps^-3/2 theta0^-1/2 e^-r d2
        # and the sine amplitude carries d1 with the opposite sign
        theta0, eps = 1.2, 0.4
        rate = theta0**3 / eps**3
        d1 = 0.252
        pref = (SQRT_PI / (12 * SQRT2)) * eps**-1.5 * theta0**-0.5 * math.exp(-rate / 3)
        got = leading_splitting(rp3bp_03, 6, theta0, eps, math.pi / 2)
        # at s0 = pi/2 only sine channels survive: -d3 sin(3 pi/2) = +d3
        third = -(9 * math.sqrt(3 * math.pi) / (5 * SQRT2)) * eps**-4.5 * theta0**2.5
        third *= math.exp(-rate) * 0.42
        assert got == pytest.approx(pref * d1 + third, rel=1e-10)

    @pytest.mark.parametrize("order", [4, 6])
    def test_negative_branch_tends_to_quadrature(self, order):
        # the relative error of a leading term falls like d^(-1/2), d ~ theta^3/2
        config, s0 = build_equilateral(0.2, 0.3), 0.7
        gaps = []
        for tt in (4.0, 5.5, 7.0):
            eps = 1.0 / tt  # theta0 = -1
            quad = eps**-2 * splitting_terms(config, order, -tt, tol=1e-13).value(s0)
            gap = abs(quad / leading_splitting(config, order, -1.0, eps, s0) - 1.0)
            assert gap <= 3.0 / math.sqrt(tt**3 / 2.0)
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_theta0_required(self, rp3bp_03):
        with pytest.raises(ValueError):
            leading_splitting(rp3bp_03, 4, 0.0, 0.3, 0.0)

    def test_domain_is_that_of_the_splitting(self, rp3bp_03):
        for theta_tilde in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="need finite nonzero angular momentum"):
                leading_splitting(rp3bp_03, 4, theta_tilde, 1.0, 0.0)
