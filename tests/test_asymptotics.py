import math

import pytest

from melsplit import (
    build_rp3bp,
    eval_Ik,
    eval_Jk,
    ik_asymptotic,
    m4_leading,
    m6_leading,
    splitting_terms,
)

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
        ratio = eval_Ik(k, d, 1e-13) / ik_asymptotic(k, d)
        assert abs(ratio - 1.0) <= 3.0 / math.sqrt(d)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_attainable_convergence_is_monotone(self, k):
        # deviation from the leading term shrinks with the phase scale over
        # the range where the integrals stay above the double-precision floor
        devs = [abs(eval_Ik(k, d, 1e-13) / ik_asymptotic(k, d) - 1.0) for d in (20.0, 30.0, 60.0)]
        assert devs[0] > devs[1] > devs[2]

    def test_domain(self):
        with pytest.raises(ValueError):
            ik_asymptotic(0, 1.0)
        with pytest.raises(ValueError):
            ik_asymptotic(2, -1.0)


class TestJkFromIk:
    """The identity J_(k+2)(delta) = delta/(2(k+1)) I_k(delta)."""

    def test_matches_direct_quadrature(self):
        assert 5.0 / 6.0 * eval_Ik(2, 5.0, 1e-12) == pytest.approx(
            eval_Jk(4, 5.0, 1e-12), rel=1e-8
        )

    def test_zero(self):
        assert eval_Jk(5, 0.0) == 0.0

    def test_odd_in_delta(self):
        # I_k is even, so the prefactor delta carries the odd symmetry of J_(k+2)
        assert eval_Ik(2, -5.0, 1e-11) == pytest.approx(eval_Ik(2, 5.0, 1e-11), rel=1e-10)
        assert eval_Jk(4, -5.0, 1e-11) == pytest.approx(-eval_Jk(4, 5.0, 1e-11), rel=1e-10)
        assert -5.0 / 6.0 * eval_Ik(2, -5.0, 1e-11) == pytest.approx(
            eval_Jk(4, -5.0, 1e-11), rel=1e-8
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("delta", [0.5, 2.0, 10.0, 30.0])
    def test_identity_across_grid(self, k, delta):
        assert delta / (2.0 * (k + 1)) * eval_Ik(k, delta, 1e-13) == pytest.approx(
            eval_Jk(k + 2, delta, 1e-13), rel=1e-8
        )


class TestLeadingSplitting:
    def test_positive_branch_agreement(self, rp3bp_half):
        s0 = 0.7
        for tt3 in (60.0, 70.0):
            tt = tt3 ** (1.0 / 3.0)
            eps = 1.0 / tt  # theta0 = 1
            quad = eps**4 * splitting_terms(rp3bp_half, 4, 1.0, eps, tol=1e-13).value(s0)
            assert quad / m4_leading(s0, 1.0, eps, rp3bp_half) == pytest.approx(1.0, abs=0.1)

    def test_m4_zero_channel(self, collinear8):
        # c3 = 0 makes the leading form vanish with sin(2 s0)
        assert m4_leading(0.0, 1.0, 0.3, collinear8) == 0.0

    def test_negative_branch_closed_form(self, rp3bp_half):
        s0, eps, theta0 = 0.7, 0.4, -1.0
        expected = (
            (5 * math.pi / 8)
            * eps**-2
            * math.exp(2 * theta0**3 / (3 * eps**3))
            * 0.75
            * math.sin(2 * s0)
        )
        assert m4_leading(s0, theta0, eps, rp3bp_half) == pytest.approx(expected, rel=1e-12)

    def test_m6_first_harmonic_amplitude(self, rp3bp_03):
        # cos s0 amplitude equals -(sqrt(pi)/(12 sqrt(2))) eps^-3/2 theta0^-1/2 e^-r d2
        # and the sine amplitude carries d1 with the opposite sign
        theta0, eps = 1.2, 0.4
        rate = theta0**3 / eps**3
        d1 = 0.252
        pref = (SQRT_PI / (12 * SQRT2)) * eps**-1.5 * theta0**-0.5 * math.exp(-rate / 3)
        got = m6_leading(math.pi / 2, theta0, eps, rp3bp_03)
        # at s0 = pi/2 only sine channels survive: -d3 sin(3 pi/2) = +d3
        third = -(9 * math.sqrt(3 * math.pi) / (5 * SQRT2)) * eps**-4.5 * theta0**2.5
        third *= math.exp(-rate) * 0.42
        assert got == pytest.approx(pref * d1 + third, rel=1e-10)

    def test_m6_negative_branch_closed_form(self, rp3bp_03):
        theta0, eps, s0 = -1.1, 0.5, 0.3
        rate = theta0**3 / eps**3
        d1, d3 = 0.252, 0.42
        first = -(5 * math.pi / 128) * theta0**-2 * math.exp(rate / 3) * (-d1 * math.sin(s0))
        third = (63 * math.pi / 64) * eps**-3 * theta0 * math.exp(rate) * (
            -d3 * math.sin(3 * s0)
        )
        assert m6_leading(s0, theta0, eps, rp3bp_03) == pytest.approx(first + third, rel=1e-12)

    def test_theta0_required(self, rp3bp_03):
        with pytest.raises(ValueError):
            m4_leading(0.0, 0.0, 0.3, rp3bp_03)
