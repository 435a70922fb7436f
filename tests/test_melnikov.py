import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melsplit import (
    CentralConfiguration,
    PrimaryBody,
    build_equilateral,
    build_polygon,
    build_rhomboid,
    build_rp3bp,
    classify,
    eval_oscillatory,
    find_zeros,
    harmonic_integrand,
    harmonic_table,
    leading_terms,
    legendre_cos_coeffs,
    melnikov_sum,
    normalize_omega,
    simple_zeros,
    solve_collinear_equal,
    solve_collinear_equidistant,
    splitting_terms,
    symmetry_order,
    verdict_to_dict,
)
from melsplit import harmonics
from melsplit.config import rotate, scale
from melsplit.errors import NumericalFailure
from melsplit.melnikov import TransversalityVerdict, Witness, legendre_order
from quadrature_oracles import eval_polynomial, f4_integrand, f61_integrand, f62_integrand
from references import (c_coeffs, classify_full_scan, d_coeffs, d_l, leading_splitting,
                        symmetry_order_reference)


def polygon_prefactor(n_total):
    """The published constant K of poly:N, 2^N p_(N-1,N-1)."""
    return 2.0**n_total * legendre_cos_coeffs(n_total - 1)[n_total - 1]


def refined_rhomboid_ratio(near: float) -> float:
    return find_zeros(
        lambda t: c_coeffs(build_rhomboid(t, 1.0))[1], near - 0.02, near + 0.02, grid=16,
        xtol=1e-14,
    )[0]


class TestSplittingFunctions:
    # theta_tilde = 2 is theta0 = 1 at eps = 1/2; the library's order 2j is
    # eps^(2j+2) times the unscaled one there, so each bound on a value that
    # should vanish carries that factor
    def test_m4_vanishes_when_quadrupole_pair_vanishes(self):
        ratio = refined_rhomboid_ratio(1.32018439)
        m4 = splitting_terms(build_rhomboid(ratio, 1.0), 4, 2.0)
        for s0 in np.linspace(0.0, 2 * math.pi, 9):
            assert abs(m4.value(float(s0))) <= 1e-11 / 2**6

    def test_m4_zero_set_for_collinear(self, collinear8):
        m4 = splitting_terms(collinear8, 4, 2.0)
        for s0 in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            assert abs(m4.value(s0)) <= 1e-12 / 2**6

    def test_m4_derived_value(self, rp3bp_half):
        got = splitting_terms(rp3bp_half, 4, 2.0, tol=1e-12).value(math.pi / 4)
        f4 = eval_polynomial(f4_integrand(2.0), 1e-12).value
        assert got == pytest.approx(2.0 / 2**6 * f4 * 0.75, rel=1e-9)

    def test_m4_requires_nonzero_theta0(self, rp3bp_half):
        with pytest.raises(ValueError):
            splitting_terms(rp3bp_half, 4, 0.0)

    def test_m6_equilateral_only_third_harmonic(self, equilateral_thirds):
        theta_tilde = 2.0
        f62 = eval_polynomial(f62_integrand(theta_tilde), 1e-12).value
        amp = (2.0 / theta_tilde**8) * f62 * 5.0 / (3 * math.sqrt(3.0))
        m6 = splitting_terms(equilateral_thirds, 6, theta_tilde, tol=1e-12)
        for s0 in (0.2, 1.1, 2.9):
            assert m6.value(s0) == pytest.approx(amp * math.cos(3 * s0), rel=1e-9)

    def test_m6_rp3bp_sine_channels(self, rp3bp_03):
        # d2 = d4 = 0 leaves only the sine channels with d1 = 0.252, d3 = 0.42
        theta_tilde = 2.0
        d1, d2, d3, d4 = d_coeffs(rp3bp_03)
        assert (d1, d2, d4) == pytest.approx((0.252, 0.0, 0.0), abs=1e-14)
        pref = 2.0 / theta_tilde**8
        amp1 = -pref * eval_polynomial(f61_integrand(theta_tilde), 1e-12).value * d1
        amp3 = -pref * eval_polynomial(f62_integrand(theta_tilde), 1e-12).value * d3
        m6 = splitting_terms(rp3bp_03, 6, theta_tilde, tol=1e-12)
        for s0 in (0.3, 2.0):
            assert m6.value(s0) == pytest.approx(
                amp1 * math.sin(s0) + amp3 * math.sin(3 * s0), rel=1e-9
            )

    def test_m6_collinear_is_odd_in_s0(self, collinear8):
        m6 = splitting_terms(collinear8, 6, 2.0, tol=1e-11)
        for s0 in (0.4, 1.3):
            assert m6.value(s0) == pytest.approx(-m6.value(-s0), rel=1e-9)

    def test_m_poly_prefactors_and_harmonics(self):
        theta_tilde = 2.0
        for n_total in (7, 8):
            k = polygon_prefactor(n_total)
            f = eval_oscillatory(harmonic_integrand(n_total - 1, n_total - 1, theta_tilde),
                                 1e-11).value
            m_poly = splitting_terms(None, f"poly:{n_total}", theta_tilde, tol=1e-11)
            for s0 in (0.15, 0.8):
                expected = k / theta_tilde ** (2 * n_total) * f * math.sin((n_total - 1) * s0)
                assert m_poly.value(s0) == pytest.approx(expected, rel=1e-9)

    def test_m_poly_vanishes_at_zero_section(self):
        for n_total in (4, 5, 7):
            assert splitting_terms(None, f"poly:{n_total}", 2.0).value(0.0) == 0.0

    def test_m_poly_four_body_equals_m6_of_triangle(self):
        # the polygon with three vertices carries only the third harmonic
        cfg = build_polygon(4)
        m_poly = splitting_terms(None, "poly:4", 2.5, tol=1e-11)
        m6 = splitting_terms(cfg, 6, 2.5, tol=1e-11)
        for s0 in (0.3, 1.7):
            assert m_poly.value(s0) == pytest.approx(m6.value(s0), rel=1e-8)

    def test_scale_consistency_m4_m6_through_tables(self, rp3bp_03):
        # table-normalized coefficients must reproduce the direct values
        theta_tilde, s0 = 2.0, 0.9
        t2 = harmonic_table(rp3bp_03, 2)
        a2, b2 = t2.pair(2)
        direct = splitting_terms(rp3bp_03, 4, theta_tilde, tol=1e-12).value(s0)
        via_table = (
            (2.0 / theta_tilde**6)
            * eval_polynomial(f4_integrand(theta_tilde), 1e-12).value
            * (4 * a2 * math.sin(2 * s0) - 4 * b2 * math.cos(2 * s0))
        )
        assert via_table == pytest.approx(direct, rel=1e-10)
        t3 = harmonic_table(rp3bp_03, 3)
        a1, b1 = t3.pair(1)
        a3, b3 = t3.pair(3)
        via_table6 = (2.0 / theta_tilde**8) * (
            eval_polynomial(f61_integrand(theta_tilde), 1e-12).value
            * (8 * b1 * math.cos(s0) - 8 * a1 * math.sin(s0))
            + eval_polynomial(f62_integrand(theta_tilde), 1e-12).value
            * (8 * b3 * math.cos(3 * s0) - 8 * a3 * math.sin(3 * s0))
        )
        direct6 = splitting_terms(rp3bp_03, 6, theta_tilde, tol=1e-12).value(s0)
        assert via_table6 == pytest.approx(direct6, rel=1e-10)


def _coefficient_rows(cfg, order, theta_tilde):
    """(k, (a, b), prefactor) per term, written out from the module docstring."""
    if order == 4:
        _, c2, c3 = c_coeffs(cfg)
        return [(2, (-c3, c2), 2.0 / theta_tilde**6)]
    if order == 6:
        d1, d2, d3, d4 = d_coeffs(cfg)
        return [(1, (d2, -d1), 2.0 / theta_tilde**8), (3, (d4, -d3), 2.0 / theta_tilde**8)]
    n_total = int(order.split(":")[1])
    return [(n_total - 1, (0.0, 1.0), polygon_prefactor(n_total) / theta_tilde ** (2 * n_total))]


class TestAssembleMelnikov:
    def test_order4_consistency(self, rp3bp_half):
        terms = splitting_terms(rp3bp_half, 4, 2.0)
        ((k, _, _, _),) = terms.terms
        assert k == 2
        _, c2, c3 = c_coeffs(rp3bp_half)
        f4 = eval_polynomial(f4_integrand(2.0), 1e-10).value
        for i in range(8):
            s0 = 2.0 * math.pi * i / 8
            want = 2.0 / 2**6 * f4 * (c2 * math.sin(2 * s0) - c3 * math.cos(2 * s0))
            assert terms.value(s0) == pytest.approx(want, rel=1e-9, abs=1e-15 / 2**6)

    def test_sign_branch_from_theta0(self, rp3bp_half):
        # the upper sign goes with theta > 0, the lower with theta < 0
        _, c2, c3 = c_coeffs(rp3bp_half)
        for theta_tilde, sign in ((0.8, 1.0), (-0.8, -1.0)):
            ((k, a, b, _),) = splitting_terms(rp3bp_half, 4, theta_tilde, 1e-12).terms
            f4 = eval_polynomial(f4_integrand(theta_tilde), 1e-12).value
            amp = sign * (2.0 / theta_tilde**6) * f4
            assert k == 2
            assert (a, b) == pytest.approx((-amp * c3, amp * c2), rel=1e-12, abs=1e-300)

    def test_polygon_order(self):
        terms = splitting_terms(None, "poly:7", 2.0)
        assert [k for k, *_ in terms.terms] == [6]

    def test_legendre_order(self):
        # the j whose 2^(j+1)/theta^(2j+2) an order carries; eps^-(2j+2) takes it to an eps
        assert [legendre_order(o) for o in (4, "6", 128, "poly:4", "poly:65")] == [2, 3, 64, 3, 64]
        for order in (5, 2, 130, "poly:3", "poly:x", "poly:66", "8.0", "-4", "x"):
            with pytest.raises(ValueError, match="order must be 2j"):
                legendre_order(order)

    def test_orders_need_their_inputs(self):
        # orders 4 and 6 without a configuration, then unknown orders
        for order in (4, "6", 5, "poly:3", "poly:x", "poly:66", 2, 130, "x"):
            with pytest.raises(ValueError):
                splitting_terms(None, order, 2.0)

    @pytest.mark.parametrize("theta_tilde", [1.0, -1.0, 0.8, -0.8])
    @pytest.mark.parametrize("n_total", range(4, 11))
    def test_poly_alias_is_the_polygon_diagonal_term(self, n_total, theta_tilde):
        # poly:N is the (N-1, N-1) term of the polygon's order 2N - 2; the
        # polygon's other harmonics at that order vanish by its symmetry
        (alias,) = splitting_terms(None, f"poly:{n_total}", theta_tilde).terms
        terms = splitting_terms(build_polygon(n_total), 2 * n_total - 2, theta_tilde)
        assert [k for k, *_ in terms.terms] == list(range(2 - (n_total - 1) % 2, n_total, 2))
        for k, a, b, err in terms.terms:
            if k == n_total - 1:
                assert abs(a - alias[1]) <= err + alias[3]
                assert abs(b - alias[2]) <= err + alias[3]
            else:
                assert abs(a) <= err and abs(b) <= err

    def test_high_orders_carry_every_harmonic(self, rp3bp_03):
        # order 2j has the harmonics k = j, j - 2, ... >= 1 of the order-j table
        for j in (4, 5, 8):
            table = harmonic_table(rp3bp_03, j)
            terms = splitting_terms(rp3bp_03, 2 * j, 2.0)
            assert [k for k, *_ in terms.terms] == [k for k, *_ in table.entries if k >= 1]
            pref = 2.0 ** (j + 1) / 2.0 ** (2 * j + 2)
            for (k, a, b, err), (_, ta, tb) in zip(terms.terms, table.entries[-len(terms.terms):]):
                f = eval_oscillatory(harmonic_integrand(j, k, 2.0), 1e-10)
                amp = pref * f.value
                assert a == pytest.approx(-amp * tb, abs=err)
                assert b == pytest.approx(amp * ta, abs=err)
                assert err >= pref * 2.0 * abs(f.value) * table.rounding

    def test_highest_orders_are_finite(self, rp3bp_03):
        # from j = 51 on the pole factor overflows far out on the contour,
        # where the terms are far below the tolerance
        for j in (51, 52, 58, 64):
            for theta_tilde in (2.0, -2.0):
                terms = splitting_terms(rp3bp_03, 2 * j, theta_tilde).terms
                assert len(terms) == (j + 1) // 2
                assert np.isfinite(terms).all(), (j, theta_tilde)

    @pytest.mark.parametrize("order", [4, 6, "poly:5", "poly:9"])
    @pytest.mark.parametrize("theta_tilde", [0.75, -0.75])
    def test_error_bounded_by_tolerance(self, order, theta_tilde, rp3bp_03):
        tol = 1e-10
        got = splitting_terms(rp3bp_03, order, theta_tilde, tol).terms
        rows = _coefficient_rows(rp3bp_03, order, theta_tilde)
        assert len(got) == len(rows)
        for (k, _, _, err), (k_want, (a, b), pref) in zip(got, rows):
            assert k == k_want
            assert 0.0 <= err <= abs(pref) * tol * (abs(a) + abs(b))

    @pytest.mark.parametrize("order", [4, 6, "poly:7"])
    @pytest.mark.parametrize("theta_tilde", [1.0, -1.0])
    def test_tolerances_agree_within_errors(self, order, theta_tilde, rp3bp_03):
        loose = splitting_terms(rp3bp_03, order, theta_tilde, 1e-10).terms
        tight = splitting_terms(rp3bp_03, order, theta_tilde, 1e-13).terms
        for (k, a1, b1, e1), (k2, a2, b2, e2) in zip(loose, tight, strict=True):
            assert k == k2
            assert abs(a1 - a2) <= e1 + e2
            assert abs(b1 - b2) <= e1 + e2


def test_an_order_fails_as_its_harmonics_would_one_at_a_time():
    # order 6 of the equilateral has harmonics 1 and 3.  Where F_(3,3) fails
    # and the term of F_(3,1) overflows, the term raises, as it would with
    # each F evaluated before its own term, though one pass took both
    from melsplit import QuadratureBudgetError, QuadratureResult
    from melsplit.melnikov import _order_terms

    def integrals(integrands):  # all of them at once, then each result in turn
        for f in list(integrands):
            if f.phase_scale > 1.0:  # k = 3 at theta 1
                raise QuadratureBudgetError("F_(3,3) fails")
            yield QuadratureResult(math.inf, 0.0, 0)

    with pytest.raises(OverflowError, match="order 6, harmonic 1"):
        _order_terms(build_equilateral(0.2, 0.3), 6, 1.0, integrals)


def test_an_order_whose_second_harmonic_fails_runs_one_pass(monkeypatch):
    # order 6 of the equilateral at theta 2: F_(3,1) settles and F_(3,3),
    # the second in the pass, fails.  The failure comes from the one pass
    # over both, which is not run again, in whole or one harmonic at a time
    from melsplit import QuadratureBudgetError, quadrature

    passes, outcomes, second = [], quadrature._outcomes, harmonic_integrand(3, 3, 2.0)

    def failing_second(integrands, tol):
        passes.append(len(integrands))
        return [QuadratureBudgetError("F_(3,3) fails") if f == second else out
                for f, out in zip(integrands, outcomes(integrands, tol))]

    monkeypatch.setattr(quadrature, "_outcomes", failing_second)
    with pytest.raises(QuadratureBudgetError, match=r"F_\(3,3\) fails"):
        splitting_terms(build_equilateral(0.2, 0.3), 6, 2.0)
    assert passes == [2]


@pytest.mark.parametrize("j", [2, 3, 5, 16, 40, 64])
def test_prefactors_stay_in_range_inside_the_domain(j):
    # with r_max <= 1 and theta_tilde in [1e-2, 1e2], 2^(j+1)/theta_tilde^(2j+2)
    # times any F the engine can return is finite: no OverflowError is left
    # that such an input can reach (outside it, the gauge factor eps^-(2j+2)
    # once overflowed inside the library)
    from melsplit import QuadratureResult
    from melsplit.melnikov import _order_terms

    cfg = normalize_omega(build_polygon(17))
    assert max(math.hypot(*b.position) for b in cfg.bodies) <= 1.0
    for theta_tilde in (1e-2, -1e-2, 0.1, 1.0, 10.0, 1e2, -1e2):
        for order in (2 * j, f"poly:{j + 1}") if j >= 3 else (2 * j,):
            # |F_(j,k)| is at most the integral of its integrand's modulus on
            # R, 14.1 at most for j, k <= 64: F = 16 +- 16 stands for them all
            terms = _order_terms(cfg, order, theta_tilde,
                                 lambda fs: (QuadratureResult(16.0, 16.0, 0) for _ in fs))
            assert all(math.isfinite(v) for term in terms.terms for v in term[1:])
    # with the engine's F: far out F, or its amplitude, falls below the normal
    # double range, a NumericalFailure, never an OverflowError
    for theta_tilde in (1e-2, -0.5, 6.5, 1e2):
        try:
            splitting_terms(cfg, 2 * j, theta_tilde)
        except NumericalFailure:
            assert abs(theta_tilde) > 1.0


def test_an_amplitude_below_the_double_range_is_named():
    # F_(8,8)(6.5) is near 6e-297, a normal double, but 2^9/6.5^18 times it is
    # subnormal: once printed as digits of rounding noise, times the gauge factor
    with pytest.raises(NumericalFailure, match=r"order 16, harmonic 8: .* lies below the normal "
                                               r"double range at theta_tilde = 6\.5"):
        splitting_terms(None, "poly:9", 6.5)
    ((_, _, amplitude, _),) = splitting_terms(None, "poly:9", 5.5).terms
    assert 2.0**-1022 <= abs(amplitude) < 1e-150


@pytest.fixture(scope="module")
def equilateral_orders():
    """Orders 4, 6 and 8 of the (0.2, 0.3) equilateral, by theta_tilde: k = 2 is in 4 and 8."""
    eq = build_equilateral(0.2, 0.3)
    return {tt: [splitting_terms(eq, order, tt) for order in (4, 6, 8)]
            for tt in (0.25, 0.3, 0.5, 0.8)}


def _grid(points):
    return [2.0 * math.pi * i / points for i in range(points)]


class TestMelnikovSum:
    @pytest.mark.parametrize("theta_tilde", [0.3, 0.5])
    def test_orders_merge_by_harmonic(self, equilateral_orders, theta_tilde):
        parts = equilateral_orders[theta_tilde]
        total = melnikov_sum(parts)
        assert [k for k, *_ in total.terms] == [1, 2, 3, 4]
        for k, a, b, err in total.terms:
            rows = [t for m in parts for t in m.terms if t[0] == k]
            assert len(rows) == (2 if k == 2 else 1)
            for column, got in zip((1, 2, 3), (a, b, err)):
                assert got == math.fsum([t[column] for t in rows])

    @pytest.mark.parametrize("theta_tilde", [0.5, 0.25])
    def test_one_part_is_its_order_bit_for_bit(self, equilateral_orders, theta_tilde):
        for part in equilateral_orders[theta_tilde]:
            total = melnikov_sum([part])
            for s0 in _grid(64):
                assert total.value(s0) == part.value(s0)

    @pytest.mark.parametrize("theta_tilde", [0.3, 0.8])
    def test_sum_within_rounding_of_the_per_order_sum(self, equilateral_orders, theta_tilde):
        parts = equilateral_orders[theta_tilde]
        total = melnikov_sum(parts)
        size = sum(abs(a) + abs(b) for m in parts for _, a, b, _ in m.terms)
        for s0 in _grid(64):
            by_order = sum(m.value(s0) for m in parts)
            assert abs(total.value(s0) - by_order) <= 4.0 * np.finfo(float).eps * size

    def test_a_sum_of_a_sum_is_the_sum(self, equilateral_orders):
        merged = melnikov_sum(equilateral_orders[0.3])
        assert melnikov_sum([merged]) == merged

    @pytest.mark.parametrize("theta0", [2.5, -2.5, 1.0])
    @pytest.mark.parametrize("eps", [0.25, 0.3])
    def test_leading_terms_are_the_reference_leading_splitting(self, rp3bp_03, theta0, eps):
        for order in (4, 6):
            terms = leading_terms(rp3bp_03, order, theta0 / eps)
            for s0 in _grid(16):
                want = leading_splitting(rp3bp_03, order, theta0, eps, s0)
                assert eps**-2 * terms.value(s0) == want


class TestSimpleZeros:
    def test_sine(self):
        assert simple_zeros(0.0, 1.0, 1) == pytest.approx([0.0, math.pi])

    def test_cos_second_harmonic(self):
        got = simple_zeros(1.0, 0.0, 2)
        assert got == pytest.approx([math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4])

    def test_degenerate(self):
        assert simple_zeros(0.0, 0.0, 3) is None

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.integers(min_value=1, max_value=6),
    )
    def test_zero_structure_property(self, a, b, k):
        if math.hypot(a, b) < 1e-3:
            return
        zeros = simple_zeros(a, b, k)
        assert len(zeros) == 2 * k
        f = lambda s: a * math.cos(k * s) + b * math.sin(k * s)
        spacing = math.pi / k
        for z in zeros:
            assert abs(f(z)) <= 1e-9 * math.hypot(a, b)
            # simple zeros: strict sign change across each root
            assert f(z - 0.3 * spacing) * f(z + 0.3 * spacing) < 0.0
        diffs = np.diff(zeros)
        assert np.allclose(diffs, spacing, atol=1e-9)


def scan_stages(l_max, j_max, n=1):
    """Stage names of the scan at symmetry order n, j = k mod 2 ascending in each harmonic.

    The k = 1 column comes first when n = 1, then k = n, 2n, ... from k = 2
    on; n = 1 gives the full scan.
    """
    pairs = [(j, 1) for j in range(3, 2 * l_max + 2, 2)] if n == 1 else []
    pairs += [(j, k) for k in range(max(n, 2), j_max + 1, n) for j in range(k, j_max + 1, 2)]
    return [f"harmonic(j={j}, k={k})" for j, k in pairs]


class TestClassifier:
    def test_rp3bp_below_half(self, rp3bp_03):
        v = classify(rp3bp_03)
        assert v.status == "transversal"
        assert v.witness.harmonic == 1
        assert v.witness.epsilon_order == 6
        assert v.witness.coefficient_pair[0] == pytest.approx(0.252, abs=1e-12)
        assert v.witness.coefficient_pair[1] == pytest.approx(0.0, abs=1e-15)

    def test_rp3bp_at_half(self, rp3bp_half):
        v = classify(rp3bp_half)
        assert v.witness.harmonic == 2
        assert v.witness.epsilon_order == 4
        assert v.witness.coefficient_pair[0] == pytest.approx(0.75, abs=1e-12)

    def test_equilateral_thirds(self, equilateral_thirds):
        v = classify(equilateral_thirds)
        assert v.witness.harmonic == 3
        assert v.witness.epsilon_order == 6

    def test_collinear_cases(self, collinear8, collinear11):
        for cfg in (collinear8, collinear11):
            v = classify(cfg)
            assert v.witness.harmonic == 2
            assert v.witness.epsilon_order == 4

    def test_rhomboid_special_ratios_stage_four(self):
        high = refined_rhomboid_ratio(1.32018439)
        low = refined_rhomboid_ratio(0.75746994)
        vh = classify(build_rhomboid(high, 1.0))
        vl = classify(build_rhomboid(low, 1.0))
        for v in (vh, vl):
            assert v.status == "transversal"
            assert v.witness.harmonic == 2
            assert v.witness.epsilon_order == 8
        assert vh.witness.coefficient_pair[0] > 0.0
        assert vl.witness.coefficient_pair[0] < 0.0
        # published magnitude at the order-4 table scale 2**4
        assert 16.0 * vh.witness.coefficient_pair[0] == pytest.approx(0.20447308, abs=1e-6)

    @pytest.mark.parametrize("n_total", [4, 5, 6, 7, 8])
    def test_polygon_witness(self, n_total):
        v = classify(build_polygon(n_total))
        assert v.witness.harmonic == n_total - 1
        assert v.witness.epsilon_order == 2 * n_total - 2

    @pytest.mark.parametrize("phi", [math.pi / 7, math.pi / 3])
    def test_rotation_invariance(self, phi, rp3bp_03):
        base = classify(rp3bp_03)
        rotated = classify(rotate(rp3bp_03, phi))
        assert rotated.witness.harmonic == base.witness.harmonic
        assert rotated.witness.epsilon_order == base.witness.epsilon_order
        assert math.hypot(*rotated.witness.coefficient_pair) == pytest.approx(
            math.hypot(*base.witness.coefficient_pair), rel=1e-10
        )

    def test_witness_zeros_bracket_sign_changes(self, rp3bp_03, collinear8):
        # sampled splitting function changes sign across every witness zero
        cases = [(rp3bp_03, 6), (collinear8, 4)]
        grid = np.linspace(0.0, 2 * math.pi, 256, endpoint=False)
        for cfg, order in cases:
            v = classify(cfg)
            zeros = v.witness.zero_locations
            assert len(zeros) == 2 * v.witness.harmonic
            terms = splitting_terms(cfg, order, 2.0, tol=1e-11)
            vals = np.array([terms.value(float(s)) for s in grid])
            for z in zeros:
                i = int(np.searchsorted(grid, z) % len(grid))
                before = vals[(i - 2) % len(grid)]
                after = vals[(i + 2) % len(grid)]
                assert before * after < 0.0

    def test_trace_records_stages(self, rp3bp_half):
        # two equal masses have symmetry order 2: the odd harmonics, the k = 1
        # column among them, vanish unread, and (2, 2) decides
        v = classify(rp3bp_half)
        assert v.symmetry_order == 2
        assert [s for s, _, _, _ in v.search_trace] == ["harmonic(j=2, k=2)"]
        assert [d for _, _, d, _ in v.search_trace] == ["nonzero"]
        assert v.search_trace[-1][1] == v.witness.coefficient_pair
        # at a root of c2 the rhombus reads (2, 2) as a zero, and (4, 2) decides
        v = classify(build_rhomboid(refined_rhomboid_ratio(1.32018439), 1.0))
        assert v.symmetry_order == 2
        assert [s for s, _, _, _ in v.search_trace] == ["harmonic(j=2, k=2)", "harmonic(j=4, k=2)"]
        assert [d for _, _, d, _ in v.search_trace] == ["zero", "nonzero"]
        assert v.search_trace[-1][1] == v.witness.coefficient_pair

    def test_inconclusive_requires_no_witness(self):
        v = TransversalityVerdict("inconclusive", None, ())
        assert v.witness is None
        with pytest.raises(ValueError):
            TransversalityVerdict("transversal", None, ())
        with pytest.raises(ValueError):
            TransversalityVerdict(
                "transversal",
                Witness(1, 6, (0.0, 0.0), ()),
                (),
            )
        with pytest.raises(ValueError):
            TransversalityVerdict("inconclusive", None, (), 0)

    def test_cutoff_domains(self, rp3bp_03):
        with pytest.raises(ValueError):
            classify(rp3bp_03, l_max=1)
        with pytest.raises(ValueError):
            classify(rp3bp_03, j_max=2)
        with pytest.raises(ValueError):
            classify(rp3bp_03, j_max=65)

    def test_inconclusive_is_a_value_with_full_trace(self):
        # an 11-gon's first surviving harmonic is k = 11; cutting the scan at
        # j_max = 8 leaves no entry its symmetry allows, and must end
        # inconclusive, not raise
        v = classify(build_polygon(12), j_max=8)
        assert v.status == "inconclusive"
        assert v.witness is None
        assert v.symmetry_order == 11
        assert v.search_trace == ()
        # the full scan reads every entry up to order 8 and finds each one zero
        full = classify_full_scan(build_polygon(12), j_max=8)
        assert full.status == "inconclusive"
        assert [s for s, _, _, _ in full.search_trace] == scan_stages(8, 8)
        assert all(d == "zero" for _, _, d, _ in full.search_trace)

    def test_default_cutoff_reaches_large_polygons(self):
        v = classify(build_polygon(12))
        assert v.witness.harmonic == 11
        assert v.witness.epsilon_order == 22

    def test_default_cutoff_is_clamped_to_the_largest_table(self):
        # 2N + 4 = 66 for the 31 bodies of build_polygon(32): the default stops at 64
        v = classify(build_polygon(32))
        assert (v.witness.harmonic, v.witness.epsilon_order) == (31, 62)
        assert [s for s, _, _, _ in v.search_trace] == ["harmonic(j=31, k=31)"]
        # the 65-gon's witness (65, 130) lies beyond every table, and so does
        # every other harmonic its order 65 allows: nothing is read
        v = classify(build_polygon(66))
        assert v.status == "inconclusive"
        assert v.symmetry_order == 65
        assert v.search_trace == ()

    def test_underflowing_weights_read_as_zeros(self):
        # at scale 1e-8 the 40-gon's weight sum m r^j is below 1e-320 from its
        # first allowed entry (40, 40) on, so every bound underflows to 0: the
        # scan reads each entry as a zero and ends inconclusive instead of
        # dividing by a zero bound
        v = classify(scale(build_polygon(41), 1e-8), j_max=64)
        assert v.status == "inconclusive"
        assert v.symmetry_order == 40
        assert [s for s, _, _, _ in v.search_trace] == scan_stages(8, 64, 40)
        assert [(d, m) for _, _, d, m in v.search_trace] == [("zero", 0.0)] * 13

    def test_scaled_polygon_keeps_its_witness(self):
        # entries grow like sum m r^j = 2^j here; an absolute zero test took a
        # roundoff residue at (j, k) = (40, 2) for the witness
        v = classify(scale(build_polygon(13), 2.0))
        assert (v.witness.harmonic, v.witness.epsilon_order) == (12, 24)

    def test_first_harmonic_units_beyond_the_octupole(self):
        # collinear masses (0.4, 0.5, 0.1) at x = (2, -1, -3) cancel sum m x and
        # sum m x^3 but not sum m x^5, so the witness is the (5, 1) entry in d_l units
        cfg = CentralConfiguration(tuple(PrimaryBody(m, (x, 0.0))
                                         for m, x in ((0.4, 2.0), (0.5, -1.0), (0.1, -3.0))))
        v = classify(cfg)
        assert (v.witness.harmonic, v.witness.epsilon_order) == (1, 10)
        assert v.witness.coefficient_pair == pytest.approx(d_l(cfg, 2), rel=1e-14)
        assert v.witness.coefficient_pair[0] == pytest.approx(-12.0, rel=1e-14)
        assert [s for s, *_ in v.search_trace] == ["harmonic(j=3, k=1)", "harmonic(j=5, k=1)"]

    def test_equal_mass_equilateral_witness_is_the_tabulated_d4(self, equilateral_thirds):
        # the (3, 3) entry in the paper's units (d3, d4)
        v = classify(equilateral_thirds)
        assert (v.witness.harmonic, v.witness.epsilon_order) == (3, 6)
        d3, d4 = v.witness.coefficient_pair
        assert abs(d3) <= 1e-14
        assert d4 == pytest.approx(5.0 / (3.0 * math.sqrt(3.0)), abs=1e-14)
        assert v.search_trace[-1][:2] == ("harmonic(j=3, k=3)", (d3, d4))

    def test_margins_decide_and_do_not_scale(self, collinear8):
        high = refined_rhomboid_ratio(1.32018439)
        for base in (build_polygon(13), collinear8, build_rhomboid(high, 1.0)):
            witness_margins = []
            for c in (0.5, 1.0, 3.0):
                trace = classify(scale(base, c)).search_trace
                *zeros, (_, _, decision, margin) = trace
                assert decision == "nonzero" and margin > 1.0
                assert all(d == "zero" and 0.0 <= m <= 1.0 for _, _, d, m in zeros)
                witness_margins.append(margin)
            assert witness_margins == pytest.approx([witness_margins[1]] * 3, rel=1e-9)

    def test_tables_are_built_lazily_once(self, monkeypatch, rp3bp_03, rp3bp_half):
        # one angle-multiple product per call, run on only as far as the
        # orders read; each order contracted from it at most once
        built, rows, owners = [], [], []
        contract, angle_multiples = harmonics._contract, harmonics._angle_multiples

        def counting(masses, r, powers, j):
            built.append(j)
            rows.append(len(powers))
            return contract(masses, r, powers, j)

        def counting_multiples(config):
            owners.append(config)
            return angle_multiples(config)

        monkeypatch.setattr(harmonics, "_contract", counting)
        monkeypatch.setattr(harmonics, "_angle_multiples", counting_multiples)
        for config, j_max, want_built, want_rows in (
                # rows m = 0..3, though the owner reaches max(j_max = 8, 2 l_max + 1 = 17)
                (rp3bp_03, None, [3], [4]),
                # symmetry order 2 skips the k = 1 column
                (rp3bp_half, None, [2], [3]),
                # order 11 allows no harmonic up to j_max = 8: no order is contracted
                (build_polygon(12), 8, [], []),
                (build_polygon(16), 64, [15], [16])):
            built.clear()
            rows.clear()
            owners.clear()
            classify(config, j_max=j_max)
            assert (built, rows, owners) == (want_built, want_rows, [config])

    def test_lambda_of_handles_body_at_origin(self, collinear8):
        from melsplit import lambda_of

        assert lambda_of(collinear8) == pytest.approx(1.0, abs=1e-10)

    def test_verdict_serialization(self, rp3bp_03):
        payload = verdict_to_dict(classify(rp3bp_03))
        txt = json.dumps(payload)
        back = json.loads(txt)
        assert back["status"] == "transversal"
        assert back["symmetry_order"] == 1
        assert back["witness"]["k"] == 1
        assert back["witness"]["epsilon_order"] == 6
        assert len(back["witness"]["zeros"]) == 2
        (first,) = back["trace"]
        assert first["stage"] == "harmonic(j=3, k=1)"
        assert first["decision"] == "nonzero"
        assert first["coefficients"] == [back["witness"]["A"], back["witness"]["B"]]
        assert first["margin"] > 1.0


def _invariance_groups():
    groups = {f"polygon-{n}": lambda n=n: build_polygon(n) for n in range(4, 17)}
    for n in range(3, 9):
        groups[f"collinear-equal-{n}"] = lambda n=n: solve_collinear_equal(n)
        groups[f"collinear-equidistant-{n}"] = lambda n=n: solve_collinear_equidistant(n)
    groups["rhombus-1-1"] = lambda: build_rhomboid(1.0, 1.0)
    groups["rhomboid-1.2-1"] = lambda: build_rhomboid(1.2, 1.0)
    groups["rp3bp-0.3"] = lambda: build_rp3bp(0.3)
    groups["rp3bp-0.5"] = lambda: build_rp3bp(0.5)
    groups["equilateral"] = lambda: build_equilateral(1.0 / 3.0, 1.0 / 3.0)
    groups["equilateral-0.2-0.3"] = lambda: build_equilateral(0.2, 0.3)
    return groups


INVARIANCE_GROUPS = _invariance_groups()

#: the rotation order of each group: an (N - 1)-gon turns by 2 pi/(N - 1), a
#: symmetric chain, rhombus or pair of equal masses by pi, and unequal masses not at all
GROUP_ORDERS = {
    **{f"polygon-{n}": n - 1 for n in range(4, 17)},
    **{name: 2 for name in INVARIANCE_GROUPS if name.startswith("collinear-")},
    "rhombus-1-1": 4,
    "rhomboid-1.2-1": 2,
    "rp3bp-0.3": 1,
    "rp3bp-0.5": 2,
    "equilateral": 3,
    "equilateral-0.2-0.3": 1,
}

VARIANT_SCALES = (0.5, 0.75, 1.25, 1.5, 2.0, 3.0)


def _variants(name, base, scales=VARIANT_SCALES):
    """``base`` at each scale, turned by a seeded angle, relabelled and normalized."""
    rng = np.random.default_rng(sum(map(ord, name)))
    perm = rng.permutation(base.n_bodies)
    if list(perm) == sorted(perm):
        perm = perm[::-1]
    variants = [scale(base, c) for c in scales]
    variants += [
        rotate(base, float(rng.uniform(0.0, 2.0 * math.pi))),
        CentralConfiguration(tuple(base.bodies[i] for i in perm)),
        normalize_omega(base),
    ]
    return variants


def _witness(config, j_max):
    v = classify(config, j_max=j_max)
    assert v.status == "transversal"
    return v.witness.harmonic, v.witness.epsilon_order


def _harmonic(stage):
    """The k of a trace stage "harmonic(j=.., k=..)"."""
    return int(stage.rsplit("k=", 1)[1].rstrip(")"))


class TestClassifierInvariance:
    """(k, order) of the witness under the symmetries of the problem."""

    @pytest.mark.parametrize("j_max", [None, 64])
    @pytest.mark.parametrize("name", sorted(INVARIANCE_GROUPS))
    def test_witness_is_invariant(self, name, j_max):
        base = INVARIANCE_GROUPS[name]()
        want = _witness(base, j_max)
        variants = _variants(name, base)
        assert [_witness(v, j_max) for v in variants] == [want] * len(variants)

    @pytest.mark.parametrize("j_max", [None, 64])
    @pytest.mark.parametrize("name", sorted(INVARIANCE_GROUPS))
    def test_pruned_scan_matches_the_full_scan(self, name, j_max):
        # the same witness entry bit for bit, the same zeros, and a trace that
        # is the full one without the harmonics the symmetry order forces to 0
        base = INVARIANCE_GROUPS[name]()
        for config in (base, *_variants(name, base)):
            got, want = classify(config, j_max=j_max), classify_full_scan(config, j_max=j_max)
            n = got.symmetry_order
            assert got.status == want.status == "transversal"
            assert (got.witness.harmonic, got.witness.epsilon_order) == (
                want.witness.harmonic, want.witness.epsilon_order)
            assert [x.hex() for x in got.witness.coefficient_pair] == [
                x.hex() for x in want.witness.coefficient_pair]
            assert got.witness.zero_locations == want.witness.zero_locations
            assert got.search_trace == tuple(t for t in want.search_trace
                                             if _harmonic(t[0]) % n == 0)
            assert all(d == "zero" for s, _, d, _ in want.search_trace if _harmonic(s) % n)
            if n >= 2:
                assert len(got.search_trace) == 1  # every witness sits at (n, n)

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(["polygon-13", "polygon-16", "collinear-equidistant-8", "rhombus-1-1"]),
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_scaled_rotated_witness_property(self, name, c, phi):
        base = INVARIANCE_GROUPS[name]()
        assert _witness(rotate(scale(base, c), phi), 64) == _witness(base, 64)


class TestSymmetryOrder:
    @pytest.mark.parametrize("name", sorted(INVARIANCE_GROUPS))
    def test_order_is_invariant(self, name):
        base = INVARIANCE_GROUPS[name]()
        variants = _variants(name, base, scales=(1e-6, 0.5, 2.0))
        assert [symmetry_order(c) for c in (base, *variants)] == [GROUP_ORDERS[name]] * 7

    @pytest.mark.parametrize("name", sorted(INVARIANCE_GROUPS))
    def test_order_matches_the_array_reference(self, name):
        base = INVARIANCE_GROUPS[name]()
        for config in (base, *_variants(name, base, scales=(1e-6, 0.5, 2.0, 1e6))):
            assert symmetry_order(config) == symmetry_order_reference(config)

    def test_near_symmetric_cases_match_the_array_reference(self):
        # a slightly skew rhombus, chains with a body at the origin, a square
        # around one, and a square whose masses alternate
        angles = (0.3, 0.3 + math.pi / 2, 0.3 + math.pi, 0.3 + 1.5 * math.pi)
        square = [PrimaryBody(0.2, (math.cos(a), math.sin(a))) for a in angles]
        alternating = [PrimaryBody(m, (math.cos(a), math.sin(a)))
                       for m, a in zip((0.3, 0.2, 0.3, 0.2), angles)]
        cases = [build_rhomboid(1.0 + 1e-6, 1.0), build_rhomboid(1.0 + 1e-12, 1.0),
                 *(solve_collinear_equal(n) for n in (3, 5, 7)),
                 CentralConfiguration((PrimaryBody(0.2, (0.0, 0.0)), *square)),
                 CentralConfiguration(tuple(alternating))]
        for config in cases:
            assert symmetry_order(config) == symmetry_order_reference(config)

    def test_a_near_square_rhombus_keeps_order_two(self):
        # legs 1 + 1e-6 and 1 move the bodies and masses by about 1e-7
        assert symmetry_order(build_rhomboid(1.0, 1.0)) == 4
        assert symmetry_order(build_rhomboid(1.0 + 1e-6, 1.0)) == 2

    def test_unequal_masses_break_the_symmetry(self):
        # the (0.2, 0.3) triangle and the mu = 0.3 pair have no turn onto themselves
        assert symmetry_order(build_equilateral(0.2, 0.3)) == 1
        assert symmetry_order(build_rp3bp(0.3)) == 1

    def test_collinear_chains_with_a_body_at_the_origin(self):
        # an odd equal-mass chain keeps its middle body at the origin, which every turn fixes
        for n in (3, 5, 7):
            chain = solve_collinear_equal(n)
            assert chain.bodies[n // 2].position == (0.0, 0.0)
            assert symmetry_order(chain) == 2
        # the body at the origin is fixed whatever its mass, but unequal end masses do not swap
        bodies = ((0.25, -1.0), (0.5, 0.0), (0.25, 1.0))
        assert symmetry_order(CentralConfiguration(
            tuple(PrimaryBody(m, (x, 0.0)) for m, x in bodies))) == 2
        bodies = ((0.2, -3.0), (0.5, 0.0), (0.3, 2.0))
        assert symmetry_order(CentralConfiguration(
            tuple(PrimaryBody(m, (x, 0.0)) for m, x in bodies))) == 1

    def test_a_square_around_a_central_body_has_order_four(self):
        square = [PrimaryBody(0.2, (math.cos(a), math.sin(a)))
                  for a in (0.3, 0.3 + math.pi / 2, 0.3 + math.pi, 0.3 + 1.5 * math.pi)]
        config = CentralConfiguration((PrimaryBody(0.2, (0.0, 0.0)), *square))
        assert symmetry_order(config) == 4
