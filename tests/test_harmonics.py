import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melsplit import (
    CentralConfiguration,
    build_equilateral,
    build_polygon,
    build_rhomboid,
    build_rp3bp,
    harmonic_table,
    legendre_cos_coeffs,
    solve_collinear_equal,
    solve_collinear_equidistant,
)
from melsplit.config import rotate, scale
from melsplit.harmonics import (
    MAX_LEGENDRE_ORDER,
    HarmonicTable,
    HarmonicTables,
    _angle_multiples,
    _cos_basis_fractions,
    _extend,
)
from references import (c_coeffs, d_coeffs, d_l, legendre_pair, mass_array, position_array,
                        table_reference)


def paper_c(config):
    """(c1, c2, c3) read from the order-2 table."""
    tables = HarmonicTables(config, 2)
    return tables.paper("c1")[0], *tables.paper("c2, c3")


def paper_d(config):
    """(d1, d2, d3, d4) read from the order-3 table."""
    tables = HarmonicTables(config, 3)
    return (*tables.paper("d1, d2"), *tables.paper("d3, d4"))


def paper_d_l(config, l):
    """d_l read from the order-(2l + 1) table."""
    return HarmonicTables(config, 2 * l + 1).d_weight(l)


class TestLegendreCosine:
    def test_order_zero(self):
        assert legendre_cos_coeffs(0) == {0: 1.0}

    def test_order_two(self):
        assert legendre_cos_coeffs(2) == {0: 0.25, 2: 0.75}

    def test_order_three_against_fit_oracle(self):
        # brute-force least-squares fit of P_3(cos g) on cos g, cos 3g
        angles = np.linspace(0.1, 3.0, 8)
        target = np.array([legendre_pair(3, math.cos(g))[0] for g in angles])
        basis = np.stack([np.cos(angles), np.cos(3 * angles)], axis=1)
        fit, *_ = np.linalg.lstsq(basis, target, rcond=None)
        assert fit == pytest.approx([3.0 / 8.0, 5.0 / 8.0], abs=1e-12)
        assert legendre_cos_coeffs(3) == {1: 0.375, 3: 0.625}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=24), st.floats(min_value=-3.1, max_value=3.1))
    def test_pointwise_identity(self, j, gamma):
        direct = legendre_pair(j, math.cos(gamma))[0]
        series = sum(
            c * math.cos(m * gamma) for m, c in legendre_cos_coeffs(j).items()
        )
        assert series == pytest.approx(direct, abs=1e-12)

    def test_pointwise_identity_dense_angles(self):
        for j in range(0, 13):
            coeffs = legendre_cos_coeffs(j)
            for gamma in np.linspace(0.0, 2 * math.pi, 32, endpoint=False):
                direct = legendre_pair(j, math.cos(gamma))[0]
                series = sum(c * math.cos(m * gamma) for m, c in coeffs.items())
                assert abs(series - direct) <= 1e-12

    def test_all_coefficients_nonnegative_low_orders(self):
        for j in range(0, 13):
            assert all(v >= 0.0 for v in legendre_cos_coeffs(j).values())

    def test_parity_structure(self):
        for j in (4, 7, 10):
            assert all(m % 2 == j % 2 for m in legendre_cos_coeffs(j))

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            legendre_cos_coeffs(65)
        with pytest.raises(ValueError):
            legendre_cos_coeffs(-1)

    def test_closed_form_equals_power_expansion(self):
        # oracle: the monomial coefficients of P_j from the three-term
        # recurrence, each cos^n g expanded in cos(m g), all in exact rationals
        prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
        for j in range(MAX_LEGENDRE_ORDER + 1):
            if j >= 2:
                nxt = [Fraction(0)] * (j + 1)
                for i, c in enumerate(cur):
                    nxt[i + 1] += Fraction(2 * j - 1, j) * c
                for i, c in enumerate(prev):
                    nxt[i] -= Fraction(j - 1, j) * c
                prev, cur = cur, nxt
            power = prev if j == 0 else cur
            acc: dict[int, Fraction] = {}
            for n, c in enumerate(power):
                # cos^n g = 2^-n sum_i C(n, i) cos((n - 2i) g)
                for i in range(n // 2 + 1):
                    m = n - 2 * i
                    weight = Fraction(math.comb(n, i), 2**n) * (1 if m == 0 else 2)
                    acc[m] = acc.get(m, Fraction(0)) + c * weight
            want = tuple(sorted((m, v) for m, v in acc.items() if v != 0))
            assert _cos_basis_fractions(j) == want, j


class TestNamedCoefficients:
    def test_rp3bp_half_c2(self, rp3bp_half):
        c1, c2, c3 = paper_c(rp3bp_half)
        assert c2 == pytest.approx(0.75, abs=1e-15)
        assert c3 == pytest.approx(0.0, abs=1e-15)

    def test_rp3bp_d_closed_form(self):
        for mu in (0.1, 0.3, 0.49):
            d1, d2, _, _ = paper_d(build_rp3bp(mu))
            assert d1 == pytest.approx(3 * mu * (1 - mu) * (1 - 2 * mu), abs=1e-14)
            assert d2 == pytest.approx(0.0, abs=1e-15)

    def test_equilateral_thirds_d4(self, equilateral_thirds):
        d1, d2, d3, d4 = paper_d(equilateral_thirds)
        assert (d1, d2, d3) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)
        assert d4 == pytest.approx(5.0 / (3.0 * math.sqrt(3.0)), abs=1e-14)

    def test_collinear8_c2(self, collinear8):
        _, c2, c3 = paper_c(collinear8)
        assert c2 == pytest.approx(1.76876487, abs=1e-6)
        assert c3 == 0.0

    def test_collinear11_c2(self, collinear11):
        assert paper_c(collinear11)[1] == pytest.approx(1.95579995, abs=1e-6)

    def test_rhomboid_c2_closed_form(self):
        from melsplit.config import rhomboid_parameters

        for a, b in ((1.0, 1.0), (1.2, 1.0), (0.8, 1.0)):
            x, y, mu = rhomboid_parameters(a, b)
            _, c2, c3 = paper_c(build_rhomboid(a, b))
            assert c2 == pytest.approx(-3 * y * y + 6 * mu * (x * x + y * y), abs=1e-13)
            assert c3 == 0.0
            assert sum(abs(v) for v in paper_d(build_rhomboid(a, b))) <= 1e-14

    def test_d_l_reduces_to_d_over_three(self, rp3bp_03):
        d1, d2, _, _ = paper_d(rp3bp_03)
        d1l, d2l = paper_d_l(rp3bp_03, 1)
        assert d1l == pytest.approx(d1 / 3.0, abs=1e-15)
        assert d2l == pytest.approx(d2 / 3.0, abs=1e-15)
        assert d1l == pytest.approx(0.084, abs=1e-15)

    def test_d_l_vanishes_for_symmetric_pairs(self, rp3bp_half, equilateral_thirds):
        for l in range(1, 6):
            assert paper_d_l(rp3bp_half, l) == pytest.approx((0.0, 0.0), abs=1e-15)
        for l in range(2, 6):
            assert paper_d_l(equilateral_thirds, l) == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_c1_is_the_nonnegative_second_moment(self, rp3bp_03, collinear8, hexagon):
        for config in (rp3bp_03, collinear8, hexagon, rotate(build_rhomboid(1.2, 1.0), 0.4)):
            c1 = paper_c(config)[0]
            assert c1 >= 0.0
            pos = position_array(config)
            assert c1 == pytest.approx(float(mass_array(config) @ (pos**2).sum(axis=1)),
                                       rel=1e-14)


class TestHarmonicTable:
    def test_normalization_ladder(self):
        # the paper's constants read from the tables against the direct body sums
        relabelled = build_equilateral(0.2, 0.3)
        relabelled = CentralConfiguration(relabelled.bodies[::-1])
        for config in (
            build_rp3bp(0.23),
            build_rhomboid(1.1, 1.0),
            build_equilateral(0.2, 0.3),
            rotate(build_rp3bp(0.4), 0.9),
            relabelled,
        ):
            assert paper_c(config) == pytest.approx(c_coeffs(config), abs=1e-12)
            assert paper_d(config) == pytest.approx(d_coeffs(config), abs=1e-12)
            for l in range(1, 6):
                assert paper_d_l(config, l) == pytest.approx(d_l(config, l), abs=1e-12)

    def test_unit_of_each_entry(self):
        unit = HarmonicTables.unit
        assert unit(2, 0) == unit(2, 2) == 4.0
        # (3, 1) is reported as (d1, d2), not as d_1 = (d1, d2) / 3
        assert unit(3, 1) == unit(3, 3) == 8.0
        assert unit(11, 1) == 1.0 / legendre_cos_coeffs(11)[1]
        assert unit(4, 2) == unit(5, 3) == 1.0

    def test_d_1_is_a_third_of_d1_d2(self):
        tables = HarmonicTables(build_equilateral(0.2, 0.3), 3)
        d1, d2 = tables.paper("d1, d2")
        assert tables.d_weight(1) == pytest.approx((d1 / 3.0, d2 / 3.0), rel=1e-15)

    def test_rp3bp_half_j2_entry(self, rp3bp_half):
        assert harmonic_table(rp3bp_half, 2).pair(2)[0] == pytest.approx(3.0 / 16.0, abs=1e-15)

    def test_hexagon_j3_all_zero(self, hexagon):
        for _, a, b in harmonic_table(hexagon, 3).entries:
            assert abs(a) <= 1e-15 and abs(b) <= 1e-15

    def test_polygon_selection_rule(self):
        for n_total in (4, 5, 6, 7):
            c = build_polygon(n_total)
            n = n_total - 1
            for j in range(2, 2 * n_total - 2):
                for m, a, b in harmonic_table(c, j).entries:
                    if 1 <= m < n:
                        assert abs(a) <= 1e-12 and abs(b) <= 1e-12

    def test_collinear_sine_kill(self, collinear8):
        for j in range(2, 9):
            for _, _, b in harmonic_table(collinear8, j).entries:
                assert b == 0.0

    def test_rotational_covariance(self):
        base = build_rp3bp(0.3)
        for phi in (0.35, math.pi / 7):
            rotated = harmonic_table(rotate(base, phi), 3)
            original = harmonic_table(base, 3)
            for m in (1, 3):
                a, b = original.pair(m)
                ar, br = rotated.pair(m)
                assert ar == pytest.approx(
                    a * math.cos(m * phi) + b * math.sin(m * phi), abs=1e-10
                )
                assert br == pytest.approx(
                    b * math.cos(m * phi) - a * math.sin(m * phi), abs=1e-10
                )

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.integers(min_value=1, max_value=4),
    )
    def test_rotational_covariance_property(self, phi, m):
        base = build_rhomboid(1.2, 1.0)
        j = 4 if m % 2 == 0 else 5
        a, b = harmonic_table(base, j).pair(m)
        ar, br = harmonic_table(rotate(base, phi), j).pair(m)
        assert ar == pytest.approx(a * math.cos(m * phi) + b * math.sin(m * phi), abs=1e-10)
        assert br == pytest.approx(b * math.cos(m * phi) - a * math.sin(m * phi), abs=1e-10)

    def test_order_domain(self, rp3bp_03):
        with pytest.raises(ValueError):
            harmonic_table(rp3bp_03, 1)

    def test_an_overflowing_weight_is_refused(self):
        # the 16-gon at radius 1e5 has weight sum m r^j = (15/16) 1e(5j), finite
        # up to j = 61; order 62 is refused, not read as inf and NaN entries
        tables = HarmonicTables(scale(build_polygon(16), 1e5), 64)
        assert all(math.isfinite(v) for _, a, b in tables[61].entries for v in (a, b))
        with pytest.raises(OverflowError, match="order-62"):
            tables[62]

    @pytest.mark.parametrize("name", ["rp3bp", "collinear8", "polygon7", "rotated"])
    def test_angle_multiples_match_the_addition_recurrence_bitwise(self, name):
        # the running complex product does the recurrence's arithmetic, so exact
        # zeros (and their signs) on the axes survive
        config = {
            "rp3bp": lambda: build_rp3bp(0.3),
            "collinear8": lambda: solve_collinear_equal(7),
            "polygon7": lambda: build_polygon(7),
            "rotated": lambda: rotate(build_rhomboid(1.2, 1.0), 0.7),
        }[name]()
        pos = position_array(config)
        r = np.hypot(pos[:, 0], pos[:, 1])
        safe = np.where(r > 0.0, r, 1.0)
        ca, sa = pos[:, 0] / safe, np.where(r > 0.0, pos[:, 1] / safe, 0.0)
        cos_ref, sin_ref = [np.ones(len(r))], [np.zeros(len(r))]
        for _ in range(64):
            cos_ref.append(cos_ref[-1] * ca - sin_ref[-1] * sa)
            sin_ref.append(sin_ref[-1] * ca + cos_ref[-2] * sa)
        _, units, rows = _angle_multiples(config)
        _extend(rows, units, 64)
        powers = np.array(rows)
        for got, want in ((powers.real, np.array(cos_ref)), (powers.imag, np.array(sin_ref))):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


    _SHARED = {
        "rp3bp": lambda: build_rp3bp(0.3),
        "equilateral": lambda: build_equilateral(0.2, 0.3),
        "rotated-equilateral": lambda: rotate(build_equilateral(0.2, 0.3), 0.7),
        "rhomboid": lambda: build_rhomboid(1.2, 1.0),  # bodies on the axes
        "polygon16x2": lambda: scale(build_polygon(16), 2.0),
        "collinear5": lambda: solve_collinear_equal(5),  # a body at the origin
    }

    @staticmethod
    def _assert_same_table(got, want):
        assert (got.j, got.rounding, got.weight) == (want.j, want.rounding, want.weight)
        assert [m for m, _, _ in got.entries] == [m for m, _, _ in want.entries]
        g, w = np.array(got.entries)[:, 1:], np.array(want.entries)[:, 1:]
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))

    @pytest.mark.parametrize("name", sorted(_SHARED))
    def test_one_angle_table_gives_every_order_bitwise(self, name):
        # the running product's first j + 1 rows do not depend on how far it runs
        config = self._SHARED[name]()
        tables = HarmonicTables(config, 64)
        masses, r = mass_array(config).tolist(), np.hypot(*position_array(config).T).tolist()
        for j in range(2, 65):
            self._assert_same_table(tables[j], harmonic_table(config, j))
            assert tables[j].weight == math.fsum([m * rk**j for m, rk in zip(masses, r)])
            assert tables[j] is tables[j]  # contracted once, then kept

    #: the configurations the catalog measures
    _CATALOG = {
        "rp3bp-0.3": lambda: build_rp3bp(0.3),
        "rp3bp-0.5": lambda: build_rp3bp(0.5),
        "equilateral": lambda: build_equilateral(1.0 / 3.0, 1.0 / 3.0),
        "rhomboid": lambda: build_rhomboid(1.0, 1.0),
        "collinear8": lambda: solve_collinear_equal(7),
        "collinear11": lambda: solve_collinear_equidistant(10),
        "polygon-7": lambda: build_polygon(7),
        "polygon-8": lambda: build_polygon(8),
    }

    @pytest.mark.parametrize("name", sorted({**_SHARED, **_CATALOG}))
    def test_tables_match_the_array_reference(self, name):
        # fsum per entry against numpy's products of the cumprod array: every
        # entry within the table's own rounding bound
        config = {**self._SHARED, **self._CATALOG}[name]()
        tables = HarmonicTables(config, 64)
        for j in range(2, 65):
            got, want = tables[j], table_reference(config, j)
            assert [m for m, _, _ in got.entries] == [m for m, _, _ in want.entries]
            assert got.weight == pytest.approx(want.weight, rel=1e-15)
            assert got.rounding == pytest.approx(want.rounding, rel=1e-15)
            for (_, a, b), (_, a_ref, b_ref) in zip(got.entries, want.entries):
                assert abs(a - a_ref) <= got.rounding and abs(b - b_ref) <= got.rounding

    @pytest.mark.parametrize("name", sorted(_SHARED))
    def test_tables_up_to_an_order_match_the_single_order_calls(self, name):
        config = self._SHARED[name]()
        for j_max in (2, 7, 64):
            tables = HarmonicTables(config, j_max)
            for j in reversed(range(2, j_max + 1)):  # the order of reads does not matter
                self._assert_same_table(tables[j], harmonic_table(config, j))

    def test_tables_up_to_an_order_check_it_as_the_single_order_call(self, rp3bp_03):
        for j in (1, 0, -3):
            with pytest.raises(ValueError, match=f"start at order 2, got {j}"):
                HarmonicTables(rp3bp_03, 8)[j]
        with pytest.raises(ValueError, match="these tables stop at order 7, got 8"):
            HarmonicTables(rp3bp_03, 7)[8]
        tables = HarmonicTables(rp3bp_03, 64)
        assert len(tables._multiples) == 1  # the product runs on as orders are read
        assert tables[5].j == 5 and len(tables._multiples) == 6
        assert [tables[j].j for j in range(2, 65)] == list(range(2, 65))
        assert len(tables._multiples) == 65
        with pytest.raises(ValueError, match="these tables stop at order 64, got 65"):
            tables[65]
        # an order past 64 is refused when the owner is built, naming the request
        for j_max in (65, 10**9):
            with pytest.raises(ValueError, match=f"stop at order 64, got j_max = {j_max}$"):
                HarmonicTables(rp3bp_03, j_max)
        with pytest.raises(ValueError, match="got j_max = 65$"):
            harmonic_table(rp3bp_03, 65)
        # an owner with no orders stays legal: the flow truncated at order 3 builds one
        for j_max in (1, 0):
            empty = HarmonicTables(rp3bp_03, j_max)
            with pytest.raises(ValueError, match=f"these tables stop at order {j_max}, got 2"):
                empty[2]

    @pytest.mark.parametrize("j", [2, 3, 16, 17, 64])
    def test_pair_indexes_the_ascending_harmonics(self, j):
        table = harmonic_table(build_equilateral(0.2, 0.3), j)
        for m, a, b in table.entries:
            assert table.pair(m) == (a, b)
        for m in (-2, -1, j - 1, j + 1, j + 2):
            with pytest.raises(KeyError, match=f"no harmonic m={m} at order j={j}"):
                table.pair(m)

    def test_pair_never_returns_another_harmonic(self):
        # a hand-built table that breaks the layout misses instead of misreading
        table = HarmonicTable(j=4, entries=((0, 1.0, 0.0), (4, 2.0, 0.0)), rounding=0.0,
                              weight=1.0)
        assert table.pair(0) == (1.0, 0.0)
        with pytest.raises(KeyError):
            table.pair(2)


class TestRoundingBound:
    @pytest.mark.parametrize("name", ["polygon7", "polygon13", "collinear7", "rhombus",
                                      "rp3bp", "equilateral"])
    def test_rounding_bounds_every_entry(self, name):
        # every entry up to j = 64, recomputed at 30 digits from the same float positions
        base = {
            "polygon7": lambda: build_polygon(7),
            "polygon13": lambda: build_polygon(13),
            "collinear7": lambda: solve_collinear_equal(7),
            "rhombus": lambda: build_rhomboid(1.2, 1.0),
            "rp3bp": lambda: build_rp3bp(0.3),
            "equilateral": lambda: build_equilateral(0.2, 0.3),
        }[name]()
        worst = 0.0
        with mp.workdps(30):
            for c in (0.5, 1.0, 2.0, 3.0):
                cfg = scale(base, c)
                masses, radii, cos_m, sin_m = [], [], [], []
                for m, (x, y) in zip(mass_array(cfg), position_array(cfg)):
                    al = mp.atan2(float(y), float(x))
                    masses.append(mp.mpf(float(m)))
                    radii.append(mp.hypot(float(x), float(y)))
                    cos_m.append([mp.cos(k * al) for k in range(65)])
                    sin_m.append([mp.sin(k * al) for k in range(65)])
                cos_m, sin_m = list(zip(*cos_m)), list(zip(*sin_m))  # indexed [m][body]
                for j in range(2, 65):
                    table = harmonic_table(cfg, j)
                    weights = [w * r**j for w, r in zip(masses, radii)]
                    for (m, p), (mm, a, b) in zip(_cos_basis_fractions(j), table.entries):
                        assert m == mm
                        p = mp.mpf(p.numerator) / p.denominator
                        want_a = p * mp.fdot(weights, cos_m[m])
                        want_b = -p * mp.fdot(weights, sin_m[m])
                        err = max(abs(a - want_a), abs(b - want_b))
                        assert err <= table.rounding, (c, j, m)
                        worst = max(worst, float(err / table.rounding))
        assert worst > 0.0  # the recomputation sees the rounding at all
