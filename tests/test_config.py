import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from melsplit import (
    CentralConfiguration,
    ConfigError,
    DegenerateConfigurationError,
    NotCentralError,
    PrimaryBody,
    build_equilateral,
    build_polygon,
    build_rhomboid,
    build_rp3bp,
    cc_residual,
    classify,
    lambda_of,
    load_configuration,
    normalize_omega,
    solve_collinear_equal,
    solve_collinear_equidistant,
)
from melsplit.config import (_collinear_equal_system, _gravity, _pull, balance,
                             configuration_to_dict, rhomboid_parameters, rotate, scale)
from references import (balance_reference, collinear_equal_reference,
                        collinear_equidistant_reference, mass_array, position_array,
                        pull_reference)


def polygon_lambda(n: int) -> float:
    # closed form for n equal masses on the unit circle
    return sum(1.0 / math.sin(math.pi * k / n) for k in range(1, n)) / (4.0 * n)


class TestTypeInvariants:
    def test_mass_must_be_positive(self):
        with pytest.raises(ConfigError):
            PrimaryBody(-1.0, (0.0, 0.0))

    def test_position_must_be_finite(self):
        with pytest.raises(ConfigError):
            PrimaryBody(1.0, (math.inf, 0.0))

    def test_masses_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            CentralConfiguration(
                (PrimaryBody(0.5, (1.0, 0.0)), PrimaryBody(0.6, (-0.5, 0.0)))
            )

    def test_center_of_mass_must_vanish(self):
        with pytest.raises(ConfigError):
            CentralConfiguration(
                (PrimaryBody(0.5, (1.0, 0.0)), PrimaryBody(0.5, (-0.5, 0.0)))
            )

    def test_coincident_bodies_rejected(self):
        with pytest.raises(DegenerateConfigurationError):
            CentralConfiguration(
                (
                    PrimaryBody(0.25, (0.5, 0.0)),
                    PrimaryBody(0.25, (0.5, 1e-12)),
                    PrimaryBody(0.5, (-0.5, -5e-13)),
                )
            )


class TestScaleInvariantChecks:
    # the barycenter and separation tolerances are relative to the largest radius
    @pytest.mark.parametrize("build", [lambda: build_equilateral(0.2, 0.3),
                                       lambda: build_polygon(16), lambda: build_rp3bp(0.3)],
                             ids=["equilateral-0.2-0.3", "16-gon", "rp3bp-0.3"])
    @pytest.mark.parametrize("c", [1e-10, 1e8, 1e10])
    def test_a_scaled_configuration_loads_and_keeps_its_witness(self, build, c):
        base = build()
        loaded = load_configuration(configuration_to_dict(scale(base, c)))
        want, got = classify(base).witness, classify(loaded).witness
        assert (got.harmonic, got.epsilon_order) == (want.harmonic, want.epsilon_order)

    @pytest.mark.parametrize("c", [1.0, 1e8])
    def test_coincident_bodies_rejected_at_any_scale(self, c):
        bodies = (PrimaryBody(0.25, (0.5 * c, 0.0)), PrimaryBody(0.25, (0.5 * c, 0.0)),
                  PrimaryBody(0.5, (-0.5 * c, 0.0)))
        with pytest.raises(DegenerateConfigurationError, match="bodies 0 and 1 "):
            CentralConfiguration(bodies)


class TestResidualAndLambda:
    def test_rp3bp_residual_zero(self):
        assert cc_residual(build_rp3bp(0.3)) <= 1e-14

    def test_unit_equilateral_residual(self):
        assert cc_residual(build_equilateral(0.17, 0.41)) <= 1e-13

    def test_collinear7_residual(self, collinear8):
        assert cc_residual(collinear8) <= 1e-7

    def test_rp3bp_lambda_is_one(self):
        assert lambda_of(build_rp3bp(0.3)) == pytest.approx(1.0, abs=1e-12)

    def test_unit_square_lambda_closed_form(self):
        # direct evaluation for one vertex: lambda = (1 + 2 sqrt(2))/16
        sq = build_polygon(5)
        assert lambda_of(sq) == pytest.approx((1.0 + 2.0 * math.sqrt(2.0)) / 16.0, abs=1e-14)

    def test_lambda_scaling_law(self):
        base = build_equilateral(0.2, 0.5)
        lam = lambda_of(base)
        for c in (0.5, 2.0):
            assert lambda_of(scale(base, c)) == pytest.approx(lam / c**3, rel=1e-9)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_not_central_error(self, c):
        shape = CentralConfiguration(
            (
                PrimaryBody(0.3, (1.0, 0.0)),
                PrimaryBody(0.3, (-1.0, 0.0)),
                PrimaryBody(0.2, (0.0, 1.0)),
                PrimaryBody(0.2, (0.0, -1.0)),
            )
        )
        with pytest.raises(NotCentralError):
            lambda_of(scale(shape, c))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    @example(1e-6)
    @example(1e-5)
    @example(1e6)
    def test_lambda_homogeneity_property(self, c):
        # the fit is judged relative to the pull, which scales like c^-2
        for base in (build_rp3bp(0.3), build_equilateral(0.2, 0.3)):
            assert lambda_of(scale(base, c)) == pytest.approx(1.0 / c**3, rel=1e-9)


class TestNormalizeOmega:
    def test_fixed_point(self):
        base = build_rp3bp(0.25)
        out = normalize_omega(base)
        for b_in, b_out in zip(base.bodies, out.bodies):
            assert b_out.position == pytest.approx(b_in.position, abs=1e-12)

    def test_inverse_of_scaling(self):
        base = build_equilateral(0.3, 0.3)
        doubled = scale(base, 2.0)
        out = normalize_omega(doubled)
        for b_in, b_out in zip(base.bodies, out.bodies):
            assert b_out.position == pytest.approx(b_in.position, rel=1e-10)

    def test_hexagon_radius(self, hexagon):
        out = normalize_omega(hexagon)
        expected = polygon_lambda(6) ** (1.0 / 3.0)
        radii = [math.hypot(*b.position) for b in out.bodies]
        assert radii == pytest.approx([expected] * 6, rel=1e-10)
        assert lambda_of(out) == pytest.approx(1.0, abs=1e-10)

    def test_masses_and_barycenter_preserved(self, hexagon):
        out = normalize_omega(hexagon)
        assert [b.mass for b in out.bodies] == [b.mass for b in hexagon.bodies]
        com = np.einsum("i,ij->j", mass_array(out), position_array(out))
        assert np.hypot(*com) <= 1e-12


class TestBuilders:
    def test_rp3bp_half(self):
        c = build_rp3bp(0.5)
        assert c.bodies[0].position == (0.5, 0.0)
        assert c.bodies[1].position == (-0.5, 0.0)

    def test_rp3bp_examples(self):
        c = build_rp3bp(0.3)
        assert c.bodies[0].mass == pytest.approx(0.3)
        assert c.bodies[0].position[0] == pytest.approx(0.7)

    @pytest.mark.parametrize("mu", [0.0, -0.1, 0.51, 1.0])
    def test_rp3bp_domain(self, mu):
        with pytest.raises(ConfigError):
            build_rp3bp(mu)

    def test_equilateral_unit_sides(self, equilateral_thirds):
        pos = position_array(equilateral_thirds)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.hypot(*(pos[i] - pos[j])) == pytest.approx(1.0, abs=1e-14)
        radii = np.hypot(pos[:, 0], pos[:, 1])
        assert radii == pytest.approx([1.0 / math.sqrt(3.0)] * 3, abs=1e-14)

    def test_equilateral_mass_domain(self):
        with pytest.raises(ConfigError):
            build_equilateral(0.5, 0.5)

    def test_equilateral_barycenter(self):
        c = build_equilateral(0.11, 0.57)
        com = np.einsum("i,ij->j", mass_array(c), position_array(c))
        assert np.hypot(*com) <= 1e-15

    def test_rhomboid_square_case(self, square_rhomboid):
        x, y, mu = rhomboid_parameters(1.0, 1.0)
        assert mu == pytest.approx(0.25, abs=1e-14)
        assert x == pytest.approx(y, abs=1e-14)
        assert cc_residual(square_rhomboid) <= 1e-9

    def test_rhomboid_general_residual(self):
        assert cc_residual(build_rhomboid(1.2, 0.9)) <= 1e-9

    @pytest.mark.parametrize("a, b", [(1.2, 1.0), (1.0, 1.0), (0.7, 1.0), (1.6, 1.0)])
    @pytest.mark.parametrize("c", [2.0**400, 2.0**-400, 2.0])
    def test_rhomboid_shape_depends_on_the_leg_ratio_alone(self, a, b, c):
        # legs scaled by a power of two keep a/b exactly, so the shape keeps every bit
        assert rhomboid_parameters(c * a, c * b) == rhomboid_parameters(a, b)

    def test_rhomboid_boundary(self):
        with pytest.raises(ConfigError):
            build_rhomboid(1.0, math.sqrt(3.0))  # a = b sqrt(3) endpoint

    def test_rhomboid_interior_sweep(self):
        # the admissible leg-ratio interval is (1/sqrt(3), sqrt(3))
        for t in np.linspace(0.59, 1.72, 20):
            c = build_rhomboid(float(t), 1.0)
            assert cc_residual(c) <= 1e-9
        for t in (0.57, 1.74, 3.0):
            with pytest.raises(ConfigError):
                build_rhomboid(float(t), 1.0)

    def test_polygon_unit_circle(self):
        c = build_polygon(4)
        assert [b.mass for b in c.bodies] == pytest.approx([1.0 / 3.0] * 3)
        assert all(math.hypot(*b.position) == pytest.approx(1.0) for b in c.bodies)

    def test_polygon_square(self):
        c = build_polygon(5)
        assert len(c.bodies) == 4

    def test_polygon_normalized_triangle_matches_equilateral_radius(self):
        c = build_polygon(4, normalize=True)
        radii = [math.hypot(*b.position) for b in c.bodies]
        assert radii == pytest.approx([1.0 / math.sqrt(3.0)] * 3, rel=1e-10)


class TestCollinearSolvers:
    def test_seven_equal_masses_positions(self, collinear8):
        xs = [b.position[0] for b in collinear8.bodies]
        golden = [-1.17858061, -0.73861375, -0.35910513, 0.0]
        for got, want in zip(xs, golden):
            assert got == pytest.approx(want, abs=1e-7)
        assert cc_residual(collinear8) <= 1e-10

    def test_two_equal_masses(self):
        c = solve_collinear_equal(2)
        xs = sorted(b.position[0] for b in c.bodies)
        assert xs == pytest.approx([-0.5, 0.5], abs=1e-12)

    def test_three_equal_masses_against_bisection_oracle(self):
        # scalar balance x = (1/3)(1/x^2 + 1/(4 x^2)) reduces to x^3 = 5/12
        lo, hi = 0.5, 1.0
        f = lambda x: x - (5.0 / 12.0) / (x * x)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx((5.0 / 12.0) ** (1.0 / 3.0), abs=1e-14)
        c = solve_collinear_equal(3)
        assert c.bodies[2].position[0] == pytest.approx(oracle, abs=1e-12)

    def test_positions_increasing_and_antisymmetric(self):
        for n in (4, 7):
            xs = [b.position[0] for b in solve_collinear_equal(n).bodies]
            assert all(b > a for a, b in zip(xs, xs[1:]))
            for k in range(n):
                assert xs[k] == pytest.approx(-xs[n - 1 - k], abs=1e-12)

    def test_equidistant_ten_masses(self, collinear11):
        ms = [b.mass for b in collinear11.bodies]
        golden = [0.05585772, 0.08684056, 0.10794726, 0.12139042, 0.12796403]
        for got, want in zip(ms, golden):
            assert got == pytest.approx(want, abs=1e-7)
        assert collinear11.bodies[0].position[0] == pytest.approx(-1.44194062, abs=1e-7)
        assert cc_residual(collinear11) <= 1e-9

    def test_equidistant_three_symmetry(self):
        c = solve_collinear_equidistant(3)
        assert c.bodies[0].mass == pytest.approx(c.bodies[2].mass, abs=1e-15)

    def test_equidistant_four_against_elimination_oracle(self):
        # hand elimination of the symmetric 2x2 system in exact rationals:
        # m1 = 63/296, m2 = 85/296, spacing h = (151/592)^(1/3)
        c = solve_collinear_equidistant(4)
        ms = [b.mass for b in c.bodies]
        assert ms[0] == pytest.approx(63.0 / 296.0, abs=1e-14)
        assert ms[1] == pytest.approx(85.0 / 296.0, abs=1e-14)
        h = c.bodies[2].position[0] - c.bodies[1].position[0]
        assert h == pytest.approx((151.0 / 592.0) ** (1.0 / 3.0), abs=1e-13)
        assert cc_residual(c) <= 1e-12

    def test_builder_outputs_are_central(self):
        builders = [
            build_rp3bp(0.11),
            build_equilateral(0.25, 0.4),
            build_rhomboid(1.3, 1.0),
            solve_collinear_equal(5),
            solve_collinear_equidistant(6),
            build_polygon(6, normalize=True),
        ]
        for c in builders:
            assert cc_residual(c) <= 1e-9, c.label


class TestPull:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_newton_jacobian_matches_a_central_difference(self, n):
        rng = np.random.default_rng(n)
        a = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.05, 0.05, n)
        jac = np.array(_collinear_equal_system(a.tolist(), 1.0 / n)[1])
        h = 1e-6
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (np.array(_collinear_equal_system((a + e).tolist(), 1.0 / n)[0])
                        - np.array(_collinear_equal_system((a - e).tolist(), 1.0 / n)[0])) / (2.0 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))

    @staticmethod
    def direct_pull(masses, pos):
        out = []
        for k, ak in enumerate(pos):
            terms = [m * (aj - ak) / math.dist(aj, ak) ** 3
                     for j, (m, aj) in enumerate(zip(masses, pos)) if j != k]
            out.append([math.fsum(t[0] for t in terms), math.fsum(t[1] for t in terms)])
        return np.array(out)

    @pytest.mark.parametrize("seed", range(6))
    def test_gravity_matches_a_direct_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        masses = rng.uniform(0.1, 1.0, n)
        pos = rng.normal(size=(n, 2))
        if seed == 1:
            pos[0] = 0.0  # a body at the origin
        if seed == 2:
            pos[:, 1] = 0.0  # a collinear configuration
        want = self.direct_pull(masses, pos)
        largest = np.max(np.hypot(want[:, 0], want[:, 1]))
        got = np.array(_gravity(masses.tolist(), [tuple(a) for a in pos.tolist()]))
        assert np.max(np.abs(got - want)) <= 1e-14 * largest


    @pytest.mark.parametrize("seed", range(4))
    def test_pull_matches_the_array_reference(self, seed):
        # the same formula pair by pair: hypot may round apart by an ulp
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        pos = rng.normal(size=(n, 2))
        (px, py), q = _pull([tuple(a) for a in pos.tolist()])
        (want_x, want_y), want_q = pull_reference(pos)
        for got, want in ((px, want_x), (py, want_y), (q, want_q)):
            np.testing.assert_allclose(np.array(got), want, rtol=1e-15, atol=0.0)
        line = np.sort(pos[:, 0])
        p_line, q_line = _pull(line.tolist())
        want_p, want_q = pull_reference(line)
        np.testing.assert_allclose(np.array(p_line), want_p, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(np.array(q_line), want_q, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_a_line_pulls_as_the_plane_on_its_axis(self, n):
        # on the axis hypot(dx, 0) is |dx|, so the line's p_x and q are the plane's
        # bit for bit, and the plane's p_y, which a line leaves out, is all zeros
        for chain in (solve_collinear_equal(n), solve_collinear_equidistant(max(n, 3))):
            xs = [b.position[0] for b in chain.bodies]
            p_line, q_line = _pull(xs)
            (px, py), q = _pull([(x, 0.0) for x in xs])
            assert [[v.hex() for v in row] for row in p_line] == \
                [[v.hex() for v in row] for row in px]
            assert [[v.hex() for v in row] for row in q_line] == \
                [[v.hex() for v in row] for row in q]
            assert all(v == 0.0 for row in py for v in row)


#: every builder, and a builder's output turned, relabelled and scaled
_BALANCED = {
    "rp3bp": lambda: build_rp3bp(0.3),
    "rp3bp-half": lambda: build_rp3bp(0.5),
    "equilateral": lambda: build_equilateral(0.2, 0.3),
    "rhomboid": lambda: build_rhomboid(1.2, 1.0),
    "collinear-equal": lambda: solve_collinear_equal(7),
    "collinear-equidistant": lambda: solve_collinear_equidistant(10),
    "polygon": lambda: build_polygon(16),
    "polygon-normalized": lambda: build_polygon(7, normalize=True),
    "turned-relabelled-scaled": lambda: scale(rotate(CentralConfiguration(
        build_equilateral(0.2, 0.3).bodies[::-1]), 0.7), 3.0),
}


class TestArrayReferences:
    """The list code against the numpy arrays it replaced, in references.py."""

    @pytest.mark.parametrize("name", sorted(_BALANCED))
    def test_balance_matches_the_array_reference(self, name):
        config = _BALANCED[name]()
        (max_norm, lam, fit), (want_norm, want_lam, want_fit) = balance(config), \
            balance_reference(config)
        # the residuals are sums that cancel to rounding: they agree to the rounding of g
        r_max = max(math.hypot(*b.position) for b in config.bodies)
        assert lam == pytest.approx(want_lam, rel=1e-14)
        assert abs(max_norm - want_norm) <= 1e-14 * (r_max + abs(lam) * r_max)
        assert abs(fit - want_fit) <= 1e-14

    @staticmethod
    def _assert_same_chain(got, want):
        # each mass and abscissa within 1e-14 relative; a body at the origin exactly there
        assert len(got.bodies) == len(want.bodies)
        for g, w in zip(got.bodies, want.bodies):
            assert g.mass == pytest.approx(w.mass, rel=1e-14, abs=0.0)
            assert g.position[0] == pytest.approx(w.position[0], rel=1e-14, abs=0.0)
            assert g.position[1] == w.position[1] == 0.0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_collinear_equal_matches_the_array_reference(self, n):
        self._assert_same_chain(solve_collinear_equal(n), collinear_equal_reference(n))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_collinear_equidistant_matches_the_array_reference(self, n):
        self._assert_same_chain(solve_collinear_equidistant(n), collinear_equidistant_reference(n))

    def test_equidistant_three_is_the_minimum_norm_split(self):
        # any symmetric split balances the middle body; the least-norm one is (12, 5, 12)/29
        masses = [b.mass for b in solve_collinear_equidistant(3).bodies]
        assert masses == pytest.approx([12.0 / 29.0, 5.0 / 29.0, 12.0 / 29.0], rel=1e-15)
        assert masses == pytest.approx([b.mass for b in collinear_equidistant_reference(3).bodies],
                                       rel=1e-15)


class TestReflectionSymmetry:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: build_rp3bp(0.37),
            lambda: build_rhomboid(1.25, 1.0),
            lambda: solve_collinear_equal(5),
        ],
    )
    def test_horizontal_axis_moments_vanish(self, maker):
        c = maker()
        m, pos = mass_array(c), position_array(c)
        r = np.hypot(pos[:, 0], pos[:, 1])
        for j in range(0, 9):
            assert abs(float(np.dot(m, pos[:, 1] * r**j))) <= 1e-13


class TestJsonInterface:
    def test_round_trip(self, tmp_path, rp3bp_03):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(configuration_to_dict(rp3bp_03)))
        again = load_configuration(path)
        assert again == rp3bp_03

    @pytest.mark.parametrize("position", [[0.5, 0.0, 7.0], [0.5]])
    def test_position_must_have_two_coordinates(self, position):
        data = {"bodies": [{"mass": 0.5, "position": position},
                           {"mass": 0.5, "position": [-0.5, 0.0]}]}
        with pytest.raises(ConfigError, match="2-vector"):
            load_configuration(data)

    @pytest.mark.parametrize("body, message", [
        ({"mass": 0.5, "position": "12"}, "JSON array"),
        ({"mass": 0.5, "position": {"x": 1.0, "y": 2.0}}, "JSON array"),
        ({"mass": 0.5, "position": ["0.5", 0.0]}, "JSON number"),
        ({"mass": 0.5, "position": [True, 0.0]}, "JSON number"),
        ({"mass": "0.5", "position": [0.5, 0.0]}, "JSON number"),
        ({"mass": True, "position": [0.5, 0.0]}, "JSON number"),
    ], ids=["position-string", "position-object", "coordinate-string", "coordinate-bool",
            "mass-string", "mass-bool"])
    def test_masses_and_positions_must_be_json_numbers(self, body, message):
        # the string "12" was loaded as the position (1.0, 2.0), and "0.5" or
        # true as a mass
        data = {"bodies": [body, {"mass": 0.5, "position": [-0.5, 0.0]}]}
        with pytest.raises(ConfigError, match=message):
            load_configuration(data)

    @pytest.mark.parametrize("body", [{"mass": 10**400, "position": [0.5, 0.0]},
                                      {"mass": 0.5, "position": [-(10**400), 0.0]}],
                             ids=["mass", "coordinate"])
    def test_an_integer_beyond_a_double_is_a_config_error(self, body):
        data = {"bodies": [body, {"mass": 0.5, "position": [-0.5, 0.0]}]}
        with pytest.raises(ConfigError, match="beyond the range of a double"):
            load_configuration(data)

    @pytest.mark.parametrize("label", [None, 12, ["a"]], ids=["null", "number", "array"])
    def test_a_label_must_be_a_json_string(self, label):
        # str() once read null as the label "None" and 12 as "12"
        bodies = [{"mass": 0.5, "position": [0.5, 0.0]}, {"mass": 0.5, "position": [-0.5, 0.0]}]
        with pytest.raises(ConfigError, match=r"label must be a JSON string, got "):
            load_configuration({"label": label, "bodies": bodies})
        assert load_configuration({"bodies": bodies}).label == ""

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bodies": [{"mass": 1.0}]}))
        with pytest.raises(ConfigError):
            load_configuration(path)

    def test_bad_mass_normalization(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "label": "x",
                    "bodies": [
                        {"mass": 0.5, "position": [1.0, 0.0]},
                        {"mass": 0.6, "position": [-0.5, 0.0]},
                    ],
                }
            )
        )
        with pytest.raises(ConfigError):
            load_configuration(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_configuration(path)
