import argparse
import ast
import gc
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import melsplit
from melsplit import catalog, cli, dynamics, harmonics, melnikov, quadrature
from melsplit.cli import main
from melsplit.config import build_polygon, configuration_to_dict, load_configuration, scale
from melsplit.errors import NumericalFailure
from melsplit.quadrature import named_integrand
from quadrature_oracles import (PAPER_INTEGRANDS, eval_polynomial, f4_integrand, f61_integrand,
                                f62_integrand)
from references import c_coeffs, d_coeffs, leading_splitting
from references import d_l as reference_d_l


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def rp3bp_file(tmp_path, capsys):
    path = tmp_path / "rp3bp.json"
    code = main(["config", "build", "rp3bp", "--mu", "0.3", "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


@pytest.fixture()
def quadrature_calls(monkeypatch):
    """(integrand, tol) of every oscillatory quadrature a command runs, read at the pass."""
    calls = []
    outcomes = quadrature._outcomes
    monkeypatch.setattr(quadrature, "_outcomes",
                        lambda fs, tol: calls.extend([(f, tol) for f in fs]) or outcomes(fs, tol))
    return calls


@pytest.fixture()
def cli_quadrature_calls(monkeypatch):
    """(integrand, tol) of every oscillatory quadrature that ``cli`` runs itself.

    A handler imports the engine from ``quadrature`` when it runs, so the
    patch goes there; it records each integrand as the engine takes it.
    """
    calls = []
    engine = quadrature.eval_oscillatory_list
    monkeypatch.setattr(quadrature, "eval_oscillatory_list",
                        lambda fs, tol: engine((calls.append((f, tol)) or f for f in fs), tol))
    return calls


class TestConfigCommands:
    def test_build_and_validate(self, capsys, rp3bp_file):
        code, out, _ = run(capsys, "config", "validate", rp3bp_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["max_norm"] <= 1e-13
        assert payload["lambda"] == pytest.approx(1.0)

    @pytest.mark.parametrize("bodies, valid", [
        # not central at any scale: the fit leaves 0.092 of the largest pull
        ([(0.5, (1.0, 0.0)), (0.25, (-1.0, 1.0)), (0.25, (-1.0, -1.0))], False),
        # central, scaled so that the pull is 1e10 times that of side 1
        ([(b.mass, b.position) for b in
          scale(melsplit.build_equilateral(0.2, 0.3), 1e-5).bodies], True),
        # a unit square rotates with lambda = (1 + 2 sqrt 2)/16, not 1
        ([(b.mass, b.position) for b in melsplit.build_polygon(5).bodies], True),
    ], ids=["not-central", "equilateral-1e-5", "square"])
    def test_validate_tests_centrality(self, capsys, tmp_path, bodies, valid):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bodies": [{"mass": m, "position": list(p)} for m, p in bodies]}))
        code, out, _ = run(capsys, "config", "validate", str(path))
        assert code == (0 if valid else 1)
        assert json.loads(out)["valid"] is valid

    def test_validate_refuses_a_position_with_three_coordinates(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bodies": [{"mass": 0.5, "position": [0.5, 0.0, 7.0]},
                                               {"mass": 0.5, "position": [-0.5, 0.0]}]}))
        code, out, err = run(capsys, "config", "validate", str(path))
        assert (code, out) == (1, "")
        assert "2-vector" in err

    @pytest.mark.parametrize("body", [{"mass": 0.5, "position": "12"},
                                      {"mass": "0.5", "position": [0.5, 0.0]},
                                      {"mass": True, "position": [0.5, 0.0]}],
                             ids=["position-string", "mass-string", "mass-bool"])
    def test_validate_refuses_values_that_are_not_json_numbers(self, capsys, tmp_path, body):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bodies": [body, {"mass": 0.5, "position": [-0.5, 0.0]}]}))
        code, out, err = run(capsys, "config", "validate", str(path))
        assert (code, out) == (1, "")
        assert "JSON" in err

    @pytest.mark.parametrize("label", [None, 12, ["a"]], ids=["null", "number", "array"])
    def test_validate_refuses_a_label_that_is_not_a_json_string(self, capsys, tmp_path,
                                                               rp3bp_file, label):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(json.loads(Path(rp3bp_file).read_text()), label=label)))
        code, out, err = run(capsys, "config", "validate", str(path))
        assert (code, out, err) == (1, "", f"error: label must be a JSON string, got {label!r}\n")

    @pytest.mark.parametrize("command", ["config validate", "classify"])
    @pytest.mark.parametrize("body", ['{"mass": 1%s, "position": [0.5, 0.0]}' % ("0" * 400),
                                      '{"mass": 0.5, "position": [1%s, 0.0]}' % ("0" * 400)],
                             ids=["mass-1e400", "coordinate-1e400"])
    def test_an_integer_beyond_a_double_is_a_usage_error(self, capsys, tmp_path, command, body):
        # float(10**400) raised OverflowError, which exited 2 as a numerical failure
        path = tmp_path / "c.json"
        path.write_text('{"bodies": [%s, {"mass": 0.5, "position": [-0.5, 0.0]}]}' % body)
        code, out, err = run(capsys, *command.split(), str(path))
        assert (code, out) == (1, "")
        assert "beyond the range of a double" in err

    def test_validate_forms_the_pull_once(self, capsys, monkeypatch, rp3bp_file):
        from melsplit import config

        calls = []
        pull = config._pull
        monkeypatch.setattr(config, "_pull", lambda pos: calls.append(pos) or pull(pos))
        code, out, _ = run(capsys, "config", "validate", rp3bp_file)
        assert code == 0 and json.loads(out)["valid"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("a, b", [(2.0**400, 2.0**400), (1.2 * 2.0**-400, 2.0**-400)],
                             ids=["legs-2^400", "legs-1.2*2^-400"])
    def test_rhomboid_at_any_leg_size_builds_the_unit_leg_shape(self, capsys, a, b):
        # the legs 1e120 overflowed in (a^2 + b^2)^3, and 1e-120 underflowed to
        # a "negative radicand"
        code, out, _ = run(capsys, "config", "build", "rhomboid", "--a", repr(a), "--b", repr(b))
        _, unit, _ = run(capsys, "config", "build", "rhomboid", "--a", repr(a / b), "--b", "1")
        assert code == 0
        assert json.loads(out)["bodies"] == json.loads(unit)["bodies"]

    def test_build_writes_parseable_json(self, capsys):
        code, out, _ = run(capsys, "config", "build", "polygon", "--n", "5")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["bodies"]) == 4

    def test_unknown_builder_is_usage_error(self, capsys):
        code, _, err = run(capsys, "config", "build", "nonsense")
        assert code == 1

    def test_invalid_config_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "label": "bad",
                    "bodies": [
                        {"mass": 0.5, "position": [1.0, 0.0]},
                        {"mass": 0.6, "position": [-0.5, 0.0]},
                    ],
                }
            )
        )
        code, _, err = run(capsys, "coeffs", str(bad))
        assert code == 1
        assert "error" in err


class TestCoeffsAndClassify:
    def test_coeffs_payload(self, capsys, rp3bp_file):
        code, out, _ = run(capsys, "coeffs", rp3bp_file, "--lmax", "2", "--jmax", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["c"][1] == pytest.approx(0.63)
        assert payload["d"][0] == pytest.approx(0.252)
        assert payload["d_l"]["1"][0] == pytest.approx(0.084)
        assert "2" in payload["harmonic_tables"]

    def test_classify_payload(self, capsys, rp3bp_file):
        code, out, _ = run(capsys, "classify", rp3bp_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "transversal"
        assert payload["witness"]["k"] == 1
        assert payload["witness"]["epsilon_order"] == 6

    def test_classify_polygon_seven(self, tmp_path, capsys):
        path = tmp_path / "hexagon.json"
        code = main(["config", "build", "polygon", "--n", "7", "-o", str(path)])
        capsys.readouterr()
        assert code == 0
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["witness"]["k"] == 6
        assert payload["witness"]["epsilon_order"] == 12
        # the hexagon's order 6 leaves only k = 6, 12, ...: the first entry read decides
        assert payload["symmetry_order"] == 6
        assert len(payload["trace"]) == 1
        *zeros, last = payload["trace"]
        assert last["decision"] == "nonzero" and last["margin"] > 1.0
        assert all(t["decision"] == "zero" and t["margin"] <= 1.0 for t in zeros)

    def test_classify_default_cutoff_needs_no_jmax(self, tmp_path, capsys):
        # 2N + 4 would be 66 for 31 bodies; the default is clamped to 64
        path = tmp_path / "polygon32.json"
        assert main(["config", "build", "polygon", "--n", "32", "-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        payload = json.loads(out)
        assert (payload["witness"]["k"], payload["witness"]["epsilon_order"]) == (31, 62)


class TestSampling:
    def test_fplot_csv_shape(self, capsys):
        code, out, _ = run(capsys, "fplot", "F4", "--range", "0", "1", "--points", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta_tilde,value,error_estimate"
        assert len(lines) == 6

    @pytest.mark.parametrize("name", ["F4", "F61", "F62"])
    def test_fplot_names_print_the_literal_oracle(self, capsys, name):
        # the engine's value, byte for byte, on a grid with theta = 0 as a
        # node, and within both estimates of the paper's printed integrand
        code, out, _ = run(capsys, "fplot", name, "--range", "-1", "2", "--points", "7")
        assert code == 0
        rows = ["theta_tilde,value,error_estimate"]
        for tt in (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0):
            res = melsplit.eval_oscillatory(named_integrand(name)(tt), 1e-10)
            oracle = eval_polynomial(PAPER_INTEGRANDS[name](tt), 1e-10)
            assert abs(res.value - oracle.value) <= res.error_estimate + oracle.error_estimate
            rows.append(",".join(format(v, ".16e") for v in (tt, res.value, res.error_estimate)))
        assert out == "\n".join(rows) + "\n"
        assert out.splitlines()[3] == ",".join(["0.0000000000000000e+00"] * 3)

    def test_fplot_polygon(self, capsys):
        code, out, _ = run(
            capsys, "fplot", "poly:7", "--range", "0.5", "1.0", "--points", "3"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_melnikov_orders(self, capsys, rp3bp_file):
        for order in ("4", "6"):
            code, out, _ = run(
                capsys,
                "melnikov",
                "--order", order,
                "--theta0", "1.0",
                "--eps", "0.5",
                "--config", rp3bp_file,
                "--points", "4",
            )
            assert code == 0
            assert out.splitlines()[0] == "s0,value"

    def test_melnikov_polygon_needs_no_config(self, capsys):
        code, out, _ = run(
            capsys, "melnikov", "--order", "poly:7", "--theta0", "1.0",
            "--eps", "0.5", "--points", "4",
        )
        assert code == 0

    def test_melnikov_bad_order(self, capsys):
        for order in ("5", "2", "130", "poly:3"):
            code, _, err = run(
                capsys, "melnikov", "--order", order, "--theta0", "1.0", "--eps", "0.5"
            )
            assert code == 1 and err.startswith("error:")

    def test_melnikov_higher_order(self, capsys, rp3bp_file):
        code, out, _ = run(capsys, "melnikov", "--order", "8", "--config", rp3bp_file,
                           "--theta0", "1", "--eps", "0.5", "--points", "4")
        assert code == 0
        # the order at theta_tilde = theta0/eps times eps^-10, which a power of two scales exactly
        terms = melsplit.splitting_terms(melsplit.load_configuration(rp3bp_file), 8, 2.0)
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert [value for _, value in rows] == [2.0**10 * terms.value(s0) for s0, _ in rows]
        assert len(rows) == 4

    def test_highest_orders_evaluate(self, capsys, rp3bp_file):
        # the pole factor of the order-128 terms overflows far out on the contour
        code, out, _ = run(capsys, "melnikov", "--order", "128", "--config", rp3bp_file,
                           "--theta0", "1", "--eps", "0.5", "--points", "4")
        assert code == 0
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert len(rows) == 4 and all(np.isfinite(rows).all(axis=1))
        code, out, _ = run(capsys, "fplot", "poly:65", "--range", "-2", "3", "--points", "6")
        assert code == 0
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert len(rows) == 6 and all(np.isfinite(rows).all(axis=1))

    def test_melnikov_epsilon_domain(self, capsys, rp3bp_file):
        for eps in ("0", "-0.5", "1.5"):
            code, out, err = run(
                capsys, "melnikov", "--order", "4", "--theta0", "1.0",
                "--eps", eps, "--config", rp3bp_file,
            )
            assert code == 1 and out == ""
            assert err.startswith("error: epsilon")
        # epsilon = 1 is valid
        code, _, _ = run(capsys, "melnikov", "--order", "poly:5", "--theta0", "1.0",
                         "--eps", "1.0", "--points", "2")
        assert code == 0

    def test_integrate_epsilon_domain(self, capsys, rp3bp_file):
        for eps in ("2", "1e300", "0"):
            code, out, err = run(capsys, "integrate", "--config", rp3bp_file, "--eps", eps,
                                 "--state", "0.3", "0.05", "0", "1", "--tspan", "0", "1")
            assert code == 1 and out == ""
            assert err.startswith("error: epsilon must lie in (0, 1]")

    def test_melnikov_zero_epsilon_no_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(Path(melsplit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "melsplit.cli", "melnikov", "--order", "poly:5",
             "--theta0", "1.0", "--eps", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    def test_melnikov_evaluates_each_f_once(self, capsys, quadrature_calls, rp3bp_file):
        for order, quadratures in (("4", 1), ("6", 2), ("poly:7", 1)):
            quadrature_calls.clear()
            code, out, _ = run(capsys, "melnikov", "--order", order, "--theta0", "-1.0",
                               "--eps", "0.5", "--config", rp3bp_file, "--points", "64")
            assert code == 0 and len(out.splitlines()) == 65
            assert len(quadrature_calls) == quadratures

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "fplot", "F61", "--range", "-1", "1", "--points", "7")
        _, second, _ = run(capsys, "fplot", "F61", "--range", "-1", "1", "--points", "7")
        assert first == second

    def test_asymp_tables(self, capsys, rp3bp_file):
        code, out, _ = run(capsys, "asymp", "ik", "--k", "2", "--deltas", "10", "20")
        assert code == 0
        assert out.splitlines()[0] == "delta,ik_quadrature,ik_asymptotic,ratio"
        code, out, _ = run(capsys, "asymp", "recurrence", "--k", "3", "--deltas", "5")
        assert code == 0
        rel = float(out.strip().splitlines()[-1].split(",")[-1])
        assert rel <= 1e-8
        code, out, _ = run(
            capsys, "asymp", "leading", "--config", rp3bp_file,
            "--theta0", "1.0", "--eps", "0.3", "--points", "4",
        )
        assert code == 0
        assert out.splitlines()[0] == "s0,m4_leading,m6_leading"

    def test_asymp_recurrence_reads_two_exact_zeros_as_agreement(self, capsys, monkeypatch):
        # at delta = 0 both J_(k+2) and the identity value are exactly 0
        code, out, _ = run(capsys, "asymp", "recurrence", "--k", "40", "--deltas", "0")
        assert code == 0
        assert out.splitlines()[1].split(",") == ["0.0000000000000000e+00"] * 4
        # a nonzero J against a zero identity value has no relative error
        outcomes = quadrature._outcomes

        def zero_ik(integrands, tol):  # I_k has no z in its numerator, J_k has
            return [melsplit.QuadratureResult(0.0, 0.0, 0) if f.alpha == 0 else res
                    for f, res in zip(integrands, outcomes(integrands, tol))]

        monkeypatch.setattr(quadrature, "_outcomes", zero_ik)
        code, out, _ = run(capsys, "asymp", "recurrence", "--k", "40", "--deltas", "1")
        assert code == 0
        assert out.splitlines()[1].split(",")[-1] == "nan"

    @pytest.mark.parametrize("theta0", ["1.0", "-1.0"])
    def test_asymp_leading_columns_are_the_leading_terms(self, capsys, rp3bp_file, theta0):
        code, out, _ = run(capsys, "asymp", "leading", "--config", rp3bp_file,
                           "--theta0", theta0, "--eps", "0.25", "--points", "8")
        assert code == 0
        config = load_configuration(rp3bp_file)
        for line in out.splitlines()[1:]:
            s0, m4, m6 = (float(v) for v in line.split(","))
            assert m4 == leading_splitting(config, 4, float(theta0), 0.25, s0)
            assert m6 == leading_splitting(config, 6, float(theta0), 0.25, s0)


@pytest.mark.parametrize("argv, code", [
    (("asymp", "ik", "--k", "300", "--deltas", "10"), 0),
    (("asymp", "leading", "--config", "{config}", "--eps", "0"), 1),
], ids=["ik-large-order", "leading-zero-epsilon"])
def test_asymp_exits_without_traceback(rp3bp_file, argv, code):
    env = dict(os.environ, PYTHONPATH=str(Path(melsplit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "melsplit.cli", *(a.format(config=rp3bp_file) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert all(math.isfinite(float(v)) for v in proc.stdout.splitlines()[1].split(","))


@pytest.mark.parametrize("argv", [
    ("melnikov", "--order", "poly:4", "--theta0", "1e-100", "--eps", "1", "--points", "2"),
    ("melnikov", "--order", "4", "--config", "{config}", "--theta0", "1e-100", "--eps", "1",
     "--points", "2"),
    ("splitting", "--config", "{config}", "--theta0", "1e-100", "--eps", "1", "--points", "2"),
    ("asymp", "leading", "--config", "{config}", "--theta0", "1e-100", "--eps", "1"),
    ("melnikov", "--order", "poly:4", "--theta0", "1e300", "--eps", "1", "--points", "2"),
    ("fplot", "F4", "--range", "1e200", "1e200", "--points", "1"),
    ("fplot", "F4", "--range", "5e102", "5e102", "--points", "1"),
    ("integrate", "--config", "{config}", "--eps", "1e300", "--state", "0.3", "0.05", "0", "1",
     "--tspan", "0", "1"),
    ("melnikov", "--order", "6", "--config", "{config}", "--theta0", "1e-40", "--eps", "1",
     "--points", "2"),
    ("splitting", "--config", "{config}", "--theta0", "-1e-40", "--eps", "1", "--points", "2"),
    ("asymp", "leading", "--config", "{config}", "--theta0", "1e-40", "--eps", "1"),
    ("melnikov", "--order", "poly:10", "--theta0", "1e-16", "--eps", "1", "--points", "2"),
], ids=["melnikov-poly-tiny-theta0", "melnikov-tiny-theta0", "splitting-tiny-theta0",
        "leading-tiny-theta0", "melnikov-huge-theta0", "fplot-huge-theta",
        "fplot-overflowing-phase-scale", "integrate-huge-eps", "melnikov-subnormal-theta0-power",
        "splitting-subnormal-theta0-power", "leading-subnormal-theta0-power",
        "melnikov-poly-subnormal-theta0-power"])
def test_out_of_range_magnitudes_are_numerical_failures(rp3bp_file, argv):
    # division by zero and overflow are arithmetic errors: exit 2, not a traceback;
    # a prefactor 2^(j+1)/theta0^(2j+2) that overflows to inf is an overflow, not
    # a row of inf * 0 = nan; the flow's epsilon outside (0, 1] is refused up
    # front, a usage error
    env = dict(os.environ, PYTHONPATH=str(Path(melsplit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "melsplit.cli", *(a.format(config=rp3bp_file) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    want = cli.EXIT_USAGE if argv[0] == "integrate" else cli.EXIT_NUMERICAL
    assert proc.returncode == want
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, order", [
    (("melnikov", "--order", "poly:4", "--theta0", "1e-100", "--eps", "1", "--points", "2"), 6),
    (("splitting", "--config", "{config}", "--theta0", "1e-100", "--eps", "1", "--points", "2"),
     4),
    (("asymp", "leading", "--config", "{config}", "--theta0", "1e-100", "--eps", "1"), 4),
    (("melnikov", "--order", "6", "--config", "{config}", "--theta0", "1e-40", "--eps", "1",
      "--points", "2"), 6),
    (("melnikov", "--order", "poly:10", "--theta0", "1e-16", "--eps", "1", "--points", "2"), 18),
    (("melnikov", "--order", "6", "--config", "{config}", "--theta0", "1e50", "--eps", "1",
      "--points", "2"), 6),
    (("melnikov", "--order", "poly:4", "--theta0", "-1e300", "--eps", "1", "--points", "2"), 6),
], ids=["melnikov-poly-theta0-power-underflows",
        "splitting-theta0-power-underflows", "leading-theta0-power-underflows",
        "melnikov-subnormal-theta0-power", "melnikov-poly-subnormal-theta0-power",
        "melnikov-theta0-power-overflows", "melnikov-poly-theta0-power-overflows"])
def test_a_prefactor_out_of_range_names_its_order(capsys, rp3bp_file, argv, order):
    # 2^(j+1)/theta_tilde^(2j+2) overflows, to inf or, where theta_tilde^(2j+2)
    # underflows to 0, as a division by zero; where theta_tilde^(2j+2)
    # overflows, it underflows: each an overflow that names the order and
    # theta_tilde, which is theta0 at eps = 1
    code, out, err = run(capsys, *(a.format(config=rp3bp_file) for a in argv))
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    assert err.startswith(f"numerical failure: order {order}") and err.count("\n") == 1
    assert f"theta_tilde = {float(argv[argv.index('--theta0') + 1])!r}" in err


@pytest.mark.parametrize("argv, message", [
    (("melnikov", "--order", "4", "--config", "{config}", "--theta0", "1e-80", "--eps", "1e-80"),
     "the gauge factor eps^-6 overflows at eps = 1e-80"),
    (("splitting", "--config", "{config}", "--theta0", "1e-200", "--eps", "1e-200"),
     "the gauge factor eps^-2 overflows at eps = 1e-200"),
    (("asymp", "leading", "--config", "{config}", "--theta0", "1e-300", "--eps", "1e-300"),
     "the gauge factor eps^-2 overflows at eps = 1e-300"),
    (("melnikov", "--order", "poly:4", "--theta0", "1e308", "--eps", "0.01"),
     "theta/eps overflows at theta = 1e+308, eps = 0.01"),
    (("integrate", "--config", "{config}", "--eps", "1e-10", "--state", "0.3", "0.05", "0",
      "1e300", "--tspan", "0", "1"), "theta/eps overflows at theta = 1e+300, eps = 1e-10"),
], ids=["melnikov", "splitting", "leading", "theta-tilde", "integrate-theta-tilde"])
def test_a_gauge_out_of_range_is_named(capsys, rp3bp_file, argv, message):
    # the library computes at theta_tilde = theta0/eps, where these values are
    # O(1); the factor eps^-(2j+2) (eps^-2 for a sum) that takes them back to
    # eps, or theta_tilde itself, leaves the double range
    code, out, err = run(capsys, *(a.format(config=rp3bp_file) for a in argv))
    assert (code, out, err) == (cli.EXIT_NUMERICAL, "", f"numerical failure: {message}\n")


def _fplot_process(*bounds, points="3"):
    # a subprocess, so that anything numpy warns about reaches stderr
    env = dict(os.environ, PYTHONPATH=str(Path(melsplit.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "melsplit.cli", "fplot", "F4", "--range", *bounds,
         "--points", points],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("lo, hi", [("inf", "inf"), ("0", "inf"), ("nan", "nan"), ("1", "nan")])
def test_fplot_bounds_that_are_not_finite_are_usage_errors(lo, hi):
    proc = _fplot_process(lo, hi)
    message = f"error: --range needs finite bounds, got {float(lo)!r} and {float(hi)!r}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_USAGE, "", message)


def test_fplot_values_below_the_double_range_are_numerical_failures():
    # F4 near exp(-1000) on [11, 12] once printed three rows of 0.0 +- 0.0 and exited 0
    proc = _fplot_process("11", "12")
    assert (proc.returncode, proc.stdout) == (cli.EXIT_NUMERICAL, "")
    assert proc.stderr.startswith("numerical failure: the value ")
    assert proc.stderr.endswith("lies outside the normal double range\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, scale", [
    (("asymp", "leading", "--config", "{config}", "--theta0", "12", "--eps", "1", "--points",
      "3"), 1728.0),
    (("asymp", "ik", "--k", "2", "--deltas", "2000"), 2000.0),
], ids=["leading", "ik"])
def test_leading_terms_below_the_double_range_are_numerical_failures(capsys, rp3bp_file, argv,
                                                                     scale):
    # at theta_tilde = 12 the order-4 column once read all 0.0 and the command exited 0
    code, out, err = run(capsys, *(a.format(config=rp3bp_file) for a in argv))
    assert (code, out) == (cli.EXIT_NUMERICAL, "")
    assert err == (f"numerical failure: the leading term 0.0 at phase scale {scale!r} lies "
                   "outside the normal double range\n")


@pytest.mark.parametrize("eps", [0.5, 0.3])
def test_eps_is_a_gauge_of_the_splitting(capsys, rp3bp_file, eps):
    # the order 2j at (theta0, eps) is eps^-(2j+2) times the order at
    # (theta0/eps, 1), and the sums of splitting and asymp leading eps^-2 times theirs
    def values(argv, theta0, e):
        code, out, _ = run(capsys, *argv, "--theta0", repr(theta0), "--eps", repr(e))
        assert code == 0
        return [float(v) for line in out.splitlines()[1:] for v in line.split(",")[1:]]

    config = ["--config", rp3bp_file]
    cases = [(["melnikov", "--order", order, "--points", "16", *c],
              2 * melnikov.legendre_order(order) + 2)
             for order, c in (("4", config), ("6", config), ("poly:7", []))]
    cases += [(["splitting", *config, "--points", "8"], 2),
              (["asymp", "leading", *config, "--points", "8"], 2)]
    for argv, power in cases:
        for theta0 in (0.6, -0.45):
            got, one = values(argv, theta0, eps), values(argv, theta0 / eps, 1.0)
            size = max(map(abs, got))
            assert len(got) == len(one) and size > 0.0
            assert all(abs(a - eps**-power * b) <= 1e-13 * size for a, b in zip(got, one))


@pytest.mark.parametrize("lo, hi, points", [
    ("1e308", "-1e308", "3"),
    ("-1.7976931348623157e308", "1.7976931348623157e308", "7"),
])
def test_fplot_ranges_whose_width_overflows_are_numerical_failures(lo, hi, points):
    proc = _fplot_process(lo, hi, points=points)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_NUMERICAL, "")
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1


def _fplot_nodes(capsys, monkeypatch, lo, hi, points):
    # the grid alone: every node gets a zero value
    monkeypatch.setattr(quadrature, "named_integrand", lambda name: lambda tt: tt)
    monkeypatch.setattr(quadrature, "_outcomes",
                        lambda tts, tol: [melsplit.QuadratureResult(0.0, 0.0, 0)] * len(tts))
    code, out, err = run(capsys, "fplot", "F4", "--range", lo, hi, "--points", points)
    assert (code, err) == (0, "")
    return [float(row.split(",")[0]) for row in out.splitlines()[1:]]


def test_fplot_nodes_stay_finite_when_the_width_overflows(capsys, monkeypatch):
    m = sys.float_info.max
    assert _fplot_nodes(capsys, monkeypatch, "1e308", "-1e308", "3") == [1e308, 0.0, -1e308]
    nodes = _fplot_nodes(capsys, monkeypatch, repr(-m), repr(m), "1001")
    assert all(map(math.isfinite, nodes)) and nodes[0] == -m and nodes[-1] == m
    assert nodes == sorted(nodes)


@pytest.mark.parametrize("lo, hi, points", [
    ("-2.5", "7", "9"), ("0.1", "0.3", "11"), ("1e-320", "3e-320", "4"), ("3", "-1e300", "6"),
    ("-8.9e307", "8.9e307", "5"), ("2", "2", "3"), ("1", "5", "1"),
])
def test_fplot_nodes_of_a_finite_width_are_linspace_bit_for_bit(capsys, monkeypatch,
                                                                 lo, hi, points):
    want = np.linspace(float(lo), float(hi), int(points))
    got = _fplot_nodes(capsys, monkeypatch, lo, hi, points)
    assert [v.hex() for v in got] == [float(v).hex() for v in want]


@pytest.fixture()
def collinear11_file(tmp_path, capsys):
    path = tmp_path / "collinear11.json"
    assert main(["config", "build", "collinear-equidistant", "--n", "10", "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize("bounds", [("-3", "0"), ("0", "6"), ("4", "1"), ("32", "6"),
                                    ("1200", "6")],
                         ids=["both", "lmax", "jmax", "lmax-32", "lmax-1200"])
def test_coeffs_bounds_are_usage_errors(capsys, collinear11_file, bounds):
    # d_l is read at order 2l + 1 <= 64, so --lmax stops at 31
    code, out, err = run(capsys, "coeffs", collinear11_file,
                         "--lmax", bounds[0], "--jmax", bounds[1])
    assert code == 1 and out == ""
    assert err.startswith("error: need --lmax >= 1 and --jmax >= 2, and --lmax <= 31")


def test_coeffs_reads_d_l_up_to_order_63(capsys, collinear11_file):
    code, out, _ = run(capsys, "coeffs", collinear11_file, "--lmax", "31")
    assert code == 0

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    d_l = json.loads(out, parse_constant=reject)["d_l"]
    assert list(d_l) == [str(l) for l in range(1, 32)]
    config = load_configuration(collinear11_file)
    for l in (1, 2, 31):
        # the chain is symmetric, so each d_l is a rounding residue of its weight sum m r^(2l+1)
        weight = sum(b.mass * abs(b.position[0]) ** (2 * l + 1) for b in config.bodies)
        assert d_l[str(l)] == pytest.approx(list(reference_d_l(config, l)), abs=1e-14 * weight)


@pytest.fixture()
def polygon16_1e5_file(tmp_path):
    # weight sum m r^j = (15/16) 1e(5j): finite up to order 61, not at 62
    path = tmp_path / "polygon16-1e5.json"
    path.write_text(json.dumps(configuration_to_dict(scale(build_polygon(16), 1e5))))
    return str(path)


@pytest.mark.parametrize("jmax, code", [("64", 2), ("61", 0)])
def test_coeffs_refuses_an_overflowing_order(capsys, polygon16_1e5_file, jmax, code):
    # once printed bare NaN tokens with exit 0, after numpy's overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, "coeffs", polygon16_1e5_file, "--jmax", jmax)
    assert got == code and "RuntimeWarning" not in err
    if code:
        assert out == "" and err == ("numerical failure: the order-62 weight sum_i m_i r_i^62 "
                                     "overflows\n")
    else:
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        assert list(json.loads(out, parse_constant=reject)["harmonic_tables"])[-1] == "61"


def test_integrate_start_outside_is_bad_input_before_an_overflowing_field(
        capsys, polygon16_1e5_file):
    # the convergence guard runs before the field reads the tables up to order 64
    code, out, err = run(capsys, "integrate", "--config", polygon16_1e5_file, "--eps", "1",
                         "--state", "0.5", "0", "0", "1", "--tspan", "0", "1",
                         "--truncation", "131")
    assert code == 1 and out == ""
    assert err == "error: x = 0.5 lies outside the series convergence region\n"


@pytest.mark.parametrize("jmax", ["65", "70", "1000"])
def test_coeffs_beyond_the_largest_order_name_the_requested_order(capsys, rp3bp_file, jmax):
    # refused before any table is built, not at the first order past 64
    code, out, err = run(capsys, "coeffs", rp3bp_file, "--jmax", jmax)
    assert code == 1 and out == ""
    assert err == f"error: harmonic tables stop at order 64, got j_max = {jmax}\n"


@pytest.mark.parametrize("argv", [
    ("melnikov", "--order", "poly:5", "--theta0", "1.0", "--eps", "0.5", "--points", "0"),
    ("fplot", "F4", "--points", "0"),
    ("splitting", "--config", "{config}", "--eps", "0.5", "--theta0", "1.0", "--points", "-3"),
    ("asymp", "leading", "--config", "{config}", "--points", "0"),
    ("integrate", "--config", "{config}", "--eps", "0.5", "--state", "0.3", "0.05", "0", "1",
     "--tspan", "0", "5", "--samples", "0"),
], ids=["melnikov", "fplot", "splitting", "asymp-leading", "integrate"])
def test_counts_below_one_are_usage_errors(capsys, rp3bp_file, argv):
    code, out, err = run(capsys, *(a.format(config=rp3bp_file) for a in argv))
    assert code == 1 and out == ""
    assert "error: argument" in err and "at least 1" in err


@pytest.mark.parametrize("argv, exponent, plain", [
    (("melnikov", "--order", "poly:5", "--eps", "0.5", "--points", "4", "--theta0"),
     ("-1e-1",), ("-0.1",)),
    (("splitting", "--config", "{config}", "--eps", "0.5", "--points", "4", "--theta0"),
     ("-1E0",), ("-1.0",)),
    (("integrate", "--config", "{config}", "--eps", "0.5", "--tspan", "0", "1", "--samples", "3",
      "--state"), ("0.3", "-1e-3", "0", "1"), ("0.3", "-0.001", "0", "1")),
    (("fplot", "F4", "--points", "3", "--range"), ("-2.5e0", "1e0"), ("-2.5", "1")),
], ids=["melnikov", "splitting", "integrate", "fplot"])
def test_negative_numbers_in_exponent_form_are_values(capsys, rp3bp_file, argv, exponent, plain):
    argv = [a.format(config=rp3bp_file) for a in argv]
    code, out, err = run(capsys, *argv, *exponent)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *argv, *plain)


def test_negative_infinity_is_still_a_usage_error(capsys, rp3bp_file):
    code, out, _ = run(capsys, "integrate", "--config", rp3bp_file, "--eps", "0.5",
                       "--state", "0.3", "0.05", "0", "1", "--tspan", "0", "-inf")
    assert code == 1 and out == ""


@pytest.mark.parametrize("argv, forms", [
    (("fplot", "poly:x"), "F4 | F61 | F62 | poly:N with 4 <= N <= 65"),
    (("fplot", "G7"), "F4 | F61 | F62 | poly:N with 4 <= N <= 65"),
    (("melnikov", "--order", "poly:x", "--theta0", "1", "--eps", "0.5"),
     "2j with 2 <= j <= 64 or poly:N with 4 <= N <= 65"),
], ids=["fplot-poly-x", "fplot-G7", "melnikov-poly-x"])
def test_unknown_names_list_the_accepted_forms(capsys, argv, forms):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and forms in err and "invalid literal" not in err


class TestDynamicsCommands:
    def test_integrate_csv(self, capsys, rp3bp_file):
        code, out, _ = run(
            capsys,
            "integrate",
            "--config", rp3bp_file,
            "--eps", "0.5",
            "--state", "0.3", "0.05", "0.0", "1.0",
            "--tspan", "0", "5",
            "--samples", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,y,s,theta,H_D"
        assert len(lines) == 5

    @pytest.mark.parametrize("tspan", [("5", "0"), ("0", "0")], ids=["backward", "zero-length"])
    def test_integrate_span_direction(self, capsys, rp3bp_file, tspan):
        code, out, _ = run(capsys, "integrate", "--config", rp3bp_file, "--eps", "0.5", "--state",
                           "0.3", "0.05", "0.5", "1", "--tspan", *tspan, "--samples", "3")
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        t0, t1 = map(float, tspan)
        assert [r[0] for r in rows] == [t0, 0.5 * (t0 + t1), t1]
        assert rows[0][1:5] == [0.3, 0.05, 0.5, 1.0]
        if tspan[0] == tspan[1]:
            assert all(r == rows[0] for r in rows)

    @pytest.mark.parametrize("tspan, samples", [(("0", "0.7"), "13"), (("0.9", "0.1"), "7"),
                                                (("0.25", "0.5"), "1")])
    def test_integrate_sample_times_are_linspace_bit_for_bit(self, capsys, rp3bp_file, tspan,
                                                             samples):
        code, out, _ = run(capsys, "integrate", "--config", rp3bp_file, "--eps", "0.5", "--state",
                           "0.3", "0.05", "0.5", "1", "--tspan", *tspan, "--samples", samples)
        assert code == 0
        got = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        want = np.linspace(float(tspan[0]), float(tspan[1]), int(samples))
        assert [v.hex() for v in got] == [float(v).hex() for v in want]

    def test_integrate_blow_up_is_a_numerical_failure(self, capsys, monkeypatch, rp3bp_file):
        # y' = y^2 from y = 1 blows up at t = 1, with x (and the series guard) held fixed
        monkeypatch.setattr(dynamics, "_field",
                            lambda _params: lambda x, y, s, theta: (0.0, y * y, 0.0, 0.0))
        code, out, err = run(capsys, "integrate", "--config", rp3bp_file, "--eps", "0.5",
                             "--state", "0.3", "1", "0", "1", "--tspan", "0", "2")
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: step size fell below 10 ulp")

    @pytest.mark.parametrize("state, code, message", [
        (("0.5", "0.5", "0", "1"), 2, "numerical failure: x = 1.19"),
        (("3", "0", "0", "1"), 1, "error: x = 3.0 lies outside the series convergence region"),
    ], ids=["escape-mid-run", "start-outside"])
    def test_integrate_outside_the_convergence_region(self, rp3bp_file, state, code, message):
        # at eps = 1 the series for rp3bp(0.3) converges for x < 1/sqrt(0.7): a valid
        # start that runs out of it is a numerical failure, a start beyond it bad input
        env = dict(os.environ, PYTHONPATH=str(Path(melsplit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "melsplit.cli", "integrate", "--config", rp3bp_file,
             "--eps", "1", "--state", *state, "--tspan", "0", "50"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == code and proc.stdout == ""
        assert proc.stderr.startswith(message)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("state, tspan, code, message", [
        (("nan", "0", "0", "1"), ("0", "1"), 1, "error: state and span must be finite"),
        (("0.3", "0", "0", "inf"), ("0", "1"), 1, "error: state and span must be finite"),
        (("0.3", "0", "0", "1"), ("0", "nan"), 1, "error: state and span must be finite"),
        (("0.3", "0", "0", "1"), ("0", "inf"), 1, "error: state and span must be finite"),
        (("0.3", "0", "0", "1"), ("0", "1e300"), 2, "numerical failure: x = "),
        # the state as given, not scaled, and not with s mod 2 pi turning inf to nan
        (("0.3", "0.05", "inf", "1"), ("0", "1"), 1,
         "error: state and span must be finite, got state [0.3, 0.05, inf, 1.0]"),
        # theta^2 overflows in the field, so the first slope is infinite
        (("0.3", "0.05", "0", "1e300"), ("0", "1"), 2,
         "numerical failure: first step size 0.0 at t = 0.0: the slope's norm there is not finite"),
    ], ids=["nan-x", "inf-theta", "nan-end", "inf-end", "huge-end", "inf-s", "huge-theta"])
    def test_integrate_non_finite_input(self, rp3bp_file, state, tspan, code, message):
        # a NaN start once gave a NaN first step that the retry loop never left;
        # in a subprocess, so that a hang fails the test instead of stalling it
        env = dict(os.environ, PYTHONPATH=str(Path(melsplit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "melsplit.cli", "integrate", "--config", rp3bp_file,
             "--eps", "0.5", "--state", *state, "--tspan", *tspan],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == code and proc.stdout == ""
        assert proc.stderr.startswith(message)
        assert "Traceback" not in proc.stderr

    def test_integrate_help_asks_for_finite_input(self, capsys):
        code, out, _ = run(capsys, "integrate", "--help")
        assert code == 0
        assert "state and the span must be finite" in " ".join(out.split())

    def test_integrate_truncation_orders(self, capsys, rp3bp_file):
        argv = ("integrate", "--config", rp3bp_file, "--eps", "0.5", "--state", "0.3", "0.05",
                "0", "1", "--tspan", "0", "5", "--samples", "3", "--truncation")
        rows = {}
        for order in ("9", "13"):
            code, out, _ = run(capsys, *argv, order)
            assert code == 0
            rows[order] = [float(v) for line in out.splitlines()[1:] for v in line.split(",")]
        # the orders beyond 9 are small corrections: eps^13 x^12 and smaller
        assert rows["13"] != rows["9"]
        assert rows["13"] == pytest.approx(rows["9"], rel=1e-6, abs=1e-9)
        for order in ("5", "8", "133"):
            code, out, err = run(capsys, *argv, order)
            assert code == 1 and out == ""
            assert err.startswith("error: truncation order")

    def test_splitting_csv_with_compare(self, capsys, rp3bp_file):
        code, out, _ = run(
            capsys,
            "splitting",
            "--config", rp3bp_file,
            "--eps", "0.5",
            "--theta0", "1.0",
            "--points", "16",
            "--tol", "1e-7",
            "--compare",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s0,splitting,closed_form"
        cfg = melsplit.load_configuration(rp3bp_file)
        # at theta_tilde = theta0/eps = 2; eps^-2 = 4 takes the library's sum
        # of orders to the printed sum of eps^(2j) M_2j, and scales exactly
        terms = [melsplit.splitting_terms(cfg, order, 2.0, tol=1e-7) for order in (4, 6)]
        paper = [melsplit.splitting_terms(cfg, order, 2.0, tol=1e-10) for order in (4, 6)]
        sums = [melsplit.melnikov_sum(parts) for parts in (terms, paper)]
        bound = 4.0 * sum(err for m in (*terms, *paper) for *_, err in m.terms)
        # the merged sum rounds differently from the sum of the orders
        rounding = [4.0 * 4.0 * np.finfo(float).eps
                    * sum(abs(a) + abs(b) for m in parts for _, a, b, _ in m.terms)
                    for parts in (terms, paper)]
        # the paper's rows written out: 2/Theta0^6 F4 (c2 sin 2s - c3 cos 2s) and
        # 2/Theta0^8 [F61 (d2 cos s - d1 sin s) + F62 (d4 cos 3s - d3 sin 3s)], Theta0 = 1
        f4, f61, f62 = (eval_polynomial(build(2.0), 1e-10).value
                        for build in (f4_integrand, f61_integrand, f62_integrand))
        _, c2, c3 = c_coeffs(cfg)
        d1, d2, d3, d4 = d_coeffs(cfg)
        for line in lines[1:]:
            s0, value, closed_value = map(float, line.split(","))
            assert (value, closed_value) == (4.0 * sums[0].value(s0), 4.0 * sums[1].value(s0))
            for got, parts, slack in zip((value, closed_value), (terms, paper), rounding):
                by_order = 4.0 * (parts[0].value(s0) + parts[1].value(s0))
                assert abs(got - by_order) <= slack
            m4 = 2.0 * f4 * (c2 * math.sin(2 * s0) - c3 * math.cos(2 * s0))
            m6 = 2.0 * (f61 * (d2 * math.cos(s0) - d1 * math.sin(s0))
                        + f62 * (d4 * math.cos(3 * s0) - d3 * math.sin(3 * s0)))
            assert closed_value == pytest.approx(0.5**4 * m4 + 0.5**6 * m6, rel=1e-13, abs=1e-16)
            assert abs(value - closed_value) <= bound + 1e-15 * abs(closed_value)

    def test_splitting_compare_evaluates_each_f_once(
        self, capsys, quadrature_calls, cli_quadrature_calls, rp3bp_file
    ):
        code, out, _ = run(capsys, "splitting", "--config", rp3bp_file, "--eps", "0.5",
                           "--theta0", "1.0", "--points", "4", "--compare")
        assert code == 0 and len(out.splitlines()) == 5
        # F_(2,2), F_(3,1) and F_(3,3), at --tol for splitting and at 1e-10 for closed_form
        assert len(quadrature_calls) == 6
        assert sorted(tol for _, tol in quadrature_calls) == [1e-10] * 3 + [1e-9] * 3
        assert cli_quadrature_calls == []  # closed_form has no route of its own

    def test_splitting_engine_calls_do_not_grow_with_points(
        self, capsys, quadrature_calls, cli_quadrature_calls, rp3bp_file
    ):
        for points in ("1", "16"):
            quadrature_calls.clear()
            code, out, _ = run(capsys, "splitting", "--config", rp3bp_file, "--eps", "0.5",
                               "--theta0", "1.0", "--points", points)
            assert code == 0 and len(out.splitlines()) == int(points) + 1
            assert len(quadrature_calls) == 3  # one per harmonic: k = 2; k = 1 and 3
            assert cli_quadrature_calls == []

    def test_splitting_domain(self, capsys, rp3bp_file):
        for theta0, eps, message in (("1.0", "0", "error: epsilon"),
                                     ("1.0", "-0.5", "error: epsilon"),
                                     ("1.0", "2", "error: epsilon"),
                                     ("nan", "0.5", "error: need finite nonzero"),
                                     ("0", "0.5", "error: need finite nonzero")):
            code, out, err = run(capsys, "splitting", "--config", rp3bp_file,
                                 "--eps", eps, "--theta0", theta0, "--points", "2")
            assert code == 1 and out == ""
            assert err.startswith(message)

    def test_splitting_zero_epsilon_no_traceback(self, rp3bp_file):
        env = dict(os.environ, PYTHONPATH=str(Path(melsplit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "melsplit.cli", "splitting", "--config", rp3bp_file,
             "--eps", "0", "--theta0", "1.0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr


class TestCatalogCommand:
    def test_collinear8_passes(self, capsys):
        code, out, _ = run(capsys, "catalog", "collinear8")
        assert code == 0
        assert "PASS" in out

    def test_polygon_case(self, capsys):
        code, out, _ = run(capsys, "catalog", "polygon", "--n", "7")
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("argv", [
        ("equilateral", "--m1", "0.2", "--m2", "0.3"),
        ("rhomboid", "--a", "1.2", "--b", "1.0"),
        ("rp3bp", "--mu", "0.1"),
        ("polygon", "--n", "5"),
        ("polygon", "--n", "12"),
        ("polygon", "--n", "33"),
        ("rhomboid-roots",),
        ("collinear11",),
    ], ids=["equilateral-unequal", "rhomboid-unequal", "rp3bp-0.1", "polygon-5", "polygon-12",
            "polygon-33", "rhomboid-roots", "collinear11"])
    def test_non_default_cases_pass(self, capsys, argv):
        code, out, _ = run(capsys, "catalog", *argv)
        assert code == 0
        assert out.count("PASS") == 1 and "FAIL" not in out

    def test_rhombus_c2_meets_its_closed_form(self, capsys):
        code, out, _ = run(capsys, "catalog", "rhomboid", "--a", "1.2", "--b", "1.0")
        assert code == 0
        (row,) = [line.split(",") for line in out.splitlines() if line.startswith("c2,")]
        assert float(row[3]) == 1e-12 and row[4] == "ok"

    def test_a_polygon_case_builds_two_table_owners(self, monkeypatch):
        # one in classify and one that the constants and the polygon keys share
        calls = []
        angle_multiples = harmonics._angle_multiples
        monkeypatch.setattr(harmonics, "_angle_multiples",
                            lambda config: calls.append(config) or angle_multiples(config))
        catalog.build_case("polygon", n=8).compute()
        assert len(calls) == 2

    @pytest.mark.parametrize("n", ["34", "40"])
    def test_polygon_beyond_the_tables_is_refused_before_any_work(self, capsys, monkeypatch, n):
        # the selection rule reads orders up to 2N - 3, and the tables stop at 64
        monkeypatch.setattr(catalog.cfg, "build_polygon", lambda *a, **k: pytest.fail("built"))
        monkeypatch.setattr(catalog, "classify", lambda *a, **k: pytest.fail("classified"))
        code, out, err = run(capsys, "catalog", "polygon", "--n", n)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "4 <= N <= 33" in err and f"N = {n}" in err

    def test_unknown_case(self, capsys):
        code, _, err = run(capsys, "catalog", "nonsense")
        assert code == 1

    def test_all_cases_pass_end_to_end(self, capsys):
        code, out, _ = run(capsys, "catalog", "all")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 9

    def test_inconclusive_verdict_reads_as_a_miss(self, capsys, monkeypatch):
        # the catalog reads the symmetry order off the verdict, so the stand-in carries it
        monkeypatch.setattr(catalog, "classify", lambda config, *a, **k:
                            melnikov.TransversalityVerdict("inconclusive", None, (),
                                                           melnikov.symmetry_order(config)))
        code, out, err = run(capsys, "catalog", "all")
        assert code == cli.EXIT_GOLDEN
        assert err == ""
        # every case that reads a witness fails on its witness rows only
        misses = [line.split(",")[0] for line in out.splitlines() if line.endswith(",MISS")]
        assert set(misses) == {"witness_k", "witness_order", "sign_high", "sign_low",
                               "scaled_pair_high"}
        assert out.count("FAIL") == 8

    def test_output_is_byte_identical_between_runs(self, capsys):
        _, first, _ = run(capsys, "catalog", "all")
        _, second, _ = run(capsys, "catalog", "all")
        assert first == second


def _reference_json(o) -> str:
    """The writer's recursive reference: one nested join per value."""
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, float):
        return format(float(o), ".16e")
    if isinstance(o, int):
        return str(int(o))
    if o is None:
        return "null"
    if isinstance(o, str):
        return json.dumps(o)
    if isinstance(o, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_reference_json(v)}" for k, v in o.items())
        return "{" + inner + "}"
    if isinstance(o, (list, tuple)):
        return "[" + ", ".join(_reference_json(v) for v in o) + "]"
    raise TypeError(f"cannot serialize {type(o)!r}")


def _emitted(obj) -> str:
    buf = io.StringIO()
    cli._emit_json(obj, buf)
    return buf.getvalue()


def _verdict_configs():
    configs = {f"polygon-{n}": melsplit.build_polygon(n) for n in range(4, 17)}
    configs.update({f"collinear-{n}": melsplit.solve_collinear_equal(n) for n in range(3, 9)})
    configs["rhomboid-1-1"] = melsplit.build_rhomboid(1.0, 1.0)
    configs["rhomboid-1.2-1"] = melsplit.build_rhomboid(1.2, 1.0)
    configs["rp3bp-0.3"] = melsplit.build_rp3bp(0.3)
    configs["rp3bp-0.5"] = melsplit.build_rp3bp(0.5)
    configs["equilateral"] = melsplit.build_equilateral(1.0 / 3.0, 1.0 / 3.0)
    configs["equilateral-0.2-0.3"] = melsplit.build_equilateral(0.2, 0.3)
    return configs


class TestCsvWriter:
    EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                   1.7976931348623157e308, 0.1, -2.5, 1e-310, 123456789.0)

    @staticmethod
    def reference(header, rows) -> str:
        return "".join(",".join(format(float(v), ".16e") if isinstance(v, float) else str(v)
                                for v in row) + "\n" for row in [header, *rows])

    def written(self, header, rows) -> str:
        out = io.StringIO()
        cli._write_csv(out, header, rows)
        return out.getvalue()

    def test_every_float_as_format_renders_it(self):
        values = [*self.EDGE_FLOATS, *map(np.float64, self.EDGE_FLOATS)]
        rows = [tuple(values[i:i + 6]) for i in range(0, len(values), 6)]
        rows += [(v,) for v in values] + [list(values)]
        assert self.written(["a", "b"], rows) == self.reference(["a", "b"], rows)
        for v in values:
            assert self.written(["v"], [(v,)]) == f"v\n{format(float(v), '.16e')}\n"

    def test_rows_that_mix_ints_and_strings_with_floats(self):
        class Ratio(float):
            pass

        rows = [
            ("c2", 0.25, -0.0, 1e-12, "ok"),  # the catalog's rows
            ("d4", np.float64(1.5), math.nan, 1e-10, "MISS"),
            (100.0, 2.5e-30, math.inf, math.nan),  # asymp's
            (1, 2.0, True, None, Ratio(0.5), np.float32(0.5), np.int64(3)),
            (), (7,), ("x",),
        ]
        assert self.written(["key", "computed"], rows) == self.reference(["key", "computed"], rows)
        assert self.written(["h"], []) == "h\n"
        assert self.written(["h"], iter(rows)) == self.reference(["h"], rows)


class TestJsonWriter:
    @pytest.mark.parametrize("j_max", [None, 64])
    def test_verdicts_match_the_reference_byte_for_byte(self, j_max):
        for name, config in _verdict_configs().items():
            payload = melnikov.verdict_to_dict(melnikov.classify(config, j_max=j_max))
            assert _emitted(payload) == _reference_json(payload) + "\n", name

    def test_coeffs_payload_matches_the_reference(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "p16.json"
        assert main(["config", "build", "polygon", "--n", "16", "-o", str(path)]) == 0
        payloads = []
        emit = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json", lambda obj, out: payloads.append(obj) or emit(obj, out))
        capsys.readouterr()
        code, out, _ = run(capsys, "coeffs", str(path), "--jmax", "64")
        assert code == 0
        (payload,) = payloads
        assert len(payload["harmonic_tables"]) == 63
        assert out == _reference_json(payload) + "\n"

    def test_edge_values_match_the_reference(self):
        class Label(str):
            pass

        class Ratio(float):
            pass

        payload = {
            "np": [np.float64(0.1), np.float64("-0.0")],
            "flags": [True, False, None],
            "floats": [-0.0, 0.0, float("inf"), -float("inf"), float("nan"), 5e-324,
                       1.7976931348623157e308, 1.0, Ratio(2.5)],
            "label": "μ = 0.3 \"α\"\n\t\u0001 ☃ 𝄞",
            Label("sub"): Label("ç"),
            7: {2: [], 3: {}},
            True: None,
            2.5: "key",
            None: (),
            "nested": ((1, (2.0, (None, ("x",)))), [[], [{}]], (np.float64(3.0),)),
            "empty": ["", {}, []],
            "big": 2**70,
        }
        assert _emitted(payload) == _reference_json(payload) + "\n"
        for value in (np.float64(1e-300), -1, False, None, "plain", 0.1, [], {}):
            assert _emitted(value) == _reference_json(value) + "\n"

    @pytest.mark.parametrize("value", [np.float32(1.0), np.bool_(True), np.int64(-7), {1, 2},
                                       object(),
                                       [1.0, np.float32(2.0)], {"a": {"b": b"bytes"}}])
    def test_unserializable_values_raise_and_write_nothing(self, value):
        out = io.StringIO()
        with pytest.raises(TypeError, match="cannot serialize"):
            cli._emit_json(value, out)
        with pytest.raises(TypeError):
            _reference_json(value)
        assert out.getvalue() == ""


def _fresh_python(source: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(melsplit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", source],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_leaves_scipy_out(rp3bp_file):
    # the package integrates the flow with its own stepper; scipy is only the tests' oracle
    script = (
        "import contextlib, io, sys\n"
        "from melsplit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['integrate', '--config', {rp3bp_file!r}, '--eps', '0.5',\n"
        "                     '--state', '0.3', '0.05', '0', '1', '--tspan', '0', '5'])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    for source in ("import sys, melsplit.cli; print(0, 'scipy' in sys.modules)", script):
        assert _fresh_python(source).stdout.strip() == "0 False"


# the melsplit modules each command loads in a fresh interpreter, beside the
# package itself, cli and errors; numpy loads with quadrature and only then
_COMMAND_MODULES = [
    (("fplot", "F4", "--range", "1", "1", "--points", "1"), {"quadrature", "harmonics"}),
    (("asymp", "ik", "--k", "2", "--deltas", "10"), {"quadrature", "harmonics", "asymptotics"}),
    (("asymp", "recurrence", "--k", "2", "--deltas", "10"), {"quadrature", "harmonics"}),
    (("integrate", "--config", "{cfg}", "--eps", "0.5", "--state", "0.3", "0.05", "0", "1",
      "--tspan", "0", "1", "--samples", "2"), {"config", "harmonics", "dynamics"}),
    (("config", "build", "rp3bp", "--mu", "0.3"), {"config"}),
    (("config", "validate", "{cfg}"), {"config"}),
    (("coeffs", "{cfg}"), {"config", "harmonics"}),
    (("classify", "{cfg}"), {"config", "harmonics", "melnikov"}),
    *[(argv, {"config", "harmonics", "quadrature", "melnikov"}) for argv in (
        ("melnikov", "--order", "4", "--config", "{cfg}", "--theta0", "1", "--eps", "0.5",
         "--points", "2"),
        ("splitting", "--config", "{cfg}", "--theta0", "1", "--eps", "0.5", "--points", "2"),
    )],
    (("asymp", "leading", "--config", "{cfg}", "--points", "2"),
     {"config", "harmonics", "quadrature", "asymptotics", "melnikov"}),
    (("catalog", "rp3bp"), {"config", "harmonics", "melnikov", "catalog"}),
]


@pytest.mark.parametrize("argv, modules", _COMMAND_MODULES,
                         ids=[" ".join(a for a in argv[:2] if a[0] not in "-{")
                              for argv, _ in _COMMAND_MODULES])
def test_each_command_imports_only_the_modules_it_runs(rp3bp_file, argv, modules):
    script = (
        "import contextlib, io, json, sys\n"
        "from melsplit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({[a.format(cfg=rp3bp_file) for a in argv]!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m == 'numpy' or m.startswith('melsplit'))]))\n"
    )
    code, loaded = json.loads(_fresh_python(script).stdout)
    assert code == 0
    numpy = {"numpy"} if "quadrature" in modules else set()
    assert loaded == sorted({"melsplit", *numpy,
                             *(f"melsplit.{m}" for m in {"cli", "errors", *modules})})


def _numpy_importers(package: Path) -> dict[str, list[int]]:
    """The modules of ``package`` that import numpy, in any scope, with the lines that do."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                found.setdefault(path.stem, []).append(node.lineno)
    return found


def test_only_quadrature_imports_numpy():
    # a function-level import loads numpy on whatever path first calls that
    # function, which the per-command module sets above need not run
    importers = _numpy_importers(Path(melsplit.__file__).parent)
    assert set(importers) == {"quadrature"}, importers


def test_package_names_load_on_first_use():
    script = (
        "import importlib, json, sys\n"
        "import melsplit\n"
        "before = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('melsplit'))\n"
        "star = {}\n"
        "exec('from melsplit import *', star)  # the first read of every name\n"
        "same = all(getattr(melsplit, name) is getattr(importlib.import_module(\n"
        "    getattr(melsplit, name).__module__), name) is star[name]\n"
        "    and name in vars(melsplit) for name in melsplit.__all__)\n"
        "try:\n"
        "    melsplit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'before': before, 'same': same, 'missing': missing,\n"
        "                  'all': melsplit.__all__, 'dir': dir(melsplit),\n"
        "                  'star': sorted(set(star) - {'__builtins__'})}))\n"
    )
    got = json.loads(_fresh_python(script).stdout)
    assert got["before"] == ["melsplit"]  # no numpy and no submodule
    assert got["same"]  # every name is its module's object, cached in the package
    assert got["missing"] == "module 'melsplit' has no attribute 'no_such_name'"
    assert len(got["all"]) == len(set(got["all"])) == 48
    assert set(got["all"]) <= set(got["dir"]) and got["dir"] == sorted(got["dir"])
    assert got["star"] == sorted(got["all"])


@pytest.mark.parametrize("failure", [
    melsplit.QuadratureBudgetError, melsplit.IntegrationError, melsplit.NewtonConvergenceError])
def test_every_numerical_failure_exits_2(capsys, monkeypatch, failure):
    assert set(NumericalFailure.__subclasses__()) == {
        melsplit.QuadratureBudgetError, melsplit.IntegrationError,
        melsplit.NewtonConvergenceError}

    def fail(name):
        raise failure(f"{failure.__name__} raised")

    monkeypatch.setattr(quadrature, "named_integrand", fail)
    assert run(capsys, "fplot", "F4") == (
        cli.EXIT_NUMERICAL, "", f"numerical failure: {failure.__name__} raised\n")


@pytest.mark.parametrize("argv", [
    ("classify", "{cfg}", "--jmax", "16"),
    ("config", "validate", "{cfg}"),
    ("classify", "{cfg}.missing"),
    ("classify", "--bogus"),
])
def test_main_frees_the_cycles_it_makes(capsys, rp3bp_file, argv):
    # every call builds a cyclic argparse tree; main collects it before returning
    gc.collect()
    main([a.format(cfg=rp3bp_file) for a in argv])
    assert gc.collect() == 0


def test_main_leaves_a_disabled_collector_alone(capsys, rp3bp_file):
    gc.collect()
    gc.disable()
    try:
        main(["config", "validate", rp3bp_file])
        assert gc.collect() > 0
    finally:
        gc.enable()


# stdout, stderr and exit code of the usage surface with COLUMNS=80, in
# CPython 3.11's argparse wording: -h of the top level and of every command, no
# arguments, an unknown command or option, one missing-argument and one
# extra-argument call per command, and a command name after another top-level
# argument (-h, --help, an unknown command, -1, --, or fplot's function)
_SURFACE = json.loads((Path(__file__).parent / "cli_surface.json").read_text())


@pytest.mark.parametrize("argv, code, out, err", _SURFACE,
                         ids=[" ".join(argv) or "no-arguments" for argv, *_ in _SURFACE])
def test_usage_surface_is_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (code, out, err)


def test_a_call_builds_only_the_arguments_of_its_command(capsys, monkeypatch, rp3bp_file):
    parsers = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda command: parsers.append(build(command)) or parsers[-1])
    assert run(capsys, "classify", rp3bp_file)[0] == 0
    (parser,) = parsers
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    # every command keeps its name and help line, which the top-level help reads
    assert [(a.dest, a.help) for a in sub._get_subactions()] == [
        (name, help_text) for name, (help_text, _, _) in cli._COMMANDS.items()]
    assert list(sub.choices) == list(cli._COMMANDS)
    # only the running command has a parser
    built = {name: sp and [a.dest for a in sp._actions] for name, sp in sub.choices.items()}
    assert built == {**dict.fromkeys(cli._COMMANDS), "classify": ["help", "path", "lmax", "jmax"]}
