import gc
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import mpmath as mp
import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from melsplit import (
    CubicPhaseIntegrand,
    QuadratureBudgetError,
    eval_oscillatory,
    eval_oscillatory_list,
    find_zeros,
    harmonic_integrand,
    legendre_cos_coeffs,
)
from melsplit import quadrature
from melsplit.quadrature import f_name, named_integrand
from quadrature_oracles import (
    PAPER_INTEGRANDS,
    PolynomialIntegrand,
    _even_part,
    _exact_zero_phase,
    _pole_expansion,
    _powers,
    assert_contour_shift_agrees,
    eval_polynomial,
    eval_via_ikjk,
    exact_numerators,
    expanded,
    f4_integrand,
    f62_integrand,
    ik_integrand,
    ikjk_decomposition,
    jk_integrand,
    zero_phase_by_u_basis,
)

# the paper's names as the engine builds them; the f*_integrand are their
# printed numerators, the oracle
F4, F61, F62 = (named_integrand(name) for name in ("F4", "F61", "F62"))

# frozen value, cross-checked against the I/J pipeline
F4_AT_2 = 0.8682561381880027

P1_COEFFS = (6, 0, -480, 0, 4510, 0, -11088, 0, 8514, 0, -1936, 0, 90)
P2_COEFFS = (0, 79, 0, -1782, 0, 8217, 0, -11220, 0, 4785, 0, -534, 0, 7)
P3_COEFFS = (-7, 0, 749, 0, -9919, 0, 37037, 0, -48477, 0, 23023, 0, -3549, 0, 119)
P4_COEFFS = (0, -106, 0, 3276, 0, -22022, 0, 48048, 0, -38038, 0, 10556, 0, -826, 0, 8)


class TestBasicContracts:
    def test_arctangent_integral(self):
        res = eval_oscillatory(ik_integrand(1, 0.0), 1e-10)
        assert res.value == pytest.approx(math.pi, abs=1e-12)

    def test_ik_zero_values(self):
        # I_k(0) = pi/2 (2k-3)!!/(2k-2)!!, half the integral over R
        for k in range(1, 5):
            ratio = math.prod(range(2 * k - 3, 0, -2)) / math.prod(range(2 * k - 2, 0, -2))
            assert eval_oscillatory(ik_integrand(k, 0.0), 1e-10).value == pytest.approx(
                math.pi * ratio, abs=2e-13)

    def test_jk_zero_is_zero(self):
        assert eval_oscillatory(jk_integrand(2, 0.0), 1e-10).value == 0.0

    def test_degree_limit_enforced(self):
        with pytest.raises(ValueError, match="divergent"):
            CubicPhaseIntegrand(1.0, 0.0, 1, 1, 1.0)  # z/(1+z^2) diverges
        with pytest.raises(ValueError, match="divergent"):
            CubicPhaseIntegrand(0.0, 1.0, 2, -1, 1.0)  # (z - i)/(z + i)^2 too
        with pytest.raises(ValueError, match="finite"):
            CubicPhaseIntegrand(math.nan, 0.0, 2, 2, 1.0)

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            eval_oscillatory(F4(1.0), 1e-2)

    def test_large_phase_scale_within_bound_of_zero(self):
        res = eval_oscillatory(F4(12.0), 1e-10)  # phase scale 1728
        assert math.isfinite(res.value)
        assert abs(res.value) <= res.error_estimate <= 1e-10

    def test_error_estimate_honest(self):
        for tt in (0.4, 1.1, 1.9):
            assert_contour_shift_agrees(F61(tt), 1e-11)

    def test_budget_error_reported(self, monkeypatch):
        for integrand, tol, budget, reach in (
                (F4(9.0), 1e-13, 200, 4.0),  # the first call alone needs 257
                (harmonic_integrand(30, 2, 4.0), 1e-10, 250, 3.75)):  # 241, then an end widened
            with monkeypatch.context() as m:
                m.setattr(quadrature, "EVALUATION_BUDGET", budget)
                m.setattr(quadrature, "_REACH", reach)
                with pytest.raises(QuadratureBudgetError,
                                   match=f"^evaluation budget {budget} exhausted$"):
                    eval_oscillatory(integrand, tol)

    @pytest.mark.parametrize("reach", [1.0, 2.0])
    def test_a_narrow_first_window_is_widened(self, monkeypatch, reach):
        # the end terms at v = -reach and reach are far above the floor, so
        # without widening the tails alone would put the estimate above tol;
        # widened, the grid's own nodes on the new stretch giving every
        # evaluated level its share, the value agrees with the default window's
        for f in (F4(1.0), harmonic_integrand(9, 9, -1.25), ik_integrand(1, 0.01)):
            default = eval_oscillatory(f, 1e-10)
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_REACH", reach)
                widened = eval_oscillatory(f, 1e-10)
            assert widened.error_estimate <= 1e-10
            assert abs(widened.value - default.value) <= widened.error_estimate + default.error_estimate

    @pytest.mark.parametrize("integrand, reach", [
        (CubicPhaseIntegrand(0.0, 1j, -200, 203, 1e-10), 4.0),
        (CubicPhaseIntegrand(0.0, 1j, -100, 103, 1e-10), 4.0),
        (CubicPhaseIntegrand(0.0, 1e308, 1, 1, 1.0), 4.0),
        (CubicPhaseIntegrand(0.0, 1e308, 1, 1, 1.0), 1.0)],
        ids=["a-200", "a-100", "overflow", "overflow-widened"])
    def test_a_dropped_term_that_is_not_negligible_is_an_error(self, monkeypatch, integrand, reach):
        # (z + i)^200 / (z - i)^203 falls like |z|^-3, but near |z| = 40,
        # where d = 1e-10 leaves the terms far from negligible, (z - i)^203
        # overflows and (z + i)^-200 underflows, so the pole factor is inf or
        # NaN and the rest 0 or NaN; with a numerator of 1e308 the kept terms
        # themselves overflow, in the first pass, or with the window
        # narrowed to v in [-1, 1], on the stretch that widens it
        widened, widen = [], quadrature._widened
        monkeypatch.setattr(quadrature, "_REACH", reach)
        monkeypatch.setattr(quadrature, "_widened",
                            lambda row, *args: widened.append(row.index) or widen(row, *args))
        with pytest.raises(QuadratureBudgetError, match="^a term not shown below eps tol "
                                                        "overflows or is dropped as underflowed$"):
            eval_oscillatory(integrand, 1e-10)
        assert widened == ([0] if reach == 1.0 else [])

    def test_truncation_honesty(self):
        # moving the tail cutoff changes the value by less than the estimate
        from melsplit.quadrature import eval_oscillatory as ev

        a = ev(F61(1.3), 1e-11)
        b = ev(F61(1.3), 1e-9)
        assert abs(a.value - b.value) <= max(a.error_estimate, b.error_estimate)


ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.json"


LATTICE_NAMES = ("F4", "F61", "F62") + tuple(f"poly:{n}" for n in range(4, 11))


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-10, 1e-13])
def test_oracle_lattice_within_own_estimate(tol):
    # 30-digit mpmath references (bench/make_oracle.py) on the 31-point lattice
    oracle = json.loads(ORACLE.read_text())
    misses, above_tol = [], 0
    for name in LATTICE_NAMES:
        for tt, ref in zip(oracle["lattice"], oracle["F"][name]):
            res = eval_oscillatory(named_integrand(name)(tt), tol)
            with mp.workdps(40):
                if abs(mp.mpf(res.value) - mp.mpf(ref)) > res.error_estimate:
                    misses.append((name, tt))
            above_tol += res.error_estimate > tol
    assert misses == []
    # the rounding charge still overstates the error at tol 1e-13 (34 of 310
    # points report more than tol, 48 with the expanded numerators); it must
    # not grow looser
    assert above_tol <= (34 if tol == 1e-13 else 0)


def _lattice_integrands():
    lattice = json.loads(ORACLE.read_text())["lattice"]
    return [(name, named_integrand(name)(tt)) for name in LATTICE_NAMES for tt in lattice]


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_contour_shift_on_oracle_lattice(tol):
    # the value does not depend on the angle of the contour's arms
    for _, integrand in _lattice_integrands():
        assert_contour_shift_agrees(integrand, tol)


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_evaluate_calls_per_integral(tol, monkeypatch):
    # the first kernel call's five levels settle every integral at tol 1e-10
    # and most at 1e-13, where one more level takes a second call
    calls, kernel = [], quadrature._terms

    def counted(arm, s, ds):
        calls[-1] += 1
        return kernel(arm, s, ds)

    monkeypatch.setattr(quadrature, "_terms", counted)
    for _, integrand in _lattice_integrands():
        calls.append(0)
        eval_oscillatory(integrand, tol)
    assert np.median(calls) <= 1 and max(calls) <= (1 if tol == 1e-10 else 2)


@pytest.mark.parametrize("tol, total", [(1e-3, 77_100), (1e-6, 77_100), (1e-10, 77_100),
                                        (1e-13, 86_316)])
def test_oracle_lattice_evaluations(tol, total):
    # a machine-independent cost, and the node set pinned: the first call's
    # 257 nodes for each of the 300 integrals off theta = 0 (exact there, with
    # none), and 256 more for each of the 36 that refine at tol 1e-13.  The
    # trapezoid rule in u = log t took 215,718 at tol 1e-10
    assert sum(eval_oscillatory(f, tol).evaluations for _, f in _lattice_integrands()) == total


@pytest.mark.parametrize("first_levels", [2, 6])
def test_refinement_adds_the_midpoints_of_the_finest_grid(monkeypatch, first_levels):
    # the 36 lattice integrals that need a second call at tol 1e-13 stop at
    # step 1/64 whether the first call evaluates one level more (6) or three
    # fewer, the rest then coming one level per call (2): the same count, and
    # the same value within both estimates.  Midpoints that miss the finest
    # grid change the count or the value
    refined = [(f, res) for _, f in _lattice_integrands()
               if (res := eval_oscillatory(f, 1e-13)).evaluations > 257]
    assert len(refined) == 36
    monkeypatch.setattr(quadrature, "_FIRST_LEVELS", first_levels)
    for f, res in refined:
        other = eval_oscillatory(f, 1e-13)
        assert other.evaluations == res.evaluations
        assert abs(other.value - res.value) <= other.error_estimate + res.error_estimate


@pytest.mark.parametrize("j, k, tt, ref, cap", [
    (64, 62, 0.5, 1.194e-34, 1e-4), (64, 64, 0.1, 0.0, 1e-3), (64, 64, 1.0, -5.573e-20, 1e-6)])
def test_vertex_on_the_real_line_within_own_estimate(j, k, tt, ref, cap):
    # h = 0: the terms near z = 0 cancel down to a value far below them, so
    # what is left is rounding noise, which the estimate covers.  The
    # references are 60- and 80-digit mpmath on two contours (F_(64,64) at
    # theta = 0.1 is below 1e-17 there, and unresolved).  With the numerator
    # expanded to degree 2k + 1 the estimates were 2.5e2, 3.8e3 and 0.355
    res = eval_oscillatory(harmonic_integrand(j, k, tt), 1e-10)
    assert abs(res.value - ref) <= res.error_estimate <= cap


@pytest.mark.parametrize("alpha, beta, a, b, d", [
    (1j, 0, 80, 130, 100.0), (0, 1, 0, 200, 50.0), (1j, 1, -40, 200, 200.0),
    (0, 1, 150, 60, 40.0), (1j, 2, 128, 128, 80.0), (1j, 0, 99, 101, -70.0)])
def test_rounding_charge_covers_the_split_pole_powers(alpha, beta, a, b, d):
    # the charge of 2 (|a| + |b|) eps for the pole powers is empirical, set
    # at |a| + |b| <= 132; here _power splits its powers (|n| >= 100).  At
    # every kept node of the first call, against 40-digit mpmath at the same
    # s, the pole factor must err by at most 3/4 of that charge, and each
    # term by at most its whole charge
    d, alpha, beta, a, b = quadrature._normalized(CubicPhaseIntegrand(alpha, beta, a, b, d))
    g = min(1.0, math.sqrt(b / (2.0 * d)))
    h = 1.0 - g
    # the arm as eval_oscillatory builds it at tol 1e-13
    log_scale = -d * (h - h**3 / 3.0) - b * math.log(g) - a * math.log(2.0 - g)
    target = 1e-13 * math.exp(-max(log_scale, 0.0))
    arm = quadrature._Arm(d, alpha, beta, a, b, g, math.log(quadrature._EPS * target)
                          - (b + 1) * math.log(g) - a * math.log(2.0 - g))
    s, ds = quadrature._first_pass(quadrature._REACH, quadrature._FIRST_LEVELS - 1)
    vals, charge, _ = quadrature._terms(arm, s, ds)
    w0 = (g * quadrature._RAY) * s
    with np.errstate(over="ignore", invalid="ignore"):
        pole = (quadrature._power((w0 - 1j * g) / g, b)
                * quadrature._power((w0 + 1j * (2.0 - g)) / (2.0 - g), a))
    kept = np.flatnonzero(charge)
    assert len(kept) > 100
    with mp.workdps(40):
        ray = mp.expjpi(mp.mpf(1) / 6)
        for i in kept:
            w0_ = g * ray * mp.mpf(s[i])
            z = w0_ + 1j * h
            exact_pole = ((z - 1j) / g) ** b * ((z + 1j) / (2.0 - g)) ** a
            psi = 1j * d * (w0_ * (g * (2.0 - g) + w0_ * (1j * h + w0_ / 3)))
            term = (alpha * z + beta) * mp.exp(psi) * g * ray * mp.mpf(ds[i]) / exact_pole
            pole_error = abs(exact_pole - complex(pole[i])) / abs(exact_pole)
            assert pole_error <= 1.5 * (abs(a) + abs(b)) * quadrature._EPS
            assert abs(term - complex(vals[i])) <= charge[i]


def test_calls_leave_the_tuple_free_lists_alone():
    # a tuple of unknown length is allocated at 10 slots and resized, so each
    # call would move tuples from the 10-slot free list to those of their own
    # lengths, up to 2000 per length, and only a full collection empties them;
    # cli.main collects the young generations after each call, as here
    names = ("F4", "F61", "F62") + tuple(f"poly:{n}" for n in range(4, 11))
    builders = [named_integrand(name) for name in names]
    gc.collect()
    gc.disable()
    try:
        for i in range(3200):
            if i == 200:
                tracemalloc.start()
            eval_oscillatory(builders[i % 10](0.5 + 0.5 * (i % 7)), 1e-3)
            gc.collect(1)
        grown, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 0.5 * 2**20


# ---------------------------------------------------------------------------
# the list pass: one pass over a list is one call per integrand, bit for bit

#: the (j, k) of every F_(j,k) with a harmonic-table entry up to J = 64
J64_GRID = [(j, k) for j in range(2, 65) for k in range(j % 2 or 2, j + 1, 2)]


def _hex(res):
    """A result's value and estimate in hex, and its evaluation count."""
    return res.value.hex(), res.error_estimate.hex(), res.evaluations


def _assert_list_is_single_calls(integrands, tol):
    listed = eval_oscillatory_list(integrands, tol)
    assert type(listed) is tuple and len(listed) == len(integrands)
    assert [_hex(r) for r in listed] == [_hex(eval_oscillatory(f, tol)) for f in integrands]
    return listed


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_list_pass_on_the_oracle_lattice(tol):
    _assert_list_is_single_calls([f for _, f in _lattice_integrands()], tol)


def test_list_pass_on_the_fsweep_grids():
    # the benchmark's fplot grids: 8 nodes from lattice[a] to lattice[a + 28]
    lattice = json.loads(ORACLE.read_text())["lattice"]
    for name in LATTICE_NAMES:
        for a in range(3):
            nodes = np.linspace(lattice[a], lattice[a + 28], 8).tolist()
            _assert_list_is_single_calls([named_integrand(name)(tt) for tt in nodes], 1e-10)


@pytest.mark.parametrize("tt, chunk", [(1.0, None), (1.5, None), (2.5, None), (1.5, 128),
                                       (1.5, 64)],
                         ids=["1.0", "1.5", "2.5", "1.5-chunk128", "1.5-chunk64"])
def test_list_pass_on_the_j64_grid(monkeypatch, tt, chunk):
    # 1055 integrals over every (a, b); at these theta some go on past the
    # first pass's levels, a kernel call per level over all of them.  A
    # _CHUNK below the 257 nodes of the first pass splits every kernel call
    # over several _terms calls: with I_k beside them, every result, listed
    # or of a single call at tol 1e-13, is then that at the default
    integrands = [harmonic_integrand(j, k, tt) for j, k in J64_GRID]
    if chunk is not None:
        integrands += [quadrature.ik_integrand(k, d) for k in range(1, 7)
                       for d in (1.0, 3.0, 10.0, 30.0, 100.0, 300.0)]
        default_listed = [_hex(r) for r in eval_oscillatory_list(integrands, 1e-10)]
        default_single = [_hex(eval_oscillatory(f, 1e-13)) for f in integrands]
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        assert [_hex(eval_oscillatory(f, 1e-13)) for f in integrands] == default_single
    listed = _assert_list_is_single_calls(integrands, 1e-10)
    assert len(listed) >= 1055 and max(r.evaluations for r in listed) > 257
    if chunk is not None:
        assert [_hex(r) for r in listed] == default_listed


def test_list_pass_on_a_mixed_list(monkeypatch):
    # exact rows (d = 0, and a numerator whose mirror-symmetric part is 0),
    # negative d, and, with the first window narrowed, rows that widen an end
    # and go on alone beside rows that do not
    monkeypatch.setattr(quadrature, "_REACH", 3.75)
    widened, widen = [], quadrature._widened
    monkeypatch.setattr(quadrature, "_widened",
                        lambda row, *args: widened.append(row.index) or widen(row, *args))
    integrands = [F4(1.0), CubicPhaseIntegrand(0.0, 1.0, 3, 3, 0.0), F61(-1.3),
                  CubicPhaseIntegrand(1.0, 0.0, 2, 2, 1.0), harmonic_integrand(9, 9, -1.25),
                  ik_integrand(1, 0.01), F62(2.5), harmonic_integrand(30, 2, 4.0)]
    for tol, widening in ((1e-10, [7]), (1e-13, [0, 2, 4, 5, 6, 7])):
        widened.clear()
        listed = eval_oscillatory_list(integrands, tol)
        assert sorted(widened) == widening
        assert [r.evaluations for r in listed[1:4:2]] == [0, 0]
        _assert_list_is_single_calls(integrands, tol)


def test_the_first_failing_integrand_in_the_list_raises(monkeypatch):
    # three failures: a d whose 2 d overflows, so that the vertex's g is 0
    # and its log raises (a ValueError), a term that overflows and, under a
    # budget of 300, an integral that needs later levels.  Whatever their
    # order, and that of their (a, b), the list raises what the first of
    # them raises alone
    monkeypatch.setattr(quadrature, "EVALUATION_BUDGET", 300)
    failing = [CubicPhaseIntegrand(0.0, 1.0, 2, 2, 1e308),
               CubicPhaseIntegrand(0.0, 1e308, 1, 1, 1.0), harmonic_integrand(64, 64, 1.0)]
    settled = [F4(1.0), F61(0.5), harmonic_integrand(5, 3, 1.5)]
    for order in itertools.permutations(failing):
        integrands = [f for pair in zip(settled, order) for f in pair]
        with pytest.raises((ValueError, QuadratureBudgetError)) as alone:
            eval_oscillatory(order[0], 1e-10)
        with pytest.raises(type(alone.value)) as listed:
            eval_oscillatory_list(integrands, 1e-10)
        assert str(listed.value) == str(alone.value)
        # the results yielded before the raise are those of single calls,
        # their rows evaluated beside the failing ones
        for listing, settled_first in ((integrands, 1), (settled + list(order), 3)):
            before = []
            with pytest.raises(type(alone.value)):
                for res in quadrature._each(listing, 1e-10):
                    before.append(_hex(res))
            assert before == [_hex(eval_oscillatory(f, 1e-10)) for f in settled[:settled_first]]
    assert eval_oscillatory_list([], 1.0) == ()  # no integral, so no tolerance to refuse


@pytest.mark.parametrize("nodes, error", [
    ([1.0, 0.5, 1e308, 2.5, 1e200], ValueError),  # the integral at 1e308 fails first
    ([1.0, 0.5, 1e200, 1e308, 2.5], OverflowError),  # building the one at 1e200 fails first
])
def test_a_generator_fails_as_one_call_per_integrand_built_in_turn(nodes, error):
    # I_2 at d = 1e308 fails in the pass; F4 at theta 1e200, whose phase
    # scale overflows, fails to build.  The list raises what one call per
    # integrand, each built in turn, raises first, and yields the same
    # results before it
    def built():
        for x in nodes:
            yield ik_integrand(2, x) if x == 1e308 else F4(x)

    with pytest.raises(error):
        eval_oscillatory_list(built(), 1e-10)
    before = []
    with pytest.raises(error):
        for res in quadrature._each(built(), 1e-10):
            before.append(_hex(res))
    assert before == [_hex(eval_oscillatory(F4(x), 1e-10)) for x in nodes[:2]]


def test_list_calls_leave_the_tuple_free_lists_alone():
    # as test_calls_leave_the_tuple_free_lists_alone, with three integrands a call
    names = ("F4", "F61", "F62") + tuple(f"poly:{n}" for n in range(4, 11))
    builders = [named_integrand(name) for name in names]
    gc.collect()
    gc.disable()
    try:
        for i in range(3200):
            if i == 200:
                tracemalloc.start()
            eval_oscillatory_list([builders[(i + m) % 10](0.5 + 0.5 * ((i + m) % 7))
                                   for m in range(3)], 1e-3)
            gc.collect(1)
        grown, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 0.5 * 2**20


def test_a_long_list_holds_less_than_one_chunk_at_once(monkeypatch):
    # the 1055 integrals of the J = 64 grid: no kernel call over more than
    # _CHUNK nodes, and the pass's peak memory below that of one such call
    s, ds = quadrature._exp_sinh(np.linspace(-4.0, 4.0, quadrature._CHUNK))
    arm = quadrature._Arm(1.0, 0j, 1 + 0j, 2, 6, 1.0, -40.0)
    tracemalloc.start()
    try:
        quadrature._terms(arm, s, ds)
        _, chunk = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes, kernel = [], quadrature._terms

    def counted(arm, s, ds):  # the nodes of every integral of the call
        nodes.append(np.size(arm.g) * len(s))
        return kernel(arm, s, ds)

    monkeypatch.setattr(quadrature, "_terms", counted)
    integrands = [harmonic_integrand(j, k, 1.0) for j, k in J64_GRID]
    tracemalloc.start()
    try:
        eval_oscillatory_list(integrands, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(nodes) < 100 and max(nodes) <= quadrature._CHUNK
    assert peak < chunk


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_powers_are_running_products(n):
    # the polynomial oracle's power tables
    x = np.array([0.5 + 0.25j, -3.0 + 1e-3j, 1e10j])
    want = np.ones((n, len(x)), dtype=complex)
    for j in range(1, n):
        want[j] = want[j - 1] * x
    assert np.array_equal(_powers(x, n), want)


class TestSymmetries:
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    @pytest.mark.parametrize("delta", [0.7, 3.0, 12.0])
    def test_ik_even(self, k, delta):
        assert eval_oscillatory(ik_integrand(k, delta), 1e-11).value == pytest.approx(
            eval_oscillatory(ik_integrand(k, -delta), 1e-11).value, abs=2e-10
        )

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("delta", [0.7, 3.0, 12.0])
    def test_jk_odd(self, k, delta):
        assert eval_oscillatory(jk_integrand(k, delta), 1e-11).value == pytest.approx(
            -eval_oscillatory(jk_integrand(k, -delta), 1e-11).value, abs=2e-10
        )

    def test_j1_rejected(self):
        with pytest.raises(ValueError):
            quadrature.jk_integrand(1, 1.0)


class TestRecurrence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("delta", [0.5, 2.0, 10.0])
    def test_identity_published_grid(self, k, delta):
        # both full-line integrals, twice J_(k+2) and I_k
        j = eval_oscillatory(jk_integrand(k + 2, delta), 1e-12).value
        ik = eval_oscillatory(ik_integrand(k, delta), 1e-12).value
        assert j == pytest.approx(delta / (2.0 * (k + 1)) * ik, rel=1e-8)


class TestNamedFunctions:
    def test_f4_zero_at_origin(self):
        assert abs(eval_oscillatory(F4(0.0), 1e-10).value) <= 1e-10

    def test_f4_root(self):
        assert abs(eval_oscillatory(F4(0.61078210), 1e-11).value) <= 2e-7

    def test_f4_signs(self):
        for tt in (-1.5, -0.5, 0.3, 0.55):
            assert eval_oscillatory(F4(tt), 1e-11).value < 0.0
        for tt in (0.7, 1.0, 2.0):
            assert eval_oscillatory(F4(tt), 1e-11).value > 0.0

    def test_f4_frozen_value(self):
        assert eval_oscillatory(F4(2.0), 1e-12).value == pytest.approx(F4_AT_2, abs=1e-9)

    def test_f61_unique_root_at_origin(self):
        assert abs(eval_oscillatory(F61(0.0), 1e-10).value) <= 1e-10
        for tt in (-2.0, -1.0, -0.3):
            assert eval_oscillatory(F61(tt), 1e-11).value > 0.0
        for tt in (0.3, 1.0, 2.0):
            assert eval_oscillatory(F61(tt), 1e-11).value < 0.0

    def test_f62_roots(self):
        assert abs(eval_oscillatory(F62(0.0), 1e-10).value) <= 1e-10
        assert abs(eval_oscillatory(F62(0.15745028), 1e-11).value) <= 2e-7
        assert abs(eval_oscillatory(F62(0.87685728), 1e-11).value) <= 2e-7

    def test_f62_sign_pattern(self):
        for tt in (-1.5, -0.5, 0.5, 0.7):
            assert eval_oscillatory(F62(tt), 1e-11).value > 0.0
        for tt in (0.08, 0.12, 1.0, 1.5):
            assert eval_oscillatory(F62(tt), 1e-11).value < 0.0

    def test_decay_at_large_argument(self):
        for builder in (F4, F61, F62):
            assert abs(eval_oscillatory(builder(10.0), 1e-6).value) <= 1e-4
            assert abs(eval_oscillatory(builder(-10.0), 1e-6).value) <= 1e-4


class TestFindZeros:
    def test_f4_root_location(self):
        f4 = lambda t: eval_oscillatory(F4(t), 1e-11).value
        roots = find_zeros(f4, 0.1, 1.5, grid=64)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.61078210, abs=1e-6)

    def test_f62_root_locations(self):
        f62 = lambda t: eval_oscillatory(F62(t), 1e-11).value
        roots = find_zeros(f62, 0.05, 1.2, grid=128)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.15745028, abs=1e-6)
        assert roots[1] == pytest.approx(0.87685728, abs=1e-6)

    def test_constant_sign_function(self):
        assert find_zeros(lambda t: 1.0 + t * t, -1.0, 1.0, grid=16) == []

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            find_zeros(lambda t: t, 1.0, 0.0)
        with pytest.raises(ValueError):
            find_zeros(lambda t: t, 0.0, 1.0, grid=4)


class TestDualBackend:
    @pytest.mark.parametrize("name", ["F4", "F61", "F62"])
    def test_backends_agree_on_grid(self, name):
        # the contour shifted, and the polynomial oracle on the printed numerators
        for tt in np.linspace(-2.0, 2.0, 32):
            assert_contour_shift_agrees(named_integrand(name)(float(tt)), 1e-11)
            direct = eval_oscillatory(named_integrand(name)(float(tt)), 1e-11)
            oracle = eval_polynomial(PAPER_INTEGRANDS[name](float(tt)), 1e-11)
            assert abs(direct.value - oracle.value) <= direct.error_estimate + oracle.error_estimate

    def test_decomposition_is_exact_partial_fractions(self):
        i_terms, j_terms = ikjk_decomposition(f4_integrand(1.0))
        assert {k: float(v) for k, v in i_terms.items()} == {4: 14.0, 5: -52.0, 6: 40.0}
        assert {k: float(v) for k, v in j_terms.items()} == {4: 3.0, 5: -32.0, 6: 40.0}
        # reassembled from I_k and J_k, F4 is the direct value
        for tt in (-1.5, 0.5, 1.0, 2.0):
            direct = eval_oscillatory(F4(tt), 1e-11)
            via = eval_via_ikjk(f4_integrand(tt), 1e-11)
            assert abs(direct.value - via.value) <= direct.error_estimate + via.error_estimate

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(*[st.integers(min_value=-9, max_value=9)] * 4),
        st.integers(min_value=-4, max_value=8),
        st.integers(min_value=-2, max_value=10),
        st.floats(min_value=-2.5, max_value=2.5),
    )
    def test_backends_agree_on_random_integrands(self, coeffs, a, b, delta):
        # any numerator, mirror-symmetric or not, either sign of d, negative
        # powers: the contour shifted, and the polynomial oracle
        alpha, beta = complex(*coeffs[:2]), complex(*coeffs[2:])
        assume(a + b >= 2 + (alpha != 0))
        integrand = CubicPhaseIntegrand(alpha, beta, a, b, delta)
        assert_contour_shift_agrees(integrand, 1e-11)
        direct = eval_oscillatory(integrand, 1e-11)
        oracle = eval_polynomial(expanded(integrand), 1e-11)
        assert abs(direct.value - oracle.value) <= direct.error_estimate + oracle.error_estimate


#: theta on the j, k <= 64 grid, and a sample of the grid that runs in about 2 s
GRID_THETAS = (-1.5, 0.1, 0.5, 0.61, 1.0, 1.5, 2.5)
GRID_SAMPLE = [(j, k) for j in (1, 2, 5, 17, 33, 64) for k in (1, 2, 3, 16, 31, 62, 64)]


@pytest.mark.parametrize("tt", GRID_THETAS)
def test_harmonic_grid_agrees_with_the_polynomial_oracle(tt):
    # the expanded numerators lose digits at high order, so the oracle's
    # estimates there are large, but they are honest; over the whole grid
    # (28,672 integrals) no value misses
    for j, k in GRID_SAMPLE:
        f = harmonic_integrand(j, k, tt)
        direct, oracle = eval_oscillatory(f, 1e-10), eval_polynomial(expanded(f), 1e-10)
        assert abs(direct.value - oracle.value) <= direct.error_estimate + oracle.error_estimate, (
            j, k, direct, oracle)


def polygon_integrand(n_total, tt):
    """poly:N is the (N-1, N-1) harmonic integrand."""
    return harmonic_integrand(n_total - 1, n_total - 1, tt)


def _binomial_numerators(n_total):
    """(cos, sin) numerators of poly:N from the binomial expansion of its rotation.

    cos(4 chi) = (1 - z^2)/(1 + z^2), sin(4 chi) = 2 z/(1 + z^2), so the
    rotation's powers are (1 + i z)^(2(N-1)) = C + i S; the cos numerator is
    (N-1) C - N z S and the sin numerator N z C + (N-1) S.
    """
    n = n_total - 1
    c = [math.comb(2 * n, j) * (1, 0, -1, 0)[j % 4] for j in range(2 * n + 1)] + [0]
    s = [math.comb(2 * n, j) * (0, 1, 0, -1)[j % 4] for j in range(2 * n + 1)] + [0]
    p = [n * c[j] - n_total * (s[j - 1] if j else 0) for j in range(2 * n + 2)]
    q = [n_total * (c[j - 1] if j else 0) + n * s[j] for j in range(2 * n + 2)]
    while p[-1] == 0:
        p.pop()
    while q[-1] == 0:
        q.pop()
    return tuple(p), tuple(q)


def _fraction_taylor_shift(cos_num, sin_num):
    """Reference Taylor shift of P - iQ about i on Fraction pairs: (shifted, j0)."""
    coeffs = [(Fraction(p), -Fraction(q)) for p, q in zip_longest(cos_num, sin_num, fillvalue=0.0)]
    shifted, rest = [], coeffs[::-1]
    while rest:
        acc, quotient = (0, 0), []
        for re, im in rest:
            acc = (re - acc[1], im + acc[0])
            quotient.append(acc)
        shifted.append(quotient.pop())
        rest = quotient
    j0 = next(j for j, v in enumerate(shifted) if v != (0, 0))
    return [complex(*v) for v in coeffs], [complex(*v) for v in shifted[j0:]], j0


@pytest.mark.parametrize("integrand", [
    f4_integrand(1.0), f62_integrand(1.0), expanded(harmonic_integrand(9, 9, 1.0)),
    expanded(harmonic_integrand(30, 17, -1.0)), expanded(harmonic_integrand(64, 64, 1.0)),
    PolynomialIntegrand((0.1, 0.0, 0.3), (0.0, 1e-300, 0.0, 2.5), 4, 1.0),
])
def test_pole_expansion_is_the_exact_taylor_shift(integrand):
    # the polynomial oracle's shift: integer arithmetic on the scaled
    # coefficients gives the Fraction result bit for bit
    cos_num = tuple(c if i % 2 == 0 else 0.0 for i, c in enumerate(integrand.cos_numerator))
    sin_num = tuple(c if i % 2 == 1 else 0.0 for i, c in enumerate(integrand.sin_numerator))
    c, b, j0 = _fraction_taylor_shift(cos_num, sin_num)
    table, got_j0 = _pole_expansion(cos_num, sin_num)
    assert got_j0 == j0
    assert table[0].tolist() == c
    assert table[1].tolist() == b + [0j] * (len(c) - len(b))


class TestHarmonicIntegrand:
    def test_named_integrands_are_special_cases(self):
        # F4 = F_(2,2); F61 and F62 are -F_(3,1) and -F_(3,3)
        for tt in (-1.3, 0.0, 0.7, 2.0):
            assert harmonic_integrand(2, 2, tt) == F4(tt)
            for k, named in ((1, F61(tt)), (3, F62(tt))):
                f = harmonic_integrand(3, k, tt)
                assert named == CubicPhaseIntegrand(-f.alpha, -f.beta, f.a, f.b, f.phase_scale)

    @pytest.mark.parametrize("name", sorted(PAPER_INTEGRANDS))
    def test_named_integrand_is_the_literal_oracle(self, name):
        # field for field, phase scale included; repr tells -0.0 from 0.0
        named = named_integrand(name)
        for tt in (*json.loads(ORACLE.read_text())["lattice"], 0.0, -0.0, 1e-3, 0.61078210, 7.5):
            literal = PAPER_INTEGRANDS[name](tt)
            assert expanded(named(tt)) == literal, (name, tt)
            assert repr(expanded(named(tt))) == repr(literal), (name, tt)
            if tt == 0.0:
                assert repr(eval_oscillatory(named(tt), 1e-10).value) == "0.0"

    def test_names_map_to_signed_harmonics(self):
        assert [f_name(n) for n in ("F4", "F61", "F62")] == [(2, 2, 1), (3, 1, -1), (3, 3, -1)]
        for n_total in (4, 10, 65):
            assert f_name(f"poly:{n_total}") == (n_total - 1, n_total - 1, 1)
            assert named_integrand(f"poly:{n_total}")(0.7) == polygon_integrand(n_total, 0.7)
        for name in ("poly:3", "poly:66", "poly:x", "poly:", "F5", "f4", "G7", ""):
            with pytest.raises(ValueError, match=r"expected F4 \| F61 \| F62 \| poly:N"):
                f_name(name)

    @pytest.mark.parametrize("n_total", range(4, 11))
    def test_polygon_is_the_diagonal_harmonic(self, n_total):
        f = expanded(polygon_integrand(n_total, 1.0))
        assert (f.cos_numerator, f.sin_numerator) == _binomial_numerators(n_total)

    @pytest.mark.parametrize("j, k", [(2, 1), (4, 2), (5, 3), (9, 9), (12, 5)])
    def test_numerators_are_the_complex_polynomial(self, j, k):
        # small enough that every coefficient of the float product is exact
        f = harmonic_integrand(j, k, 1.5)
        assert (f.a, f.b, f.phase_scale) == (j + 2 - k, j + k + 2, k * 1.5**3 / 2.0)
        f = expanded(f)
        want = P.polymul([1j * k, j + 1], P.polypow([1.0, -1j], 2 * k))
        for got, part in ((f.cos_numerator, want.imag), (f.sin_numerator, want.real)):
            assert np.array_equal(np.pad(got, (0, len(want) - len(got))), part)
        assert f.denominator_power == j + k + 2

    def test_domain(self):
        for j, k in ((0, 1), (2, 0), (-1, 3)):
            with pytest.raises(ValueError):
                harmonic_integrand(j, k, 1.0)

    @pytest.mark.parametrize("build", [lambda tt: harmonic_integrand(2, 2, tt),
                                       named_integrand("F4"), named_integrand("poly:10")],
                             ids=["harmonic", "F4", "poly:10"])
    def test_an_overflowing_phase_scale_is_an_overflow(self, build):
        # k theta^3 / 2 is inf at theta = 5e102 while theta^3 is not, and
        # theta^3 overflows at 1e200; a theta that is not finite stays a
        # domain error
        for tt in (5e102, -5e102, 1e200, 1e308):
            with pytest.raises(OverflowError, match=rf"^phase scale k theta\^3 / 2 overflows at "
                                                    rf"k = \d+, theta = {re.escape(repr(tt))}$"):
                build(tt)
        for tt in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="phase scale must be finite"):
                build(tt)


class TestPolygonGeneration:
    def test_numerators_seven(self):
        f = expanded(polygon_integrand(7, 1.0))
        assert f.cos_numerator == P1_COEFFS
        assert f.sin_numerator == P2_COEFFS

    def test_numerators_eight(self):
        f = expanded(polygon_integrand(8, 1.0))
        assert f.cos_numerator == tuple(-c for c in P3_COEFFS)
        assert f.sin_numerator == tuple(-c for c in P4_COEFFS)

    def test_prefactors(self):
        # the published constant K of poly:N is 2^N p_(N-1,N-1)
        for n_total, k in ((7, 231 / 4), (8, 429 / 4), (4, 10.0)):
            assert 2.0**n_total * legendre_cos_coeffs(n_total - 1)[n_total - 1] == k

    def test_four_body_case_matches_third_harmonic_channel(self):
        for tt in (0.5, 1.0, 1.7, -1.3):
            poly = eval_oscillatory(polygon_integrand(4, tt), 1e-11)
            ratio = poly.value / eval_oscillatory(F62(tt), 1e-11).value
            assert ratio == pytest.approx(-1.0, rel=1e-8)

    def test_phase_scale(self):
        integrand = polygon_integrand(7, 1.0)
        assert integrand.phase_scale == pytest.approx(3.0)
        assert (integrand.a, integrand.b) == (2, 14)

    def test_decay(self):
        assert abs(eval_oscillatory(polygon_integrand(5, 6.0), 1e-6).value) <= 1e-3

    @pytest.mark.parametrize("n_total", range(4, 11))
    def test_backends_agree_on_both_branches(self, n_total):
        # these points fail an engine that expands the numerator only about
        # the pole at i, or only about 0
        for tt in (-2.25, -1.75, -1.25, 1.0, 1.25):
            assert_contour_shift_agrees(polygon_integrand(n_total, tt), 1e-10)


@pytest.mark.parametrize(
    "builder",
    [F61, F62] + [(lambda n: lambda tt: polygon_integrand(n, tt))(n) for n in range(4, 11)],
    ids=["F61", "F62"] + [f"poly:{n}" for n in range(4, 11)],
)
def test_symmetry_zero_at_zero_phase_is_exact(builder):
    res = eval_oscillatory(builder(0.0), 1e-10)
    assert res.value == 0.0 and res.error_estimate == 0.0


def _bits(res):
    """A result's value, sign of zero, error estimate and evaluation count."""
    return res.value, math.copysign(1.0, res.value), res.error_estimate, res.evaluations


def _coefficients():
    return st.one_of(st.integers(-9, 9).map(float), st.floats(min_value=-1e100, max_value=1e100))


def _taylor_shift_value(integrand):
    """The d = 0 value by the polynomial oracle's Taylor shift of the exact numerators."""
    cos_num, _, n = exact_numerators(integrand)
    return _exact_zero_phase(_even_part(cos_num), n)


class TestZeroPhaseResidue:
    """The d = 0 residue at z = i is the exact routes' value bit for bit."""

    def test_harmonic_grid(self):
        # against the Taylor shift of the numerator expanded in integers.
        # Rounded to floats, the expanded coefficients (up to C(128, 64) 129)
        # lose digits from k = 27 on, and the shift of the rounded numerator
        # is then not F_(j,k)(0): F_(1,27)(0) = 0, but 5.6e-9 that way
        differ = [(j, k) for j in range(1, 65) for k in range(1, 65)
                  if _bits(eval_oscillatory(f := harmonic_integrand(j, k, 0.0), 1e-10))
                  != _bits(_taylor_shift_value(f))]
        assert not differ

    @pytest.mark.parametrize("tt", [0.0, -0.0])
    @pytest.mark.parametrize("name", ["F4", "F61", "F62"])
    def test_named_integrands(self, name, tt):
        f = named_integrand(name)(tt)
        assert _bits(eval_oscillatory(f, 1e-10)) == _bits(zero_phase_by_u_basis(PAPER_INTEGRANDS[name](tt)))

    @pytest.mark.parametrize("k", range(1, 65))
    def test_ik_jk(self, k):
        basis = [ik_integrand(k, 0.0)] + ([jk_integrand(k, 0.0)] if k >= 2 else [])
        for f in basis:
            res = _bits(eval_oscillatory(f, 1e-10))
            assert res == _bits(zero_phase_by_u_basis(expanded(f))) == _bits(_taylor_shift_value(f))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[_coefficients()] * 4), st.integers(-6, 12), st.integers(-6, 12),
           st.sampled_from([0.0, -0.0]))
    def test_random_numerators(self, coeffs, a, b, delta):
        alpha, beta = complex(*coeffs[:2]), complex(*coeffs[2:])
        assume(a + b >= 2 + (alpha != 0))
        f = CubicPhaseIntegrand(alpha, beta, a, b, delta)
        assert _bits(eval_oscillatory(f, 1e-10)) == _bits(_taylor_shift_value(f))
