"""Reference routes for the oscillatory engine, kept beside the tests that use them.

* ``PolynomialIntegrand`` and ``eval_polynomial`` are the engine as it was
  before every integrand took the factored shape of
  ``quadrature.CubicPhaseIntegrand``: polynomial cos and sin numerators over
  a power of (1 + z^2), the numerator evaluated at each node from power
  tables of its expansion about 0 or about i, whichever has the smaller
  rounding bound, the pole order at i from an exact Taylor shift
  (``_taylor_shift``), and the d = 0 value as the residue at i from that
  shift.  It shares the contour, vertex rule, node grid and level rule with
  the engine, but none of its code.  ``expanded`` writes a factored
  integrand in that form, exactly before its coefficients are rounded.
* ``on_ray`` runs ``eval_oscillatory`` with the contour's arms turned to
  another angle.  By Cauchy's theorem the integral does not depend on the
  angle (any ray in (0, pi/3) leaves the integrand decaying at infinity), but
  every node, term and rounding error does, so two angles that agree within
  the sum of their error estimates check both the value and the estimate
  (Trefethen & Weideman, SIAM Rev. 56, 2014).
* ``ikjk_decomposition`` rewrites a polynomial integrand exactly in the
  half-line basis integrals I_k and J_k, and ``eval_via_ikjk`` reassembles
  the value from the engine's I_k and J_k.  Its partial-fraction
  coefficients grow with the degree, and each sub-tolerance is clamped at
  1e-13, so it is looser than the route it would check for the high-degree
  integrands.
* ``zero_phase_by_u_basis`` evaluates a d = 0 integral exactly in the same
  basis, sum e_i (1 + z^2)^i with I_k(0) = pi/2 (2k-3)!!/(2k-2)!!: a third
  exact route beside the engine's residue and the Taylor shift's.
* ``f4_integrand``, ``f61_integrand`` and ``f62_integrand`` are the paper's
  F4, F61 and F62 with their numerators as printed: the oracle for the
  names ``quadrature.named_integrand`` gives F_(2,2), -F_(3,1) and -F_(3,3).
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Sequence
from unittest import mock

import numpy as np

from melsplit import quadrature
from melsplit.quadrature import (
    EVALUATION_BUDGET,
    CubicPhaseIntegrand,
    QuadratureBudgetError,
    QuadratureResult,
    eval_oscillatory,
)

_EPS = sys.float_info.epsilon
_RAY = cmath.exp(1j * math.pi / 6)
_HALF_PI = math.pi / 2.0
_STEP = 0.5
_REACH = 4.0
_FIRST_LEVELS = 5
_TABLE_ENTRIES = 2**16  # entries of the largest power table (1 MB complex)


# ---------------------------------------------------------------------------
# the polynomial engine


@dataclass(frozen=True)
class PolynomialIntegrand:
    """Rational-times-oscillatory integrand with phase d (z + z^3/3).

    ``cos_numerator`` and ``sin_numerator`` are polynomial coefficients in
    ascending powers of z; ``denominator_power`` is the power of (1 + z^2);
    ``phase_scale`` is d.
    """

    cos_numerator: tuple[float, ...]
    sin_numerator: tuple[float, ...]
    denominator_power: int
    phase_scale: float

    def __post_init__(self):
        # per-call tuples are built from lists, at their final length: CPython
        # allocates a tuple of unknown length at 10 slots and resizes it, which
        # moves one tuple per call between its per-length free lists, memory
        # that only a full collection gives back
        object.__setattr__(self, "cos_numerator", tuple([float(c) for c in self.cos_numerator]))
        object.__setattr__(self, "sin_numerator", tuple([float(c) for c in self.sin_numerator]))
        if self.denominator_power < 1:
            raise ValueError("denominator power must be at least 1")
        lim = 2 * self.denominator_power - 2
        for name, coeffs in (("cos", self.cos_numerator), ("sin", self.sin_numerator)):
            deg = _degree(coeffs)
            if deg > lim:
                raise ValueError(
                    f"{name} numerator degree {deg} exceeds the integrable limit {lim}"
                )
        if not math.isfinite(self.phase_scale):
            raise ValueError("phase scale must be finite")


def _degree(coeffs: Sequence[float]) -> int:
    deg = -1
    for i, c in enumerate(coeffs):
        if c != 0.0:
            deg = i
    return deg


def _even_part(coeffs: Sequence[float]) -> tuple[float, ...]:
    return tuple([c if i % 2 == 0 else 0.0 for i, c in enumerate(coeffs)])


def _odd_part(coeffs: Sequence[float]) -> tuple[float, ...]:
    return tuple([c if i % 2 == 1 else 0.0 for i, c in enumerate(coeffs)])


# ---------------------------------------------------------------------------
# the exact Taylor shift about the pole z = i


def _taylor_shift(cos_num: Sequence[float], sin_num: Sequence[float]) -> tuple[int, list, list]:
    """(unit, c, b): P - iQ = sum c_j z^j / unit = sum b_j (z - i)^j / unit, exactly.

    The float coefficients are dyadic rationals, so one power of two, unit,
    turns them into Gaussian integers c_j = (re, im); the shift about i
    (repeated synthetic division by z - i) keeps them integers.
    """
    ratios = [(x.as_integer_ratio(), (-y).as_integer_ratio())
              for x, y in zip_longest(cos_num, sin_num, fillvalue=0.0)]
    unit = max(d for pair in ratios for _, d in pair)  # a power of two
    coeffs = [(x * (unit // dx), y * (unit // dy)) for (x, dx), (y, dy) in ratios]
    shifted, rest = [], coeffs[::-1]
    while rest:
        acc, quotient = (0, 0), []
        for re, im in rest:
            acc = (re - acc[1], im + acc[0])  # acc * i + coefficient
            quotient.append(acc)
        shifted.append(quotient.pop())  # remainder: the value at i
        rest = quotient
    return unit, coeffs, shifted


@lru_cache(maxsize=128)
def _pole_expansion(cos_num: tuple, sin_num: tuple) -> tuple[np.ndarray, int]:
    """(coeffs, j0): P - iQ = sum c_j z^j = sum_{j >= j0} b_j (z - i)^j, b_j0 != 0.

    ``coeffs`` stacks c (row 0) over b_j0, b_j0+1, ... zero-padded to len(c)
    (row 1).  Both come from the exact ``_taylor_shift``, so j0 is the exact
    order of the zero.
    """
    unit, coeffs, shifted = _taylor_shift(cos_num, sin_num)
    j0 = next(j for j, v in enumerate(shifted) if v != (0, 0))
    table = np.zeros((2, len(coeffs)), dtype=complex)
    for row, pairs in enumerate((coeffs, shifted[j0:])):
        # int / int is correctly rounded, as a Fraction's float would be
        table[row, :len(pairs)] = [complex(re / unit, im / unit) for re, im in pairs]
    return table, j0


def _exact_zero_phase(cos_num: tuple, k: int) -> QuadratureResult:
    """The d = 0 integral, Re[2 pi i Res_{z=i}] of P / (1 + z^2)^k, exactly.

    sin(0) = 0, so only the even cos numerator P (``cos_num``) is left.
    With w = z - i, P = sum b_j w^j from ``_taylor_shift`` and
    (z + i)^-k = sum_n C(k-1+n, n) (-1)^n w^n / (2i)^(k+n); the residue is
    the w^(k-1) coefficient.  The sum is exact, so a value that vanishes by
    symmetry comes out as 0.0.
    """
    if _degree(cos_num) < 0:
        return QuadratureResult(0.0, 0.0, 0)
    unit, _, shifted = _taylor_shift(cos_num, ())
    # value / pi = 2 sum_j Re[b_j i^(1-k-n)] C(k-1+n, n) (-1)^n / 2^(k+n), n = k-1-j,
    # summed over the common denominator unit 2^(2k-1)
    total = 0
    for j, (re, im) in enumerate(shifted[:k]):
        n = k - 1 - j
        real = (re, -im, -re, im)[(1 - k - n) % 4]  # Re[(re + i im) i^(1-k-n)]
        total += ((-1) ** n * real * math.comb(k - 1 + n, n)) << (k - 1 - n)
    value = math.pi * float(Fraction(2 * total, unit << (2 * k - 1)))
    return QuadratureResult(value=value, error_estimate=2.0 * _EPS * abs(value), evaluations=0)


# ---------------------------------------------------------------------------
# contour trapezoid rule


def _normalized(integrand: PolynomialIntegrand) -> tuple[float, tuple, tuple]:
    """(|d|, P, Q) of the same integral: Q -> -Q for d < 0, odd-in-z parts dropped."""
    delta = float(integrand.phase_scale)
    sin_num = integrand.sin_numerator
    if delta < 0.0:
        delta, sin_num = -delta, tuple([-c for c in sin_num])
    return delta, _even_part(integrand.cos_numerator), _odd_part(sin_num)


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """The (n, len(x)) table of x^0, ..., x^(n-1), as running products, row by row."""
    table = np.empty((n, len(x)), dtype=x.dtype)
    table[0] = 1.0
    if n > 1:
        table[1] = x
    for j in range(2, n):
        np.multiply(table[j - 1], x, out=table[j])
    return table


def _exp_sinh(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = exp(pi/2 sinh v) at the nodes v, and ds/dv: the map t = g s, over g."""
    s = np.exp(_HALF_PI * np.sinh(v))
    return s, s * (_HALF_PI * np.cosh(v))


@lru_cache(maxsize=None)
def _first_pass(reach: float, finest: int) -> tuple[np.ndarray, np.ndarray]:
    """``_exp_sinh`` on the first call's grid: v in [-reach, reach], step _STEP / 2^finest."""
    intervals = round(2 * reach / _STEP) << finest
    return _exp_sinh(-reach + (_STEP / 2**finest) * np.arange(intervals + 1))


def eval_polynomial(
    integrand: PolynomialIntegrand,
    tol: float,
) -> QuadratureResult:
    """Integrate a cubic-phase integrand over the whole real line.

    ``tol`` is the target absolute error; ``error_estimate`` adds the last
    level change, the truncated tails and the rounding bounds of the terms.
    A term shown below eps tol is 0, and every other must be finite with a
    pole factor that does not overflow (see the module docstring).  More
    than ``EVALUATION_BUDGET`` evaluations, or a term that breaks that rule,
    raise QuadratureBudgetError.
    """
    if not (1e-13 <= tol <= 1e-3):
        raise ValueError(f"tolerance must lie in [1e-13, 1e-3], got {tol!r}")
    delta, cos_num, sin_num = _normalized(integrand)
    k = integrand.denominator_power
    if delta == 0.0:
        return _exact_zero_phase(cos_num, k)

    if _degree(cos_num) < 0 and _degree(sin_num) < 0:
        return QuadratureResult(0.0, 0.0, 0)

    coeffs, j0 = _pole_expansion(cos_num, sin_num)
    abs_c, abs_b = np.abs(coeffs)
    n = coeffs.shape[1]
    chunk = max(1, _TABLE_ENTRIES // n)
    e = min(j0, k)  # powers of (z - i) that the numerator cancels
    m = k - e  # order of the pole at i that is left
    # g = 1 - h; a cancelled pole (m = 0) still keeps the vertex off z = i
    g = min(1.0, math.sqrt(max(m, 1) / (2.0 * delta)))
    h = 1.0 - g
    # the terms are scaled by exp(-d Im phi(ih)) / (g^m (2 - g)^k), the size of
    # the exponential and the uncancelled poles at the vertex, which is at
    # most 1: absolute targets below hold for the unscaled value too
    log_phase = -delta * (h - h**3 / 3.0)
    log_scale = log_phase - m * math.log(g) - k * math.log(2.0 - g)
    # a scaled term is at most sum |c_j| max(1, |z|)^(n-1) |e^psi| g ds/dv
    # g^m (2 - g)^k / |z - i|^(2k), as |z + i| >= |z - i| on the contour; it
    # is negligible below eps tol, which here is over the constant factor
    log_negligible = (math.log(_EPS * tol) - math.log(abs_c.sum())
                      - (m + 1) * math.log(g) - k * math.log(2.0 - g))
    budget, evaluations = EVALUATION_BUDGET, 0

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def evaluate(s: np.ndarray, ds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scaled terms G(z) dz/dv at z = ih + g s e^(i pi/6), and their rounding bounds.

        ``s`` is exp(pi/2 sinh v) at the nodes v and ``ds`` its derivative in v.
        """
        nonlocal evaluations
        if evaluations + len(s) > budget:
            raise QuadratureBudgetError(f"evaluation budget {budget} exhausted")
        evaluations += len(s)
        w0 = (g * _RAY) * s  # z - ih
        z, w = w0 + 1j * h, w0 - 1j * g  # z and z - i
        # rounding bounds sum |c_j| |z|^j and sum |b_j| |w|^j, over |w|^e;
        # the expansion with the smaller one is evaluated
        abs_z, abs_w = np.abs(z), np.abs(w)
        bound_0 = abs_c @ _powers(abs_z, n) / abs_w**e
        bound_i = abs_b @ _powers(abs_w, n) * abs_w ** (j0 - e)
        near = bound_i < bound_0
        about_0, about_i = coeffs @ _powers(np.where(near, w, z), n)
        # (P - iQ)(z) / (z - i)^e
        num = np.where(near, about_i * w ** (j0 - e), about_0 / w**e)
        # i d (phi(z) - phi(ih)), expanded about the vertex
        psi = 1j * delta * (w0 * (g * (2.0 - g) + w0 * (1j * h + w0 / 3.0)))
        pole = (w / g) ** m * ((w0 + 1j * (2.0 - g)) / (2.0 - g)) ** k
        rest = np.exp(psi) * (g * _RAY) * ds / pole
        vals = num * rest
        # one rule for every node: a term below the bound above, taken in logs,
        # is 0, and every other must be finite, with a rest not set to 0 by an
        # overflowing pole factor.  The bound is NaN only where s or |z|^3
        # overflows, so far out that the term is negligible: NaN is below it
        kept = ((n - 1) * np.log(np.maximum(abs_z, 1.0)) - 2 * k * np.log(abs_w)
                + psi.real + np.log(ds)) > log_negligible
        abs_rest = np.abs(rest)
        if (kept & ~(np.isfinite(vals) & (abs_rest > 0.0))).any():
            raise QuadratureBudgetError(f"a term not shown below eps tol = {_EPS * tol:.3g} "
                                        f"overflows or is dropped as underflowed")
        bound = _EPS * (2 * n + 2 * k + 2 + np.abs(psi)) * abs_rest * np.minimum(bound_0, bound_i)
        return np.where(kept, vals, 0.0), np.where(kept, bound, 0.0)

    def terms(s: np.ndarray, ds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The terms and their rounding bounds at the nodes; an evaluate call takes at most chunk."""
        vals, noise = zip(*(evaluate(s[i:i + chunk], ds[i:i + chunk])
                            for i in range(0, len(s), chunk)))
        return np.concatenate(vals), np.concatenate(noise)

    # every node lies on one uniform grid in v, held in v order; level l,
    # step _STEP / 2^l, is every 2^(finest - l)-th node of it.  The first call
    # evaluates the grid of the coarsest level and its first halvings on v in
    # [-_REACH, _REACH], down to the finest level that the budget holds
    finest = _FIRST_LEVELS - 1
    while finest and (round(2 * _REACH / _STEP) << finest) >= budget:
        finest -= 1
    vals, noise = terms(*_first_pass(_REACH, finest))
    window, fine = [-_REACH, _REACH], _STEP / 2**finest

    # an end still above the floor is widened by whole coarse steps, with
    # the grid's own nodes.  Past an end the terms fall at least like
    # exp(-pi/2 sinh|v|) cosh v, which sizes the widening from the end
    # term.  Being systematic, the tails get a small share of the tolerance
    floor = max(tol / 256.0, _EPS * np.abs(vals).max())
    for side, sign in ((0, -1.0), (-1, 1.0)):
        while abs(vals[side]) > floor:
            reach = abs(window[side])
            target = math.asinh(math.sinh(reach) + (math.log(abs(vals[side]) / floor) + 1.0) / _HALF_PI)
            width = max(1, math.ceil((target - reach) / _STEP))
            v = window[side] + sign * fine * np.arange(1, (width << finest) + 1)  # outermost last
            more = terms(*_exp_sinh(v))
            vals, noise = (np.concatenate((old, new) if side else (new[::-1], old))
                           for old, new in zip((vals, noise), more))
            window[side] = float(v[-1])
    tail = abs(vals[0]) + abs(vals[-1])

    # the level rule: stop at the first level that agrees with the one before
    # it, or differs from it only by rounding.  Past the finest level, each
    # later call evaluates the midpoints of the finest grid's intervals
    step, intervals = _STEP, len(vals) - 1
    previous, rounding = step * vals[::1 << finest].sum(), step * noise[::1 << finest].sum()
    level = 1
    while True:
        step /= 2.0
        if level <= finest:
            stride = 1 << (finest - level)
            current, rounding = step * vals[::stride].sum(), step * noise[::stride].sum()
        else:
            more, more_noise = terms(*_exp_sinh(window[0] + step * (2 * np.arange(intervals) + 1)))
            current = previous / 2.0 + step * more.sum()
            rounding = rounding / 2.0 + step * more_noise.sum()
            intervals *= 2
        change = abs(current - previous)
        if change <= max(tol / 8.0, rounding):
            break
        previous, level = current, level + 1

    scale = math.exp(log_scale)
    value = 2.0 * scale * float(current.real)
    error = 2.0 * scale * float(change + tail + rounding)
    error += _EPS * (4.0 + abs(log_phase) + m * abs(math.log(g)) + k) * abs(value)  # of the scale
    return QuadratureResult(value=value, error_estimate=error, evaluations=evaluations)


def exact_numerators(integrand: CubicPhaseIntegrand) -> tuple[list, list, int]:
    """(P, Q, n), exactly: the integral is that of (P cos + Q sin) / (1 + z^2)^n.

    n = max(a, b), and (1 + z^2)^n times the rational part is N = (alpha z +
    beta) (z + i)^(n-a) (z - i)^(n-b), one of the powers 0; Re[N e^(i d phi)]
    is Re N cos - Im N sin.  P and Q are Fractions over one power of two,
    with trailing zeros dropped.
    """
    a, b = integrand.a, integrand.b
    ratios = [x.as_integer_ratio()
              for c in (integrand.alpha, integrand.beta) for x in (c.real, c.imag)]
    unit = max(d for _, d in ratios)
    ar, ai, br, bi = (x * (unit // d) for x, d in ratios)
    n = max(a, b)
    power, root = (n - a, 1) if a < n else (n - b, -1)
    # (z + root i)^power = sum_m C(power, m) (root i)^(power - m) z^m, between zeros
    binomial = [(0, 0)]
    for m in range(power + 1):
        c = math.comb(power, m) * root ** (power - m)
        binomial.append([(c, 0), (0, c), (-c, 0), (0, -c)][(power - m) % 4])
    binomial.append((0, 0))
    # the z^m coefficient of N is beta B_m + alpha B_(m-1)
    cos_num, sin_num = [], []
    for (pr, pi), (qr, qi) in zip(binomial[1:], binomial[:-1]):
        cos_num.append(Fraction(br * pr - bi * pi + ar * qr - ai * qi, unit))
        sin_num.append(Fraction(-(br * pi + bi * pr + ar * qi + ai * qr), unit))
    for num in (cos_num, sin_num):
        while num and num[-1] == 0:
            num.pop()
    return cos_num, sin_num, n


def expanded(integrand: CubicPhaseIntegrand) -> PolynomialIntegrand:
    """The same integral as a ``PolynomialIntegrand``: ``exact_numerators``, each rounded once."""
    cos_num, sin_num, n = exact_numerators(integrand)
    return PolynomialIntegrand(tuple(map(float, cos_num)), tuple(map(float, sin_num)), n,
                               integrand.phase_scale)


# ---------------------------------------------------------------------------
# routes through the engine


# the default arm leaves the vertex at pi/6
SHIFTED_RAYS = (math.pi / 8, math.pi / 5)


def on_ray(integrand: CubicPhaseIntegrand, tol: float, angle: float) -> QuadratureResult:
    """``eval_oscillatory`` on the contour whose right arm leaves the vertex at ``angle``."""
    with mock.patch.object(quadrature, "_RAY", cmath.exp(1j * angle)):
        return eval_oscillatory(integrand, tol)


def assert_contour_shift_agrees(integrand: CubicPhaseIntegrand, tol: float) -> None:
    """The default arms and each of SHIFTED_RAYS agree within the sum of both estimates."""
    direct = eval_oscillatory(integrand, tol)
    for angle in SHIFTED_RAYS:
        shifted = on_ray(integrand, tol, angle)
        assert abs(direct.value - shifted.value) <= direct.error_estimate + shifted.error_estimate, (
            integrand, angle, direct, shifted)


def ik_integrand(k: int, delta: float) -> CubicPhaseIntegrand:
    """2 I_k(d): cos(d phi) / (1 + z^2)^k over R."""
    return CubicPhaseIntegrand(0.0, 1.0, k, k, delta)


def jk_integrand(k: int, delta: float) -> CubicPhaseIntegrand:
    """2 J_k(d): z sin(d phi) / (1 + z^2)^k over R, the Re of -i z e^(i d phi)."""
    return CubicPhaseIntegrand(-1j, 0.0, k, k, delta)


def _u_basis(even_coeffs) -> dict[int, Fraction]:
    """Rewrite an even polynomial sum c_{2j} z^{2j} as sum e_i (1+z^2)^i, exactly."""
    # dyadic floats: one power of two makes every coefficient an integer
    ratios = [float(c).as_integer_ratio() for c in even_coeffs[::2]]
    unit = max((d for _, d in ratios), default=1)
    out = [0] * len(ratios)
    for jj, (n, d) in enumerate(ratios):
        # z^2 = u - 1 with u = 1 + z^2: the u^i coefficient of c (u - 1)^jj
        term = n * (unit // d) * (-1) ** jj
        for i in range(jj + 1 if n else 0):
            out[i] += term * math.comb(jj, i)
            term = -term
    return {i: Fraction(v, unit) for i, v in enumerate(out) if v != 0}


@lru_cache(maxsize=None)
def _ik_zero_ratio(k: int) -> Fraction:
    """I_k(0) / (pi/2) = (2k-3)!!/(2k-2)!!, exactly."""
    return Fraction(math.prod(range(2 * k - 3, 0, -2)), math.prod(range(2 * k - 2, 0, -2)))


def zero_phase_by_u_basis(integrand: PolynomialIntegrand) -> QuadratureResult:
    """The d = 0 integral from the u-basis: pi sum e_i (I_(k-i)(0) / (pi/2)), exactly."""
    k = integrand.denominator_power
    basis = _u_basis(_even_part(integrand.cos_numerator))
    total = sum((c * _ik_zero_ratio(k - i) for i, c in basis.items()), Fraction(0))
    value = math.pi * float(total)
    return QuadratureResult(value=value, error_estimate=2.0 * sys.float_info.epsilon * abs(value),
                            evaluations=0)


def ikjk_decomposition(
    integrand: PolynomialIntegrand,
) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Exact coefficients of the I/J basis: value = 2 sum a_k I_k + 2 sum b_k J_k."""
    k = integrand.denominator_power
    i_terms: dict[int, Fraction] = {}
    for i, c in _u_basis(_even_part(integrand.cos_numerator)).items():
        i_terms[k - i] = i_terms.get(k - i, Fraction(0)) + c
    j_terms: dict[int, Fraction] = {}
    odd = _odd_part(integrand.sin_numerator)
    stripped = tuple(odd[1:])  # divide by z; remaining polynomial is even
    for i, c in _u_basis(stripped).items():
        j_terms[k - i] = j_terms.get(k - i, Fraction(0)) + c
    return ({i: v for i, v in i_terms.items() if v != 0},
            {i: v for i, v in j_terms.items() if v != 0})


def eval_via_ikjk(integrand: PolynomialIntegrand, tol: float = 1e-10) -> QuadratureResult:
    """Reassemble the integral from the engine's I_k/J_k values."""
    i_terms, j_terms = ikjk_decomposition(integrand)
    delta = integrand.phase_scale
    n_terms = max(1, len(i_terms) + len(j_terms))
    total, err, evals = 0.0, 0.0, 0
    for terms, basis in ((i_terms, ik_integrand), (j_terms, jk_integrand)):
        for kk, coeff in sorted(terms.items()):
            sub_tol = max(1e-13, tol / (4.0 * n_terms * max(1.0, abs(float(coeff)))))
            res = eval_oscillatory(basis(kk, delta), sub_tol)
            total += float(coeff) * res.value
            err += abs(float(coeff)) * res.error_estimate
            evals += res.evaluations
    return QuadratureResult(value=total, error_estimate=err, evaluations=evals)


# ---------------------------------------------------------------------------
# the paper's printed integrands


def f4_integrand(theta_tilde: float) -> PolynomialIntegrand:
    """Second-order splitting integrand (numerators of degree 4 and 5, power 6)."""
    return PolynomialIntegrand(
        cos_numerator=(2.0, 0.0, -24.0, 0.0, 14.0),
        sin_numerator=(0.0, 11.0, 0.0, -26.0, 0.0, 3.0),
        denominator_power=6,
        phase_scale=theta_tilde**3,
    )


def f61_integrand(theta_tilde: float) -> PolynomialIntegrand:
    """First-harmonic third-order integrand (power 6, half-rate phase)."""
    return PolynomialIntegrand(
        cos_numerator=(-1.0, 0.0, 9.0),
        sin_numerator=(0.0, -6.0, 0.0, 4.0),
        denominator_power=6,
        phase_scale=theta_tilde**3 / 2.0,
    )


def f62_integrand(theta_tilde: float) -> PolynomialIntegrand:
    """Third-harmonic third-order integrand (power 8, 3/2-rate phase)."""
    return PolynomialIntegrand(
        cos_numerator=(-3.0, 0.0, 69.0, 0.0, -125.0, 0.0, 27.0),
        sin_numerator=(0.0, -22.0, 0.0, 120.0, 0.0, -78.0, 0.0, 4.0),
        denominator_power=8,
        phase_scale=1.5 * theta_tilde**3,
    )


#: the paper's names and their literal integrands
PAPER_INTEGRANDS = {"F4": f4_integrand, "F61": f61_integrand, "F62": f62_integrand}
