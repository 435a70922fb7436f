"""Oscillatory quadrature for cubic-phase improper integrals.

Evaluates integrals of the form

    integral over R of [P(z) cos(d phi(z)) + Q(z) sin(d phi(z))] / (1 + z^2)^k dz,
    phi(z) = z + z^3/3,

with polynomial numerators P, Q.  Odd-in-z parts of the numerators
integrate to zero and are dropped exactly; for d > 0 the integral is then
Re of the integral of (P - iQ)(z) exp(i d phi(z)) / (1 + z^2)^k, and d < 0
is the same with Q -> -Q.  Its value falls like exp(-2d/3), far below the
size of the integrand on the real line, so the line is moved into the upper
half plane, where the integrand neither oscillates nor cancels:

* the contour is the V-shaped path z = ih + t e^(i pi/6), t >= 0, and its
  mirror image; by symmetry the integral is 2 Re of the right arm's;
* the vertex height h = max(0, 1 - sqrt(m / 2d)) puts the vertex at the
  saddle of exp(i d phi) times the pole of order m that P - iQ leaves at
  z = i (m comes from an exact Taylor shift of P - iQ about i);
* the trapezoid rule runs in v, with t = g exp((pi/2) sinh v): the
  double-exponential (exp-sinh) map of Takahasi & Mori (Publ. RIMS 9,
  1974), under which the terms fall like exp(-(pi/2) sinh|v|) cosh v at both
  ends, and each term carries the weight dt/dv = t (pi/2) cosh v.  The
  trapezoid rule then converges exponentially in the step (Trefethen &
  Weideman, "The exponentially convergent trapezoidal rule", SIAM Rev. 56,
  2014).  The window v in [-4, 4] runs from t = 2e-19 g to 4e18 g, where
  the end terms are usually negligible;
* every node lies on one uniform grid in v, held in v order.  The coarsest
  level has step 1/2 on that window (17 nodes), and the step is halved
  until two levels agree; level l, of step 2^-(l+1), is every
  2^(finest - l)-th node of the finest grid evaluated, so its trapezoid sum
  is a strided sum.  The error of the rule roughly squares per halving, so
  the first call evaluates the grid of step 1/32, the coarsest level and its
  first four halvings (257 nodes, one table even for 130 coefficients), or
  the finest grid that fits in the budget; each later call evaluates the
  midpoints of the finest grid, and the next level is half the previous
  one plus the step times their sum.  The stopping rule is applied level
  by level, so it stops at the first pair of levels that agree whatever the
  call held;
* the scaled terms are at most about the numerator's size at the vertex,
  and |P - iQ| there reaches 1.8e5 / g, so an end term of the window is not
  always negligible.  An end whose term is still above the floor
  max(tol/256, eps max|term|) is widened by whole coarse steps, sized from
  that term by the exp(-(pi/2) sinh|v|) decay, with nodes of the grid's own
  step, so every level evaluated so far gets its nodes on the new stretch;
* at each node the numerator is evaluated from its expansion about 0 or
  about i, whichever has the smaller rounding bound sum |c_j| |w|^j.  The
  powers x^0 .. x^(n-1) of |z|, |w| and the chosen variable come from
  running products, one ``np.multiply`` of the previous row per row (in
  place, which is faster than ``np.cumprod`` down the strided axis), and
  each table is contracted with its coefficients in one matrix product.  A
  table holds at most 2^16 entries (1 MB), so a call evaluates at most
  2^16 / n nodes.  x^j formed by j - 1 products carries at most j
  roundings: that is Horner's error class, which the rounding term below
  (eps (2 len(c) + ...)) covers;
* one rule decides which terms count.  A term is at most the bound
  sum |c_j| max(1, |z|)^(n-1) of its numerator times the rest of the term
  with |z - i|^2, which is no larger on the contour, for |1 + z^2|.  That
  bound is taken in logs at every node, and a term below eps tol by it is
  0.  Every other term must be finite, and its rest (the exponential times
  the weight over the pole factor) must not be 0, which it is where the
  pole factor (z - i)^m (z + i)^k, scaled by its size at the vertex,
  overflows; else the call raises QuadratureBudgetError.  So no term is the
  NaN of a complex division by inf or of 0 times an overflowed numerator,
  and none is dropped that is not shown negligible.  The pole factor
  overflows only far out on the arm: over F_(j,k) for 1 <= k <= j <= 64 at
  theta = +-0.6 and +-2, and every F_(k,k), k <= 64, on the theta lattice
  -2.5 .. 5, the terms there are below 1e-190 and their bound below
  1e-126, which holds at theta = -1.5, 0.1, 0.5, 0.61, 1, 1.5 and 2.5 too
  (the largest at F_(64,64), theta = 0.1).  The rule raises where the
  numerator's top powers cancel a pole factor that overflows close in, as
  for (1 + z^598) / (1 + z^2)^300 at d = 1e-300, whose zeroed terms would
  carry half the value, and where the kept terms overflow, as for
  (1 + 1e200 z^38) / (1 + z^2)^20.

``error_estimate`` adds the difference of the last two levels, the end
terms of the window standing for the truncated tails (past an end the
terms fall double-exponentially, so a tail is far below its end term), and
eps times the rounding bounds summed over the nodes with the step as
weight.  ``evaluations`` counts every node evaluated, including those of
the first call's levels past the level where the rule stopped.

At d = 0 nothing oscillates and the value is exact: closed in the upper
half plane, the integral is Re[2 pi i Res_{z=i}] of P / (1 + z^2)^k, and the
residue comes from the same exact Taylor shift about i (``_taylor_shift``)
that places the vertex.  It is pi times a correctly rounded rational, with
error estimate 2 eps |value| and 0 evaluations.

Every splitting integrand is one ``harmonic_integrand(j, k, theta)`` for a
Legendre order j and a harmonic k: the integer polynomial
P = ((j+1) z + i k)(1 - i z)^(2k) gives the cos numerator Im P and the sin
numerator Re P over (1 + z^2)^(j+k+2), with phase scale k theta^3/2.  The
paper's names are signs and indices of it (``f_name``): F4, F61 and F62 are
F_(2,2), -F_(3,1) and -F_(3,3), and poly:N is F_(N-1,N-1); the paper's
printed numerators are the tests' oracle for them.

By Cauchy's theorem the value does not depend on the angle of the arms,
while every node and rounding error does; the tests check the engine by
turning the arms to other angles in (0, pi/3).
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Callable, Sequence

import numpy as np

from .harmonics import MAX_LEGENDRE_ORDER

EVALUATION_BUDGET = 10**7  # most integrand evaluations per integral

_EPS = sys.float_info.epsilon
_RAY = cmath.exp(1j * math.pi / 6)  # direction of the contour's right arm
_HALF_PI = math.pi / 2.0
_STEP = 0.5  # trapezoid step in v on the coarsest level
_REACH = 4.0  # the coarsest level spans v in [-_REACH, _REACH] unless an end is widened
_FIRST_LEVELS = 5  # levels of the first call, steps 1/2 .. 1/32: 17 + 240 nodes
_TABLE_ENTRIES = 2**16  # entries of the largest power table (1 MB complex)


class QuadratureBudgetError(RuntimeError):
    """Requested tolerance is unreachable within the evaluation budget."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class CubicPhaseIntegrand:
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


def _normalized(integrand: CubicPhaseIntegrand) -> tuple[float, tuple, tuple]:
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


def eval_oscillatory(
    integrand: CubicPhaseIntegrand,
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


# ---------------------------------------------------------------------------
# one integrand per Legendre order and harmonic


@lru_cache(maxsize=None)
def _harmonic_numerators(j: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(Im P, Re P) of P(z) = ((j+1) z + i k)(1 - i z)^(2k), exact integers, ascending."""
    re, im = [0] * (2 * k + 2), [0] * (2 * k + 2)
    for m in range(2 * k + 1):
        # the z^m coefficient of (1 - i z)^(2k) is C(2k, m) (-i)^m = a + i b
        unit_re, unit_im = ((1, 0), (0, -1), (-1, 0), (0, 1))[m % 4]
        a, b = math.comb(2 * k, m) * unit_re, math.comb(2 * k, m) * unit_im
        re[m + 1] += (j + 1) * a
        im[m + 1] += (j + 1) * b
        re[m] -= k * b
        im[m] += k * a
    for coeffs in (re, im):
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
    return tuple(im), tuple(re)


def harmonic_integrand(j: int, k: int, theta_tilde: float) -> CubicPhaseIntegrand:
    """F_(j,k): the splitting integrand of Legendre order j and harmonic k.

    In sigma = sinh tau the harmonic k of the order-j energy derivative along
    the separatrix is, up to a constant, P(sigma) exp(i d (sigma + sigma^3/3))
    over (1 + sigma^2)^(j+k+2), with d = k theta^3/2 and the integer
    polynomial P = ((j+1) sigma + i k)(1 - i sigma)^(2k).  Its part even in
    sigma is i (Im P cos + Re P sin), so the cos numerator is Im P and the
    sin numerator Re P.  ``f_name`` gives the paper's names for it.
    """
    if j < 1 or k < 1:
        raise ValueError(f"need j >= 1 and k >= 1, got j={j}, k={k}")
    cos_num, sin_num = _harmonic_numerators(j, k)
    return CubicPhaseIntegrand(cos_num, sin_num, j + k + 2, _phase_scale(k, theta_tilde))


def _phase_scale(k: int, theta_tilde: float) -> float:
    """k theta^3 / 2; an OverflowError naming k and theta where it overflows for a finite theta.

    A theta that is not finite passes through, and the integrand refuses it
    as a ``ValueError``.
    """
    try:
        d = k * theta_tilde**3 / 2.0
    except OverflowError:  # theta^3 itself overflows beyond about 5.6e102
        d = math.inf
    if math.isinf(d) and math.isfinite(theta_tilde):
        raise OverflowError(f"phase scale k theta^3 / 2 overflows at k = {k}, "
                            f"theta = {theta_tilde!r}")
    return d


# the paper's F-functions as signed harmonic integrands: name -> (j, k, sign)
_PAPER_NAMES = {"F4": (2, 2, 1), "F61": (3, 1, -1), "F62": (3, 3, -1)}
F_NAMES = f"F4 | F61 | F62 | poly:N with 4 <= N <= {MAX_LEGENDRE_ORDER + 1}"


def f_name(name: str) -> tuple[int, int, int]:
    """(j, k, sign) of a named F-function, which is sign F_(j,k).

    F4, F61 and F62 are F_(2,2), -F_(3,1) and -F_(3,3); poly:N is the
    polygon's F_(N-1,N-1).  Any other name raises ``ValueError``.
    """
    if name in _PAPER_NAMES:
        return _PAPER_NAMES[name]
    if name.startswith("poly:"):
        try:
            n_total = int(name[len("poly:"):])
        except ValueError:
            n_total = 0
        if 4 <= n_total <= MAX_LEGENDRE_ORDER + 1:
            return n_total - 1, n_total - 1, 1
    raise ValueError(f"unknown F-function {name!r}: expected {F_NAMES}")


def named_integrand(name: str) -> Callable[[float], CubicPhaseIntegrand]:
    """theta -> the integrand of the F-function ``name`` (see ``f_name``).

    The sign is carried by both numerators, not applied to the value, so a
    value that vanishes exactly stays 0.0 rather than -0.0.
    """
    j, k, sign = f_name(name)
    cos_num, sin_num = (tuple([sign * c for c in num]) for num in _harmonic_numerators(j, k))
    return lambda theta_tilde: CubicPhaseIntegrand(cos_num, sin_num, j + k + 2,
                                                   _phase_scale(k, theta_tilde))


# ---------------------------------------------------------------------------
# half-line basis integrals


def eval_Ik(k: int, delta: float, tol: float = 1e-10) -> float:
    """I_k(d) = integral of cos(d (z + z^3/3)) / (1+z^2)^k over [0, inf)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    integrand = CubicPhaseIntegrand((1.0,), (), k, delta)
    return 0.5 * eval_oscillatory(integrand, tol).value


def eval_Jk(k: int, delta: float, tol: float = 1e-10) -> float:
    """J_k(d) = integral of z sin(d (z + z^3/3)) / (1+z^2)^k over [0, inf)."""
    if k < 2:
        raise ValueError(f"need k >= 2 for absolute convergence, got {k}")
    integrand = CubicPhaseIntegrand((), (0.0, 1.0), k, delta)
    return 0.5 * eval_oscillatory(integrand, tol).value


# ---------------------------------------------------------------------------
# root finding


def find_zeros(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    grid: int = 64,
    xtol: float = 1e-10,
) -> list[float]:
    """Sign-change bracketing on a uniform grid followed by bisection."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    if grid < 8:
        raise ValueError("need at least 8 grid points")
    xs = np.linspace(lo, hi, grid)
    fs = [f(float(x)) for x in xs]
    roots = []
    for i in range(grid - 1):
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0:
            roots.append(float(xs[i]))
            continue
        if fa * fb < 0.0:
            a, b = float(xs[i]), float(xs[i + 1])
            va = fa
            while b - a > xtol:
                mid = 0.5 * (a + b)
                vm = f(mid)
                if vm == 0.0:
                    a = b = mid
                    break
                if va * vm < 0.0:
                    b = mid
                else:
                    a, va = mid, vm
            roots.append(0.5 * (a + b))
    if fs[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)
