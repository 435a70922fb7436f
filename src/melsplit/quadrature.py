"""Oscillatory quadrature for cubic-phase improper integrals.

Every integral this package needs has one factored shape,

    Re integral over R of (alpha z + beta) (z + i)^-a (z - i)^-b exp(i d phi(z)) dz,
    phi(z) = z + z^3/3,

a linear numerator over two integer pole powers (either may be negative,
a polynomial factor), with a + b at least 2 plus the numerator's degree.
The part of the integrand that is not mirror-symmetric, G(-conj z) =
conj G(z), integrates to an imaginary number on R and is dropped exactly:
for a + b even that keeps i Im alpha and Re beta, for a + b odd Re alpha
and i Im beta.  On the real line Re G = Re conj G, so d < 0 is d > 0 with
alpha, beta conjugated and a, b swapped; and a numerator that vanishes at
z = i cancels one power of the pole there, (alpha z + alpha i) = alpha
(z - i), leaving the numerator alpha.  The value falls like exp(-2d/3), far
below the size of the integrand on the real line, so the line is moved into
the upper half plane, where the integrand neither oscillates nor cancels:

* the contour is the V-shaped path z = ih + t e^(i pi/6), t >= 0, and its
  mirror image; by symmetry the integral is 2 Re of the right arm's;
* the vertex height h = max(0, 1 - sqrt(b / 2d)) puts the vertex at the
  saddle of exp(i d phi) times the pole of order b at z = i (b = 1 where
  there is no pole);
* the trapezoid rule runs in v, with t = g exp((pi/2) sinh v), g = 1 - h:
  the double-exponential (exp-sinh) map of Takahasi & Mori (Publ. RIMS 9,
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
  the first pass evaluates the grid of step 1/32, the coarsest level and its
  first four halvings (257 nodes); each later level evaluates the midpoints
  of the finest grid, and its sum is half the previous one plus the step
  times theirs.  The stopping rule is applied level by level, so it stops
  at the first pair of levels that agree whatever the pass held;
* the pass runs over a list of integrands at once (``eval_oscillatory_list``):
  one kernel call (``_terms``) evaluates the first pass of as many of them
  as fit in fewer than 2^14 nodes (63 rows of 257) on the shared grid, each
  with its own d, alpha, beta, vertex, negligible bound and (a, b) held as
  columns, and each later level is one call over those that still need it.
  2^14 nodes is the size where numpy computes a product in place with its
  factors swapped, so below it each result is that of the integrand's own
  call bit for bit; one whose end is widened goes on alone from its own
  terms.
  ``eval_oscillatory`` is the pass over a list of one;
* the terms are scaled by the size of the exponential and of both pole
  factors at the vertex, so a node costs the numerator, two integer powers
  (``_power``) and one exp, whatever a and b are.  Where that scale exceeds
  1 the absolute targets below are divided by it.  An end whose term is
  still above the floor max(tol/256, eps max|term|) is widened by whole
  coarse steps, sized from that term by the exp(-(pi/2) sinh|v|) decay,
  with nodes of the grid's own step, so every level evaluated so far gets
  its nodes on the new stretch;
* one rule decides which terms count.  The log of a term's size, with the
  numerator bounded by |alpha| |z| + |beta|, is taken at every node from
  the logs of |z - i| and |z + i|, which cannot overflow, and a term below
  eps tol by it is 0.  Every other term must be finite and its rest (the
  exponential times the weight over the pole factors) must not be 0, else
  the call raises QuadratureBudgetError, as it does where a level or charge
  sum is not finite.  So no term is the NaN of inf / inf where a pole power
  overflows far out on the arm, and none is dropped that is not shown
  negligible.  ``_terms`` flags each row that breaks the rule,
  and ``_kernel_calls``, through which every pass goes, applies it once,
  beside the evaluation budget.  Each integral's row owns its outcome, a
  result or the error its own call raises, set where the level rule
  (``_Row.settles``) stops it or a rule fails it.  A result whose value,
  or the scale of its terms, lies outside the normal double range is a
  NumericalFailure, never an exact-looking 0.

``error_estimate`` adds the difference of the last two levels, the end
terms of the window standing for the truncated tails (past an end the
terms fall double-exponentially, so a tail is far below its end term), and
eps times a rounding charge of each term, summed over the nodes with the
step as weight: 2 (|a| + |b|) roundings for the pole powers, 3 |psi| for
the exponent psi and 8 for the numerator and the rest.  These constants
are empirical, not a worst-case bound.  They were set from 40-digit
references at the nodes of seven integrands with |a| + |b| up to 132,
where the pole powers erred by at most 1.3 (|a| + |b|) eps, and a test
pins them at |a| + |b| from 200 to 256, where ``_power`` splits its
powers.  The worst case is larger: n times the relative rounding of
w / g, plus about sqrt(5) eps for each complex product of the squaring,
weighted by the power it feeds.  ``evaluations`` counts every node
evaluated, including those of the first pass's levels past the level where
the rule stopped.

At d = 0 nothing oscillates and the value is exact: closed in the upper
half plane, the integral is Re[2 pi i Res_{z=i}], and with w = z - i the
residue is the w^(b-1) coefficient of (alpha w + alpha i + beta) times the
binomial series of (w + 2i)^-a, a sum of two terms (``_exact_zero_phase``).
It is pi times a correctly rounded rational, with error estimate
2 eps |value| and 0 evaluations.

Every splitting integrand is one ``harmonic_integrand(j, k, theta)`` for a
Legendre order j and a harmonic k: with (1 - iz)^(2k) = (-1)^k (z + i)^(2k),
the integrand ((j+1) z + i k)(1 - i z)^(2k) / (1 + z^2)^(j+k+2) of the paper,
whose Im is taken, is (-1)^k ((j+1) z + i k) (z + i)^(k-j-2) (z - i)^-(j+k+2),
with phase scale k theta^3/2.  The paper's names are signs and indices of it
(``f_name``): F4, F61 and F62 are F_(2,2), -F_(3,1) and -F_(3,3), and poly:N
is F_(N-1,N-1); the paper's printed numerators are the tests' oracle for
them.

By Cauchy's theorem the value does not depend on the angle of the arms,
while every node and rounding error does; the tests check the engine by
turning the arms to other angles in (0, pi/3).
"""
from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NumericalFailure
from .harmonics import MAX_LEGENDRE_ORDER

EVALUATION_BUDGET = 10**7  # most integrand evaluations per integral

_EPS = sys.float_info.epsilon
_RAY = cmath.exp(1j * math.pi / 6)  # direction of the contour's right arm
_HALF_PI = math.pi / 2.0
_STEP = 0.5  # trapezoid step in v on the coarsest level
_REACH = 4.0  # the coarsest level spans v in [-_REACH, _REACH] unless an end is widened
_FIRST_LEVELS = 5  # levels of the first pass, steps 1/2 .. 1/32: 17 + 240 nodes; at least 2
_CHUNK = 2**16  # most nodes per kernel call, so that its arrays stay near 1 MB
# numpy computes x * y in place in y when y is a temporary of 256 KiB (2^14
# complex numbers) or more, as y * x, and a complex product with its factors
# swapped can differ in the last bit; so a kernel call over several
# integrals holds fewer nodes than that, and its terms are those of one
# call per integral bit for bit
_ELISION = 2**14
_BROKEN = "a term not shown below eps tol overflows or is dropped as underflowed"


class QuadratureBudgetError(NumericalFailure):
    """Requested tolerance is unreachable within the evaluation budget."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class CubicPhaseIntegrand:
    """Re of the integral over R of (alpha z + beta)(z + i)^-a (z - i)^-b exp(i d (z + z^3/3)).

    ``alpha`` and ``beta`` are complex, ``a`` and ``b`` integer pole
    powers and ``phase_scale`` is d.
    """

    alpha: complex
    beta: complex
    a: int
    b: int
    phase_scale: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        if not all(map(cmath.isfinite, (self.alpha, self.beta))):
            raise ValueError("the numerator's coefficients must be finite")
        least = 2 + (self.alpha != 0)
        if self.a + self.b < least:
            raise ValueError(f"pole powers a + b = {self.a + self.b} leave the integral "
                             f"divergent: need at least {least}")
        if not math.isfinite(self.phase_scale):
            raise ValueError("phase scale must be finite")


def _normalized(integrand: CubicPhaseIntegrand) -> tuple[float, complex, complex, int, int]:
    """(d, alpha, beta, a, b) of the same integral: d >= 0, mirror-symmetric, no zero at i.

    d < 0 is the conjugate with a and b swapped; the part that is not
    mirror-symmetric is dropped; a numerator alpha (z - i) becomes alpha
    over one power of (z - i) less.
    """
    delta, alpha, beta = float(integrand.phase_scale), integrand.alpha, integrand.beta
    a, b = integrand.a, integrand.b
    if delta < 0.0:
        delta, alpha, beta, a, b = -delta, alpha.conjugate(), beta.conjugate(), b, a
    if (a + b) % 2:
        alpha, beta = complex(alpha.real, 0.0), complex(0.0, beta.imag)
    else:
        alpha, beta = complex(0.0, alpha.imag), complex(beta.real, 0.0)
    if alpha != 0 and alpha * 1j + beta == 0:
        alpha, beta, b = 0j, alpha, b - 1
    return delta, alpha, beta, a, b


def _binomial(x: int, n: int) -> int:
    """C(x, n) = x (x - 1) ... (x - n + 1) / n! for any integer x; 0 for n < 0."""
    if n < 0:
        return 0
    return math.comb(x, n) if x >= 0 else (-1) ** n * math.comb(n - x - 1, n)


def _exact_zero_phase(alpha: complex, beta: complex, a: int, b: int) -> QuadratureResult:
    """The d = 0 integral, Re[2 pi i Res_{z=i}], exactly.

    With w = z - i the numerator is alpha w + gamma, gamma = alpha i + beta,
    and (z + i)^-a = sum_n C(-a, n) (2i)^(-a-n) w^n, so the residue, the
    w^(b-1) coefficient, is (2i)^-q X with q = a + b - 1 and
    X = gamma C(-a, b-1) + 2i alpha C(-a, b-2).  The float coefficients are
    dyadic rationals, so the sum is exact, and a value that vanishes by
    symmetry comes out as 0.0.
    """
    ar, ai, br, bi = map(Fraction, (alpha.real, alpha.imag, beta.real, beta.imag))
    c1, c2 = _binomial(-a, b - 1), _binomial(-a, b - 2)
    x_re = (br - ai) * c1 - 2 * ai * c2
    x_im = (bi + ar) * c1 + 2 * ar * c2
    q = a + b - 1
    # value / pi = -2 Im[i^-q X] / 2^q
    im = (x_im, -x_re, -x_im, x_re)[q % 4]
    value = math.pi * float(-2 * im / 2**q)
    return QuadratureResult(value=value, error_estimate=2.0 * _EPS * abs(value), evaluations=0)


# ---------------------------------------------------------------------------
# contour trapezoid rule


class _Arm(NamedTuple):
    """Right arms of one kernel call: normalized integrands, vertices and negligible-term bounds.

    Each field is a number for one integral, or a column with one entry per
    integral, its rows in the order of the kernel call's rows.
    """

    delta: float
    alpha: complex
    beta: complex
    a: int
    b: int
    g: float  # 1 - h, the vertex's distance below z = i
    log_negligible: float  # a term whose log size is below this is 0


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x^n for an integer n, by repeated squaring.

    numpy squares for |n| < 100 only, and goes through exp(n log x) beyond,
    which is three times slower and twice the rounding; so larger powers
    are split in halves.
    """
    return x**n if abs(n) < 100 else _power(x, n // 2) * _power(x, n - n // 2)


def _pole(x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x^b y^a for columns a and b: one ``_power`` per run of rows that share (a, b)."""
    blocks, lo = [], 0
    for (na, nb), run in itertools.groupby(zip(a[:, 0].tolist(), b[:, 0].tolist())):
        hi = lo + len(list(run))
        blocks.append(_power(x[lo:hi], nb) * _power(y[lo:hi], na))
        lo = hi
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _terms(arm: _Arm, s: np.ndarray, ds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled terms G(z) dz/dv at z = ih + g s e^(i pi/6), their rounding charges, broken rows.

    ``s`` is exp(pi/2 sinh v) at the nodes v and ``ds`` its derivative in v.
    With column fields there is one row of terms per integral.  The third
    is a flag per row, true where a node breaks the rule below; the terms
    and charges of such a row are not to be read.
    """
    delta, alpha, beta, a, b, g, log_negligible = arm
    h = 1.0 - g
    w0 = (g * _RAY) * s  # z - ih
    z, w, zp = w0 + 1j * h, w0 - 1j * g, w0 + 1j * (2.0 - g)  # z, z - i and z + i
    num_bound = abs(alpha) * np.abs(z) + abs(beta)
    # i d (phi(z) - phi(ih)), expanded about the vertex.  numpy divides a
    # complex number by a real one as by a complex one, by Smith's method,
    # which multiplies by the divisor's reciprocal: so do the products here,
    # bit for bit, at less cost
    psi = 1j * delta * (w0 * (g * (2.0 - g) + w0 * (1j * h + w0 * (1.0 / 3.0))))
    x, y = w * (1.0 / g), zp * (1.0 / (2.0 - g))
    pole = _pole(x, y, a, b) if isinstance(a, np.ndarray) else _power(x, b) * _power(y, a)
    rest = np.exp(psi) * (g * _RAY) * ds / pole
    vals = (alpha * z + beta) * rest
    # one rule for every node: a term whose log size is below the bound is
    # 0, and every other must be finite, with a rest not set to 0 by an
    # overflowing pole power.  The log size is NaN only where s or |z|^3
    # overflows, so far out that the term is negligible: NaN is below it
    kept = (np.log(num_bound) + psi.real + np.log(ds)
            - b * np.log(np.abs(w)) - a * np.log(np.abs(zp))) > log_negligible
    abs_rest = np.abs(rest)
    broken = np.logical_or.reduce(kept & ~(np.isfinite(vals) & (abs_rest > 0.0)), axis=-1)
    # eps (2 (|a| + |b|) + 8 + 3 |psi|) |rest| num_bound, with eps, a power of
    # two, taken into the sum: the same bits in one product fewer
    charge = (_EPS * (2 * (abs(a) + abs(b)) + 8) + 3.0 * _EPS * np.abs(psi)) * abs_rest * num_bound
    return np.where(kept, vals, 0.0), np.where(kept, charge, 0.0), broken


def _exp_sinh(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = exp(pi/2 sinh v) at the nodes v, and ds/dv: the map t = g s, over g."""
    s = np.exp(_HALF_PI * np.sinh(v))
    return s, s * (_HALF_PI * np.cosh(v))


@lru_cache(maxsize=None)
def _first_pass(reach: float, finest: int) -> tuple[np.ndarray, np.ndarray]:
    """``_exp_sinh`` on the first pass's grid: v in [-reach, reach], step _STEP / 2^finest."""
    intervals = round(2 * reach / _STEP) << finest
    return _exp_sinh(-reach + (_STEP / 2**finest) * np.arange(intervals + 1))


class _Row:
    """One integral of a pass: its arm, scale and target, the state of its levels, its outcome.

    ``outcome`` is None until the row settles, as its QuadratureResult, or
    fails, as the error its own ``eval_oscillatory`` call raises.
    """

    __slots__ = ("index", "arm", "log_phase", "log_scale", "log_g", "target", "evaluations",
                 "tail", "previous", "rounding", "outcome")

    def __init__(self, index: int, delta: float, alpha: complex, beta: complex, a: int, b: int,
                 tol: float):
        # g = 1 - h; without a pole at i (b <= 0) the vertex still stays off z = i
        g = min(1.0, math.sqrt(max(b, 1) / (2.0 * delta)))
        h, log_g, log_2g = 1.0 - g, math.log(g), math.log(2.0 - g)
        # the terms are scaled by exp(-d Im phi(ih)) / (g^b (2 - g)^a), the size
        # of the exponential and the pole factors at the vertex; where that
        # exceeds 1, the targets on the scaled terms are divided by it
        self.log_phase = -delta * (h - h**3 / 3.0)
        self.log_scale = self.log_phase - b * log_g - a * log_2g
        self.target = tol * math.exp(-max(self.log_scale, 0.0))
        # a scaled term is (|alpha| |z| + |beta|) |e^psi| g ds/dv g^b (2 - g)^a
        # / (|z - i|^b |z + i|^a) at most; it is negligible below eps target,
        # which here is over the constant factor.  That bound is a positive
        # double, or math.log raises, so log_scale stays below about 702 and
        # exp(log_scale) in ``result`` cannot overflow
        self.arm = _Arm(delta, alpha, beta, a, b, g,
                        math.log(_EPS * self.target) - (b + 1) * log_g - a * log_2g)
        self.index, self.log_g, self.evaluations, self.outcome = index, log_g, 0, None

    def settles(self, current: complex, rounding: float) -> bool:
        """The level rule, for the sum ``current`` of the level after ``previous`` and its charge.

        A row stops at the first level that agrees with the one before it,
        or differs from it only by rounding: its outcome is set and the
        rule returns True.  Otherwise that level becomes ``previous``.  A
        level or charge sum that is not finite fails the row as a broken term.
        """
        change = abs(current - self.previous)
        if not math.isfinite(change + rounding):  # a level or charge sum is not finite
            self.outcome = QuadratureBudgetError(_BROKEN)
            return True
        if change <= max(self.target / 8.0, rounding):
            self.outcome = self.result(current, change, rounding)
            return True
        self.previous, self.rounding = current, rounding
        return False

    def result(self, current: complex, change: float, rounding: float):
        """The row's QuadratureResult, or a NumericalFailure outside the normal double range.

        Far out, F_(j,k) ~ exp(-k theta^3/3) underflows: a scale below the
        range, or a nonzero level sum whose value leaves it, would otherwise
        read as 0.0 +- 0.0, which looks exact.
        """
        scale = math.exp(self.log_scale)
        value = 2.0 * scale * float(current.real)
        tiny = sys.float_info.min
        if scale < tiny or (current.real != 0.0 and not tiny <= abs(value) < math.inf):
            return NumericalFailure(f"the value {value!r}, at scale exp({self.log_scale!r}) of "
                                    "its terms, lies outside the normal double range")
        error = 2.0 * scale * float(change + self.tail + rounding)
        a, b = self.arm.a, self.arm.b
        error += _EPS * (4.0 + abs(self.log_phase) + abs(b * self.log_g) + abs(a)) * abs(value)
        return QuadratureResult(value=value, error_estimate=error, evaluations=self.evaluations)


def _arms(rows: list[_Row]) -> _Arm:
    """The arm of a kernel call over several rows: one column per field."""
    return _Arm(*[np.array(field)[:, None] for field in zip(*[row.arm for row in rows])])


def _kernel_calls(rows: list[_Row], s: np.ndarray, ds: np.ndarray) -> list:
    """(rows, terms, charges) of each kernel call that evaluates ``rows`` at the nodes.

    A call holds fewer than _ELISION nodes, or one row, whose nodes are
    split over calls of _CHUNK.  Every pass evaluates through here, so here
    the budget rule and the rule of ``_terms`` are applied, once: a row
    that would pass the evaluation budget is not evaluated, and a row with
    a term that breaks the rule has its terms and charges zeroed, out of
    the call's sums, and None in its slot of the call's rows.  Either gets
    the error its own call raises as its outcome.
    """
    n = len(s)
    going = []
    for row in rows:
        if row.evaluations + n > EVALUATION_BUDGET:
            row.outcome = QuadratureBudgetError(f"evaluation budget {EVALUATION_BUDGET} exhausted")
        else:
            row.evaluations += n
            going.append(row)
    per_call = max(1, (_ELISION - 1) // n)
    calls = []
    for lo in range(0, len(going), per_call):
        block = going[lo:lo + per_call]
        arm = block[0].arm if len(block) == 1 else _arms(block)
        if n <= _CHUNK:
            vals, noise, broken = _terms(arm, s, ds)
        else:
            vals, noise, broken = zip(*[_terms(arm, s[i:i + _CHUNK], ds[i:i + _CHUNK])
                                        for i in range(0, n, _CHUNK)])
            vals, noise = np.concatenate(vals, axis=-1), np.concatenate(noise, axis=-1)
            broken = np.logical_or.reduce(broken)
        vals, noise = vals.reshape(len(block), n), noise.reshape(len(block), n)
        for r in itertools.compress(range(len(block)), broken.reshape(len(block)).tolist()):
            block[r].outcome = QuadratureBudgetError(_BROKEN)
            block[r], vals[r], noise[r] = None, 0.0, 0.0
        calls.append((block, vals, noise))
    return calls


def _first_levels(rows: list, vals: np.ndarray, noise: np.ndarray) -> list[_Row]:
    """The levels of the grid the rows are evaluated on; the rows that go on past them.

    ``rows[r]``, its ``tail`` set, has its terms and charges in row r of
    ``vals`` and ``noise``; it is None where that row is not to be read.
    Level l, of step _STEP / 2^l, is every 2^(finest - l)-th node, so its
    trapezoid sum is a strided sum, taken for all the rows when the first
    of them reaches it; a row goes through them until ``_Row.settles`` stops it.
    """
    finest = _FIRST_LEVELS - 1
    coarsest = np.add.reduce(vals[:, ::1 << finest], axis=1).tolist()
    levels = []  # (step, sums, charge sums) of levels 1, 2, ...
    going = []
    for r, row in enumerate(rows):
        if row is None:
            continue
        row.previous = _STEP * coarsest[r]
        for level in range(1, finest + 1):
            if level > len(levels):
                stride = 1 << (finest - level)
                levels.append((_STEP / 2**level, np.add.reduce(vals[:, ::stride], axis=1).tolist(),
                               np.add.reduce(noise[:, ::stride], axis=1).tolist()))
            step, sums, noise_sums = levels[level - 1]
            if row.settles(step * sums[r], step * noise_sums[r]):
                break
        else:
            going.append(row)
    return going


def _later_levels(rows: list[_Row], start: float, intervals: int) -> None:
    """Levels past the evaluated grid, for rows whose grids start at v = ``start``.

    Each level evaluates the midpoints of the finest grid's ``intervals``,
    one kernel call for all the rows that still go on, and its sum is half
    the previous one plus the step times theirs.
    """
    step = _STEP / 2**(_FIRST_LEVELS - 1)
    while rows:
        step /= 2.0
        s, ds = _exp_sinh(start + step * (2 * np.arange(intervals) + 1))
        going = []
        for block, more, more_noise in _kernel_calls(rows, s, ds):
            sums = np.add.reduce(more, axis=1).tolist()
            noise_sums = np.add.reduce(more_noise, axis=1).tolist()
            for r, row in enumerate(block):
                if row is not None and not row.settles(row.previous / 2.0 + step * sums[r],
                                                       row.rounding / 2.0 + step * noise_sums[r]):
                    going.append(row)
        rows, intervals = going, 2 * intervals


def _widened(row: _Row, vals: np.ndarray, noise: np.ndarray, floor: float) -> None:
    """A row with an end term above ``floor``: that end widened, then the row's levels alone.

    Ends are widened by whole coarse steps, with the grid's own nodes.  Past
    an end the terms fall at least like exp(-pi/2 sinh|v|) cosh v, which
    sizes the widening from the end term.  Being systematic, the tails get
    a small share of the tolerance.
    """
    finest = _FIRST_LEVELS - 1
    window, fine = [-_REACH, _REACH], _STEP / 2**finest
    for side, sign in ((0, -1.0), (-1, 1.0)):
        while abs(vals[side]) > floor:
            reach = abs(window[side])
            try:
                goal = math.asinh(math.sinh(reach)
                                  + (math.log(abs(vals[side]) / floor) + 1.0) / _HALF_PI)
                width = max(1, math.ceil((goal - reach) / _STEP))
            except OverflowError as exc:  # the end term over the floor overflows
                row.outcome = exc.with_traceback(None)
                return
            v = window[side] + sign * fine * np.arange(1, (width << finest) + 1)  # outermost last
            calls = _kernel_calls([row], *_exp_sinh(v))
            if row.outcome is not None:  # past the budget, or a term breaks the rule
                return
            ((_, more, more_noise),) = calls
            vals, noise = (np.concatenate((old, new) if side else (new[::-1], old))
                           for old, new in zip((vals, noise), (more[0], more_noise[0])))
            window[side] = float(v[-1])
    row.tail = abs(vals[0]) + abs(vals[-1])
    _later_levels(_first_levels([row], vals[None], noise[None]), window[0], len(vals) - 1)


@np.errstate(over="ignore", invalid="ignore")  # a level sum that overflows fails its row
def _outcomes(integrands: Sequence[CubicPhaseIntegrand], tol: float) -> list:
    """Each integrand's QuadratureResult, or the error its own ``eval_oscillatory`` call raises.

    The pass: every integral's first-pass grid (``_first_pass``) in kernel
    calls of fewer than _ELISION nodes, grouped by (a, b) for the pole
    powers; the levels of that grid, strided sums over each row; then, for
    the rows not yet settled, one kernel call per level over the midpoints
    they share.
    A row whose end term is above the floor is widened and goes on alone
    from its own terms.
    """
    if integrands and not (1e-13 <= tol <= 1e-3):
        raise ValueError(f"tolerance must lie in [1e-13, 1e-3], got {tol!r}")
    outcomes: list = [None] * len(integrands)  # of the integrals without a row
    rows = []
    for i, integrand in enumerate(integrands):
        delta, alpha, beta, a, b = _normalized(integrand)
        try:
            if alpha == 0 and beta == 0:
                outcomes[i] = QuadratureResult(0.0, 0.0, 0)
            elif delta == 0.0:
                outcomes[i] = _exact_zero_phase(alpha, beta, a, b)
            else:
                rows.append(_Row(i, delta, alpha, beta, a, b, tol))
        except (ArithmeticError, ValueError) as exc:  # e.g. 2 d overflows, g = 0 and log(g) raises
            outcomes[i] = exc.with_traceback(None)
    if len(rows) > 1:
        rows.sort(key=lambda row: (row.arm.a, row.arm.b))

    # every node lies on one uniform grid in v, held in v order; level l,
    # step _STEP / 2^l, is every 2^(finest - l)-th node of it.  The first
    # pass evaluates the grid of the coarsest level and its first halvings
    # on v in [-_REACH, _REACH]
    s, ds = _first_pass(_REACH, _FIRST_LEVELS - 1)
    shared = []
    for block, vals, noise in _kernel_calls(rows, s, ds):
        settle = [None] * len(block)  # the rows whose levels are read from this call's terms
        peaks = np.maximum.reduce(np.abs(vals), axis=1).tolist()
        ends = vals[:, ::len(s) - 1].tolist()
        for r, (row, peak, (first, last)) in enumerate(zip(block, peaks, ends)):
            if row is None:
                continue
            floor = max(row.target / 256.0, _EPS * peak)
            first, last = abs(first), abs(last)
            if first > floor or last > floor:
                _widened(row, vals[r], noise[r], floor)
            else:
                row.tail, settle[r] = first + last, row
        shared += _first_levels(settle, vals, noise)
    if shared:
        _later_levels(shared, -_REACH, len(s) - 1)
    for row in rows:
        outcomes[row.index] = row.outcome
    return outcomes


def eval_oscillatory(
    integrand: CubicPhaseIntegrand,
    tol: float,
) -> QuadratureResult:
    """Integrate a cubic-phase integrand over the whole real line.

    ``tol`` is the target absolute error; ``error_estimate`` adds the last
    level change, the truncated tails and the rounding charges of the terms.
    A term shown below eps tol is 0, and every other must be finite (see
    the module docstring).  More than ``EVALUATION_BUDGET`` evaluations, or
    a term that breaks that rule, raise QuadratureBudgetError.  This is
    ``eval_oscillatory_list`` over a list of one.
    """
    return eval_oscillatory_list((integrand,), tol)[0]


def eval_oscillatory_list(
    integrands: Iterable[CubicPhaseIntegrand],
    tol: float,
) -> tuple[QuadratureResult, ...]:
    """``eval_oscillatory`` of each integrand, in one pass over the list.

    ``integrands`` may be a generator that builds them.  Every result is
    the one its own ``eval_oscillatory`` call returns, bit for bit, and what
    fails raises as with one call per integrand, each built in turn: the
    first failing integral raises its own call's error, unless building an
    integrand before it raised a ValueError or ArithmeticError, which is
    then raised instead.
    """
    return tuple([*_each(integrands, tol)])


def _each(integrands: Iterable[CubicPhaseIntegrand], tol: float) -> Iterator[QuadratureResult]:
    """Each integrand's result in turn, from one ``_outcomes`` pass over those built.

    ``integrands`` is consumed until building one raises a ValueError or
    ArithmeticError.  A failed integral raises its error in its place, and
    the build error is raised after the results of the integrands built.
    This is the one place where an outcome that is an error is raised.
    """
    built, failure = [], None
    try:
        for integrand in integrands:
            built.append(integrand)
    except (ValueError, ArithmeticError) as exc:
        failure = exc
    for outcome in _outcomes(built, tol):
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome
    if failure is not None:
        raise failure


# ---------------------------------------------------------------------------
# one integrand per Legendre order and harmonic


def harmonic_integrand(j: int, k: int, theta_tilde: float) -> CubicPhaseIntegrand:
    """F_(j,k): the splitting integrand of Legendre order j and harmonic k.

    In sigma = sinh tau the harmonic k of the order-j energy derivative along
    the separatrix is, up to a constant, P(sigma) exp(i d (sigma + sigma^3/3))
    over (1 + sigma^2)^(j+k+2), with d = k theta^3/2 and the integer
    polynomial P = ((j+1) sigma + i k)(1 - i sigma)^(2k).  The integral of
    its part even in sigma is the Im of the integral of the whole, and
    (1 - i sigma)^(2k) = (-1)^k (sigma + i)^(2k), so F_(j,k) is Re of
    (-1)^k (k - i (j+1) sigma) (sigma + i)^(k-j-2) (sigma - i)^-(j+k+2) times
    the phase.  ``f_name`` gives the paper's names for it.
    """
    return _signed_harmonic(j, k, 1, theta_tilde)


def _signed_harmonic(j: int, k: int, sign: int, theta_tilde: float) -> CubicPhaseIntegrand:
    """sign F_(j,k) at theta_tilde; the sign is carried by the numerator, not the value."""
    if j < 1 or k < 1:
        raise ValueError(f"need j >= 1 and k >= 1, got j={j}, k={k}")
    unit = sign * (-1) ** k
    return CubicPhaseIntegrand(complex(0.0, -unit * (j + 1)), complex(unit * k, 0.0),
                               j + 2 - k, j + k + 2, _phase_scale(k, theta_tilde))


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

    The sign is carried by the numerator, not applied to the value, so a
    value that vanishes exactly stays 0.0 rather than -0.0.
    """
    j, k, sign = f_name(name)
    return lambda theta_tilde: _signed_harmonic(j, k, sign, theta_tilde)


# ---------------------------------------------------------------------------
# half-line basis integrals


def ik_integrand(k: int, delta: float) -> CubicPhaseIntegrand:
    """The integrand of 2 I_k(d): cos(d (z + z^3/3)) / (1+z^2)^k over R."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return CubicPhaseIntegrand(0.0, 1.0, k, k, delta)


def jk_integrand(k: int, delta: float) -> CubicPhaseIntegrand:
    """The integrand of 2 J_k(d), Re of -i z e^(i d (z + z^3/3)) / (1+z^2)^k over R."""
    if k < 2:
        raise ValueError(f"need k >= 2 for absolute convergence, got {k}")
    return CubicPhaseIntegrand(-1j, 0.0, k, k, delta)


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
