"""Near-infinity flow: regularized coordinates, the reduced oscillator and
the truncated equations of motion.

The radial variable is x with r = x**-2, the scaled radial velocity is y
with R = -sqrt(2) y, and s = t - theta is the fast angle.  The strength
eps of the perturbation is a gauge, not a parameter: in the variables
(X, Y, s, Theta) = (eps x, eps y, s, theta/eps) every eps of the truncated
field cancels, so every state and angular momentum here, and the energy
of the reduced oscillator, is in them.  On the zero set X = Y = 0
the flow reduces to the 2 pi-periodic orbit s(t) = s0 + t whose stable and
unstable sets are the parabolic manifolds.  In slow time (d tau/dt =
X^3 / sqrt(2)) the leading dynamics is the double-well oscillator
X'' = X - Theta^2 X^3 with the explicit separatrix

    X = sqrt(2)/|Theta| sech(tau),   Y = -sqrt(2)/|Theta| tanh(tau) sech(tau).

This module integrates the truncated equations of motion with one
Dormand-Prince 5(4) stepper on lists of Python floats (``integrate``).
Nothing here imports numpy, in any scope: a ``Trajectory`` holds tuples
and lists of floats, and the closed forms run on ``math``.

The perturbation is written once, as one table with a row per Legendre
order j = 2..J, read from one ``harmonics.HarmonicTables``: at truncation
order T = 2J + 3 the row j is the eps^(2j+3) term of the unscaled
time-form field.  With G_j = sum (a cos ks + b sin ks) over the row's
entries (a, b), in the scaled variables

    Y'     += (j+1)/sqrt(2) G_j X^(2j+4),
    Theta' += sum k (a sin ks - b cos ks) X^(2j+2).

``_field`` builds the time-form field from that table, once per
``FlowParams``.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from .config import CentralConfiguration
from .errors import NumericalFailure
from .harmonics import MAX_LEGENDRE_ORDER, HarmonicTables

SQRT2 = math.sqrt(2.0)


class IntegrationError(NumericalFailure):
    """An integration run failed part-way.

    The adaptive step size fell below 10 ulp of t (a blow-up), a step size or
    error norm was not finite (a non-finite field), or the trajectory left
    the region where the series converges.
    """


class ConvergenceRegionError(ValueError):
    """State left the region where the perturbation series converges."""


@dataclass(frozen=True)
class McGeheeState:
    """Phase point (x, y, s, theta) of the regularized near-infinity flow, in scaled variables."""

    x: float
    y: float
    s: float
    theta: float

    def __post_init__(self):
        if self.x < 0.0:
            raise ValueError(f"radial variable must be nonnegative, got {self.x!r}")
        object.__setattr__(self, "s", self.s % (2.0 * math.pi))


@dataclass(frozen=True)
class FlowParams:
    """Configuration and truncation order of the flow in the scaled variables.

    The truncation order is 3 (the Kepler part alone) or an odd 2J + 3 with
    2 <= J <= 64, which keeps the Legendre orders 2..J.
    """

    config: CentralConfiguration
    truncation_order: int = 9

    def __post_init__(self):
        t = self.truncation_order
        if not (t == 3 or (isinstance(t, int) and t % 2 and 7 <= t <= 2 * MAX_LEGENDRE_ORDER + 3)):
            raise ValueError(
                f"truncation order must be 3 or odd in [7, {2 * MAX_LEGENDRE_ORDER + 3}], got {t!r}"
            )

    @cached_property
    def _reach(self) -> float:
        """The largest body radius: the series converges while this times X^2 < 1."""
        return max([math.hypot(*b.position) for b in self.config.bodies])

    @cached_property
    def _flow(self):
        """The time-form field from ``_field``, built on first use."""
        return _field(self)


# ---------------------------------------------------------------------------
# closed forms


def homoclinic(tau: float, theta0: float) -> tuple[float, float]:
    """Separatrix (X, Y) of the reduced oscillator at scaled angular momentum theta0."""
    if theta0 == 0.0:
        raise ValueError("separatrix undefined at zero angular momentum")
    amp = SQRT2 / abs(theta0)
    sech = 1.0 / math.cosh(tau)
    return amp * sech, -amp * math.tanh(tau) * sech


def hd_value(x: float, y: float, theta0: float) -> float:
    """Energy of the reduced oscillator: y^2/2 - x^2/2 + theta0^2 x^4/4."""
    return 0.5 * y * y - 0.5 * x * x + 0.25 * theta0**2 * x**4


def s_closed_form(tau: float, s0: float, theta_tilde: float) -> float:
    """Fast angle along the separatrix, unreduced for differentiability checks.

    Upper signs for theta_tilde > 0:
        s = s0 -+ 4 arctan(tanh(tau/2)) +- (theta_tilde^3/24) (9 sinh tau + sinh 3 tau)
    """
    if theta_tilde == 0.0:
        raise ValueError("fast angle undefined at zero angular momentum")
    sign = 1.0 if theta_tilde > 0.0 else -1.0
    slow = 4.0 * math.atan(math.tanh(tau / 2.0))
    fast = (theta_tilde**3 / 24.0) * (9.0 * math.sinh(tau) + math.sinh(3.0 * tau))
    return s0 - sign * slow + sign * fast


# ---------------------------------------------------------------------------
# vector fields


def _convergence_guard(x: float, reach: float) -> None:
    if x > 0.0 and reach * x * x >= 1.0:
        raise ConvergenceRegionError(
            f"x = {float(x)!r} lies outside the series convergence region"
        )


def _field_harmonics(config: CentralConfiguration, truncation: int):
    """The perturbation kept at truncation order 2J + 3: rows (j, entries) for j = 2..J.

    ``entries`` are the (k, a, b) of ``harmonic_table(config, j)``; k = 0
    carries the radial part.
    """
    tables = HarmonicTables(config, (truncation - 3) // 2)
    return tuple([(j, tables[j].entries) for j in range(2, tables.j_max + 1)])


def _field(params: FlowParams):
    """The time-form field, from one read of the harmonic table.

    ``field(x, y, s, theta)`` is the tuple (x', y', s', theta') on Python
    floats.  The powers of x are running products of x^2.  Row j holds its
    k = 0 entry (a, b) as the constant 0.0 + a, since cos 0 = 1 and sin 0
    only adds b * +-0, and its entries k > 0, for each of which the field
    takes cos ks and sin ks, in entry order.
    """
    rows = []
    for j, entries in _field_harmonics(params.config, params.truncation_order):
        g0 = 0.0 + entries[0][1] if entries[0][0] == 0 else 0.0
        rows.append(((j + 1) / SQRT2, g0, tuple([(float(k), a, b) for k, a, b in entries if k])))
    cos, sin = math.cos, math.sin

    def field(x, y, s, theta):
        x2 = x * x
        x4 = x2 * x2
        dx = (x2 * x) * y / SQRT2
        dy = (1.0 - theta * theta * x * x) * x4 / SQRT2
        ds = 1.0 - theta * x4
        dtheta = 0.0
        xp = x4  # x^(2j+2) once the row's factor x^2 is in
        for dy_scale, g, harmonics in rows:
            gp = 0.0
            for k, a, b in harmonics:
                phase = k * s
                c, sn = cos(phase), sin(phase)
                g += a * c + b * sn
                gp += k * (a * sn - b * c)
            xp *= x2
            dy += dy_scale * g * (xp * x2)
            dtheta += gp * xp
        return dx, dy, ds, dtheta

    return field


# ---------------------------------------------------------------------------
# integration

# Dormand-Prince 5(4) pair (Dormand & Prince 1980), written out in the stages
# below: nodes and stage weights, the fifth-order weights, the error weights
# (fifth minus fourth order, with the FSAL stage last) and Shampine's
# fourth-order dense output.  The fractions are folded to constants when the
# module is compiled.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _step_interpolant(t_old: float, h: float, y_old, k1, k3, k4, k5, k6, k7):
    """The step's quartic y_old + h sum_i w_i(x) k_i, x = (t - t_old)/h; exact at t_old.

    The weights w_i are Shampine's quartics in x, each vanishing at x = 0
    (the second stage has none).
    """

    def y_at(t: float) -> list[float]:
        x = (t - t_old) / h
        w1 = x * (1.0 + x * (-8048581381 / 2820520608 + x * (
            8663915743 / 2820520608 + x * (-12715105075 / 11282082432))))
        w3 = x * x * (131558114200 / 32700410799 + x * (
            -68118460800 / 10900136933 + x * (87487479700 / 32700410799)))
        w4 = x * x * (-1754552775 / 470086768 + x * (
            14199869525 / 1410260304 + x * (-10690763975 / 1880347072)))
        w5 = x * x * (127303824393 / 49829197408 + x * (
            -318862633887 / 49829197408 + x * (701980252875 / 199316789632)))
        w6 = x * x * (-282668133 / 205662961 + x * (
            2019193451 / 616988883 + x * (-1453857185 / 822651844)))
        w7 = x * x * (40617522 / 29380423 + x * (
            -110615467 / 29380423 + x * (69997945 / 29380423)))
        return [yi + h * (w1 * a + w3 * c + w4 * d + w5 * e + w6 * f + w7 * g)
                for yi, a, c, d, e, f, g in zip(y_old, k1, k3, k4, k5, k6, k7)]

    return y_at


def _dormand_prince(rhs, t0: float, y0: list[float], t_bound: float, tol: float):
    """Yield (t, y, interpolant) for each accepted step from (t0, y0) to t_bound.

    The state and the slopes are lists of floats; ``rhs(t, y)`` may return
    any sequence of floats.  The error of each step is measured in the RMS
    norm against tol/10 + tol max(|y|, |y_new|), and the step size is scaled
    by 0.9 err^(-1/5), clipped to [0.2, 10] (at most 1 right after a
    rejection).  The first step follows Hairer, Norsett &
    Wanner (Sec. II.4).  A step below 10 ulp of t, or a step size or error
    norm that is not finite, raises ``IntegrationError``.  A zero-length
    span yields nothing.
    """
    rtol, atol = tol, tol / 10.0
    t, y = t0, y0
    f = rhs(t, y)
    if t == t_bound:
        return
    direction = 1.0 if t_bound > t0 else -1.0
    interval = abs(t_bound - t0)
    root_n = len(y) ** 0.5  # the RMS norm is hypot(...) / root_n
    scale = [atol + abs(yi) * rtol for yi in y]
    d0 = math.hypot(*[yi / sc for yi, sc in zip(y, scale)]) / root_n
    d1 = math.hypot(*[fi / sc for fi, sc in zip(f, scale)]) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = rhs(t + h0 * direction, [yi + h0 * direction * fi for yi, fi in zip(y, f)])
    d2 = math.hypot(*[(b - a) / sc for a, b, sc in zip(f, f1, scale)]) / root_n / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval)
    if not math.isfinite(h_abs):
        raise IntegrationError(f"first step size {h_abs!r} at t = {t!r} is not finite")

    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"step size fell below 10 ulp of t = {t!r}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            k1 = f
            k2 = rhs(t + 1 / 5 * h, [yi + (1 / 5 * a) * h for yi, a in zip(y, k1)])
            k3 = rhs(t + 3 / 10 * h, [yi + (3 / 40 * a + 9 / 40 * b) * h
                                      for yi, a, b in zip(y, k1, k2)])
            k4 = rhs(t + 4 / 5 * h, [yi + (44 / 45 * a + -56 / 15 * b + 32 / 9 * c) * h
                                     for yi, a, b, c in zip(y, k1, k2, k3)])
            k5 = rhs(t + 8 / 9 * h,
                     [yi + (19372 / 6561 * a + -25360 / 2187 * b + 64448 / 6561 * c
                            + -212 / 729 * d) * h
                      for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = rhs(t + h,
                     [yi + (9017 / 3168 * a + -355 / 33 * b + 46732 / 5247 * c + 49 / 176 * d
                            + -5103 / 18656 * e) * h
                      for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [yi + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                               + -2187 / 6784 * e + 11 / 84 * f)
                     for yi, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
            k7 = rhs(t + h, y_new)
            err = math.hypot(*[(-71 / 57600 * a + 71 / 16695 * c + -71 / 1920 * d
                                + 17253 / 339200 * e + -22 / 525 * f + 1 / 40 * g) * h
                               / (atol + max(abs(yi), abs(yn)) * rtol)
                               for yi, yn, a, c, d, e, f, g
                               in zip(y, y_new, k1, k3, k4, k5, k6, k7)]) / root_n
            if not math.isfinite(err):
                raise IntegrationError(f"error norm {err!r} of the step from t = {t!r} "
                                       "is not finite")
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**-0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
            rejected = True
        yield t_new, y_new, _step_interpolant(t, h, y, k1, k3, k4, k5, k6, k7)
        t, y, f = t_new, y_new, k7


class Trajectory(NamedTuple):
    """An accepted mesh, the states on it and ``sol(t)``, the dense output as a list.

    ``t`` is the mesh, a tuple of floats, and ``states`` a tuple of one
    state list per mesh point: ``states[i]`` is the state at ``t[i]``.
    """

    t: tuple[float, ...]
    states: tuple[list[float], ...]
    sol: Callable[[float], list[float]]


def integrate(
    rhs: Callable[[float, Sequence[float]], Sequence[float]],
    state0: Sequence[float],
    t_span: tuple[float, float],
    tol: float,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) run with fourth-order dense output.

    ``rhs(t, y)`` receives the state as a sequence of floats and returns the
    derivative as any sequence of floats, an ndarray included.  Tolerances
    are split 10:1 relative:absolute around ``tol``; the step controller and
    first step are those of ``_dormand_prince``.  ``t`` is the accepted mesh
    (two copies of t0 for a zero-length span) and ``states`` the solution on
    it.  ``sol(t)`` evaluates the quartic interpolant of the step that
    contains t, as a list (at a mesh point, the step that ends there;
    ``sol(t0)`` is ``state0`` exactly); a t outside the span, or NaN, raises
    ``ValueError``.  A span may run backwards.  A state or span that is not finite raises
    ``ValueError``.
    """
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tolerance must lie in [1e-12, 1e-4], got {tol!r}")
    t0, t1 = map(float, t_span)
    y0 = [float(v) for v in state0]
    if not all(map(math.isfinite, (*y0, t0, t1))):
        raise ValueError(f"state and span must be finite, got state {y0!r} "
                         f"and span {(t0, t1)!r}")
    steps = list(_dormand_prince(rhs, t0, y0, t1, tol)) or [(t0, y0, lambda _t: list(y0))]
    ts, ys, pieces = zip(*steps)
    sign = 1.0 if t1 >= t0 else -1.0
    inner = [sign * t for t in ts[:-1]]
    lo, hi = min(t0, t1), max(t0, t1)

    def sol(t: float) -> list[float]:
        if not lo <= t <= hi:  # NaN included
            raise ValueError(f"t = {float(t)!r} lies outside the span [{t0!r}, {t1!r}]")
        return pieces[bisect.bisect_left(inner, sign * t)](t)

    return Trajectory((t0, *ts), (y0, *ys), sol)


def integrate_mcgehee(
    state0: McGeheeState,
    params: FlowParams,
    t_span: tuple[float, float],
    tol: float = 1e-10,
) -> Trajectory:
    """Integrate the truncated time-form field from a regularized state.

    A start outside the series convergence region raises
    ``ConvergenceRegionError``; a trajectory that leaves it raises
    ``IntegrationError``.
    """
    reach = params._reach
    _convergence_guard(state0.x, reach)
    field = params._flow

    def rhs(t, v):
        x, y, s, theta = v
        if x > 0.0 and reach * x * x >= 1.0:  # _convergence_guard, inline
            raise IntegrationError(f"x = {x!r} lies outside the series convergence region "
                                   f"at t = {t!r}")
        return field(x, y, s, theta)

    return integrate(rhs, (state0.x, state0.y, state0.s, state0.theta), t_span, tol)
