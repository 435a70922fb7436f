"""Near-infinity flow: regularized coordinates, the reduced oscillator and
the truncated equations of motion.

The radial variable is x with r = x**-2, the scaled radial velocity is y
with R = -sqrt(2) y, and s = t - theta is the fast angle.  On the zero set
x = y = 0 the flow reduces to the 2 pi-periodic orbit s(t) = s0 + t whose
stable and unstable sets are the parabolic manifolds.  In slow time
(d tau/dt = eps^3 x^3 / sqrt(2)) the leading dynamics is the double-well
oscillator x'' = x - Theta0^2 x^3 with the explicit separatrix

    x = sqrt(2)/|Theta0| sech(tau),   y = -sqrt(2)/|Theta0| tanh(tau) sech(tau).

This module integrates the truncated equations of motion, checks the
Jacobi-like first integral and realizes the numeric return map near
x = y = 0.  Both runs use one stepper, the Dormand-Prince 5(4) pair
(Dormand & Prince 1980) with local extrapolation: the step is scaled by
0.9 err^(-1/5), clipped to [0.2, 10], from the RMS error norm; the first
step follows Hairer, Norsett & Wanner; Shampine's quartic interpolant
gives the dense output.  It takes the same steps as scipy's RK45, which
the tests use as its oracle; the package itself needs numpy only.

The perturbation is written once, as one table with a row per Legendre
order j = 2..J, read from one ``harmonics.HarmonicTables``: at truncation
order T = 2J + 3 the row j enters the time-form field at eps^(2j+3).  With
G_j = sum (a cos ks + b sin ks) over the row's entries (a, b),

    y'     += eps^(2j+3) (j+1)/sqrt(2) G_j x^(2j+4),
    theta' += eps^(2j+3) sum k (a sin ks - b cos ks) x^(2j+2),
    H      -= eps^(2j+3) x^(2j+2) G_j.

The time-form field and the truncated Hamiltonian are both built from that
table.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import CentralConfiguration
from .harmonics import MAX_LEGENDRE_ORDER, HarmonicTables

SQRT2 = math.sqrt(2.0)


class IntegrationError(RuntimeError):
    """An integration run failed part-way.

    The adaptive step size fell below 10 ulp of t (a blow-up or a non-finite
    field), or the trajectory left the region where the series converges.
    """


class ConvergenceRegionError(ValueError):
    """State left the region where the perturbation series converges."""


class PoincareReturnError(RuntimeError):
    """Trajectory failed to return to the section within the allowed time."""


@dataclass(frozen=True)
class McGeheeState:
    """Phase point (x, y, s, theta) of the regularized near-infinity flow."""

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
    """Perturbation strength 0 < epsilon <= 1, configuration, truncation order.

    The truncation order is 3 (the Kepler part alone) or an odd 2J + 3 with
    2 <= J <= 64, which keeps the Legendre orders 2..J.
    """

    epsilon: float
    config: CentralConfiguration
    truncation_order: int = 9

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        t = self.truncation_order
        if not (t == 3 or (isinstance(t, int) and t % 2 and 7 <= t <= 2 * MAX_LEGENDRE_ORDER + 3)):
            raise ValueError(
                f"truncation order must be 3 or odd in [7, {2 * MAX_LEGENDRE_ORDER + 3}], got {t!r}"
            )


# ---------------------------------------------------------------------------
# closed forms


def homoclinic(tau: float, theta0: float) -> tuple[float, float]:
    """Separatrix of the reduced oscillator at angular momentum theta0."""
    if theta0 == 0.0:
        raise ValueError("separatrix undefined at zero angular momentum")
    amp = SQRT2 / abs(theta0)
    sech = 1.0 / math.cosh(tau)
    return amp * sech, -amp * math.tanh(tau) * sech


def hd_value(x: float, y: float, theta0: float) -> float:
    """Energy of the reduced oscillator: y^2/2 - x^2/2 + theta0^2 x^4/4."""
    return 0.5 * y * y - 0.5 * x * x + 0.25 * theta0**2 * x**4


def s_closed_form(tau: float, s0: float, theta0: float, epsilon: float):
    """Fast angle along the separatrix, unreduced for differentiability checks.

    Upper signs for theta0 > 0:
        s = s0 -+ 4 arctan(tanh(tau/2)) +- (theta0^3/(24 eps^3)) (9 sinh tau + sinh 3 tau)
    """
    if theta0 == 0.0:
        raise ValueError("fast angle undefined at zero angular momentum")
    sign = 1.0 if theta0 > 0.0 else -1.0
    tau = np.asarray(tau, dtype=float)
    slow = 4.0 * np.arctan(np.tanh(tau / 2.0))
    fast = (theta0**3 / (24.0 * epsilon**3)) * (9.0 * np.sinh(tau) + np.sinh(3.0 * tau))
    out = s0 - sign * slow + sign * fast
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# vector fields


def _series_reach(params: FlowParams) -> float:
    """eps^2 times the largest body radius; the series converges while this times x^2 < 1."""
    pos = params.config.positions()
    return params.epsilon**2 * float(np.max(np.hypot(pos[:, 0], pos[:, 1])))


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
    return tuple((j, tables[j].entries) for j in range(2, tables.j_max + 1))


def _harmonic_sums(harmonics, s: float) -> tuple[float, float]:
    """sum (a cos ks + b sin ks) and minus its s-derivative, sum k (a sin ks - b cos ks)."""
    g = gp = 0.0
    for k, a, b in harmonics:
        cos_ks, sin_ks = math.cos(k * s), math.sin(k * s)
        g += a * cos_ks + b * sin_ks
        gp += k * (a * sin_ks - b * cos_ks)
    return g, gp


def _rhs_array(y_vec, epsilon: float, rows):
    x, y, s, theta = y_vec
    e3 = epsilon**3
    dx = e3 * x**3 * y / SQRT2
    dy = e3 * (1.0 - theta**2 * x * x) * x**4 / SQRT2
    ds = 1.0 - e3 * theta * x**4
    dtheta = 0.0
    for j, harmonics in rows:
        scale = epsilon ** (2 * j + 3)
        g, gp = _harmonic_sums(harmonics, s)
        dy += scale * (j + 1) / SQRT2 * g * x ** (2 * j + 4)
        dtheta += scale * gp * x ** (2 * j + 2)
    return np.array([dx, dy, ds, dtheta])


def rhs_mcgehee_t(state: McGeheeState, params: FlowParams) -> tuple[float, float, float, float]:
    """Time derivative of (x, y, s, theta) at the given truncation order."""
    _convergence_guard(state.x, _series_reach(params))
    d = _rhs_array(
        (state.x, state.y, state.s, state.theta),
        params.epsilon,
        _field_harmonics(params.config, params.truncation_order),
    )
    return float(d[0]), float(d[1]), float(d[2]), float(d[3])


def truncated_hamiltonian(state: McGeheeState, params: FlowParams) -> float:
    """Value of the truncated energy in the regularized variables."""
    x, y, s, theta = state.x, state.y, state.s, state.theta
    e = params.epsilon
    h = e**3 * (y * y + 0.5 * theta**2 * x**4 - x * x)
    for j, harmonics in _field_harmonics(params.config, params.truncation_order):
        g, _ = _harmonic_sums(harmonics, s)
        h -= e ** (2 * j + 3) * x ** (2 * j + 2) * g
    return h


def jacobi_constant(state: McGeheeState, params: FlowParams) -> float:
    """First integral C = H_truncated - Theta, conserved by the truncated flow."""
    return truncated_hamiltonian(state, params) - state.theta


def theta_from_jacobi(x: float, y: float, jacobi_c: float, epsilon: float) -> float:
    """Angular momentum branch determined by the first-integral value.

    Takes the branch that stays bounded as x -> 0 (value -C on the zero
    set): (1 - sqrt(1 + 2 v g)) / v with v = eps^3 x^4, written as
    -2 g / (1 + sqrt(1 + 2 v g)) so that nothing cancels for small v.
    """
    v = epsilon**3 * x**4
    g = jacobi_c + epsilon**3 * (x * x - y * y)
    radicand = 1.0 + 2.0 * v * g
    if radicand < 0.0:
        raise ValueError(f"negative radicand {radicand!r} in the angular momentum branch")
    return -2.0 * g / (1.0 + math.sqrt(radicand))


# ---------------------------------------------------------------------------
# integration

# Dormand-Prince 5(4) pair (Dormand & Prince 1980): nodes, stage weights, the
# fifth-order weights B, the error weights E (fifth minus fourth order, with
# the FSAL stage last) and Shampine's fourth-order dense-output matrix P.
_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EPS = float(np.finfo(float).eps)


def _rms(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v)) / v.size**0.5


def _step_interpolant(t_old: float, h: float, y_old: np.ndarray, q: np.ndarray):
    """The step's quartic y_old + h Q (x, x^2, x^3, x^4), x = (t - t_old)/h; exact at t_old."""

    def y_at(t: float) -> np.ndarray:
        return y_old + h * q.dot(np.cumprod(np.full(4, (t - t_old) / h)))

    return y_at


def _dormand_prince(rhs, t0: float, y0: np.ndarray, t_bound: float, tol: float,
                    max_step: float = math.inf):
    """Yield (t, y, interpolant) for each accepted step from (t0, y0) to t_bound.

    The error of each step is measured in the RMS norm against
    tol/10 + tol max(|y|, |y_new|), and the step size is scaled by
    0.9 err^(-1/5), clipped to [0.2, 10] (at most 1 right after a rejection).
    The first step follows Hairer, Norsett & Wanner (Sec. II.4).  A step
    below 10 ulp of t raises ``IntegrationError``.  A zero-length span
    yields nothing.
    """
    rtol, atol = tol, tol / 10.0

    def fun(t, y):
        return np.asarray(rhs(t, y), dtype=float)

    t, y = t0, y0
    f = fun(t, y)
    if t == t_bound:
        return
    direction = 1.0 if t_bound > t0 else -1.0
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _rms((fun(t + h0 * direction, y + h0 * direction * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval, max_step)

    k = np.empty((7, y.size))
    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"step size fell below 10 ulp of t = {t!r}")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            k[0] = f
            for s in range(1, 6):
                k[s] = fun(t + _C[s] * h, y + np.dot(k[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _B)
            f_new = fun(t + h, y_new)
            k[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(k.T, _E) * h / scale)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**-0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
            rejected = True
        yield t_new, y_new, _step_interpolant(t, h, y, k.T.dot(_P))
        t, y, f = t_new, y_new, f_new


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    states: np.ndarray  # shape (4, n) or (len(state0), n)
    sol: Callable[[float], np.ndarray]


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    state0: Sequence[float],
    t_span: tuple[float, float],
    tol: float,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) run with fourth-order dense output.

    Tolerances are split 10:1 relative:absolute around ``tol``; the step
    controller and first step are those of ``_dormand_prince``.  ``t`` is
    the accepted mesh (two copies of t0 for a zero-length span) and
    ``states`` the solution on it.  ``sol(t)`` evaluates the quartic
    interpolant of the step that contains t (at a mesh point, the step that
    ends there; ``sol(t0)`` is ``state0`` exactly).  A span may run
    backwards.
    """
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tolerance must lie in [1e-12, 1e-4], got {tol!r}")
    t0, t1 = map(float, t_span)
    y0 = np.array(state0, dtype=float)
    ts, ys, pieces = [t0], [y0], []
    for t, y, piece in _dormand_prince(rhs, t0, y0, t1, tol):
        ts.append(t)
        ys.append(y)
        pieces.append(piece)
    if not pieces:
        ts.append(t0)
        ys.append(y0)
        pieces.append(lambda _t: y0.copy())
    sign = 1.0 if t1 >= t0 else -1.0
    inner = [sign * t for t in ts[1:-1]]

    def sol(t: float) -> np.ndarray:
        return pieces[bisect.bisect_left(inner, sign * t)](t)

    return Trajectory(t=np.array(ts), states=np.column_stack(ys), sol=sol)


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
    rows = _field_harmonics(params.config, params.truncation_order)
    reach = _series_reach(params)
    _convergence_guard(state0.x, reach)

    def rhs(t, yv):
        try:
            _convergence_guard(yv[0], reach)
        except ConvergenceRegionError as exc:
            raise IntegrationError(f"{exc} at t = {float(t)!r}") from exc
        return _rhs_array(yv, params.epsilon, rows)

    return integrate(rhs, (state0.x, state0.y, state0.s, state0.theta), t_span, tol)


def poincare_numeric(
    x0: float,
    y0: float,
    s0: float,
    params: FlowParams,
    jacobi_c: float,
    tol: float = 1e-12,
) -> tuple[float, float, float]:
    """One turn of the return map of the reduced (x, y, s) flow.

    The angular momentum is eliminated through the first integral, whose
    value on the orbit is ``jacobi_c``; the section is the first upward
    crossing of s = s0 + 2 pi, found by bisection on the interpolant of the
    step that crosses it (steps of at most 0.5).  Returns (x1, y1,
    return_time).
    """
    if x0 > 0.1:
        raise ValueError("the return map is meant for small x (x0 <= 0.1)")
    rows = _field_harmonics(params.config, params.truncation_order)
    target = s0 + 2.0 * math.pi

    def rhs(_t, yv):
        x, y, s = yv
        theta = theta_from_jacobi(x, y, jacobi_c, params.epsilon)
        return _rhs_array((x, y, s, theta), params.epsilon, rows)[:3]

    t_old, g_old = 0.0, s0 - target
    for t, yv, y_at in _dormand_prince(rhs, 0.0, np.array([x0, y0, s0]), 3.0 * math.pi, tol,
                                       max_step=0.5):
        g = yv[2] - target
        if g_old <= 0.0 <= g:
            t1 = _section_time(lambda tt: y_at(tt)[2] - target, t_old, t)
            x1, y1, _ = y_at(t1)
            return float(x1), float(y1), t1
        t_old, g_old = t, g
    raise PoincareReturnError("no section crossing within 3 pi of time")


def _section_time(g, a: float, b: float) -> float:
    """Bisect g(a) < 0 <= g(b) to a bracket of 4 eps (1 + |b|); returns its upper end."""
    while b - a > 4.0 * _EPS * (1.0 + abs(b)):
        m = 0.5 * (a + b)
        if g(m) < 0.0:
            a = m
        else:
            b = m
    return b
