"""Near-infinity flow: regularized coordinates, the reduced oscillator, and
flow-side verification of the splitting.

The radial variable is x with r = x**-2, the scaled radial velocity is y
with R = -sqrt(2) y, and s = t - theta is the fast angle.  On the zero set
x = y = 0 the flow reduces to the 2 pi-periodic orbit s(t) = s0 + t whose
stable and unstable sets are the parabolic manifolds.  In slow time
(d tau/dt = eps^3 x^3 / sqrt(2)) the leading dynamics is the double-well
oscillator x'' = x - Theta0^2 x^3 with the explicit separatrix

    x = sqrt(2)/|Theta0| sech(tau),   y = -sqrt(2)/|Theta0| tanh(tau) sech(tau).

This module integrates the truncated equations of motion, checks the
Jacobi-like first integral, realizes the numeric return map near x = y = 0,
and measures the manifold splitting by integrating the energy derivative
along the separatrix under the perturbed field (the flow-side counterpart
of the closed-form splitting functions).

The perturbation is written once, as one table with a row per epsilon
order: the quadrupole harmonics (c1, c2, c3) at eps^7 and the octupole
harmonics (d1..d4) at eps^9 of the time-form field, each row with its radial
power and weights.  The time-form field, the truncated Hamiltonian and the
splitting integrands are all built from that table.  ``rhs_mcgehee_tau``
writes the slow-time field out by hand instead; it is the independent
reference the tests check the table against.

For the splitting, sigma = sinh tau turns the separatrix rational,

    x = A (1 + sigma^2)^(-1/2),   y = -A sigma / (1 + sigma^2),   A = sqrt(2)/|Theta0|,

with d tau = d sigma / sqrt(1 + sigma^2), and the fast angle becomes
s = s0 - 2 sg arctan(sigma) + D (sigma + sigma^3/3), sg = sign Theta0,
D = |Theta0|^3 / (2 eps^3).  The slow rotation is rational too:
exp(-2 i sg k arctan sigma) = (1 - i sg sigma)^(2k) / (1 + sigma^2)^k.  So
each harmonic k of the energy derivative is a polynomial in sigma over a
power of (1 + sigma^2) times exp(i k D (sigma + sigma^3/3)): a cubic-phase
integrand of phase scale k D, which the contour engine of the quadrature
module integrates over the whole line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import numpy.polynomial.polynomial as P
from scipy.integrate import solve_ivp

from .config import CentralConfiguration
from .harmonics import c_coeffs, d_coeffs
from .melnikov import SplittingTerms, check_splitting_domain
from .quadrature import CubicPhaseIntegrand, eval_oscillatory

SQRT2 = math.sqrt(2.0)

TRUNCATION_ORDERS = (3, 7, 9)


class IntegrationError(RuntimeError):
    """Adaptive integration failed (step-size underflow or solver breakdown)."""


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
    """Perturbation strength, optional first-integral value, truncation order."""

    epsilon: float
    config: CentralConfiguration
    jacobi_C: Optional[float] = None
    truncation_order: int = 9

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.truncation_order not in TRUNCATION_ORDERS:
            raise ValueError(
                f"truncation order must be one of {TRUNCATION_ORDERS}, "
                f"got {self.truncation_order}"
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


def duffing_rhs(x: float, y: float, theta0: float) -> tuple[float, float]:
    """Reduced oscillator: x' = y, y' = x - theta0^2 x^3."""
    return y, x - theta0**2 * x**3


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
            f"x = {x!r} lies outside the series convergence region"
        )


def _field_harmonics(config: CentralConfiguration, truncation: int):
    """The perturbation kept at a truncation order, one row per epsilon order.

    A row (order, n, w_y, w_theta, harmonics) adds, for each harmonic
    (k, a, b), w_y eps^order x^n (a cos ks + b sin ks) to the slow-time y'
    and w_theta eps^order x^(n-2) times minus its s-derivative,
    k (a sin ks - b cos ks), to theta', as in ``rhs_mcgehee_tau``.  The
    time-form field, the truncated energy and the splitting integrands are
    all built from these rows; k = 0 carries c1.
    """
    rows = []
    if truncation >= 7:
        c1, c2, c3 = c_coeffs(config)
        rows.append((4, 5, 0.75, 1.0 / (2.0 * SQRT2), ((0, c1, 0.0), (2, c2, c3))))
    if truncation >= 9:
        d1, d2, d3, d4 = d_coeffs(config)
        rows.append((6, 7, 0.5, 1.0 / (4.0 * SQRT2), ((1, d1, d2), (3, d3, d4))))
    return tuple(rows)


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
    for order, n, w_y, w_theta, harmonics in rows:
        # the slow-time terms times d tau/dt = eps^3 x^3 / sqrt(2)
        scale = epsilon ** (order + 3) / SQRT2
        g, gp = _harmonic_sums(harmonics, s)
        dy += scale * w_y * g * x ** (n + 3)
        dtheta += scale * w_theta * gp * x ** (n + 1)
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
    for order, n, w_y, _, harmonics in _field_harmonics(params.config, params.truncation_order):
        g, _ = _harmonic_sums(harmonics, s)
        h -= e ** (order + 3) * (2.0 * w_y / (n + 1)) * x ** (n + 1) * g
    return h


def jacobi_constant(state: McGeheeState, params: FlowParams) -> float:
    """First integral C = H_truncated - Theta, conserved by the truncated flow."""
    return truncated_hamiltonian(state, params) - state.theta


def theta_from_jacobi(x: float, y: float, jacobi_c: float, epsilon: float) -> float:
    """Angular momentum branch determined by the first-integral value.

    Takes the branch that stays bounded as x -> 0 (value -C on the zero set);
    a series expansion replaces the radical for tiny eps^3 x^4 to avoid
    cancellation.
    """
    v = epsilon**3 * x**4
    g = jacobi_c + epsilon**3 * (x * x - y * y)
    if v < 1e-6:
        # (1 - sqrt(1 + 2 v g))/v = -g + v g^2/2 - v^2 g^3/2 + 5 v^3 g^4/8 + ...
        return -g + 0.5 * v * g * g - 0.5 * v * v * g**3 + 0.625 * v**3 * g**4
    radicand = 1.0 + 2.0 * v * g
    if radicand < 0.0:
        raise ValueError(f"negative radicand {radicand!r} in the angular momentum branch")
    return (1.0 - math.sqrt(radicand)) / v


def rhs_mcgehee_tau(state_vec: Sequence[float], params: FlowParams):
    """Slow-time derivative of (x, y, s, theta); needs x > 0.

    Nothing in the package integrates this field.  It is the reference the
    tests check the time-form field and the integrands of
    ``splitting_measure`` against, so it is written out term by term rather
    than built from ``_field_harmonics``.
    """
    x, y, s, theta = state_vec
    if x <= 0.0:
        raise ConvergenceRegionError("slow-time field needs x > 0")
    _convergence_guard(x, _series_reach(params))
    c1, c2, c3 = c_coeffs(params.config)
    d1, d2, d3, d4 = d_coeffs(params.config)
    e = params.epsilon
    dx = y
    dy = (1.0 - theta**2 * x * x) * x
    ds = SQRT2 * (e**-3 - theta * x**4) / x**3
    dtheta = 0.0
    if params.truncation_order >= 7:
        g = c1 + c2 * math.cos(2 * s) + c3 * math.sin(2 * s)
        dy += 0.75 * e**4 * g * x**5
        dtheta += -(e**4 / SQRT2) * (c3 * math.cos(2 * s) - c2 * math.sin(2 * s)) * x**3
    if params.truncation_order >= 9:
        h = (
            d1 * math.cos(s)
            + d2 * math.sin(s)
            + d3 * math.cos(3 * s)
            + d4 * math.sin(3 * s)
        )
        hp = (
            d1 * math.sin(s)
            - d2 * math.cos(s)
            + 3 * d3 * math.sin(3 * s)
            - 3 * d4 * math.cos(3 * s)
        )
        dy += 0.5 * e**6 * h * x**7
        dtheta += (e**6 / (4.0 * SQRT2)) * hp * x**5
    return np.array([dx, dy, ds, dtheta])


# ---------------------------------------------------------------------------
# integration


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
    """Adaptive embedded Runge-Kutta 5(4) run with dense output.

    Tolerances are split 10:1 relative:absolute around ``tol``.
    """
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tolerance must lie in [1e-12, 1e-4], got {tol!r}")
    res = solve_ivp(
        rhs,
        t_span,
        np.asarray(state0, dtype=float),
        method="RK45",
        rtol=tol,
        atol=tol / 10.0,
        dense_output=True,
    )
    if not res.success:
        raise IntegrationError(f"integrator failed: {res.message}")
    return Trajectory(t=res.t, states=res.y, sol=res.sol)


def integrate_mcgehee(
    state0: McGeheeState,
    params: FlowParams,
    t_span: tuple[float, float],
    tol: float = 1e-10,
) -> Trajectory:
    """Integrate the truncated time-form field from a regularized state."""
    rows = _field_harmonics(params.config, params.truncation_order)
    reach = _series_reach(params)

    def rhs(_t, yv):
        _convergence_guard(yv[0], reach)
        return _rhs_array(yv, params.epsilon, rows)

    return integrate(rhs, (state0.x, state0.y, state0.s, state0.theta), t_span, tol)


def poincare_numeric(
    x0: float,
    y0: float,
    s0: float,
    params: FlowParams,
    tol: float = 1e-12,
) -> tuple[float, float, float]:
    """One turn of the return map of the reduced (x, y, s) flow.

    The angular momentum is eliminated through the first integral; the
    section is the next crossing of s = s0 + 2 pi, located by dense-output
    root solving.  Returns (x1, y1, return_time).
    """
    if params.jacobi_C is None:
        raise ValueError("the return map needs the first-integral value jacobi_C")
    if x0 > 0.1:
        raise ValueError("the return map is meant for small x (x0 <= 0.1)")
    c_val = params.jacobi_C
    rows = _field_harmonics(params.config, params.truncation_order)
    target = s0 + 2.0 * math.pi

    def rhs(_t, yv):
        x, y, s = yv
        theta = theta_from_jacobi(x, y, c_val, params.epsilon)
        return _rhs_array((x, y, s, theta), params.epsilon, rows)[:3]

    def crossing(_t, yv):
        return yv[2] - target

    crossing.terminal = True
    crossing.direction = 1.0

    res = solve_ivp(
        rhs,
        (0.0, 3.0 * math.pi),
        np.array([x0, y0, s0]),
        method="RK45",
        rtol=tol,
        atol=tol / 10.0,
        dense_output=True,
        events=crossing,
        max_step=0.5,
    )
    if not res.success:
        raise IntegrationError(f"integrator failed: {res.message}")
    if not res.t_events[0].size:
        raise PoincareReturnError("no section crossing within 3 pi of time")
    t1 = float(res.t_events[0][0])
    x1, y1, _ = res.y_events[0][0]
    return float(x1), float(y1), t1


# ---------------------------------------------------------------------------
# splitting along the separatrix


def splitting_measure(
    config: CentralConfiguration,
    order: int,
    theta0: float,
    epsilon: float,
    tol: float = 1e-9,
) -> SplittingTerms:
    """Flow-side splitting of one order: the energy derivative along the separatrix.

    Integrates d(energy)/d tau under the order-4 or order-6 part of the
    slow-time field, with (x, y, s) frozen on the separatrix, harmonic by
    harmonic in sigma = sinh tau.  Each harmonic takes two calls of the
    contour engine at absolute tolerance ``tol``; the terms match
    ``splitting_terms`` of the same order, built from the F closed forms.
    """
    check_splitting_domain(theta0, epsilon)
    if order not in (4, 6):
        raise ValueError(f"flow-side splitting has orders 4 and 6, got {order!r}")
    # the field truncated at order + 3 ends with this order's row
    _, n, w_y, w_theta, harmonics = _field_harmonics(config, order + 3)[-1]
    amp = SQRT2 / abs(theta0)
    sign = 1.0 if theta0 > 0.0 else -1.0
    rate = abs(theta0) ** 3 / (2.0 * epsilon**3)
    power = (n + 3) // 2  # of (1 + sigma^2) under y x^n and x^(n+2), times d tau/d sigma
    terms = []
    for k, a, b in harmonics:
        if k == 0:
            continue  # the c1 term is odd along the separatrix and integrates to zero
        # the harmonic times d tau/d sigma is Re[W e^(iks0) e^(ikD(sigma + sigma^3/3))]
        # over (1 + sigma^2)^(power + k), where W is the polynomial
        # -(a - ib) A^(n+1) (w_y sigma + i k Theta0 w_theta A/2) (1 - i sg sigma)^(2k);
        # re and im integrate the real and imaginary parts of W e^(ikD(...))
        w = P.polymul([0.5j * k * theta0 * w_theta * amp, w_y], P.polypow([1.0, -1j * sign], 2 * k))
        w *= -(a - 1j * b) * amp ** (n + 1)
        re = eval_oscillatory(CubicPhaseIntegrand(w.real, -w.imag, power + k, k * rate), tol)
        im = eval_oscillatory(CubicPhaseIntegrand(w.imag, w.real, power + k, k * rate), tol)
        terms.append((k, re.value, -im.value, re.error_estimate + im.error_estimate))
    return SplittingTerms(order, tuple(terms))
