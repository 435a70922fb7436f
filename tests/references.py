"""References that only the tests use.

``c_coeffs``, ``d_coeffs`` and ``d_l`` are the paper's constants as direct
sums over the bodies: the oracle that ``HarmonicTables.paper`` is checked
against.
"""

import math

import numpy as np

from melsplit.asymptotics import leading_term
from melsplit.dynamics import (
    SQRT2,
    ConvergenceRegionError,
    FlowParams,
    _convergence_guard,
    _series_reach,
)
from melsplit.melnikov import _order_terms
from melsplit.quadrature import QuadratureResult, harmonic_integrand


def duffing_rhs(x: float, y: float, theta0: float) -> tuple[float, float]:
    """Reduced oscillator: x' = y, y' = x - theta0^2 x^3."""
    return y, x - theta0**2 * x**3


def legendre_pair(j: int, w: float) -> tuple[float, float]:
    """(P_j(w), dP_j/dw) by the standard recurrences."""
    if j == 0:
        return 1.0, 0.0
    p0, p1 = 1.0, w
    d0, d1 = 0.0, 1.0
    for m in range(2, j + 1):
        p0, p1 = p1, ((2 * m - 1) * w * p1 - (m - 1) * p0) / m
        d0, d1 = d1, ((2 * m - 1) * (p0 + w * d1) - (m - 1) * d0) / m
    return p1, d1


def leading_splitting(config, order: int, theta0: float, epsilon: float, s0: float) -> float:
    """epsilon^order times one splitting order at s0, each F_(j,k) replaced by its leading term.

    The column that ``asymp leading`` prints for order 4 or 6.
    """
    terms = _order_terms(config, order, theta0, epsilon,
                         lambda j, k, tt: QuadratureResult(
                             leading_term(harmonic_integrand(j, k, tt)), 0.0, 0))
    return epsilon**order * terms.value(s0)


def c_coeffs(config) -> tuple[float, float, float]:
    """Quadrupole coefficients: c1 = sum m|a|^2, c2 = 3 sum m(x^2 - y^2), c3 = -6 sum m x y."""
    m = config.masses()
    pos = config.positions()
    x, y = pos[:, 0], pos[:, 1]
    c1 = float(np.dot(m, x * x + y * y))
    c2 = 3.0 * float(np.dot(m, x * x - y * y))
    c3 = -6.0 * float(np.dot(m, x * y))
    return c1, c2, c3


def d_coeffs(config) -> tuple[float, float, float, float]:
    """Octupole coefficients d1..d4 of the cos s, sin s, cos 3s, sin 3s channels."""
    m = config.masses()
    pos = config.positions()
    x, y = pos[:, 0], pos[:, 1]
    r2 = x * x + y * y
    d1 = 3.0 * float(np.dot(m, x * r2))
    d2 = -3.0 * float(np.dot(m, y * r2))
    d3 = 5.0 * float(np.dot(m, x * (x * x - 3.0 * y * y)))
    d4 = -5.0 * float(np.dot(m, y * (3.0 * x * x - y * y)))
    return d1, d2, d3, d4


def d_l(config, l: int) -> tuple[float, float]:
    """First-harmonic pair at radial weight |a|^(2l): (sum m x r^2l, -sum m y r^2l)."""
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    m = config.masses()
    pos = config.positions()
    x, y = pos[:, 0], pos[:, 1]
    r2l = (x * x + y * y) ** l
    return float(np.dot(m, x * r2l)), -float(np.dot(m, y * r2l))


def rhs_mcgehee_tau(state_vec, params: FlowParams):
    """Slow-time derivative of (x, y, s, theta); needs x > 0.

    The reference the tests check the time-form field and the splitting
    integrands against, so it is written out term by term rather than built
    from ``dynamics._field_harmonics``; it carries the terms up to truncation
    order 9 and leaves out any higher ones.
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
