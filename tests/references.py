"""References that only the tests use."""

from melsplit.asymptotics import leading_term
from melsplit.melnikov import _order_terms
from melsplit.quadrature import QuadratureResult


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
                         lambda f: QuadratureResult(leading_term(f), 0.0, 0))
    return epsilon**order * terms.value(s0)
