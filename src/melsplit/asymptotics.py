"""Asymptotic behavior of the oscillatory integrals and the splitting.

For large positive phase scale the half-line basis integrals obey

    I_(2n-1)(d) = exp(-2d/3) [ pi d^(n-1) / (2^(n+1) (2n-2)!!) + O(d^(n-3/2)) ]
    I_(2n)(d)   = exp(-2d/3) [ sqrt(pi) d^(n-1/2) / (2^(n+1) (2n-1)!!) + O(d^(n-1)) ]

together with the exact identity J_(k+2)(d) = d/(2(k+1)) I_k(d).  Feeding
these into the splitting functions gives closed leading-order forms for the
order-4 and order-6 terms on both sign branches of the angular momentum.
Values here are plain closed-form evaluations; the quadrature module is the
cross-check.
"""
from __future__ import annotations

import math

from .config import CentralConfiguration
from .dynamics import SQRT2
from .harmonics import c_coeffs, d_coeffs
from .quadrature import _double_factorial

SQRT_PI = math.sqrt(math.pi)


def ik_asymptotic(k: int, delta: float) -> float:
    """Leading large-delta term of I_k(delta), delta > 0."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not delta > 0.0:
        raise ValueError(f"need delta > 0, got {delta!r}")
    if k % 2 == 1:
        n = (k + 1) // 2
        lead = math.pi * delta ** (n - 1) / (2 ** (n + 1) * _double_factorial(2 * n - 2))
    else:
        n = k // 2
        lead = SQRT_PI * delta ** (n - 0.5) / (2 ** (n + 1) * _double_factorial(2 * n - 1))
    return math.exp(-2.0 * delta / 3.0) * lead


def m4_leading(
    s0: float, theta0: float, epsilon: float, config: CentralConfiguration
) -> float:
    """Leading asymptotic value of the order-4 splitting term (times eps^4)."""
    if theta0 == 0.0:
        raise ValueError("need nonzero angular momentum")
    _, c2, c3 = c_coeffs(config)
    angular = c2 * math.sin(2 * s0) - c3 * math.cos(2 * s0)
    rate = theta0**3 / epsilon**3
    if theta0 > 0.0:
        pref = (4.0 * SQRT_PI / 3.0) * epsilon**-3.5 * theta0**1.5
        return pref * math.exp(-2.0 * rate / 3.0) * angular
    pref = (5.0 * math.pi / 8.0) * epsilon**-2.0
    return pref * math.exp(2.0 * rate / 3.0) * angular


def m6_leading(
    s0: float, theta0: float, epsilon: float, config: CentralConfiguration
) -> float:
    """Leading asymptotic value of the order-6 splitting term (times eps^6).

    Both harmonics are included; their decay rates differ by a factor 3 in
    the exponent.
    """
    if theta0 == 0.0:
        raise ValueError("need nonzero angular momentum")
    d1, d2, d3, d4 = d_coeffs(config)
    first = d2 * math.cos(s0) - d1 * math.sin(s0)
    third = d4 * math.cos(3 * s0) - d3 * math.sin(3 * s0)
    rate = theta0**3 / epsilon**3
    if theta0 > 0.0:
        a = -(SQRT_PI / (12.0 * SQRT2)) * epsilon**-1.5 * theta0**-0.5
        b = -(9.0 * math.sqrt(3.0 * math.pi) / (5.0 * SQRT2)) * epsilon**-4.5 * theta0**2.5
        return a * math.exp(-rate / 3.0) * first + b * math.exp(-rate) * third
    a = -(5.0 * math.pi / 128.0) * theta0**-2.0
    b = (63.0 * math.pi / 64.0) * epsilon**-3.0 * theta0
    return a * math.exp(rate / 3.0) * first + b * math.exp(rate) * third
