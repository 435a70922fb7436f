"""Leading large-phase-scale term of the cubic-phase integrals.

For d > 0 the integral over R of (P - iQ)(z) exp(i d phi(z)) / (1 + z^2)^k,
phi(z) = z + z^3/3, is governed by z = i, where the saddle of the phase
(phi'(i) = 0) meets the pole.  With w = z - i,

    phi(i + w) = 2i/3 + i w^2 + w^3/3,
    (P - iQ)(z) / (1 + z^2)^k = b_j0 w^(-p) / (2i)^k (1 + O(w)),

where b_j0 is the first nonzero Taylor coefficient of P - iQ about i and
p = k - j0 the order of the pole left there.  Without the O(w) and the w^3
term, a Gaussian is integrated below a pole: Hankel's integral for 1/Gamma
(DLMF 5.9) gives i^p pi d^((p-1)/2) / Gamma((p+1)/2), so the integral of
the real integrand is, to leading order,

    Re[b_j0 i^p / (2i)^k] pi d^((p-1)/2) / Gamma((p+1)/2) exp(-2d/3),

which is 0 where 1/Gamma vanishes, at p negative and odd.  ``leading_term``
evaluates it for any ``CubicPhaseIntegrand``, normalized as the quadrature
normalizes it (d < 0 is d > 0 with Q -> -Q), from the quadrature's exact
pole expansion.  The dropped terms are a relative O(d^(-1/2)) whose
coefficient grows with the power k of (1 + z^2), so the formula leads only
where d >> k^2, roughly.  The half-line integrals I_k and every splitting
integrand F_(j,k) (power j + k + 2) are special cases.
"""
from __future__ import annotations

import math

from .quadrature import CubicPhaseIntegrand, _degree, _normalized, _pole_expansion


def leading_term(integrand: CubicPhaseIntegrand) -> float:
    """Leading large-|d| term of the integral of ``integrand`` over R; d = 0 raises."""
    delta, cos_num, sin_num = _normalized(integrand)
    if delta == 0.0:
        raise ValueError("the leading term needs a nonzero phase scale")
    if _degree(cos_num) < 0 and _degree(sin_num) < 0:
        return 0.0
    coeffs, j0 = _pole_expansion(cos_num, sin_num)
    k = integrand.denominator_power
    p = k - j0
    if p < 0 and p % 2:
        return 0.0
    # b_j0 i^p / (2i)^k = b_j0 (-i)^j0 / 2^k
    b = complex(coeffs[1, 0]) * (1, -1j, -1, 1j)[j0 % 4]
    x = 0.5 * (p + 1)
    sign = -1.0 if x < 0.0 and math.ceil(-x) % 2 else 1.0  # the sign of Gamma(x)
    # the powers, 1/Gamma and the exponential in one exponent, so no factor overflows
    log_size = (math.log(math.pi) - k * math.log(2.0) + 0.5 * (p - 1) * math.log(delta)
                - math.lgamma(x) - 2.0 * delta / 3.0)
    return sign * b.real * math.exp(log_size)


def ik_asymptotic(k: int, delta: float) -> float:
    """Leading large-delta term of I_k(delta), delta > 0: half the whole line's."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not delta > 0.0:
        raise ValueError(f"need delta > 0, got {delta!r}")
    return 0.5 * leading_term(CubicPhaseIntegrand((1.0,), (), k, delta))
