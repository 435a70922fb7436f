"""Leading large-phase-scale term of the cubic-phase integrals.

For d > 0 the integral over R of (alpha z + beta)(z + i)^-a (z - i)^-b
exp(i d phi(z)), phi(z) = z + z^3/3, is governed by z = i, where the saddle
of the phase (phi'(i) = 0) meets the pole.  With w = z - i,

    phi(i + w) = 2i/3 + i w^2 + w^3/3,
    (alpha z + beta)(z + i)^-a (z - i)^-b = (alpha i + beta) (2i)^-a w^-p (1 + O(w)),

with p = b the order of the pole at i, once the quadrature's normalization
has cancelled a zero of the numerator there.  Without the O(w) and the w^3
term, a Gaussian is integrated below a pole: Hankel's integral for 1/Gamma
(DLMF 5.9) gives i^p pi d^((p-1)/2) / Gamma((p+1)/2), so the real part of
the integral is, to leading order,

    Re[(alpha i + beta) (2i)^-a i^p] pi d^((p-1)/2) / Gamma((p+1)/2) exp(-2d/3),

which is 0 where 1/Gamma vanishes, at p negative and odd.  ``leading_term``
evaluates it for any ``CubicPhaseIntegrand``, normalized as the quadrature
normalizes it (d < 0 is d > 0 with the numerator conjugated and a, b
swapped).  The dropped terms are a relative O(d^(-1/2)) whose coefficient
grows with the pole powers, so the formula leads only where d >> (a + b)^2,
roughly.  The half-line integrals I_k and every splitting integrand F_(j,k)
are special cases.
"""
from __future__ import annotations

import math

from .quadrature import CubicPhaseIntegrand, _normalized


def leading_term(integrand: CubicPhaseIntegrand) -> float:
    """Leading large-|d| term of the integral of ``integrand`` over R; d = 0 raises."""
    delta, alpha, beta, a, p = _normalized(integrand)
    if delta == 0.0:
        raise ValueError("the leading term needs a nonzero phase scale")
    if alpha == 0 and beta == 0:
        return 0.0
    if p < 0 and p % 2:
        return 0.0
    # over (1 + z^2)^n, n = max(a, p), the numerator's first Taylor coefficient
    # about i is (alpha i + beta)(2i)^(n-a), exact in floats, and
    # (2i)^-a i^p = (2i)^(n-a) (-i)^(n-p) / 2^n, with 2^-n in the exponent
    n = max(a, p)
    lead = (alpha * 1j + beta) * 2.0 ** (n - a) * (1, 1j, -1, -1j)[(p - a) % 4]
    x = 0.5 * (p + 1)
    sign = -1.0 if x < 0.0 and math.ceil(-x) % 2 else 1.0  # the sign of Gamma(x)
    # the powers, 1/Gamma and the exponential in one exponent, so no factor overflows
    log_size = (math.log(math.pi) - n * math.log(2.0) + 0.5 * (p - 1) * math.log(delta)
                - math.lgamma(x) - 2.0 * delta / 3.0)
    return sign * lead.real * math.exp(log_size)


def ik_asymptotic(k: int, delta: float) -> float:
    """Leading large-delta term of I_k(delta), delta > 0: half the whole line's."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not delta > 0.0:
        raise ValueError(f"need delta > 0, got {delta!r}")
    return 0.5 * leading_term(CubicPhaseIntegrand(0.0, 1.0, k, k, delta))
