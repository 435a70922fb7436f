"""Reference routes for the oscillatory engine, kept beside the tests that use them.

* ``on_ray`` runs ``eval_oscillatory`` with the contour's arms turned to
  another angle.  By Cauchy's theorem the integral does not depend on the
  angle (any ray in (0, pi/3) leaves the integrand decaying at infinity), but
  every node, term and rounding error does, so two angles that agree within
  the sum of their error estimates check both the value and the estimate
  (Trefethen & Weideman, SIAM Rev. 56, 2014).
* ``ikjk_decomposition`` rewrites an integrand exactly in the half-line
  basis integrals I_k and J_k, and ``eval_via_ikjk`` reassembles the value
  from them.  Its partial-fraction coefficients grow with the degree, and
  each sub-tolerance is clamped at 1e-13, so it is looser than the route it
  would check for the high-degree integrands.
* ``zero_phase_by_u_basis`` evaluates a d = 0 integral exactly in the same
  basis, sum e_i (1 + z^2)^i with I_k(0) = pi/2 (2k-3)!!/(2k-2)!!: a second
  exact route beside the engine's residue at z = i.
* ``f4_integrand``, ``f61_integrand`` and ``f62_integrand`` are the paper's
  F4, F61 and F62 with their numerators as printed: the oracle for the
  names ``quadrature.named_integrand`` gives F_(2,2), -F_(3,1) and -F_(3,3).
"""
from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache
from unittest import mock

from melsplit import quadrature
from melsplit.quadrature import (
    CubicPhaseIntegrand,
    QuadratureResult,
    _even_part,
    _odd_part,
    eval_oscillatory,
)


# the default arm leaves the vertex at pi/6
SHIFTED_RAYS = (math.pi / 8, math.pi / 5)


def on_ray(integrand: CubicPhaseIntegrand, tol: float, angle: float) -> QuadratureResult:
    """``eval_oscillatory`` on the contour whose right arm leaves the vertex at ``angle``."""
    with mock.patch.object(quadrature, "_RAY", cmath.exp(1j * angle)):
        return eval_oscillatory(integrand, tol)


def assert_contour_shift_agrees(integrand: CubicPhaseIntegrand, tol: float) -> None:
    """The default arms and each of SHIFTED_RAYS agree within the sum of both estimates."""
    direct = eval_oscillatory(integrand, tol)
    for angle in SHIFTED_RAYS:
        shifted = on_ray(integrand, tol, angle)
        assert abs(direct.value - shifted.value) <= direct.error_estimate + shifted.error_estimate, (
            integrand, angle, direct, shifted)


def _u_basis(even_coeffs) -> dict[int, Fraction]:
    """Rewrite an even polynomial sum c_{2j} z^{2j} as sum e_i (1+z^2)^i, exactly."""
    # dyadic floats: one power of two makes every coefficient an integer
    ratios = [float(c).as_integer_ratio() for c in even_coeffs[::2]]
    unit = max((d for _, d in ratios), default=1)
    out = [0] * len(ratios)
    for jj, (n, d) in enumerate(ratios):
        # z^2 = u - 1 with u = 1 + z^2: the u^i coefficient of c (u - 1)^jj
        term = n * (unit // d) * (-1) ** jj
        for i in range(jj + 1 if n else 0):
            out[i] += term * math.comb(jj, i)
            term = -term
    return {i: Fraction(v, unit) for i, v in enumerate(out) if v != 0}


@lru_cache(maxsize=None)
def _ik_zero_ratio(k: int) -> Fraction:
    """I_k(0) / (pi/2) = (2k-3)!!/(2k-2)!!, exactly."""
    return Fraction(math.prod(range(2 * k - 3, 0, -2)), math.prod(range(2 * k - 2, 0, -2)))


def zero_phase_by_u_basis(integrand: CubicPhaseIntegrand) -> QuadratureResult:
    """The d = 0 integral from the u-basis: pi sum e_i (I_(k-i)(0) / (pi/2)), exactly."""
    k = integrand.denominator_power
    basis = _u_basis(_even_part(integrand.cos_numerator))
    total = sum((c * _ik_zero_ratio(k - i) for i, c in basis.items()), Fraction(0))
    value = math.pi * float(total)
    return QuadratureResult(value=value, error_estimate=2.0 * sys.float_info.epsilon * abs(value),
                            evaluations=0)


def ikjk_decomposition(
    integrand: CubicPhaseIntegrand,
) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Exact coefficients of the I/J basis: value = 2 sum a_k I_k + 2 sum b_k J_k."""
    k = integrand.denominator_power
    i_terms: dict[int, Fraction] = {}
    for i, c in _u_basis(_even_part(integrand.cos_numerator)).items():
        i_terms[k - i] = i_terms.get(k - i, Fraction(0)) + c
    j_terms: dict[int, Fraction] = {}
    odd = _odd_part(integrand.sin_numerator)
    stripped = tuple(odd[1:])  # divide by z; remaining polynomial is even
    for i, c in _u_basis(stripped).items():
        j_terms[k - i] = j_terms.get(k - i, Fraction(0)) + c
    return ({i: v for i, v in i_terms.items() if v != 0},
            {i: v for i, v in j_terms.items() if v != 0})


def eval_via_ikjk(integrand: CubicPhaseIntegrand, tol: float = 1e-10) -> QuadratureResult:
    """Reassemble the integral from I_k/J_k values."""
    i_terms, j_terms = ikjk_decomposition(integrand)
    delta = integrand.phase_scale
    n_terms = max(1, len(i_terms) + len(j_terms))
    total, err, evals = 0.0, 0.0, 0
    for terms, basis in ((i_terms, lambda kk: CubicPhaseIntegrand((1.0,), (), kk, delta)),
                         (j_terms, lambda kk: CubicPhaseIntegrand((), (0.0, 1.0), kk, delta))):
        for kk, coeff in sorted(terms.items()):
            sub_tol = max(1e-13, tol / (4.0 * n_terms * max(1.0, abs(float(coeff)))))
            res = eval_oscillatory(basis(kk), sub_tol)
            total += float(coeff) * res.value
            err += abs(float(coeff)) * res.error_estimate
            evals += res.evaluations
    return QuadratureResult(value=total, error_estimate=err, evaluations=evals)


def f4_integrand(theta_tilde: float) -> CubicPhaseIntegrand:
    """Second-order splitting integrand (numerators of degree 4 and 5, power 6)."""
    return CubicPhaseIntegrand(
        cos_numerator=(2.0, 0.0, -24.0, 0.0, 14.0),
        sin_numerator=(0.0, 11.0, 0.0, -26.0, 0.0, 3.0),
        denominator_power=6,
        phase_scale=theta_tilde**3,
    )


def f61_integrand(theta_tilde: float) -> CubicPhaseIntegrand:
    """First-harmonic third-order integrand (power 6, half-rate phase)."""
    return CubicPhaseIntegrand(
        cos_numerator=(-1.0, 0.0, 9.0),
        sin_numerator=(0.0, -6.0, 0.0, 4.0),
        denominator_power=6,
        phase_scale=theta_tilde**3 / 2.0,
    )


def f62_integrand(theta_tilde: float) -> CubicPhaseIntegrand:
    """Third-harmonic third-order integrand (power 8, 3/2-rate phase)."""
    return CubicPhaseIntegrand(
        cos_numerator=(-3.0, 0.0, 69.0, 0.0, -125.0, 0.0, 27.0),
        sin_numerator=(0.0, -22.0, 0.0, 120.0, 0.0, -78.0, 0.0, 4.0),
        denominator_power=8,
        phase_scale=1.5 * theta_tilde**3,
    )


#: the paper's names and their literal integrands
PAPER_INTEGRANDS = {"F4": f4_integrand, "F61": f61_integrand, "F62": f62_integrand}
