"""Splitting functions and the transversality decision tree.

The first-order splitting of the parabolic manifolds is a trigonometric
polynomial in the section angle s0 whose amplitudes combine a configuration
coefficient pair with an oscillatory integral of the quadrature module:

    order 4:  +-(2/Theta0^6)  F4  (c2 sin 2 s0 - c3 cos 2 s0)
    order 6:  +-(2/Theta0^8) [F61 (d2 cos s0 - d1 sin s0)
                              + F62 (d4 cos 3 s0 - d3 sin 3 s0)]
    polygon:  +-(K/Theta0^(2N)) F_(2N-2) sin((N-1) s0)

The upper sign goes with Theta0 > 0.  ``splitting_terms`` returns the
amplitudes of one order as (k, A, B, error) terms, with each F computed
once per call from a single quadrature whose error estimate it carries into
the terms; summing cosines over s0 needs no further quadrature.

A simple zero of the s0-factor forces a transversal intersection, so the
classifier walks the coefficient families in dominance order (harmonic
index first, then expansion order) until it finds a nonvanishing pair, and
reports that pair together with its zero set as the witness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .config import CentralConfiguration
from .harmonics import c_coeffs, d_coeffs, d_l, harmonic_table
from .quadrature import (
    eval_oscillatory,
    f4_integrand,
    f61_integrand,
    f62_integrand,
    polygon_integrand,
    polygon_prefactor,
)

#: coefficients below this magnitude count as exact symmetry zeros
ZERO_THRESHOLD = 1e-11


@dataclass(frozen=True)
class SplittingTerms:
    """One order of the splitting function as a trigonometric polynomial.

    ``terms`` lists (harmonic k, cos amplitude A, sin amplitude B, error);
    the splitting function is sum_k [A cos(k s0) + B sin(k s0)], and a
    term's ``error`` bounds the quadrature error of its contribution at
    every s0.
    """

    epsilon_order: int
    terms: tuple[tuple[int, float, float, float], ...]

    def value(self, s0: float) -> float:
        return math.fsum(a * math.cos(k * s0) + b * math.sin(k * s0) for k, a, b, _ in self.terms)


def check_splitting_domain(theta0: float, epsilon: float) -> None:
    """Raise ValueError unless theta0 is finite and nonzero and 0 < epsilon <= 1."""
    if theta0 == 0.0 or not math.isfinite(theta0):
        raise ValueError(f"need finite nonzero angular momentum, got {theta0!r}")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")


def _order_rows(config: Optional[CentralConfiguration], order: int | str, theta0: float):
    """Epsilon order and rows (k, integrand builder, (a, b), prefactor) of one order."""
    key = str(order)
    if key in ("4", "6"):
        if config is None:
            raise ValueError(f"order {key} needs a configuration")
        if key == "4":
            _, c2, c3 = c_coeffs(config)
            pref = 2.0 / theta0**6
            return 4, ((2, f4_integrand, (-c3, c2), pref),)
        d1, d2, d3, d4 = d_coeffs(config)
        pref = 2.0 / theta0**8
        return 6, ((1, f61_integrand, (d2, -d1), pref), (3, f62_integrand, (d4, -d3), pref))
    if not key.startswith("poly:"):
        raise ValueError(f"unsupported order {order!r}")
    n_total = int(key.split(":", 1)[1])
    pref = float(polygon_prefactor(n_total)) / theta0 ** (2 * n_total)
    return 2 * n_total - 2, ((n_total - 1, partial(polygon_integrand, n_total), (0.0, 1.0), pref),)


def splitting_terms(
    config: Optional[CentralConfiguration],
    order: int | str,
    theta0: float,
    epsilon: float,
    tol: float = 1e-10,
) -> SplittingTerms:
    """Harmonic amplitudes of one splitting order, each F evaluated once.

    ``order`` is 4, 6 or ``"poly:N"``; orders 4 and 6 need ``config``.  The
    sign of ``theta0`` selects the branch.  A term's error is
    |prefactor| F-error (|a| + |b|) for its coefficient pair (a, b).
    """
    check_splitting_domain(theta0, epsilon)
    eps_order, rows = _order_rows(config, order, theta0)
    sign = 1.0 if theta0 > 0.0 else -1.0
    tt = theta0 / epsilon
    terms = []
    for k, builder, (a, b), pref in rows:
        f = eval_oscillatory(builder(tt), tol)
        amp = sign * pref * f.value
        terms.append((k, amp * a, amp * b, abs(pref) * f.error_estimate * (abs(a) + abs(b))))
    return SplittingTerms(eps_order, tuple(terms))


def simple_zeros(a: float, b: float, k: int) -> Optional[list[float]]:
    """Zeros of a cos(k s0) + b sin(k s0) in [0, 2 pi); None when degenerate.

    A nondegenerate pair has exactly 2k simple zeros, equally spaced by pi/k.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if a == 0.0 and b == 0.0:
        return None
    base = math.atan2(-a, b)
    zeros = sorted(((base + n * math.pi) / k) % (2.0 * math.pi) for n in range(2 * k))
    return zeros


@dataclass(frozen=True)
class Witness:
    """Nonvanishing coefficient pair certifying the transversal intersection."""

    harmonic: int
    epsilon_order: int
    coefficient_pair: tuple[float, float]
    zero_locations: tuple[float, ...]


@dataclass(frozen=True)
class TransversalityVerdict:
    status: str  # "transversal" | "inconclusive"
    witness: Optional[Witness]
    search_trace: tuple[tuple[str, tuple[float, ...], str], ...]

    def __post_init__(self):
        if self.status == "transversal":
            if self.witness is None or self.witness.coefficient_pair == (0.0, 0.0):
                raise ValueError("transversal verdict needs a nonzero witness pair")


def _factor_zeros(a_cos: float, b_sin: float, k: int) -> tuple[float, ...]:
    zeros = simple_zeros(a_cos, b_sin, k)
    return tuple(zeros) if zeros is not None else ()


def classify(
    config: CentralConfiguration,
    l_max: int = 8,
    j_max: Optional[int] = None,
) -> TransversalityVerdict:
    """Walk the coefficient families in dominance order and report a witness.

    Stages: (i) the first-harmonic pair (d1, d2); (ii) its higher radial
    weights for l = 2..l_max; (iii) the second-harmonic pair (c2, c3);
    (iv) the general harmonic scan with harmonic index ascending and, within
    a harmonic, expansion order ascending.  Absolute threshold
    ``ZERO_THRESHOLD`` decides what counts as a symmetry zero.
    """
    if not (2 <= l_max <= 16):
        raise ValueError(f"l_max must lie in [2, 16], got {l_max}")
    if j_max is None:
        j_max = 2 * config.n_bodies + 4
    if not (4 <= j_max <= 64):
        raise ValueError(f"j_max must lie in [4, 64], got {j_max}")

    trace: list[tuple[str, tuple[float, ...], str]] = []

    def nonzero(*vals: float) -> bool:
        return any(abs(v) > ZERO_THRESHOLD for v in vals)

    d1, d2, _, _ = d_coeffs(config)
    if nonzero(d1, d2):
        trace.append(("d", (d1, d2), "nonzero"))
        witness = Witness(1, 6, (d1, d2), _factor_zeros(d2, -d1, 1))
        return TransversalityVerdict("transversal", witness, tuple(trace))
    trace.append(("d", (d1, d2), "zero"))

    for l in range(2, l_max + 1):
        d1l, d2l = d_l(config, l)
        if nonzero(d1l, d2l):
            trace.append((f"d_l(l={l})", (d1l, d2l), "nonzero"))
            witness = Witness(1, 2 * (2 * l + 1), (d1l, d2l), _factor_zeros(d2l, -d1l, 1))
            return TransversalityVerdict("transversal", witness, tuple(trace))
        trace.append((f"d_l(l={l})", (d1l, d2l), "zero"))

    _, c2, c3 = c_coeffs(config)
    if nonzero(c2, c3):
        trace.append(("c", (c2, c3), "nonzero"))
        witness = Witness(2, 4, (c2, c3), _factor_zeros(-c3, c2, 2))
        return TransversalityVerdict("transversal", witness, tuple(trace))
    trace.append(("c", (c2, c3), "zero"))

    tables = {j: harmonic_table(config, j) for j in range(2, j_max + 1)}
    for k in range(2, j_max + 1):
        j_start = 4 if k == 2 else k  # (j=2, k=2) is the stage-(iii) pair
        for j in range(j_start, j_max + 1, 2):
            try:
                a, b = tables[j].pair(k)
            except KeyError:
                continue
            if nonzero(a, b):
                trace.append((f"harmonic(j={j}, k={k})", (a, b), "nonzero"))
                witness = Witness(k, 2 * j, (a, b), _factor_zeros(b, -a, k))
                return TransversalityVerdict("transversal", witness, tuple(trace))
            trace.append((f"harmonic(j={j}, k={k})", (a, b), "zero"))

    return TransversalityVerdict("inconclusive", None, tuple(trace))


def verdict_to_dict(verdict: TransversalityVerdict) -> dict:
    out: dict = {"status": verdict.status}
    if verdict.witness is not None:
        out["witness"] = {
            "k": verdict.witness.harmonic,
            "epsilon_order": verdict.witness.epsilon_order,
            "A": verdict.witness.coefficient_pair[0],
            "B": verdict.witness.coefficient_pair[1],
            "zeros": list(verdict.witness.zero_locations),
        }
    else:
        out["witness"] = None
    out["trace"] = [
        {"stage": stage, "coefficients": list(coeffs), "decision": decision}
        for stage, coeffs, decision in verdict.search_trace
    ]
    return out
