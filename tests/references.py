"""References that only the tests use.

``c_coeffs``, ``d_coeffs`` and ``d_l`` are the paper's constants as direct
sums over the bodies: the oracle that ``HarmonicTables.paper`` is checked
against.  ``classify_full_scan`` reads every table entry in dominance
order, as ``classify`` did before it skipped the entries that rotational
symmetry forces to vanish: the oracle for its witnesses and zeros.
``rhs_array`` and ``hamiltonian`` evaluate the time-form field and the
truncated energy order by order, with cos ks and sin ks taken afresh for
every entry and each power of x by ``**``: the oracle for ``dynamics._field``.
"""

import itertools
import math
from typing import Optional

import numpy as np

from melsplit.asymptotics import leading_term
from melsplit.dynamics import (
    SQRT2,
    ConvergenceRegionError,
    FlowParams,
    McGeheeState,
    _convergence_guard,
    _field_harmonics,
    _series_reach,
)
from melsplit.config import CentralConfiguration
from melsplit.harmonics import MAX_LEGENDRE_ORDER, HarmonicTables
from melsplit.melnikov import (
    ZERO_THRESHOLD,
    TransversalityVerdict,
    Witness,
    _order_terms,
    simple_zeros,
)
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

    The column that ``asymp leading`` prints for order 4 or 6, bit for bit
    where epsilon is a power of two; the oracle for ``melnikov.leading_terms``.
    """
    terms = _order_terms(config, order, theta0, epsilon,
                         lambda j, k, tt: QuadratureResult(
                             leading_term(harmonic_integrand(j, k, tt)), 0.0, 0))
    return epsilon**order * terms.value(s0)


def classify_full_scan(
    config: CentralConfiguration,
    l_max: int = 8,
    j_max: Optional[int] = None,
) -> TransversalityVerdict:
    """Scan the harmonic tables in dominance order and report the first nonzero pair.

    The scan reads the entry (a, b) of harmonic k in the order-j table, k
    ascending and, within a harmonic, j = k mod 2 ascending: k = 1 runs over
    j = 3, 5, ..., 2 l_max + 1, and k >= 2 over j = k, k + 2, ..., j_max
    (default min(2N + 4, 64) for N bodies).  An entry is an exact symmetry
    zero when max(|a|, |b|) <= ZERO_THRESHOLD sum_i m_i r_i^j, the weight the
    entries scale with, so the verdict does not depend on the size of the
    configuration; each trace entry records max(|a|, |b|) over that bound as
    its margin.  The first entry with margin > 1 is the witness.  Every pair
    is reported in the paper's units, ``HarmonicTables.unit(j, k)`` times
    the table entry (a, b), which is the entry itself where it has no name.
    The scan reads one ``HarmonicTables`` up to order max(j_max, 2 l_max + 1),
    which contracts an order's table when the scan first reads it.
    """
    if not (2 <= l_max <= 16):
        raise ValueError(f"l_max must lie in [2, 16], got {l_max}")
    if j_max is None:
        j_max = min(2 * config.n_bodies + 4, MAX_LEGENDRE_ORDER)
    if not (4 <= j_max <= MAX_LEGENDRE_ORDER):
        raise ValueError(f"j_max must lie in [4, {MAX_LEGENDRE_ORDER}], got {j_max}")

    tables = HarmonicTables(config, max(j_max, 2 * l_max + 1))
    scan = itertools.chain(
        ((j, 1) for j in range(3, 2 * l_max + 2, 2)),
        ((j, k) for k in range(2, j_max + 1) for j in range(k, j_max + 1, 2)),
    )
    trace: list[tuple[str, tuple[float, float], str, float]] = []
    for j, k in scan:
        table = tables[j]
        bound = ZERO_THRESHOLD * table.weight
        a, b = table.pair(k)
        size = max(abs(a), abs(b))
        # a weight that underflows leaves nothing to resolve: read it as a zero
        margin = size / bound if bound > 0.0 else 0.0
        unit = tables.unit(j, k)
        pair = (unit * a, unit * b)
        decision = "nonzero" if margin > 1.0 else "zero"
        trace.append((f"harmonic(j={j}, k={k})", pair, decision, margin))
        if margin > 1.0:
            witness = Witness(k, 2 * j, pair, tuple(simple_zeros(pair[1], -pair[0], k)))
            return TransversalityVerdict("transversal", witness, tuple(trace))

    return TransversalityVerdict("inconclusive", None, tuple(trace))


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


def harmonic_sums(harmonics, s: float) -> tuple[float, float]:
    """sum (a cos ks + b sin ks) and minus its s-derivative, sum k (a sin ks - b cos ks)."""
    g = gp = 0.0
    for k, a, b in harmonics:
        cos_ks, sin_ks = math.cos(k * s), math.sin(k * s)
        g += a * cos_ks + b * sin_ks
        gp += k * (a * sin_ks - b * cos_ks)
    return g, gp


def rhs_array(y_vec, epsilon: float, rows):
    """Time-form field at (x, y, s, theta) from the rows of ``dynamics._field_harmonics``."""
    x, y, s, theta = y_vec
    e3 = epsilon**3
    dx = e3 * x**3 * y / SQRT2
    dy = e3 * (1.0 - theta**2 * x * x) * x**4 / SQRT2
    ds = 1.0 - e3 * theta * x**4
    dtheta = 0.0
    for j, harmonics in rows:
        scale = epsilon ** (2 * j + 3)
        g, gp = harmonic_sums(harmonics, s)
        dy += scale * (j + 1) / SQRT2 * g * x ** (2 * j + 4)
        dtheta += scale * gp * x ** (2 * j + 2)
    return np.array([dx, dy, ds, dtheta])


def hamiltonian(state: McGeheeState, params: FlowParams) -> float:
    """Truncated energy at a regularized state, order by order."""
    x, y, s, theta = state.x, state.y, state.s, state.theta
    e = params.epsilon
    h = e**3 * (y * y + 0.5 * theta**2 * x**4 - x * x)
    for j, harmonics in _field_harmonics(params.config, params.truncation_order):
        g, _ = harmonic_sums(harmonics, s)
        h -= e ** (2 * j + 3) * x ** (2 * j + 2) * g
    return h
