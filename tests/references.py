"""References that only the tests use.

``c_coeffs``, ``d_coeffs`` and ``d_l`` are the paper's constants as direct
sums over the bodies: the oracle that ``HarmonicTables.paper`` is checked
against.  ``classify_full_scan`` reads every table entry in dominance
order, as ``classify`` did before it skipped the entries that rotational
symmetry forces to vanish: the oracle for its witnesses and zeros.
``rhs_array`` and ``hamiltonian`` evaluate the time-form field and the
truncated energy order by order, with cos ks and sin ks taken afresh for
every entry and each power of x by ``**``, in the unscaled variables at a
given eps: at eps = 1 the oracle for ``dynamics._field``, and at other eps
the flow that the scaled one must reproduce.
``_field`` below is the field as it was before each row was split into
its k = 0 constant, the harmonics it reads back and those it meets first,
and ``_dormand_prince`` with ``_step_interpolant`` the stepper as it was
before its per-call wrappers went: the bit-for-bit oracles for today's
field and stepper.  ``pull_reference``, ``balance_reference``,
``symmetry_order_reference``, ``table_reference`` and the two
``collinear_*_reference`` solvers are the configuration and table layers
as numpy arrays, as they were before those layers went to lists, ``math``
and ``cmath``: the oracles the list code is pinned against.  They read a
configuration through ``mass_array`` and ``position_array``.
"""

import itertools
import math
import sys
from typing import Optional, Sequence

import numpy as np

from melsplit.asymptotics import leading_term
from melsplit.dynamics import (
    _MAX_FACTOR,
    _MIN_FACTOR,
    _SAFETY,
    SQRT2,
    ConvergenceRegionError,
    FlowParams,
    IntegrationError,
    McGeheeState,
    _convergence_guard,
    _field_harmonics,
)
from melsplit.config import (
    MIN_SEPARATION,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    SYMMETRY_TOL,
    CentralConfiguration,
    PrimaryBody,
)
from melsplit.harmonics import MAX_LEGENDRE_ORDER, HarmonicTable, HarmonicTables, _cos_basis
from melsplit.melnikov import (
    ZERO_THRESHOLD,
    TransversalityVerdict,
    Witness,
    _order_terms,
    simple_zeros,
)
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
    """epsilon^order times one unscaled splitting order at s0, each F_(j,k) its leading term.

    That is epsilon^-2 times the order at theta_tilde = theta0/epsilon: the
    column that ``asymp leading`` prints for order 4 or 6, bit for bit where
    epsilon is a power of two; the oracle for ``melnikov.leading_terms``.
    """
    terms = _order_terms(config, order, theta0 / epsilon,
                         lambda integrands: (QuadratureResult(leading_term(f), 0.0, 0)
                                             for f in integrands))
    return epsilon**-2 * terms.value(s0)


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


def mass_array(config) -> np.ndarray:
    """The masses as an array, for the oracles that work on arrays."""
    return np.array([b.mass for b in config.bodies])


def position_array(config) -> np.ndarray:
    """The positions as an array of rows (x, y), for the oracles that work on arrays."""
    return np.array([b.position for b in config.bodies])


def c_coeffs(config) -> tuple[float, float, float]:
    """Quadrupole coefficients: c1 = sum m|a|^2, c2 = 3 sum m(x^2 - y^2), c3 = -6 sum m x y."""
    m = mass_array(config)
    pos = position_array(config)
    x, y = pos[:, 0], pos[:, 1]
    c1 = float(np.dot(m, x * x + y * y))
    c2 = 3.0 * float(np.dot(m, x * x - y * y))
    c3 = -6.0 * float(np.dot(m, x * y))
    return c1, c2, c3


def d_coeffs(config) -> tuple[float, float, float, float]:
    """Octupole coefficients d1..d4 of the cos s, sin s, cos 3s, sin 3s channels."""
    m = mass_array(config)
    pos = position_array(config)
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
    m = mass_array(config)
    pos = position_array(config)
    x, y = pos[:, 0], pos[:, 1]
    r2l = (x * x + y * y) ** l
    return float(np.dot(m, x * r2l)), -float(np.dot(m, y * r2l))


def rhs_mcgehee_tau(state_vec, params: FlowParams, epsilon: float = 1.0):
    """Slow-time derivative of (x, y, s, theta), unscaled at ``epsilon``; needs x > 0.

    The reference the tests check the time-form field and the splitting
    integrands against, so it is written out term by term rather than built
    from ``dynamics._field_harmonics``; it carries the terms up to truncation
    order 9 and leaves out any higher ones.
    """
    x, y, s, theta = state_vec
    if x <= 0.0:
        raise ConvergenceRegionError("slow-time field needs x > 0")
    _convergence_guard(x, epsilon**2 * params._reach)
    c1, c2, c3 = c_coeffs(params.config)
    d1, d2, d3, d4 = d_coeffs(params.config)
    e = epsilon
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


def hamiltonian(state: McGeheeState, params: FlowParams, epsilon: float = 1.0) -> float:
    """Truncated energy at a regularized state, unscaled at ``epsilon``, order by order."""
    x, y, s, theta = state.x, state.y, state.s, state.theta
    e = epsilon
    h = e**3 * (y * y + 0.5 * theta**2 * x**4 - x * x)
    for j, harmonics in _field_harmonics(params.config, params.truncation_order):
        g, _ = harmonic_sums(harmonics, s)
        h -= e ** (2 * j + 3) * x ** (2 * j + 2) * g
    return h


# ---------------------------------------------------------------------------
# the field and the Dormand-Prince stepper as they were, verbatim


def _field(params: FlowParams, epsilon: float = 1.0):
    """The time-form field and the truncated energy, from one read of the harmonic table.

    Returns ``(field, energy)``: ``field(x, y, s, theta)`` is the tuple
    (x', y', s', theta') and ``energy(x, y, s, theta)`` the truncated
    Hamiltonian, both on Python floats, unscaled at ``epsilon``.  Each call
    computes cos ks and sin ks once for every k up to J and the powers of x
    as running products of x^2; the rows are consecutive, j = 2..J.
    """
    e = epsilon
    e3 = e**3
    rows = [(e ** (2 * j + 3), e ** (2 * j + 3) * (j + 1) / SQRT2, entries)
            for j, entries in _field_harmonics(params.config, params.truncation_order)]
    ks = range((params.truncation_order - 3) // 2 + 1)  # row j has the harmonics k <= j
    cos, sin = math.cos, math.sin

    def field(x, y, s, theta):
        cos_ks = [cos(k * s) for k in ks]
        sin_ks = [sin(k * s) for k in ks]
        x2 = x * x
        x4 = x2 * x2
        dx = e3 * (x2 * x) * y / SQRT2
        dy = e3 * (1.0 - theta * theta * x * x) * x4 / SQRT2
        ds = 1.0 - e3 * theta * x4
        dtheta = 0.0
        xp = x4  # x^(2j+2) once the row's factor x^2 is in
        for scale, dy_scale, entries in rows:
            g = gp = 0.0
            for k, a, b in entries:
                c, sn = cos_ks[k], sin_ks[k]
                g += a * c + b * sn
                gp += k * (a * sn - b * c)
            xp *= x2
            dy += dy_scale * g * (xp * x2)
            dtheta += scale * gp * xp
        return dx, dy, ds, dtheta

    def energy(x, y, s, theta):
        cos_ks = [cos(k * s) for k in ks]
        sin_ks = [sin(k * s) for k in ks]
        x2 = x * x
        xp = x2 * x2
        h = e3 * (y * y + 0.5 * theta * theta * xp - x2)
        for scale, _, entries in rows:
            xp *= x2
            h -= scale * xp * sum(a * cos_ks[k] + b * sin_ks[k] for k, a, b in entries)
        return h

    return field, energy


def _rms(v: Sequence[float]) -> float:
    return math.hypot(*v) / len(v) ** 0.5


def _step_interpolant(t_old: float, h: float, y_old, k1, k3, k4, k5, k6, k7):
    """The step's quartic y_old + h sum_i w_i(x) k_i, x = (t - t_old)/h; exact at t_old.

    The weights w_i are Shampine's quartics in x, each vanishing at x = 0
    (the second stage has none).
    """

    def y_at(t: float) -> list[float]:
        x = (t - t_old) / h
        w1 = x * (1.0 + x * (-8048581381 / 2820520608 + x * (
            8663915743 / 2820520608 + x * (-12715105075 / 11282082432))))
        w3 = x * x * (131558114200 / 32700410799 + x * (
            -68118460800 / 10900136933 + x * (87487479700 / 32700410799)))
        w4 = x * x * (-1754552775 / 470086768 + x * (
            14199869525 / 1410260304 + x * (-10690763975 / 1880347072)))
        w5 = x * x * (127303824393 / 49829197408 + x * (
            -318862633887 / 49829197408 + x * (701980252875 / 199316789632)))
        w6 = x * x * (-282668133 / 205662961 + x * (
            2019193451 / 616988883 + x * (-1453857185 / 822651844)))
        w7 = x * x * (40617522 / 29380423 + x * (
            -110615467 / 29380423 + x * (69997945 / 29380423)))
        return [yi + h * (w1 * a + w3 * c + w4 * d + w5 * e + w6 * f + w7 * g)
                for yi, a, c, d, e, f, g in zip(y_old, k1, k3, k4, k5, k6, k7)]

    return y_at


def _dormand_prince(rhs, t0: float, y0: list[float], t_bound: float, tol: float,
                    max_step: float = math.inf):
    """Yield (t, y, interpolant) for each accepted step from (t0, y0) to t_bound.

    The state and the slopes are lists of Python floats; ``rhs(t, y)`` may
    return any sequence, an ndarray included.  The error of each step is
    measured in the RMS norm against tol/10 + tol max(|y|, |y_new|), and the
    step size is scaled by 0.9 err^(-1/5), clipped to [0.2, 10] (at most 1
    right after a rejection).  The first step follows Hairer, Norsett &
    Wanner (Sec. II.4).  A step below 10 ulp of t, or a step size or error
    norm that is not finite, raises ``IntegrationError``.  A zero-length
    span yields nothing.
    """
    rtol, atol = tol, tol / 10.0

    def fun(t, y):
        f = rhs(t, y)
        return f.tolist() if isinstance(f, np.ndarray) else f

    t, y = t0, y0
    f = fun(t, y)
    if t == t_bound:
        return
    direction = 1.0 if t_bound > t0 else -1.0
    interval = abs(t_bound - t0)
    scale = [atol + abs(yi) * rtol for yi in y]
    d0 = _rms([yi / sc for yi, sc in zip(y, scale)])
    d1 = _rms([fi / sc for fi, sc in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = fun(t + h0 * direction, [yi + h0 * direction * fi for yi, fi in zip(y, f)])
    d2 = _rms([(b - a) / sc for a, b, sc in zip(f, f1, scale)]) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, interval, max_step)
    if not math.isfinite(h_abs):
        raise IntegrationError(f"first step size {h_abs!r} at t = {t!r} is not finite")

    while direction * (t - t_bound) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
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
            k1 = f
            k2 = fun(t + 1 / 5 * h, [yi + (1 / 5 * a) * h for yi, a in zip(y, k1)])
            k3 = fun(t + 3 / 10 * h, [yi + (3 / 40 * a + 9 / 40 * b) * h
                                      for yi, a, b in zip(y, k1, k2)])
            k4 = fun(t + 4 / 5 * h, [yi + (44 / 45 * a + -56 / 15 * b + 32 / 9 * c) * h
                                     for yi, a, b, c in zip(y, k1, k2, k3)])
            k5 = fun(t + 8 / 9 * h,
                     [yi + (19372 / 6561 * a + -25360 / 2187 * b + 64448 / 6561 * c
                            + -212 / 729 * d) * h
                      for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + h,
                     [yi + (9017 / 3168 * a + -355 / 33 * b + 46732 / 5247 * c + 49 / 176 * d
                            + -5103 / 18656 * e) * h
                      for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [yi + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                               + -2187 / 6784 * e + 11 / 84 * f)
                     for yi, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
            k7 = fun(t + h, y_new)
            err = _rms([(-71 / 57600 * a + 71 / 16695 * c + -71 / 1920 * d + 17253 / 339200 * e
                         + -22 / 525 * f + 1 / 40 * g) * h
                        / (atol + max(abs(yi), abs(yn)) * rtol)
                        for yi, yn, a, c, d, e, f, g in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
            if not math.isfinite(err):
                raise IntegrationError(f"error norm {err!r} of the step from t = {t!r} "
                                       "is not finite")
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**-0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
            rejected = True
        yield t_new, y_new, _step_interpolant(t, h, y, k1, k3, k4, k5, k6, k7)
        t, y, f = t_new, y_new, k7


def pull_reference(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p[..., k, j] = (a_j - a_k)/|a_j - a_k|^3 and q[k, j] = 1/|a_j - a_k|^3, 0 at j = k.

    ``pos`` holds one row (x, y) per body, or one coordinate per body on a
    line; in the plane p has a leading axis per coordinate.
    """
    x = np.asarray(pos, dtype=float).T
    d = x[..., None, :] - x[..., :, None]
    r = np.abs(d) if x.ndim == 1 else np.hypot(d[0], d[1])
    np.fill_diagonal(r, np.inf)
    r2 = r * r
    return d / r / r2, 1.0 / (r2 * r)


def _max_norm(v: np.ndarray) -> float:
    return float(np.max(np.hypot(v[:, 0], v[:, 1])))


def balance_reference(config: CentralConfiguration) -> tuple[float, float, float]:
    """max_k |a_k + g_k|, the least-squares lambda and max_k |g_k + lambda a_k| / max_k |g_k|."""
    pos = position_array(config)
    g = (pull_reference(pos)[0] @ mass_array(config)).T
    lam = -float(np.sum(g * pos)) / float(np.sum(pos * pos))
    return _max_norm(pos + g), lam, _max_norm(g + lam * pos) / _max_norm(g)


def symmetry_order_reference(config: CentralConfiguration) -> int:
    """The largest n whose turn by 2 pi/n permutes the bodies off the origin, masses kept."""
    pos = position_array(config)
    z = pos[:, 0] + 1j * pos[:, 1]
    masses = mass_array(config)
    r = np.abs(z)
    tol = SYMMETRY_TOL * float(r.max())
    off_origin = r > tol
    z, masses = z[off_origin], masses[off_origin]
    same_mass = np.abs(np.subtract.outer(masses, masses)) <= SYMMETRY_TOL * np.maximum.outer(
        masses, masses)
    for n in range(len(z), 1, -1):
        if len(z) % n:
            continue
        hits = same_mass & (np.abs(np.subtract.outer(z * np.exp(2j * np.pi / n), z)) <= tol)
        if (hits.sum(axis=0) == 1).all() and (hits.sum(axis=1) == 1).all():
            return n
    return 1


def table_reference(config: CentralConfiguration, j: int) -> HarmonicTable:
    """The order-j table from one ``np.cumprod`` of angle multiples and one matrix product."""
    pos = position_array(config)
    masses = mass_array(config)
    r = np.hypot(pos[:, 0], pos[:, 1])
    off_origin = r > 0.0
    safe = np.where(off_origin, r, 1.0)  # a body at the origin has zero weight r**j
    unit = np.ones((j + 1, len(r)), dtype=complex)
    unit.real[1:] = pos[:, 0] / safe
    unit.imag[1:] = np.where(off_origin, pos[:, 1] / safe, 0.0)
    multiples = np.cumprod(unit, axis=0)
    ms, ps = (np.array(v) for v in _cos_basis(j))
    w = masses * r**j
    sums = multiples[ms] @ w
    rounding = sys.float_info.epsilon * (j + len(r)) * float(w.sum())
    entries = tuple(zip(ms.tolist(), (ps * sums.real).tolist(), (-ps * sums.imag).tolist()))
    return HarmonicTable(j=j, entries=entries, rounding=rounding, weight=float(w.sum()))


def _collinear_equal_system_reference(a: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    p, q = pull_reference(a)
    jac = -2.0 * m * q
    np.fill_diagonal(jac, 1.0 - jac.sum(axis=1))
    return a + m * p.sum(axis=1), jac


def collinear_equal_reference(n: int) -> CentralConfiguration:
    """n equal masses on the axis: damped Newton from equal spacing, ``np.linalg.solve`` steps."""
    m = 1.0 / n
    a = np.linspace(-1.0, 1.0, n)
    f, jac = _collinear_equal_system_reference(a, m)
    norm = np.linalg.norm(f)
    for _ in range(NEWTON_MAX_ITER):
        if norm <= NEWTON_TOL:
            break
        step = np.linalg.solve(jac, -f)
        lam = 1.0
        for _ in range(60):
            trial = a + lam * step
            trial = 0.5 * (trial - trial[::-1])
            if np.any(np.diff(np.sort(trial)) <= MIN_SEPARATION):
                lam *= 0.5
                continue
            f_trial, jac_trial = _collinear_equal_system_reference(trial, m)
            norm_trial = np.linalg.norm(f_trial)
            if norm_trial < norm:
                a, f, jac, norm = trial, f_trial, jac_trial, norm_trial
                break
            lam *= 0.5
        else:
            raise AssertionError("damping failed to reduce the residual")
    else:
        raise AssertionError(f"no convergence after {NEWTON_MAX_ITER} iterations")
    return CentralConfiguration(tuple(PrimaryBody(m, (float(x), 0.0)) for x in np.sort(a)))


def collinear_equidistant_reference(n: int) -> CentralConfiguration:
    """n equally spaced bodies: the full (n + 1)-square system, minimum-norm ``np.linalg.lstsq``."""
    s = np.arange(n, dtype=float) - (n - 1) / 2.0
    mat = np.zeros((n + 1, n + 1))
    rhs = np.zeros(n + 1)
    mat[:n, :n] = pull_reference(s)[0]
    mat[:n, n] = s
    mat[n, :n] = 1.0
    rhs[n] = 1.0
    sol = np.linalg.lstsq(mat, rhs, rcond=None)[0]
    masses, rho = sol[:n], sol[n]
    masses = 0.5 * (masses + masses[::-1])
    masses /= masses.sum()
    h = rho ** (1.0 / 3.0)
    return CentralConfiguration(tuple(PrimaryBody(float(mk), (float(h * sk), 0.0))
                                      for mk, sk in zip(masses, s)))
