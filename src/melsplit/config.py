"""Planar central configurations of the primary bodies.

A configuration holds the masses and rotating-frame positions of the
primaries, normalized so the total mass is 1 and the center of mass is at
the origin.  A configuration is *central* when the gravitational pull
g_k = sum_{j!=k} m_j (a_j - a_k)/|a_j - a_k|^3 on each body balances a
common multiple of its position, g_k + lambda a_k = 0; with unit angular
velocity lambda is 1 and the residual a_k + g_k vanishes.  The barycenter
and the separations are checked relative to the largest body radius, so
whether a configuration is valid does not depend on its size.

``_pull`` forms the pairwise pull once, in the plane or on a line, and
everything else reads it: the balance (``balance``, ``cc_residual`` and
``lambda_of``, whose one pull also serves ``config validate``), the
equal-mass Newton's residual and Jacobian, and the equidistant system.

Builders cover the classical families: the two-primary problem, the
equilateral triangle, the rhombus (its shape depends on the leg ratio
alone), collinear chains (equal masses solved by damped Newton, equidistant
spacing solved by a linear system), and regular polygons on the unit circle.
"""
from __future__ import annotations

import bisect
import cmath
import json
import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

from .errors import NumericalFailure

MASS_SUM_TOL = 1e-12
CENTER_OF_MASS_TOL = 1e-10
MIN_SEPARATION = 1e-9
LAMBDA_FIT_TOL = 1e-7
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200
#: bodies match under a rotation within this fraction of the largest radius, and masses
#: within this fraction of the larger one
SYMMETRY_TOL = 1e-13


class ConfigError(ValueError):
    """Invalid configuration input or builder parameters."""


class DegenerateConfigurationError(ConfigError):
    """Two bodies closer than the minimum allowed separation."""


class NotCentralError(ConfigError):
    """Configuration is not central at any scale multiplier."""


class NewtonConvergenceError(NumericalFailure):
    """Damped Newton iteration did not reach the residual tolerance."""


@dataclass(frozen=True)
class PrimaryBody:
    """One primary: positive mass and finite planar position."""

    mass: float
    position: tuple[float, float]

    def __post_init__(self):
        if not (self.mass > 0.0) or not math.isfinite(self.mass):
            raise ConfigError(f"mass must be positive and finite, got {self.mass}")
        if len(self.position) != 2 or not all(math.isfinite(c) for c in self.position):
            raise ConfigError(f"position must be a finite 2-vector, got {self.position}")
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))
        object.__setattr__(self, "mass", float(self.mass))


@dataclass(frozen=True)
class CentralConfiguration:
    """Ordered primaries with unit total mass and barycenter at the origin."""

    bodies: tuple[PrimaryBody, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "bodies", tuple(self.bodies))
        n = len(self.bodies)
        if n < 2:
            raise ConfigError("need at least two primaries")
        total = math.fsum(b.mass for b in self.bodies)
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise ConfigError(f"masses must sum to 1, got {total!r}")
        size = max(math.hypot(*b.position) for b in self.bodies)
        cx = math.fsum(b.mass * b.position[0] for b in self.bodies)
        cy = math.fsum(b.mass * b.position[1] for b in self.bodies)
        if math.hypot(cx, cy) > CENTER_OF_MASS_TOL * size:
            raise ConfigError(f"center of mass must be at the origin, got ({cx!r}, {cy!r})")
        for i in range(n):
            for j in range(i + 1, n):
                d = math.dist(self.bodies[i].position, self.bodies[j].position)
                if d <= MIN_SEPARATION * size:
                    raise DegenerateConfigurationError(
                        f"bodies {i} and {j} are separated by {d!r}"
                    )

    @property
    def n_bodies(self) -> int:
        return len(self.bodies)


def _pull(pos) -> tuple[list, list[list[float]]]:
    """The pairwise pull per unit mass, and the inverse cubes it is made of.

    ``pos`` holds a pair (x, y) per body, or one coordinate per body on a
    line.  Returns p and q as lists of rows with p[k][j] = (a_j - a_k)/|a_j -
    a_k|^3 and q[k][j] = 1/|a_j - a_k|^3, both 0 at j = k; in the plane p is
    the pair (p_x, p_y) of such row lists, one per coordinate.  The pull on
    body k is sum_j m_j p[k][j].  Each pair of bodies is formed once, since
    p[j][k] = -p[k][j] exactly.  The bodies must be distinct, as
    :class:`CentralConfiguration` makes them.
    """
    n = len(pos)
    line = isinstance(pos[0], float)
    px, q = ([[0.0] * n for _ in range(n)] for _ in range(2))
    py = None if line else [[0.0] * n for _ in range(n)]
    for k, ak in enumerate(pos):
        pxk, qk = px[k], q[k]
        for j in range(k + 1, n):
            if line:
                dx = pos[j] - ak
                r = abs(dx)
            else:
                dx, dy = pos[j][0] - ak[0], pos[j][1] - ak[1]
                r = math.hypot(dx, dy)
            r2 = r * r
            qk[j] = q[j][k] = 1.0 / (r2 * r)
            # d/r is the unit vector; on a line it is sgn(d) exactly, so p rounds as sgn(d)/d^2
            pxk[j] = v = dx / r / r2
            px[j][k] = -v
            if not line:
                py[k][j] = v = dy / r / r2
                py[j][k] = -v
    return (px if line else (px, py)), q


def _gravity(masses, pos: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sum over j != k of m_j (a_j - a_k)/|a_j - a_k|^3, one pair (x, y) per body."""
    px, py = _pull(pos)[0]
    return [(math.fsum(map(operator.mul, masses, rx)), math.fsum(map(operator.mul, masses, ry)))
            for rx, ry in zip(px, py)]


def balance(config: CentralConfiguration) -> tuple[float, float, float]:
    """The balance a_k + g_k and its fit g_k + lambda a_k, from one pull g.

    Returns max_k |a_k + g_k|, the least-squares multiplier lambda of
    :func:`lambda_of`, and the fit's relative residual max_k |g_k + lambda a_k|
    / max_k |g_k|; the relative residual does not depend on the scale, since
    the pull scales like c^-2 with the positions.
    """
    # a body at the origin is fine: it contributes nothing to the normal
    # equations and its own balance residual is position-free
    pos = [b.position for b in config.bodies]
    g = _gravity([b.mass for b in config.bodies], pos)
    lam = (-math.fsum([v for (x, y), (gx, gy) in zip(pos, g) for v in (gx * x, gy * y)])
           / math.fsum([v for x, y in pos for v in (x * x, y * y)]))
    return (max([math.hypot(x + gx, y + gy) for (x, y), (gx, gy) in zip(pos, g)]), lam,
            max([math.hypot(gx + lam * x, gy + lam * y) for (x, y), (gx, gy) in zip(pos, g)])
            / max([math.hypot(gx, gy) for gx, gy in g]))


def cc_residual(config: CentralConfiguration) -> float:
    """max_k |a_k + sum_{j!=k} m_j (a_j - a_k)/|a_j - a_k|^3|, 0 when central at unit rotation."""
    return balance(config)[0]


def lambda_of(config: CentralConfiguration) -> float:
    """Least-squares multiplier lambda with g_k + lambda a_k = 0 for all k.

    lambda equals 1 exactly when the configuration rotates with unit angular
    velocity.  Scaling all positions by c scales lambda by c**-3.  Raises
    :class:`NotCentralError` when no single multiplier fits the shape: when
    max_k |g_k + lambda a_k| exceeds ``LAMBDA_FIT_TOL`` times max_k |g_k|, a
    test that does not depend on the scale.
    """
    _, lam, fit_residual = balance(config)
    if fit_residual > LAMBDA_FIT_TOL:
        raise NotCentralError(
            f"no common multiplier fits: relative residual {fit_residual:.3e} > {LAMBDA_FIT_TOL:.3e}"
        )
    return lam


def symmetry_order(config: CentralConfiguration) -> int:
    """The largest n such that turning by 2 pi/n maps each body onto a body of equal mass.

    The turn is about the origin, and bodies at the origin are fixed.  Every
    other orbit of the turn has n bodies, so n divides their number.
    Positions match within ``SYMMETRY_TOL`` times the largest radius, so the
    order does not depend on the size of the configuration.  The tolerance
    is strict: about a hundred times the rounding that the builders,
    rotations and scalings leave (1.6e-15 at most on the polygons, chains,
    rhombi and triangles), so a rhombus with legs 1 + 1e-6 and 1 has order
    2, not 4.  An asymmetry it lets through moves an entry of the order-j
    harmonic table by at most about (j + 1) SYMMETRY_TOL r_max^j, that is
    6.5e-12 r_max^j at j = 64.
    """
    zs = [complex(*b.position) for b in config.bodies]
    tol = SYMMETRY_TOL * max(map(abs, zs))
    # the bodies off the origin, sorted by abscissa: a turned body can only
    # land on those in a window of its own abscissa
    moving = sorted([(z.real, z, b.mass) for z, b in zip(zs, config.bodies) if abs(z) > tol],
                    key=lambda e: e[0])
    xs = [x for x, _, _ in moving]
    count = len(moving)
    for n in range(count, 1, -1):
        if count % n:
            continue
        turn = cmath.exp(2j * math.pi / n)
        hit = set()
        for _, z, mass in moving:
            w = z * turn
            lands = [i for i in range(bisect.bisect_left(xs, w.real - 2.0 * tol),
                                      bisect.bisect_right(xs, w.real + 2.0 * tol))
                     if abs(w - moving[i][1]) <= tol
                     and abs(mass - moving[i][2]) <= SYMMETRY_TOL * max(mass, moving[i][2])]
            # a permutation: each turned body lands on exactly one body, and each body is hit once
            if len(lands) != 1 or lands[0] in hit:
                break
            hit.add(lands[0])
        else:
            return n
    return 1


def scale(config: CentralConfiguration, c: float) -> CentralConfiguration:
    """Scale all positions by c (masses unchanged)."""
    if not (c > 0.0):
        raise ConfigError("scale factor must be positive")
    bodies = tuple(
        PrimaryBody(b.mass, (c * b.position[0], c * b.position[1])) for b in config.bodies
    )
    return CentralConfiguration(bodies, label=config.label)


def rotate(config: CentralConfiguration, phi: float) -> CentralConfiguration:
    """Rotate all positions by angle phi about the origin."""
    c, s = math.cos(phi), math.sin(phi)
    bodies = tuple(
        PrimaryBody(
            b.mass,
            (c * b.position[0] - s * b.position[1], s * b.position[0] + c * b.position[1]),
        )
        for b in config.bodies
    )
    return CentralConfiguration(bodies, label=config.label)


def normalize_omega(config: CentralConfiguration) -> CentralConfiguration:
    """Rescale positions by lambda**(1/3) so the multiplier becomes 1."""
    lam = lambda_of(config)
    if not lam > 0.0:
        raise NotCentralError(f"multiplier must be positive to normalize, got {lam!r}")
    return scale(config, lam ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# builders


def build_rp3bp(mu: float) -> CentralConfiguration:
    """Two primaries with masses (mu, 1 - mu) at ((1 - mu, 0), (-mu, 0))."""
    if not (0.0 < mu <= 0.5):
        raise ConfigError(f"mu must lie in (0, 1/2], got {mu!r}")
    bodies = (
        PrimaryBody(mu, (1.0 - mu, 0.0)),
        PrimaryBody(1.0 - mu, (-mu, 0.0)),
    )
    return CentralConfiguration(bodies, label=f"rp3bp(mu={mu:g})")


def build_equilateral(m1: float, m2: float) -> CentralConfiguration:
    """Three primaries on an equilateral triangle of side 1, m3 = 1 - m1 - m2."""
    if not (m1 > 0.0 and m2 > 0.0 and m1 + m2 < 1.0):
        raise ConfigError("need m1, m2 > 0 and m1 + m2 < 1")
    s3 = math.sqrt(3.0) / 2.0
    bodies = (
        PrimaryBody(m1, (0.5 * (1.0 - m1 - 2.0 * m2), s3 * (1.0 - m1))),
        PrimaryBody(m2, (0.5 * (2.0 - m1 - 2.0 * m2), -s3 * m1)),
        PrimaryBody(1.0 - m1 - m2, (-0.5 * (m1 + 2.0 * m2), -s3 * m1)),
    )
    return CentralConfiguration(bodies, label=f"equilateral(m1={m1:g}, m2={m2:g})")


def rhomboid_parameters(a: float, b: float) -> tuple[float, float, float]:
    """Half-diagonals (x, y) and mass mu of the central rhombus for legs a, b.

    The shape depends only on t = a/b, so the legs may have any size.
    """
    if not (b > 0.0 and 1.0 < math.sqrt(3.0) * (a / b) < 3.0):
        raise ConfigError(f"need 0 < b < sqrt(3) a < 3 b, got a={a!r}, b={b!r}")
    t = a / b
    s = t * t + 1.0
    s32 = s**1.5
    num = 64.0 * t**3 - s**3
    den = 16.0 * t**3 - (t**3 + 1.0) * s32
    if den == 0.0 or num / den < 0.0:
        raise ConfigError("rhombus shape equations have a negative radicand")
    cbrt = (num / den) ** (1.0 / 3.0)
    x = t / (2.0 * math.sqrt(s)) * cbrt
    y = 1.0 / (2.0 * math.sqrt(s)) * cbrt
    mu = t**3 * (8.0 - s32) / (2.0 * den)
    if not (0.0 < mu < 0.5):
        raise ConfigError(f"mass parameter {mu!r} falls outside (0, 1/2)")
    return x, y, mu


def build_rhomboid(a: float, b: float) -> CentralConfiguration:
    """Four primaries on a rhombus: (+-x, 0) with mass mu, (0, +-y) with 1/2 - mu."""
    x, y, mu = rhomboid_parameters(a, b)
    bodies = (
        PrimaryBody(mu, (-x, 0.0)),
        PrimaryBody(0.5 - mu, (0.0, y)),
        PrimaryBody(mu, (x, 0.0)),
        PrimaryBody(0.5 - mu, (0.0, -y)),
    )
    return CentralConfiguration(bodies, label=f"rhomboid(a={a:g}, b={b:g})")


def _solve(mat: list[list[float]], rhs: list[float]) -> list[float]:
    """x with mat x = rhs, by Gaussian elimination with partial pivoting on a small square system.

    ``mat`` and ``rhs`` are left as they are; a zero pivot, a singular
    system, raises ``ZeroDivisionError``.
    """
    n = len(rhs)
    rows = [[*row, b] for row, b in zip(mat, rhs)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(rows[i][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for row in rows[col + 1:]:
            f = row[col] / top[col]
            if f:
                for i in range(col, n + 1):
                    row[i] -= f * top[i]
    x = [0.0] * n
    for col in range(n - 1, -1, -1):
        row = rows[col]
        x[col] = (row[n] - math.fsum([row[i] * x[i] for i in range(col + 1, n)])) / row[col]
    return x


def _collinear_equal_system(a: list[float], m: float) -> tuple[list[float], list[list[float]]]:
    """Balance a_k + m sum_j sgn(a_j - a_k)/(a_j - a_k)^2 of equal masses m on a line, and its Jacobian."""
    p, q = _pull(a)
    jac = [[-2.0 * m * v for v in row] for row in q]
    for k, row in enumerate(jac):
        row[k] = 1.0 - math.fsum(row)
    return [ak + m * math.fsum(row) for ak, row in zip(a, p)], jac


def solve_collinear_equal(n: int) -> CentralConfiguration:
    """n equal masses on the axis, positions solved by damped Newton.

    Starts from equally spaced points on [-1, 1]; each step is halved until
    the residual norm decreases.  The chain keeps its mirror shape, a_k =
    -a_(n-1-k), so each step solves for the outer half alone: the Jacobian
    columns of a body and its mirror image combine, with opposite signs.
    """
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    m = 1.0 / n
    half = n // 2
    a = [k * (2.0 / (n - 1)) - 1.0 for k in range(n - 1)] + [1.0]
    f, jac = _collinear_equal_system(a, m)
    norm = math.hypot(*f)
    for _ in range(NEWTON_MAX_ITER):
        if norm <= NEWTON_TOL:
            break
        outer = _solve([[row[i] - row[n - 1 - i] for i in range(half)] for row in jac[:half]],
                       [-v for v in f[:half]])
        step = outer + [0.0] * (n % 2) + [-v for v in reversed(outer)]
        lam = 1.0
        for _ in range(60):
            trial = [x + lam * dx for x, dx in zip(a, step)]
            # keep the antisymmetric shape
            trial = [0.5 * (x - y) for x, y in zip(trial, reversed(trial))]
            ordered = sorted(trial)
            if any(y - x <= MIN_SEPARATION for x, y in zip(ordered, ordered[1:])):
                lam *= 0.5
                continue
            f_trial, jac_trial = _collinear_equal_system(trial, m)
            norm_trial = math.hypot(*f_trial)
            if norm_trial < norm:
                a, f, jac, norm = trial, f_trial, jac_trial, norm_trial
                break
            lam *= 0.5
        else:
            raise NewtonConvergenceError("damping failed to reduce the residual")
    else:
        raise NewtonConvergenceError(f"no convergence after {NEWTON_MAX_ITER} iterations")
    bodies = tuple(PrimaryBody(m, (x, 0.0)) for x in sorted(a))
    return CentralConfiguration(bodies, label=f"collinear-equal-{n}")


def solve_collinear_equidistant(n: int) -> CentralConfiguration:
    """n equally spaced collinear bodies; masses and spacing from a linear solve.

    With shape s_k = k - (n - 1)/2 at spacing h, the balance equations are
    linear in the masses and in rho = h**3 jointly; the mass normalization
    closes the system and rho fixes the scale so the multiplier is 1.  Of
    the solutions, the one of least norm |(m, rho)| is taken.  It is
    mirror-symmetric, m_k = m_(n-1-k), since the mirror image of a solution
    is one of the same norm, so the solve runs on the outer half of the
    masses, the middle mass when n is odd, and rho, with the balance of the
    outer half and the normalization.  For even n that system is square.
    For odd n any middle mass balances the middle body, so the solutions
    form a line, and the point of least norm on it is taken: at n = 3 the
    masses (12/29, 5/29, 12/29).
    """
    if n < 3:
        raise ConfigError(f"need n >= 3, got {n}")
    s = [k - (n - 1) / 2.0 for k in range(n)]
    p = _pull(s)[0]
    half = n // 2
    # unknowns: the outer masses m_0..m_(half-1), then rho, at middle mass 0
    mat = [[p[k][i] + p[k][n - 1 - i] for i in range(half)] + [s[k]] for k in range(half)]
    mat.append([2.0] * half + [0.0])
    rhs = [0.0] * half + [1.0]
    x = _solve(mat, rhs)
    if n % 2:
        middle = [-p[k][half] for k in range(half)] + [-1.0]
        v = [*_solve(mat, middle), 1.0]  # the line x + t v, with the middle mass t
        x.append(0.0)
        weights = [2.0] * half + [1.0, 1.0]  # each outer mass counts twice in |m|
        t = (-math.fsum([w * a * b for w, a, b in zip(weights, x, v)])
             / math.fsum([w * b * b for w, b in zip(weights, v)]))
        x = [a + t * b for a, b in zip(x, v)]
    masses = x[:half] + x[half + 1:] + x[half - 1::-1]  # the middle mass, when n is odd
    rho = x[half]
    residual = [math.fsum([*map(operator.mul, row, masses), sk * rho]) for row, sk in zip(p, s)]
    if max(map(abs, [*residual, math.fsum(masses) - 1.0])) > 1e-10:
        raise ConfigError(f"equidistant system is inconsistent for n={n}")
    total = math.fsum(masses)
    masses = [mk / total for mk in masses]
    if min(masses) <= 0.0:
        raise ConfigError(f"equidistant solve produced a non-positive mass for n={n}")
    if rho <= 0.0:
        raise ConfigError(f"equidistant solve produced a non-positive scale for n={n}")
    h = rho ** (1.0 / 3.0)
    bodies = tuple(PrimaryBody(mk, (h * sk, 0.0)) for mk, sk in zip(masses, s))
    return CentralConfiguration(bodies, label=f"collinear-equidistant-{n}")


def build_polygon(n_total: int, normalize: bool = False) -> CentralConfiguration:
    """N - 1 equal masses at the (N - 1)-th roots of unity.

    By default the vertices sit exactly on the unit circle, which is central
    only up to a scale multiplier; ``normalize`` rescales so the multiplier
    becomes 1.
    """
    if n_total < 4:
        raise ConfigError(f"need N >= 4, got {n_total}")
    n = n_total - 1
    m = 1.0 / n
    bodies = []
    for k in range(n):
        ang = 2.0 * math.pi * k / n
        bodies.append(PrimaryBody(m, (math.cos(ang), math.sin(ang))))
    config = CentralConfiguration(tuple(bodies), label=f"polygon-{n_total}")
    if normalize:
        config = replace(normalize_omega(config), label=config.label + "-normalized")
    return config


# ---------------------------------------------------------------------------
# JSON ingestion


def configuration_to_dict(config: CentralConfiguration) -> dict:
    return {
        "label": config.label,
        "bodies": [
            {"mass": b.mass, "position": [b.position[0], b.position[1]]}
            for b in config.bodies
        ],
    }


def _json_number(value, what: str) -> float:
    """A JSON number as a float; a string, a bool or anything else is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest double
        raise ConfigError(f"{what} is an integer beyond the range of a double") from None


def _json_position(value) -> tuple[float, ...]:
    """A JSON array of numbers; a string such as "12" is not iterated as coordinates."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"position must be a JSON array, got {value!r}")
    return tuple([_json_number(c, "a coordinate") for c in value])


def configuration_from_dict(data: dict) -> CentralConfiguration:
    try:
        bodies = tuple([
            PrimaryBody(_json_number(b["mass"], "mass"), _json_position(b["position"]))
            for b in data["bodies"]
        ])
        label = str(data.get("label", ""))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed configuration object: {exc}") from exc
    return CentralConfiguration(bodies, label=label)


def load_configuration(source: Union[str, Path, dict]) -> CentralConfiguration:
    """Read a configuration from a JSON file path or an already parsed dict."""
    if isinstance(source, dict):
        return configuration_from_dict(source)
    path = Path(source)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return configuration_from_dict(data)
