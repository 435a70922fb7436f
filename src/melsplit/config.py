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

import cmath
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

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

    def masses(self) -> np.ndarray:
        return np.array([b.mass for b in self.bodies])

    def positions(self) -> np.ndarray:
        return np.array([b.position for b in self.bodies])


def _pull(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairwise pull per unit mass, and the inverse cubes it is made of.

    ``pos`` holds one row (x, y) per body, or one coordinate per body on a
    line.  Returns p with p[..., k, j] = (a_j - a_k)/|a_j - a_k|^3 (a leading
    axis per coordinate in the plane) and q[k, j] = 1/|a_j - a_k|^3, both 0 at
    j = k, so the pull on body k is (p @ masses)[..., k].  The bodies must be
    distinct, as :class:`CentralConfiguration` makes them.
    """
    x = pos.T
    d = x[..., None, :] - x[..., :, None]
    r = np.abs(d) if x.ndim == 1 else np.hypot(d[0], d[1])
    np.fill_diagonal(r, np.inf)
    r2 = r * r
    # d/r is the unit vector; on a line it is sgn(d) exactly, so p rounds as sgn(d)/d^2
    return d / r / r2, 1.0 / (r2 * r)


def _gravity(masses: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sum over j != k of m_j (a_j - a_k)/|a_j - a_k|^3, one row per body."""
    return (_pull(pos)[0] @ masses).T


def _max_norm(v: np.ndarray) -> float:
    return float(np.max(np.hypot(v[:, 0], v[:, 1])))


def balance(config: CentralConfiguration) -> tuple[float, float, float]:
    """The balance a_k + g_k and its fit g_k + lambda a_k, from one pull g.

    Returns max_k |a_k + g_k|, the least-squares multiplier lambda of
    :func:`lambda_of`, and the fit's relative residual max_k |g_k + lambda a_k|
    / max_k |g_k|; the relative residual does not depend on the scale, since
    the pull scales like c^-2 with the positions.
    """
    # a body at the origin is fine: it contributes nothing to the normal
    # equations and its own balance residual is position-free
    pos = config.positions()
    g = _gravity(config.masses(), pos)
    lam = -float(np.sum(g * pos)) / float(np.sum(pos * pos))
    return _max_norm(pos + g), lam, _max_norm(g + lam * pos) / _max_norm(g)


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
    pos = config.positions()
    z = pos[:, 0] + 1j * pos[:, 1]
    masses = config.masses()
    r = np.abs(z)
    tol = SYMMETRY_TOL * float(r.max())
    off_origin = r > tol
    z, masses = z[off_origin], masses[off_origin]
    same_mass = np.abs(np.subtract.outer(masses, masses)) <= SYMMETRY_TOL * np.maximum.outer(
        masses, masses)
    for n in range(len(z), 1, -1):
        if len(z) % n:
            continue
        hits = same_mass & (np.abs(np.subtract.outer(z * cmath.exp(2j * math.pi / n), z)) <= tol)
        # a permutation: each turned body lands on exactly one body, and each body is hit once
        if (hits.sum(axis=0) == 1).all() and (hits.sum(axis=1) == 1).all():
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


def _collinear_equal_system(a: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Balance a_k + m sum_j sgn(a_j - a_k)/(a_j - a_k)^2 of equal masses m on a line, and its Jacobian."""
    p, q = _pull(a)
    jac = -2.0 * m * q
    np.fill_diagonal(jac, 1.0 - jac.sum(axis=1))
    return a + m * p.sum(axis=1), jac


def solve_collinear_equal(n: int) -> CentralConfiguration:
    """n equal masses on the axis, positions solved by damped Newton.

    Starts from equally spaced points on [-1, 1]; each step is halved until
    the residual norm decreases.
    """
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    m = 1.0 / n
    a = np.linspace(-1.0, 1.0, n)
    f, jac = _collinear_equal_system(a, m)
    norm = np.linalg.norm(f)
    for _ in range(NEWTON_MAX_ITER):
        if norm <= NEWTON_TOL:
            break
        step = np.linalg.solve(jac, -f)
        lam = 1.0
        for _ in range(60):
            trial = a + lam * step
            trial = 0.5 * (trial - trial[::-1])  # keep the antisymmetric shape
            if np.any(np.diff(np.sort(trial)) <= MIN_SEPARATION):
                lam *= 0.5
                continue
            f_trial, jac_trial = _collinear_equal_system(trial, m)
            norm_trial = np.linalg.norm(f_trial)
            if norm_trial < norm:
                a, f, jac, norm = trial, f_trial, jac_trial, norm_trial
                break
            lam *= 0.5
        else:
            raise NewtonConvergenceError("damping failed to reduce the residual")
    else:
        raise NewtonConvergenceError(f"no convergence after {NEWTON_MAX_ITER} iterations")
    a = np.sort(a)
    bodies = tuple(PrimaryBody(m, (float(x), 0.0)) for x in a)
    return CentralConfiguration(bodies, label=f"collinear-equal-{n}")


def solve_collinear_equidistant(n: int) -> CentralConfiguration:
    """n equally spaced collinear bodies; masses and spacing from a linear solve.

    With shape s_k = k - (n+1)/2 at spacing h, the balance equations are
    linear in the masses and in rho = h**3 jointly; the mass normalization
    closes the square system and rho fixes the scale so the multiplier is 1.
    """
    if n < 3:
        raise ConfigError(f"need n >= 3, got {n}")
    s = np.arange(n, dtype=float) - (n - 1) / 2.0
    mat = np.zeros((n + 1, n + 1))
    rhs = np.zeros(n + 1)
    mat[:n, :n] = _pull(s)[0]
    mat[:n, n] = s
    mat[n, :n] = 1.0
    rhs[n] = 1.0
    # n = 3 is rank-deficient (any symmetric mass split balances the middle
    # body), so take the minimum-norm consistent solution
    sol, _, _, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    if np.max(np.abs(mat @ sol - rhs)) > 1e-10:
        raise ConfigError(f"equidistant system is inconsistent for n={n}")
    masses, rho = sol[:n], sol[n]
    masses = 0.5 * (masses + masses[::-1])
    masses /= masses.sum()
    if np.any(masses <= 0.0):
        raise ConfigError(f"equidistant solve produced a non-positive mass for n={n}")
    if rho <= 0.0:
        raise ConfigError(f"equidistant solve produced a non-positive scale for n={n}")
    h = rho ** (1.0 / 3.0)
    bodies = tuple(
        PrimaryBody(float(mk), (float(h * sk), 0.0)) for mk, sk in zip(masses, s)
    )
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
