"""Harmonic content of the gravitational perturbation.

Each multipole order j contributes a term proportional to
P_j(cos(alpha_k + s)) per primary, where s is the fast angle and alpha_k the
body's polar angle.  Expanding the Legendre polynomial in the cosine basis
and summing over bodies turns the order-j term into a finite trigonometric
polynomial in s whose amplitudes (A_m, B_m) drive the splitting analysis:

    A_m = p_{j,m} sum_k m_k |a_k|^j cos(m alpha_k)
    B_m = -p_{j,m} sum_k m_k |a_k|^j sin(m alpha_k)

``HarmonicTables(config, j_max)`` owns the tables of one configuration:
it builds the angle multiples e^(i m alpha_k) once, as one running product
up to m = min(j_max, 64), and contracts order j the first time it is read.
Every reader of many orders (``classify``, ``coeffs``, the flow's field,
the catalog's polygon cases) holds one owner, and ``harmonic_table(config,
j)`` is a one-order owner; every order gets the same entries bit for bit
either way.

The named low-order families are exposed directly: the quadrupole triple
(c1, c2, c3), the octupole quadruple (d1..d4), and the (d1, d2) analogues at
arbitrary odd order.  Legendre cosine coefficients p_{j,m} come exactly from
the closed form P_j(cos g) = 4^-j sum_i C(2i,i) C(2j-2i,j-i) cos((j-2i) g)
and only then are rounded to floats.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .config import CentralConfiguration

MAX_LEGENDRE_ORDER = 64


def _cos_basis_fractions(j: int) -> tuple[tuple[int, Fraction], ...]:
    """Exact (m, p_jm), m ascending: P_j(cos g) = 4^-j sum_i C(2i,i) C(2j-2i,j-i) cos((j-2i) g)."""
    pairs = []
    for i in range(j // 2, -1, -1):
        # the terms i and j - i both give cos(m g), m = j - 2i, except at m = 0
        weight = comb(2 * i, i) * comb(2 * j - 2 * i, j - i)
        pairs.append((j - 2 * i, Fraction(weight if 2 * i == j else 2 * weight, 4**j)))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _cos_basis(j: int) -> tuple[np.ndarray, np.ndarray]:
    """Harmonics m and the float p_jm of order j, checked to lie in [0, 64]."""
    if not (0 <= j <= MAX_LEGENDRE_ORDER):
        raise ValueError(f"order must lie in [0, {MAX_LEGENDRE_ORDER}], got {j}")
    pairs = _cos_basis_fractions(j)
    ms, ps = np.array([m for m, _ in pairs]), np.array([float(p) for _, p in pairs])
    ms.flags.writeable = ps.flags.writeable = False  # the cache hands them to every caller
    return ms, ps


def legendre_cos_coeffs(j: int) -> dict[int, float]:
    """Cosine-basis coefficients {m: p_jm}: P_j(cos g) = sum p_jm cos(m g), m = j mod 2."""
    ms, ps = _cos_basis(j)
    return dict(zip(ms.tolist(), ps.tolist()))


@dataclass(frozen=True)
class HarmonicTable:
    """Amplitudes of cos(m s), sin(m s) in the order-j perturbation term.

    ``weight`` is sum_i m_i r_i^j, the size the entries scale with, and
    ``rounding`` bounds the floating-point error of every entry:
    eps (j + N) sum_i m_i r_i^j for N bodies.
    """

    j: int
    entries: tuple[tuple[int, float, float], ...]
    rounding: float
    weight: float

    def pair(self, m: int) -> tuple[float, float]:
        # entries run over m = j mod 2, j mod 2 + 2, ..., j
        i, odd = divmod(m - self.j % 2, 2)
        if not odd and 0 <= i < len(self.entries) and self.entries[i][0] == m:
            _, a, b = self.entries[i]
            return a, b
        raise KeyError(f"no harmonic m={m} at order j={self.j}")


def _angle_multiples(config: CentralConfiguration, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii r_k and e^(i m alpha_k) for m = 0..m_max as one running product of unit vectors.

    The product does the angle-addition recurrence's arithmetic, and unlike
    atan2 it keeps axis-aligned bodies exactly on the sine-kill locus
    (a_k2 = 0 gives sin(m alpha_k) = 0 identically).
    """
    pos = config.positions()
    r = np.hypot(pos[:, 0], pos[:, 1])
    safe = np.where(r > 0.0, r, 1.0)  # a body at the origin has zero weight r**j
    unit = np.ones((m_max + 1, len(r)), dtype=complex)
    unit.real[1:] = pos[:, 0] / safe
    unit.imag[1:] = np.where(r > 0.0, pos[:, 1] / safe, 0.0)
    return r, np.cumprod(unit, axis=0)


def _contract(masses: np.ndarray, r: np.ndarray, multiples: np.ndarray, j: int) -> HarmonicTable:
    """The order-j table from radii and angle multiples e^(i m alpha_k) for m = 0..m_max >= j."""
    ms, ps = _cos_basis(j)
    w = masses * r**j
    sums = multiples[ms] @ w.astype(complex)  # sum_k w_k e^(i m alpha_k) for every m at once
    rounding = sys.float_info.epsilon * (j + len(r)) * float(np.abs(w).sum())
    entries = tuple(zip(ms.tolist(), (ps * sums.real).tolist(), (-ps * sums.imag).tolist()))
    return HarmonicTable(j=j, entries=entries, rounding=rounding, weight=float(masses @ r**j))


class HarmonicTables:
    """The order-j tables of one configuration for 2 <= j <= j_max.

    The angle multiples are built once, up to m = min(j_max, 64); order j
    is contracted from them the first time ``tables[j]`` reads it.  The
    running product's first j + 1 rows do not depend on how far it runs,
    so every order gets the same table whatever j_max is.
    """

    def __init__(self, config: CentralConfiguration, j_max: int):
        self.j_max = j_max
        self._masses = config.masses()
        self._radii, self._multiples = _angle_multiples(
            config, min(max(j_max, 2), MAX_LEGENDRE_ORDER))
        self._tables: dict[int, HarmonicTable] = {}

    def __getitem__(self, j: int) -> HarmonicTable:
        if j not in self._tables:
            if j < 2:
                raise ValueError(f"harmonic tables start at order 2, got {j}")
            if j > self.j_max:
                raise ValueError(f"these tables stop at order {self.j_max}, got {j}")
            self._tables[j] = _contract(self._masses, self._radii, self._multiples, j)
        return self._tables[j]


def harmonic_table(config: CentralConfiguration, j: int) -> HarmonicTable:
    """Per-harmonic amplitudes (A_m, B_m) of the order-j perturbation term."""
    return HarmonicTables(config, j)[j]


def c_coeffs(config: CentralConfiguration) -> tuple[float, float, float]:
    """Quadrupole coefficients: c1 = sum m|a|^2, c2 = 3 sum m(x^2 - y^2), c3 = -6 sum m x y."""
    m = config.masses()
    pos = config.positions()
    x, y = pos[:, 0], pos[:, 1]
    c1 = float(np.dot(m, x * x + y * y))
    c2 = 3.0 * float(np.dot(m, x * x - y * y))
    c3 = -6.0 * float(np.dot(m, x * y))
    return c1, c2, c3


def d_coeffs(config: CentralConfiguration) -> tuple[float, float, float, float]:
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


def d_l(config: CentralConfiguration, l: int) -> tuple[float, float]:
    """First-harmonic pair at radial weight |a|^(2l): (sum m x r^2l, -sum m y r^2l)."""
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    m = config.masses()
    pos = config.positions()
    x, y = pos[:, 0], pos[:, 1]
    r2l = (x * x + y * y) ** l
    return float(np.dot(m, x * r2l)), -float(np.dot(m, y * r2l))
