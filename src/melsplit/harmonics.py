"""Harmonic content of the gravitational perturbation.

Each multipole order j contributes a term proportional to
P_j(cos(alpha_k + s)) per primary, where s is the fast angle and alpha_k the
body's polar angle.  Expanding the Legendre polynomial in the cosine basis
and summing over bodies turns the order-j term into a finite trigonometric
polynomial in s whose amplitudes (A_m, B_m) drive the splitting analysis:

    A_m = p_{j,m} sum_k m_k |a_k|^j cos(m alpha_k)
    B_m = -p_{j,m} sum_k m_k |a_k|^j sin(m alpha_k)

``HarmonicTables(config, j_max)``, j_max <= 64, owns the tables of one
configuration: it builds the angle multiples e^(i m alpha_k) as one
running product, run on only as far as the highest order read, and
contracts order j the first time it is read, each entry one ``math.fsum``.
Every reader of many orders (``classify``, ``coeffs``, the flow's field,
the catalog) holds one owner, and ``harmonic_table(config, j)`` is a
one-order owner; every order gets the same entries bit for bit either way.

The paper's constants are table entries: the quadrupole triple
(c1, c2, c3) at j = 2, the octupole quadruple (d1..d4) at j = 3 and the
first-harmonic weights d_l at j = 2l + 1.  ``HarmonicTables`` holds the
one map from the paper's names to entries and factors: ``paper(name)``
reads a named constant, ``d_weight(l)`` the weight d_l, and ``unit(j, k)``
is the factor ``classify`` reports an entry in.  Legendre cosine
coefficients p_{j,m} come exactly from the closed form
P_j(cos g) = 4^-j sum_i C(2i,i) C(2j-2i,j-i) cos((j-2i) g) and only then are
rounded to floats.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import CentralConfiguration

MAX_LEGENDRE_ORDER = 64


def _cos_basis_fractions(j: int) -> tuple[tuple[int, Fraction], ...]:
    """Exact (m, p_jm), m ascending: P_j(cos g) = 4^-j sum_i C(2i,i) C(2j-2i,j-i) cos((j-2i) g)."""
    pairs = []
    for i in range(j // 2, -1, -1):
        # the terms i and j - i both give cos(m g), m = j - 2i, except at m = 0
        weight = math.comb(2 * i, i) * math.comb(2 * j - 2 * i, j - i)
        pairs.append((j - 2 * i, Fraction(weight if 2 * i == j else 2 * weight, 4**j)))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _cos_basis(j: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Harmonics m and the float p_jm of order j, checked to lie in [0, 64]."""
    if not (0 <= j <= MAX_LEGENDRE_ORDER):
        raise ValueError(f"order must lie in [0, {MAX_LEGENDRE_ORDER}], got {j}")
    pairs = _cos_basis_fractions(j)
    return tuple([m for m, _ in pairs]), tuple([float(p) for _, p in pairs])


def legendre_cos_coeffs(j: int) -> dict[int, float]:
    """Cosine-basis coefficients {m: p_jm}: P_j(cos g) = sum p_jm cos(m g), m = j mod 2."""
    return dict(zip(*_cos_basis(j)))


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


def _angle_multiples(config: CentralConfiguration):
    """Radii r_k, unit vectors e^(i alpha_k) and row m = 0 of their running product.

    ``_extend`` runs the product on to the rows e^(i m alpha_k).  The
    product does the angle-addition recurrence's arithmetic, and unlike
    atan2 it keeps axis-aligned bodies exactly on the sine-kill locus (a_k2
    = 0 gives sin(m alpha_k) = 0 identically).  A body at the origin has the
    unit vector 0, and zero weight r**j.
    """
    radii, units = [], []
    for x, y in (b.position for b in config.bodies):
        r = math.hypot(x, y)
        radii.append(r)
        units.append(complex(x / r, y / r) if r > 0.0 else 0j)
    return radii, units, [[1 + 0j] * len(units)]


def _extend(rows: list[list[complex]], units: list[complex], m_max: int) -> None:
    """Run the product on to row m_max: row m is row m - 1 times the unit vectors."""
    for _ in range(len(rows), m_max + 1):
        rows.append(list(map(operator.mul, rows[-1], units)))


def _contract(masses: list[float], r: list[float], multiples: list[list[complex]],
              j: int) -> HarmonicTable:
    """The order-j table from radii and angle multiples e^(i m alpha_k) for m = 0..m_max >= j.

    Each entry is the correctly rounded sum (``math.fsum``) of its terms
    w_k cos(m alpha_k) or w_k sin(m alpha_k), w_k = m_k r_k^j, times p_jm.
    """
    ms, ps = _cos_basis(j)
    try:
        w = [mk * rk**j for mk, rk in zip(masses, r)]
        weight = math.fsum(w)  # masses are positive
    except OverflowError:
        weight = math.inf
    if not math.isfinite(weight):
        raise OverflowError(f"the order-{j} weight sum_i m_i r_i^{j} overflows")
    fsum = math.fsum
    entries = []
    for m, p in zip(ms, ps):
        row = multiples[m]
        entries.append((m, p * fsum([wk * e.real for wk, e in zip(w, row)]),
                        -p * fsum([wk * e.imag for wk, e in zip(w, row)])))
    rounding = sys.float_info.epsilon * (j + len(r)) * weight
    return HarmonicTable(j=j, entries=tuple(entries), rounding=rounding, weight=weight)


class HarmonicTables:
    """The order-j tables of one configuration for 2 <= j <= j_max <= 64.

    A j_max beyond 64 is refused up front, and one below 2 gives an owner
    with no orders.  The angle multiples are one running product, run on
    only as far as the highest order read; order j is contracted from its
    first j + 1 rows the first time ``tables[j]`` reads it, and one whose
    weight sum_i m_i r_i^j overflows raises OverflowError.  The product's
    first j + 1 rows do not depend on how far it runs, so every order gets
    the same table whatever j_max is.
    """

    def __init__(self, config: CentralConfiguration, j_max: int):
        if j_max > MAX_LEGENDRE_ORDER:
            raise ValueError(f"harmonic tables stop at order {MAX_LEGENDRE_ORDER}, "
                             f"got j_max = {j_max}")
        self.j_max = j_max
        self._masses = [b.mass for b in config.bodies]
        self._radii, self._units, self._multiples = _angle_multiples(config)
        self._tables: dict[int, HarmonicTable] = {}

    def __getitem__(self, j: int) -> HarmonicTable:
        if j not in self._tables:
            if j < 2:
                raise ValueError(f"harmonic tables start at order 2, got {j}")
            if j > self.j_max:
                raise ValueError(f"these tables stop at order {self.j_max}, got {j}")
            _extend(self._multiples, self._units, j)
            self._tables[j] = _contract(self._masses, self._radii, self._multiples, j)
        return self._tables[j]

    # The paper's constants by name: each is the factor times (a, b), the
    # entry of harmonic k at order j.  Beyond them, the first-harmonic weight
    # d_l is (a, b) / p_(2l+1,1) at (2l + 1, 1), so d_1 = (d1, d2) / 3.
    _PAPER = {"c1": (2, 0, 4.0), "c2, c3": (2, 2, 4.0),
              "d1, d2": (3, 1, 8.0), "d3, d4": (3, 3, 8.0)}

    @staticmethod
    def _d_unit(j: int) -> float:
        return 1.0 / legendre_cos_coeffs(j)[1]

    @classmethod
    def unit(cls, j: int, k: int) -> float:
        """The factor from the entry of harmonic k at order j to the paper's units.

        The named constant's factor where ``_PAPER`` places one there, d_l's
        at any other k = 1, and 1 elsewhere; (3, 1) is thus (d1, d2), not d_1.
        """
        for jn, kn, factor in cls._PAPER.values():
            if (jn, kn) == (j, k):
                return factor
        return cls._d_unit(j) if k == 1 else 1.0

    def paper(self, name: str) -> tuple[float, float]:
        """The named constant: "c1" (with b = 0), "c2, c3", "d1, d2" or "d3, d4"."""
        j, k, factor = self._PAPER[name]
        a, b = self[j].pair(k)
        return factor * a, factor * b

    def d_weight(self, l: int) -> tuple[float, float]:
        """The first-harmonic weight d_l, read at order 2l + 1."""
        a, b = self[2 * l + 1].pair(1)
        unit = self._d_unit(2 * l + 1)
        return unit * a, unit * b


def harmonic_table(config: CentralConfiguration, j: int) -> HarmonicTable:
    """Per-harmonic amplitudes (A_m, B_m) of the order-j perturbation term."""
    return HarmonicTables(config, j)[j]
