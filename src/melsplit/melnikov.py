"""Splitting functions and the transversality decision tree.

The first-order splitting of the parabolic manifolds is a trigonometric
polynomial in the section angle s0.  The strength eps of the perturbation
is a gauge: in the scaled variables of ``dynamics`` no order carries it,
and the one parameter is theta = Theta0/eps.  Order 2j, eps^(2j+2) times
the unscaled order at (Theta0, eps), has one term per harmonic k >= 1 of
the order-j harmonic table, with entry (a_k, b_k):

    +-(2^(j+1)/theta^(2j+2)) sum_k F_(j,k) (a_k sin k s0 - b_k cos k s0),

where F_(j,k) integrates ``quadrature.harmonic_integrand(j, k, theta)``
and the upper sign goes with theta > 0.  The paper's rows are special
cases: order 4 is F4 = F_(2,2) with the entry (c2, c3), order 6 is
F61 = -F_(3,1) and F62 = -F_(3,3) with the entries (d1, d2) and (d3, d4)
(``HarmonicTables`` names the entries and holds the factors), and poly:N
is the (N-1, N-1) term with the entry (p_(N-1,N-1), 0) of
``build_polygon(N)``, whose 2^N p_(N-1,N-1) is the published constant K
(``quadrature.f_name`` maps each name to its signed (j, k)).
``_order_terms`` builds one order from either source of F_(j,k): the
quadrature (``splitting_terms``, all of the order's F in one pass) or the
leading asymptotic term (``leading_terms``).  ``melnikov_sum`` merges
orders by harmonic k into sum_j M_2j, eps^2 times the unscaled sum_j
eps^(2j) M_2j.

A simple zero of the s0-factor forces a transversal intersection, so
``classify`` reads the harmonic table entries in dominance order (harmonic
index k first, then Legendre order j) until one does not vanish, and reports
it with its zero set as the witness, in the paper's units where the entry
has a name there: (c2, c3) at (j, k) = (2, 2), (d1, d2) at (3, 1), (d3, d4)
at (3, 3) and the higher first-harmonic weights d_l at (2l + 1, 1).  A
configuration that turning by 2 pi/n maps onto itself (``symmetry_order``)
has every entry with n not dividing k exactly 0, so the scan reads only
k = n, 2n, ....  An entry it reads counts as zero relative to the weight
sum_i m_i r_i^j it scales with, so scaling the configuration does not
change the verdict.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .config import CentralConfiguration, symmetry_order
from .errors import NumericalFailure
from .harmonics import MAX_LEGENDRE_ORDER, HarmonicTables, harmonic_table, legendre_cos_coeffs

if TYPE_CHECKING:
    from .quadrature import CubicPhaseIntegrand, QuadratureResult

# ``quadrature`` and ``asymptotics`` load inside the functions that evaluate
# F_(j,k): ``classify`` reads the harmonic tables alone and needs neither.

#: a table entry at most this fraction of its weight sum_i m_i r_i^j is an exact symmetry zero
ZERO_THRESHOLD = 1e-11


@dataclass(frozen=True)
class SplittingTerms:
    """One order of the splitting function as a trigonometric polynomial.

    ``terms`` lists (harmonic k, cos amplitude A, sin amplitude B, error);
    the splitting function is sum_k [A cos(k s0) + B sin(k s0)], and a
    term's ``error`` bounds the quadrature error of its contribution at
    every s0.
    """

    terms: tuple[tuple[int, float, float, float], ...]

    def value(self, s0: float) -> float:
        return math.fsum(a * math.cos(k * s0) + b * math.sin(k * s0) for k, a, b, _ in self.terms)


def legendre_order(order: int | str) -> int:
    """The Legendre order j of a splitting order: 2j, or poly:N, whose j is N - 1."""
    key = str(order)
    if key.startswith("poly:"):
        from .quadrature import f_name

        try:
            return f_name(key)[0]
        except ValueError:
            pass
    elif key.isdigit() and not int(key) % 2 and 2 <= int(key) // 2 <= MAX_LEGENDRE_ORDER:
        return int(key) // 2
    raise ValueError(f"order must be 2j with 2 <= j <= {MAX_LEGENDRE_ORDER} or poly:N with "
                     f"4 <= N <= {MAX_LEGENDRE_ORDER + 1}, got {order!r}")


def _order_terms(
    config: Optional[CentralConfiguration],
    order: int | str,
    theta_tilde: float,
    integrals: Callable[[Iterable[CubicPhaseIntegrand]], Iterable[QuadratureResult]],
) -> SplittingTerms:
    """``splitting_terms`` with the F_(j,k)(theta) of all its harmonics from one ``integrals`` call.

    ``integrals`` takes a generator of the ``harmonic_integrand(j, k, theta)``
    and yields each one's value and error in turn, raising where one fails.
    Each term is formed as its F arrives, so what fails raises as it would
    with the harmonics taken one at a time, each F before its term.
    """
    if theta_tilde == 0.0 or not math.isfinite(theta_tilde):
        raise ValueError(f"need finite nonzero angular momentum, got {theta_tilde!r}")
    from .quadrature import harmonic_integrand

    j = legendre_order(order)
    if str(order).startswith("poly:"):  # harmonics (k, a, b) with k >= 1, their rounding bound
        harmonics, rounding = ((j, legendre_cos_coeffs(j)[j], 0.0),), 0.0
    elif config is None:
        raise ValueError(f"order {order} needs a configuration")
    else:
        table = harmonic_table(config, j)
        harmonics, rounding = tuple([e for e in table.entries if e[0] >= 1]), table.rounding
    try:  # theta_tilde^(2j+2) overflows, or underflows to 0
        pref = 2.0 ** (j + 1) / theta_tilde ** (2 * j + 2)
    except (OverflowError, ZeroDivisionError):
        raise OverflowError(f"order {2 * j}: 2^(j+1)/theta_tilde^(2j+2) leaves the double range "
                            f"at theta_tilde = {theta_tilde!r}") from None
    sign = 1.0 if theta_tilde > 0.0 else -1.0
    fs = integrals(harmonic_integrand(j, k, theta_tilde) for k, _, _ in harmonics)
    terms = []
    for (k, a, b), f in zip(harmonics, fs):
        amp = sign * pref * f.value
        err = abs(pref) * (f.error_estimate * (abs(a) + abs(b)) + 2.0 * abs(f.value) * rounding)
        term = (k, -amp * b, amp * a, err)
        if not all(map(math.isfinite, term[1:])):  # an overflowing prefactor times 0 is NaN
            raise OverflowError(f"order {2 * j}, harmonic {k}: not finite at theta_tilde = "
                                f"{theta_tilde!r}, where 2^(j+1)/theta_tilde^(2j+2) = {pref!r}")
        if f.value and abs(amp) < 2.0**-1022:  # its digits would be rounding noise
            raise NumericalFailure(f"order {2 * j}, harmonic {k}: 2^(j+1)/theta_tilde^(2j+2) F = "
                                   f"{amp!r} lies below the normal double range at "
                                   f"theta_tilde = {theta_tilde!r}")
        terms.append(term)
    return SplittingTerms(tuple(terms))


def splitting_terms(
    config: Optional[CentralConfiguration],
    order: int | str,
    theta_tilde: float,
    tol: float = 1e-10,
) -> SplittingTerms:
    """Harmonic amplitudes of one splitting order, each F evaluated once.

    ``order`` is 2j for 2 <= j <= 64, which needs ``config``, or the
    configuration-free ``"poly:N"``.  ``theta_tilde`` must be finite and
    nonzero, and its sign selects the branch.  A term's error is
    |prefactor| (F-error (|a| + |b|) + 2 |F| rounding) for its table entry
    (a, b) and the table's rounding bound.
    """
    from .quadrature import _each

    return _order_terms(config, order, theta_tilde, lambda fs: _each(fs, tol))


def leading_terms(
    config: Optional[CentralConfiguration],
    order: int | str,
    theta_tilde: float,
) -> SplittingTerms:
    """``splitting_terms`` with each F_(j,k) replaced by its leading asymptotic term.

    The leading term has no quadrature error, so a term's error is the
    table's rounding bound alone.  It leads only where the phase scale
    k |theta_tilde|^3 / 2 is well above (j + k + 2)^2, roughly.
    """
    from .asymptotics import leading_term
    from .quadrature import QuadratureResult

    return _order_terms(config, order, theta_tilde,
                        lambda fs: (QuadratureResult(leading_term(f), 0.0, 0) for f in fs))


def melnikov_sum(parts: Iterable[SplittingTerms]) -> SplittingTerms:
    """sum_j M_2j over ``parts`` as one trigonometric polynomial.

    The amplitudes and errors of one harmonic k are summed, k ascending.
    """
    columns: dict[int, list[list[float]]] = {}
    for part in parts:
        for k, *amplitudes in part.terms:
            columns.setdefault(k, []).append(amplitudes)
    return SplittingTerms(tuple([(k, *map(math.fsum, zip(*rows)))
                                 for k, rows in sorted(columns.items())]))


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
    """Classifier outcome with one (stage, pair, decision, margin) entry per table entry read.

    ``symmetry_order`` is the n of ``symmetry_order(config)``: every entry of
    a harmonic k that n does not divide is 0 and left out of the trace.
    """

    status: str  # "transversal" | "inconclusive"
    witness: Optional[Witness]
    search_trace: tuple[tuple[str, tuple[float, float], str, float], ...]
    symmetry_order: int = 1

    def __post_init__(self):
        if self.symmetry_order < 1:
            raise ValueError(f"symmetry order must be at least 1, got {self.symmetry_order}")
        if self.status == "transversal":
            if self.witness is None or self.witness.coefficient_pair == (0.0, 0.0):
                raise ValueError("transversal verdict needs a nonzero witness pair")


def classify(
    config: CentralConfiguration,
    l_max: int = 8,
    j_max: Optional[int] = None,
) -> TransversalityVerdict:
    """Scan the harmonic tables in dominance order and report the first nonzero pair.

    Turning the configuration by 2 pi/n, n = ``symmetry_order(config)``,
    multiplies the entry of harmonic k by e^(2 pi i k/n) and leaves it
    unchanged, so every entry with n not dividing k is exactly 0 and the
    scan skips it.  The scan reads the entry (a, b) of harmonic k in the
    order-j table, k ascending and, within a harmonic, j = k mod 2
    ascending: k = 1 over j = 3, 5, ..., 2 l_max + 1 when n = 1, and every
    multiple k >= 2 of n over j = k, k + 2, ..., j_max (default
    min(2N + 4, 64) for N bodies).  An entry read is zero when
    max(|a|, |b|) <= ZERO_THRESHOLD sum_i m_i r_i^j, the weight the entries
    scale with, so the verdict does not depend on the size of the
    configuration; each trace entry records max(|a|, |b|) over that bound as
    its margin.  The first entry with margin > 1 is the witness.  Every pair
    is reported in the paper's units, ``HarmonicTables.unit(j, k)`` times
    the table entry (a, b), which is the entry itself where it has no name.
    The trace lists only the entries read, and the verdict carries n in
    their place.  The scan reads one ``HarmonicTables`` up to order j_max,
    or max(j_max, 2 l_max + 1) when n = 1, which contracts an order's table
    when the scan first reads it.
    """
    if not (2 <= l_max <= 16):
        raise ValueError(f"l_max must lie in [2, 16], got {l_max}")
    if j_max is None:
        j_max = min(2 * config.n_bodies + 4, MAX_LEGENDRE_ORDER)
    if not (4 <= j_max <= MAX_LEGENDRE_ORDER):
        raise ValueError(f"j_max must lie in [4, {MAX_LEGENDRE_ORDER}], got {j_max}")

    n = symmetry_order(config)
    first_harmonic = range(3, 2 * l_max + 2, 2) if n == 1 else range(0)
    tables = HarmonicTables(config, max([j_max, *first_harmonic]))
    scan = itertools.chain(
        ((j, 1) for j in first_harmonic),
        ((j, k) for k in range(max(n, 2), j_max + 1, n) for j in range(k, j_max + 1, 2)),
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
            return TransversalityVerdict("transversal", witness, tuple(trace), n)

    return TransversalityVerdict("inconclusive", None, tuple(trace), n)


def verdict_to_dict(verdict: TransversalityVerdict) -> dict:
    out: dict = {"status": verdict.status, "symmetry_order": verdict.symmetry_order}
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
        {"stage": stage, "coefficients": list(coeffs), "decision": decision, "margin": margin}
        for stage, coeffs, decision, margin in verdict.search_trace
    ]
    return out
