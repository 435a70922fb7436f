"""Golden fixtures for the application families.

A configuration case is a configuration builder, the published or
closed-form values it must reproduce and, where the paper tabulates more
than ``_measure`` reads off every configuration (centrality residual, c and
d coefficients, abscissas, masses and the ``classify`` witness), a few extra
keys.  Each golden value carries a tolerance and a provenance tag:
``tabulated`` for published 8-digit decimals, ``closed-form`` for exact
expressions, ``derived`` for values fixed by an independent computation in
this package's test suite.  ``rhomboid-roots`` measures a family of rhombi
rather than one configuration and computes its own keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import config as cfg
from .harmonics import MAX_LEGENDRE_ORDER, HarmonicTables, legendre_cos_coeffs
from .melnikov import classify

# ``quadrature`` loads only in the cases that run it: ``rhomboid-roots`` and
# the polygon keys of N = 7, 8.

P1_COEFFS = (6, 0, -480, 0, 4510, 0, -11088, 0, 8514, 0, -1936, 0, 90)
P2_COEFFS = (0, 79, 0, -1782, 0, 8217, 0, -11220, 0, 4785, 0, -534, 0, 7)
P3_COEFFS = (-7, 0, 749, 0, -9919, 0, 37037, 0, -48477, 0, 23023, 0, -3549, 0, 119)
P4_COEFFS = (0, -106, 0, 3276, 0, -22022, 0, 48048, 0, -38038, 0, 10556, 0, -826, 0, 8)


@dataclass(frozen=True)
class GoldenValue:
    key: str
    expected: float
    tolerance: float
    provenance: str


@dataclass(frozen=True)
class CatalogCase:
    name: str
    expected: tuple[GoldenValue, ...]
    compute: Callable[[], dict[str, float]]


@dataclass(frozen=True)
class CatalogReport:
    name: str
    rows: tuple[tuple[str, float, float, float, bool], ...]  # key, got, want, tol, ok
    passed: bool


def _measure(config: cfg.CentralConfiguration) -> tuple[dict[str, float], HarmonicTables]:
    """Every key a configuration case can expect of ``config``, and the tables it read.

    The centrality residual, c2, c3, d1..d4 and d_abs_sum, each body's
    abscissa a{k}1 and mass m{k}, the symmetry order, and witness_k and
    witness_order of one ``classify`` verdict.  An inconclusive verdict
    leaves the witness keys out; a missing key reads as NaN in ``run_case``,
    so it shows as a MISS instead of an exception.  The constants come from one table owner,
    which a case's extra keys read too.
    """
    tables = HarmonicTables(config, MAX_LEGENDRE_ORDER)
    c2, c3 = tables.paper("c2, c3")
    d = (*tables.paper("d1, d2"), *tables.paper("d3, d4"))
    verdict = classify(config)
    out = {
        "residual": cfg.cc_residual(config),
        "c2": c2,
        "c3": c3,
        **{f"d{i}": v for i, v in enumerate(d, 1)},
        "d_abs_sum": sum(abs(v) for v in d),
        "symmetry_order": float(verdict.symmetry_order),
    }
    for k, body in enumerate(config.bodies, 1):
        out[f"a{k}1"] = body.position[0]
        out[f"m{k}"] = body.mass
    if verdict.witness is not None:
        out["witness_k"] = float(verdict.witness.harmonic)
        out["witness_order"] = float(verdict.witness.epsilon_order)
    return out, tables


def _case(
    name: str,
    build: Callable[[], cfg.CentralConfiguration],
    expected: Sequence[GoldenValue],
    extra: Callable[[HarmonicTables], dict[str, float]] = lambda tables: {},
) -> CatalogCase:
    """A configuration case: ``_measure`` of the built configuration and its ``extra`` keys."""

    def compute() -> dict[str, float]:
        out, tables = _measure(build())
        return {**out, **extra(tables)}

    return CatalogCase(name, tuple(expected), compute)


def _case_rp3bp(mu: float) -> CatalogCase:
    if mu == 0.5:
        expected = (
            GoldenValue("residual", 0.0, 1e-12, "closed-form"),
            GoldenValue("c2", 0.75, 1e-12, "tabulated"),
            GoldenValue("c3", 0.0, 1e-12, "tabulated"),
            GoldenValue("d1", 0.0, 1e-12, "closed-form"),
            GoldenValue("d2", 0.0, 1e-12, "closed-form"),
            GoldenValue("witness_k", 2.0, 0.0, "tabulated"),
            GoldenValue("witness_order", 4.0, 0.0, "tabulated"),
        )
    else:
        expected = (
            GoldenValue("residual", 0.0, 1e-12, "closed-form"),
            GoldenValue("d1", 3.0 * mu * (1 - mu) * (1 - 2 * mu), 1e-12, "closed-form"),
            GoldenValue("d2", 0.0, 1e-12, "closed-form"),
            GoldenValue("witness_k", 1.0, 0.0, "tabulated"),
            GoldenValue("witness_order", 6.0, 0.0, "tabulated"),
        )
    return _case(f"rp3bp(mu={mu:g})", lambda: cfg.build_rp3bp(mu), expected)


def _case_equilateral(m1: float, m2: float) -> CatalogCase:
    if abs(m1 - 1.0 / 3.0) < 1e-15 and abs(m2 - 1.0 / 3.0) < 1e-15:
        expected = (
            GoldenValue("residual", 0.0, 1e-12, "closed-form"),
            GoldenValue("d1", 0.0, 1e-12, "tabulated"),
            GoldenValue("d2", 0.0, 1e-12, "tabulated"),
            GoldenValue("d3", 0.0, 1e-12, "tabulated"),
            GoldenValue("d4", 5.0 / (3.0 * math.sqrt(3.0)), 1e-12, "tabulated"),
            GoldenValue("witness_k", 3.0, 0.0, "tabulated"),
        )
    else:
        e1 = 1.5 * (m1 + 2 * m2 - 1) * (2 * m1**2 + 2 * m2**2 + 2 * m1 * m2 - m1 - 2 * m2)
        e2 = -1.5 * math.sqrt(3.0) * m1 * (
            2 * m1**2 + 2 * m2**2 + 2 * m1 * m2 - 3 * m1 - 2 * m2 + 1
        )
        expected = (
            GoldenValue("residual", 0.0, 1e-12, "closed-form"),
            GoldenValue("d1", e1, 1e-12, "tabulated"),
            GoldenValue("d2", e2, 1e-12, "tabulated"),
            GoldenValue("witness_k", 1.0, 0.0, "tabulated"),
        )
    return _case(f"equilateral(m1={m1:g}, m2={m2:g})", lambda: cfg.build_equilateral(m1, m2),
                 expected)


def _case_rhomboid(a: float, b: float) -> CatalogCase:
    x, y, mu = cfg.rhomboid_parameters(a, b)
    expected = [
        GoldenValue("residual", 0.0, 1e-9, "closed-form"),
        GoldenValue("c2", -3.0 * y * y + 6.0 * mu * (x * x + y * y), 1e-12, "closed-form"),
        GoldenValue("c3", 0.0, 1e-12, "tabulated"),
        GoldenValue("d_abs_sum", 0.0, 1e-12, "tabulated"),
    ]
    if a == b:
        expected.append(GoldenValue("mu", 0.25, 1e-12, "tabulated"))
        expected.append(GoldenValue("c2", 0.0, 1e-12, "tabulated"))
    return _case(f"rhomboid(a={a:g}, b={b:g})", lambda: cfg.build_rhomboid(a, b), expected,
                 lambda tables: {"mu": mu})


def _case_rhomboid_roots() -> CatalogCase:
    def compute() -> dict[str, float]:
        from .quadrature import find_zeros

        roots = find_zeros(
            lambda t: HarmonicTables(cfg.build_rhomboid(t, 1.0), 2).paper("c2, c3")[0],
            0.6, 1.7, grid=256, xtol=1e-13,
        )
        out = {"n_roots": float(len(roots))}
        if len(roots) == 3:
            out["root_low"] = roots[0]
            out["root_mid"] = roots[1]
            out["root_high"] = roots[2]
            high = classify(cfg.build_rhomboid(roots[2], 1.0)).witness
            low = classify(cfg.build_rhomboid(roots[0], 1.0)).witness
            if high is not None:
                out["sign_high"] = math.copysign(1.0, high.coefficient_pair[0])
                out["scaled_pair_high"] = 16.0 * high.coefficient_pair[0]
            if low is not None:
                out["sign_low"] = math.copysign(1.0, low.coefficient_pair[0])
        return out

    expected = (
        GoldenValue("n_roots", 3.0, 0.0, "tabulated"),
        GoldenValue("root_low", 0.75746994, 1e-6, "tabulated"),
        GoldenValue("root_mid", 1.0, 1e-10, "tabulated"),
        GoldenValue("root_high", 1.32018439, 1e-6, "tabulated"),
        GoldenValue("sign_high", 1.0, 0.0, "tabulated"),
        GoldenValue("sign_low", -1.0, 0.0, "tabulated"),
        GoldenValue("scaled_pair_high", 0.20447308, 1e-6, "derived"),
    )
    return CatalogCase("rhomboid-degenerate-ratios", expected, compute)


def _case_collinear8() -> CatalogCase:
    expected = (
        GoldenValue("residual", 0.0, 1e-10, "closed-form"),
        GoldenValue("a11", -1.17858061, 1e-6, "tabulated"),
        GoldenValue("a21", -0.73861375, 1e-6, "tabulated"),
        GoldenValue("a31", -0.35910513, 1e-6, "tabulated"),
        GoldenValue("a41", 0.0, 1e-12, "tabulated"),
        GoldenValue("c2", 1.76876487, 1e-6, "tabulated"),
        GoldenValue("c3", 0.0, 1e-12, "tabulated"),
        GoldenValue("witness_k", 2.0, 0.0, "tabulated"),
        GoldenValue("witness_order", 4.0, 0.0, "tabulated"),
    )
    return _case("collinear8", lambda: cfg.solve_collinear_equal(7), expected)


def _case_collinear11() -> CatalogCase:
    expected = (
        GoldenValue("residual", 0.0, 1e-9, "closed-form"),
        GoldenValue("a11", -1.44194062, 1e-6, "tabulated"),
        GoldenValue("m1", 0.05585772, 1e-6, "tabulated"),
        GoldenValue("m2", 0.08684056, 1e-6, "tabulated"),
        GoldenValue("m3", 0.10794726, 1e-6, "tabulated"),
        GoldenValue("m4", 0.12139042, 1e-6, "tabulated"),
        GoldenValue("m5", 0.12796403, 1e-6, "tabulated"),
        GoldenValue("c2", 1.95579995, 1e-6, "tabulated"),
        GoldenValue("witness_k", 2.0, 0.0, "tabulated"),
    )
    return _case("collinear11", lambda: cfg.solve_collinear_equidistant(10), expected)


def _trimmed(coeffs: list[float]) -> list[float]:
    """``coeffs`` without its trailing zeros."""
    while coeffs and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    return coeffs


#: the largest N whose polygon case fits the tables: its selection rule reads orders up to 2N - 3
MAX_POLYGON = (MAX_LEGENDRE_ORDER + 3) // 2


def _case_polygon(n_total: int) -> CatalogCase:
    if not (4 <= n_total <= MAX_POLYGON):
        raise ValueError(f"the polygon case reads orders up to 2N - 3 <= {MAX_LEGENDRE_ORDER}, "
                         f"so it needs 4 <= N <= {MAX_POLYGON}, got N = {n_total}")

    def extra(tables: HarmonicTables) -> dict[str, float]:
        out = {
            "selection_rule": max(
                abs(v)
                for j in range(2, 2 * n_total - 2)
                for m, av, bv in tables[j].entries
                if 1 <= m < n_total - 1
                for v in (av, bv)
            ),
            "leading_pair_b": tables[n_total - 1].pair(n_total - 1)[1],
        }
        if n_total in (7, 8):
            from .quadrature import harmonic_integrand

            j = n_total - 1  # poly:N is the (j, j) term, with constant 2^(j+1) p_jj
            out["prefactor"] = 2.0 ** (j + 1) * legendre_cos_coeffs(j)[j]
            # over (1 + z^2)^b the numerator is (alpha z + beta)(z + i)^(b-a): its
            # Re is the printed cos numerator and -Im the sin one, all small
            # integers, so the float products are exact
            gen = harmonic_integrand(j, j, 1.0)
            num = [complex(gen.beta), complex(gen.alpha)]  # ascending powers of z
            for _ in range(gen.b - gen.a):  # times (z + i)
                num = [a + 1j * b for a, b in zip([0j, *num], [*num, 0j])]
            ref_cos = P1_COEFFS if n_total == 7 else tuple(-c_ for c_ in P3_COEFFS)
            ref_sin = P2_COEFFS if n_total == 7 else tuple(-c_ for c_ in P4_COEFFS)
            out["numerators_match"] = float(_trimmed([c.real for c in num]) == list(ref_cos)
                                            and _trimmed([-c.imag for c in num]) == list(ref_sin))
        return out

    expected = [
        GoldenValue("witness_k", float(n_total - 1), 0.0, "tabulated"),
        GoldenValue("witness_order", float(2 * n_total - 2), 0.0, "tabulated"),
        GoldenValue("symmetry_order", float(n_total - 1), 0.0, "closed-form"),
        GoldenValue("selection_rule", 0.0, 1e-12, "closed-form"),
        GoldenValue("leading_pair_b", 0.0, 1e-12, "closed-form"),
    ]
    if n_total == 7:
        # 231/4 as published; the eight-body display drops the same factor 4
        # that the seven-body one keeps, so 429/4 carries a derived tag
        expected.append(GoldenValue("prefactor", 57.75, 0.0, "tabulated"))
        expected.append(GoldenValue("numerators_match", 1.0, 0.0, "tabulated"))
    elif n_total == 8:
        expected.append(GoldenValue("prefactor", 107.25, 0.0, "derived"))
        expected.append(GoldenValue("numerators_match", 1.0, 0.0, "tabulated"))
    return _case(f"polygon({n_total})", lambda: cfg.build_polygon(n_total), expected, extra)


#: each case's builder by name, from the command line's keyword parameters
CASES: dict[str, Callable[..., CatalogCase]] = {
    "rp3bp": lambda mu=0.5, **_: _case_rp3bp(float(mu)),
    "equilateral": lambda m1=1.0 / 3.0, m2=1.0 / 3.0, **_: _case_equilateral(float(m1), float(m2)),
    "rhomboid": lambda a=1.0, b=1.0, **_: _case_rhomboid(float(a), float(b)),
    "rhomboid-roots": lambda **_: _case_rhomboid_roots(),
    "collinear8": lambda **_: _case_collinear8(),
    "collinear11": lambda **_: _case_collinear11(),
    "polygon": lambda n=7, **_: _case_polygon(int(n)),
}

#: the (name, parameters) of every case ``catalog all`` runs, in order
ALL_CASES = (
    ("rp3bp", {"mu": 0.3}),
    ("rp3bp", {"mu": 0.5}),
    ("equilateral", {}),
    ("rhomboid", {}),
    ("rhomboid-roots", {}),
    ("collinear8", {}),
    ("collinear11", {}),
    ("polygon", {"n": 7}),
    ("polygon", {"n": 8}),
)


def build_case(name: str, **params) -> CatalogCase:
    """Construct a catalog case by name; numeric parameters where applicable."""
    if name not in CASES:
        raise ValueError(f"unknown catalog case {name!r}")
    return CASES[name](**params)


def run_case(case: CatalogCase) -> CatalogReport:
    got = case.compute()
    rows = []
    for gv in case.expected:
        value = got.get(gv.key, math.nan)
        ok = math.isfinite(value) and abs(value - gv.expected) <= gv.tolerance
        rows.append((gv.key, value, gv.expected, gv.tolerance, ok))
    passed = all(r[4] for r in rows)
    return CatalogReport(name=case.name, rows=tuple(rows), passed=passed)
