"""Output checks for the benchmark ops, against references independent of melsplit.

Each checker takes the op, the exit code, the captured stdout and the run's
``Context`` and returns None when the output is correct, or a one-line reason.
The references are the mpmath values in ``oracle.json`` (see make_oracle.py)
and closed forms re-derived here from their definitions: the low-order
configuration coefficients, the first integral of the truncated flow, the
leading large-delta term of I_k and the polygonal prefactor.  Nothing here
imports melsplit.
"""
from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Callable, Optional

ORACLE_PATH = Path(__file__).with_name("oracle.json")
#: theta-tilde lattice and I_k/J_k phase scales of the oracle (make_oracle.py)
LATTICE = tuple(-2.5 + 0.25 * i for i in range(31))
DELTAS = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0)

#: paper criterion 7 is checked at these (k, delta): |I_k/asym - 1| <= 3/sqrt(delta)
CRITERION7_K = (2, 3, 4)
CRITERION7_DELTAS = (30.0, 100.0, 300.0)
#: splitting --compare: relative agreement, with the requested tolerance as floor
SPLITTING_RTOL = 1e-6
JACOBI_DRIFT = 1e-8


class Oracle:
    """Reference values of F on the theta-tilde lattice and of I_k, J_k."""

    def __init__(self, path: Path = ORACLE_PATH):
        data = json.loads(path.read_text())
        if tuple(data["lattice"]) != LATTICE or tuple(data["deltas"]) != DELTAS:
            raise ValueError(f"{path} was made for another lattice; rerun make_oracle.py")
        self.lattice, self.deltas = LATTICE, DELTAS
        self.F = {name: [Decimal(v) for v in row] for name, row in data["F"].items()}
        self.I = {int(k): [Decimal(v) for v in row] for k, row in data["I"].items()}
        self.J = {int(k): [Decimal(v) for v in row] for k, row in data["J"].items()}
        self._step = self.lattice[1] - self.lattice[0]

    def lattice_index(self, theta_tilde: float) -> int:
        i = round((theta_tilde - self.lattice[0]) / self._step)
        if not (0 <= i < len(self.lattice)) or abs(self.lattice[i] - theta_tilde) > 1e-12:
            raise KeyError(f"theta_tilde {theta_tilde!r} is not on the oracle lattice")
        return i

    def f(self, name: str, theta_tilde: float) -> Decimal:
        return self.F[name][self.lattice_index(theta_tilde)]

    def i(self, k: int, delta: float) -> Decimal:
        return self.I[k][self.deltas.index(delta)]

    def j(self, k: int, delta: float) -> Decimal:
        return self.J[k][self.deltas.index(delta)]


class Context:
    """State the checks share within one run: oracle, parsed configs, witnesses."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.configs: dict[str, list[tuple[float, float, float]]] = {}
        self.witness: dict[tuple[str, str], tuple[int, int]] = {}

    def bodies(self, path: str) -> list[tuple[float, float, float]]:
        """(mass, x, y) per body, read once per run from the benchmark's own file."""
        if path not in self.configs:
            self.configs[path] = read_bodies(path)
        return self.configs[path]


def read_bodies(path) -> list[tuple[float, float, float]]:
    data = json.loads(Path(path).read_text())
    return [(float(b["mass"]), float(b["position"][0]), float(b["position"][1]))
            for b in data["bodies"]]


# ---------------------------------------------------------------------------
# closed forms


def c_coeffs(bodies):
    c1 = math.fsum(m * (x * x + y * y) for m, x, y in bodies)
    c2 = 3.0 * math.fsum(m * (x * x - y * y) for m, x, y in bodies)
    c3 = -6.0 * math.fsum(m * x * y for m, x, y in bodies)
    return c1, c2, c3


def coeff_roundoff(bodies, power: int) -> float:
    """Allowance for rounding in the package's c (power 2) or d (power 3) sums.

    Coefficients that vanish by symmetry come out of a floating-point sum as
    roundoff of the size of its terms.
    """
    return 1e-13 * math.fsum(m * math.hypot(x, y) ** power for m, x, y in bodies)


def d_coeffs(bodies):
    d1 = 3.0 * math.fsum(m * x * (x * x + y * y) for m, x, y in bodies)
    d2 = -3.0 * math.fsum(m * y * (x * x + y * y) for m, x, y in bodies)
    d3 = 5.0 * math.fsum(m * x * (x * x - 3.0 * y * y) for m, x, y in bodies)
    d4 = -5.0 * math.fsum(m * y * (3.0 * x * x - y * y) for m, x, y in bodies)
    return d1, d2, d3, d4


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def ik_leading(k: int, delta: float) -> float:
    """Leading term of I_k(delta) for large delta (odd and even k differ)."""
    if k % 2:
        n = (k + 1) // 2
        lead = math.pi * delta ** (n - 1) / (2 ** (n + 1) * _double_factorial(2 * n - 2))
    else:
        n = k // 2
        lead = math.sqrt(math.pi) * delta ** (n - 0.5) / (2 ** (n + 1) * _double_factorial(2 * n - 1))
    return math.exp(-2.0 * delta / 3.0) * lead


def polygon_prefactor(n_total: int) -> float:
    return 4.0 * _double_factorial(2 * n_total - 3) / math.factorial(n_total - 1)


def jacobi_constant(x, y, s, theta, eps, c, d) -> float:
    """First integral H_truncated - Theta of the order-9 truncated flow."""
    c1, c2, c3 = c
    d1, d2, d3, d4 = d
    h = eps**3 * (y * y + 0.5 * theta**2 * x**4 - x * x)
    h -= 0.25 * eps**7 * x**6 * (c1 + c2 * math.cos(2 * s) + c3 * math.sin(2 * s))
    h -= 0.125 * eps**9 * x**8 * (
        d1 * math.cos(s) + d2 * math.sin(s) + d3 * math.cos(3 * s) + d4 * math.sin(3 * s)
    )
    return h - theta


def centrality_residual(bodies) -> float:
    """max_k |g_k + lambda a_k| with the least-squares multiplier lambda."""
    g = []
    for k, (_, xk, yk) in enumerate(bodies):
        gx = gy = 0.0
        for j, (mj, xj, yj) in enumerate(bodies):
            if j != k:
                r3 = math.hypot(xj - xk, yj - yk) ** 3
                gx += mj * (xj - xk) / r3
                gy += mj * (yj - yk) / r3
        g.append((gx, gy))
    lam = -math.fsum(gx * x + gy * y for (gx, gy), (_, x, y) in zip(g, bodies)) / math.fsum(
        x * x + y * y for _, x, y in bodies
    )
    return max(math.hypot(gx + lam * x, gy + lam * y) for (gx, gy), (_, x, y) in zip(g, bodies))


# ---------------------------------------------------------------------------
# parsing helpers


def parse_csv(out: str, header: list[str]) -> list[list[float]]:
    lines = list(csv.reader(io.StringIO(out)))
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header}, got {lines[:1]}")
    return [[float(v) for v in row] for row in lines[1:]]


def _within_bound(value: float, bound: float, ref: Decimal) -> bool:
    """|value - ref| <= bound, exactly; the reference carries 30 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(Decimal(value) - ref) <= Decimal(bound) + abs(ref) * Decimal("1e-25")


# ---------------------------------------------------------------------------
# checkers, one per op kind


def check_fplot(op, out: str, ctx: Context) -> Optional[str]:
    rows = parse_csv(out, ["theta_tilde", "value", "error_estimate"])
    nodes = op.params["nodes"]
    if [r[0] for r in rows] != nodes:
        return f"theta grid {[r[0] for r in rows]} != {nodes}"
    for tt, value, err in rows:
        ref = ctx.oracle.f(op.params["function"], tt)
        if not _within_bound(value, err, ref):
            return f"theta={tt}: {value!r} +- {err!r} misses reference {ref:.6e}"
    return None


def check_asymp_ik(op, out: str, ctx: Context) -> Optional[str]:
    k, delta, tol = op.params["k"], op.params["delta"], op.params["tol"]
    rows = parse_csv(out, ["delta", "ik_quadrature", "ik_asymptotic", "ratio"])
    if len(rows) != 1 or rows[0][0] != delta:
        return f"expected one row at delta={delta}"
    _, ik, asym, _ = rows[0]
    if not _within_bound(ik, tol, ctx.oracle.i(k, delta)):
        return f"I_{k}({delta}) = {ik!r} misses reference {ctx.oracle.i(k, delta):.6e} by > {tol}"
    lead = ik_leading(k, delta)
    if abs(asym - lead) > 1e-12 * abs(lead):
        return f"asymptotic column {asym!r} != leading term {lead!r}"
    if k in CRITERION7_K and delta in CRITERION7_DELTAS:
        if not abs(ik / lead - 1.0) <= 3.0 / math.sqrt(delta):
            return f"criterion 7: I_{k}/asym = {ik / lead!r} outside 1 +- 3/sqrt({delta})"
    return None


def check_asymp_recurrence(op, out: str, ctx: Context) -> Optional[str]:
    k, delta, tol = op.params["k"], op.params["delta"], op.params["tol"]
    rows = parse_csv(out, ["delta", "jk_quadrature", "identity_value", "rel_error"])
    if len(rows) != 1 or rows[0][0] != delta:
        return f"expected one row at delta={delta}"
    _, jk, identity, _ = rows[0]
    factor = delta / (2.0 * (k + 1))
    if not _within_bound(jk, tol, ctx.oracle.j(k + 2, delta)):
        return f"J_{k + 2}({delta}) = {jk!r} misses reference by > {tol}"
    ref = ctx.oracle.i(k, delta) * Decimal(factor)
    if not _within_bound(identity, factor * tol, ref):
        return f"identity value {identity!r} misses reference {ref:.6e}"
    return None


def _theta_tilde(op) -> float:
    return op.params["theta0"] / op.params["eps"]


def check_melnikov(op, out: str, ctx: Context) -> Optional[str]:
    p = op.params
    rows = parse_csv(out, ["s0", "value"])
    if len(rows) != p["points"]:
        return f"{len(rows)} rows, expected {p['points']}"
    theta0, tol = p["theta0"], p["tol"]
    sign = 1.0 if theta0 > 0 else -1.0
    tt = _theta_tilde(op)
    order = p["order"]
    if order == "4":
        bodies = ctx.bodies(p["config"])
        _, c2, c3 = c_coeffs(bodies)
        pref = sign * 2.0 / theta0**6
        f4 = float(ctx.oracle.f("F4", tt))
        expect = lambda s0: pref * f4 * (c2 * math.sin(2 * s0) - c3 * math.cos(2 * s0))  # noqa: E731
        bound = abs(pref) * (tol * (abs(c2) + abs(c3)) + 2 * abs(f4) * coeff_roundoff(bodies, 2))
    elif order == "6":
        bodies = ctx.bodies(p["config"])
        d1, d2, d3, d4 = d_coeffs(bodies)
        pref = sign * 2.0 / theta0**8
        f1, f3 = float(ctx.oracle.f("F61", tt)), float(ctx.oracle.f("F62", tt))
        expect = lambda s0: pref * (  # noqa: E731
            f1 * (d2 * math.cos(s0) - d1 * math.sin(s0))
            + f3 * (d4 * math.cos(3 * s0) - d3 * math.sin(3 * s0))
        )
        bound = abs(pref) * (tol * (abs(d1) + abs(d2) + abs(d3) + abs(d4))
                             + 2 * (abs(f1) + abs(f3)) * coeff_roundoff(bodies, 3))
    else:
        n_total = int(order.split(":")[1])
        pref = sign * polygon_prefactor(n_total) / theta0 ** (2 * n_total)
        fp = float(ctx.oracle.f(order, tt))
        expect = lambda s0: pref * fp * math.sin((n_total - 1) * s0)  # noqa: E731
        bound = tol * abs(pref)
    for i, (s0, value) in enumerate(rows):
        if s0 != 2.0 * math.pi * i / p["points"]:
            return f"row {i}: s0 = {s0!r}"
        want = expect(s0)
        if not abs(value - want) <= bound + 1e-14 * abs(want):
            return f"s0={s0!r}: {value!r} != {want!r} within {bound:.3e}"
    return None


def check_splitting(op, out: str, ctx: Context) -> Optional[str]:
    p = op.params
    rows = parse_csv(out, ["s0", "splitting", "closed_form"])
    if len(rows) != 1 or rows[0][0] != 0.0:
        return "expected one row at s0 = 0"
    _, flow, closed = rows[0]
    theta0, eps = p["theta0"], p["eps"]
    bodies = ctx.bodies(p["config"])
    _, _, c3 = c_coeffs(bodies)
    d1, d2, d3, d4 = d_coeffs(bodies)
    sign = 1.0 if theta0 > 0 else -1.0
    tt = _theta_tilde(op)
    f4, f61, f62 = (float(ctx.oracle.f(n, tt)) for n in ("F4", "F61", "F62"))
    m4 = sign * 2.0 / theta0**6 * f4 * (-c3)
    m6 = sign * 2.0 / theta0**8 * (f61 * d2 + f62 * d4)
    want = eps**4 * m4 + eps**6 * m6
    # M4 and M6 run at their default tolerance 1e-10 per F value
    bound = (eps**4 * 2.0 / theta0**6 * (1e-10 * abs(c3) + abs(f4) * coeff_roundoff(bodies, 2))
             + eps**6 * 2.0 / theta0**8 * (1e-10 * (abs(d2) + abs(d4))
                                           + (abs(f61) + abs(f62)) * coeff_roundoff(bodies, 3)))
    if not abs(closed - want) <= bound + 1e-14 * abs(want):
        return f"closed form {closed!r} != reference {want!r} within {bound:.3e}"
    if not abs(flow - closed) <= max(SPLITTING_RTOL * abs(closed), p["tol"]):
        return f"flow-side {flow!r} != closed form {closed!r} (rel {SPLITTING_RTOL})"
    return None


def check_integrate(op, out: str, ctx: Context) -> Optional[str]:
    p = op.params
    rows = parse_csv(out, ["t", "x", "y", "s", "theta", "H_D"])
    if len(rows) != p["samples"]:
        return f"{len(rows)} rows, expected {p['samples']}"
    bodies = ctx.bodies(p["config"])
    c, d = c_coeffs(bodies), d_coeffs(bodies)
    x0, y0, s0, th0 = p["state"]
    first = rows[0]
    if first[0] != p["tspan"][0] or [first[1], first[2], first[4]] != [x0, y0, th0]:
        return f"first row {first[:5]} is not the initial state"
    c0 = jacobi_constant(x0, y0, s0, th0, p["eps"], c, d)
    for t, x, y, s, theta, hd in rows:
        drift = abs(jacobi_constant(x, y, s, theta, p["eps"], c, d) - c0)
        if not drift <= JACOBI_DRIFT:
            return f"t={t!r}: Jacobi drift {drift:.3e} > {JACOBI_DRIFT}"
        want = 0.5 * y * y - 0.5 * x * x + 0.25 * theta**2 * x**4
        if not abs(hd - want) <= 1e-14 * (1.0 + abs(want)):
            return f"t={t!r}: H_D {hd!r} != {want!r}"
    if rows[-1][0] != p["tspan"][1]:
        return f"last sample at t={rows[-1][0]!r}"
    return None


def check_config_build(op, out: str, ctx: Context) -> Optional[str]:
    bodies = read_bodies(op.params["output"])
    if len(bodies) != op.params["n_bodies"]:
        return f"{len(bodies)} bodies, expected {op.params['n_bodies']}"
    if abs(math.fsum(m for m, _, _ in bodies) - 1.0) > 1e-12:
        return "masses do not sum to 1"
    res = centrality_residual(bodies)
    if not res <= 1e-9:
        return f"not central: residual {res:.3e}"
    return None


def check_classify(op, out: str, ctx: Context) -> Optional[str]:
    verdict = json.loads(out)
    if verdict.get("status") != "transversal" or verdict.get("witness") is None:
        return f"status {verdict.get('status')!r}"
    w = verdict["witness"]
    k, a, b = w["k"], w["A"], w["B"]
    if len(w["zeros"]) != 2 * k:
        return f"{len(w['zeros'])} zeros for harmonic {k}"
    for z in w["zeros"]:  # the s0-factor of the splitting term is B cos(k s0) - A sin(k s0)
        if abs(b * math.cos(k * z) - a * math.sin(k * z)) > 1e-9 * (abs(a) + abs(b)):
            return f"zero {z!r} does not annihilate the witness pair"
    got = (k, w["epsilon_order"])
    p = op.params
    key = (p["group"], p["jmax"])
    if p["variant"] == "canon":
        if p["polygon"] is not None and got != (p["polygon"] - 1, 2 * p["polygon"] - 2):
            return f"polygon witness {got}, expected ({p['polygon'] - 1}, {2 * p['polygon'] - 2})"
        ctx.witness[key] = got
    elif got != ctx.witness.get(key):
        return f"witness {got} differs from the canonical {ctx.witness.get(key)}"
    return None


def check_catalog(op, out: str, ctx: Context) -> Optional[str]:
    misses = [line for line in out.splitlines() if line.endswith(",MISS")]
    return f"{len(misses)} golden misses" if misses else None


CHECKS: dict[str, Callable] = {
    "fplot": check_fplot,
    "asymp-ik": check_asymp_ik,
    "asymp-rec": check_asymp_recurrence,
    "melnikov": check_melnikov,
    "splitting": check_splitting,
    "integrate": check_integrate,
    "config-build": check_config_build,
    "classify": check_classify,
    "catalog": check_catalog,
}


def check(op, rc: Optional[int], out: str, ctx: Context) -> Optional[str]:
    """Failure reason for one op, or None; a non-zero exit is a failure."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return CHECKS[op.kind](op, out, ctx)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError, OSError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
