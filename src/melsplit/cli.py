"""Command-line surface.

Subcommands cover configuration construction and validation, coefficient
extraction, oscillatory-function sampling, splitting evaluation, the
transversality classifier, flow integration, asymptotic tables, and the
golden catalog.  All floating-point output uses 17 significant digits in
lowercase scientific notation so identical invocations are byte-identical.

Exit codes: 0 success, 1 usage or invalid input, 2 numerical failure,
3 golden-catalog mismatch.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import re
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import NumericalFailure

if TYPE_CHECKING:
    from .melnikov import SplittingTerms

# Each command imports the modules it runs, in its handler, and so does each
# parser that needs a name from one: a call loads only what its command uses.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_GOLDEN = 3


_quote = json.encoder.encode_basestring_ascii


def _fmt(x: float) -> str:
    return format(float(x), ".16e")


def _emit_json(obj, out) -> None:
    """Serialize with every float rendered at 17 significant digits, in one pass."""
    parts: list[str] = []
    append = parts.append

    def render(o) -> None:
        t = type(o)  # exact types first; subclasses fall through
        if t is float:
            append("%.16e" % o)
        elif t is str:
            append(_quote(o))
        elif isinstance(o, dict):
            sep = "{"
            for k, v in o.items():
                append(sep)
                append(_quote(k if type(k) is str else str(k)))
                append(": ")
                render(v)
                sep = ", "
            append("}" if sep == ", " else "{}")
        elif isinstance(o, (list, tuple)):
            sep = "["
            for v in o:
                append(sep)
                render(v)
                sep = ", "
            append("]" if sep == ", " else "[]")
        elif t is int:
            append(str(o))
        elif t is bool:
            append("true" if o else "false")
        elif o is None:
            append("null")
        elif isinstance(o, float):
            append(_fmt(o))
        elif isinstance(o, int):
            append(str(int(o)))
        elif isinstance(o, str):
            append(_quote(o))
        else:
            raise TypeError(f"cannot serialize {type(o)!r}")

    render(obj)
    append("\n")
    out.write("".join(parts))


def _write_csv(out, header: Sequence[str], rows) -> None:
    """Header and rows in one write; each float as ``_fmt`` renders it, anything else by ``str``.

    ``"%.16e" % v`` is ``format(v, ".16e")`` for every float, so a row of
    floats is rendered in one formatting operation.
    """
    lines = [",".join(header)]
    for row in rows:
        if all([type(v) is float for v in row]):
            lines.append(",".join(["%.16e"] * len(row)) % tuple(row))
        else:
            lines.append(",".join([_fmt(v) if isinstance(v, float) else str(v) for v in row]))
    lines.append("")
    out.write("\n".join(lines))


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """``num`` >= 1 nodes from lo to hi, bit for bit those of ``numpy.linspace(lo, hi, num)``.

    Node i is i step + lo, with step = (hi - lo)/(num - 1), and the last node
    is hi; where the step underflows to 0, node i is i/(num - 1) (hi - lo) +
    lo.  One node is 0 (hi - lo) + lo.
    """
    div = num - 1
    delta = hi - lo
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    if step == 0.0:
        nodes = [i / div * delta + lo for i in range(num)]
    else:
        nodes = [i * step + lo for i in range(num)]
    nodes[-1] = hi
    return nodes


def _sampled(points: int, factor: float, *polynomials: SplittingTerms) -> list[tuple[float, ...]]:
    """Rows of s0 = 2 pi i / points, i < points, and ``factor`` (``_gauge``) times each value."""
    s0s = [2.0 * math.pi * i / points for i in range(points)]
    columns = [[factor * p.value(s0) for s0 in s0s] for p in polynomials]
    if not all([math.isfinite(v) for column in columns for v in column]):
        raise OverflowError(f"a value times the gauge factor {factor!r} overflows")
    return list(zip(s0s, *columns))


def _gauge(theta: float, eps: float, power: int) -> tuple[float, float]:
    """(theta/eps, eps^-power) for 0 < eps <= 1: where the library computes, and back to eps.

    The library computes at eps = 1 in the variables (eps x, eps y, s,
    theta/eps), where eps^-(2j+2) takes the order 2j, and eps^-2 a sum of
    orders weighted by eps^(2j), to the given eps.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {eps!r}")
    if math.isinf(theta / eps) and math.isfinite(theta):
        raise OverflowError(f"theta/eps overflows at theta = {theta!r}, eps = {eps!r}")
    try:
        return theta / eps, eps**-power
    except OverflowError:
        raise OverflowError(f"the gauge factor eps^-{power} overflows at eps = {eps!r}") from None


def _count(text: str) -> int:
    """A number of sample points: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"need an integer of at least 1, got {text!r}")
    return n


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1e-1 as an option flag; a negative number in any
        # decimal form is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# config build's builders: name -> the configuration, from the config module and the arguments
_BUILDERS = {
    "rp3bp": lambda cfg, args: cfg.build_rp3bp(args.mu),
    "equilateral": lambda cfg, args: cfg.build_equilateral(args.m1, args.m2),
    "rhomboid": lambda cfg, args: cfg.build_rhomboid(args.a, args.b),
    "collinear-equal": lambda cfg, args: cfg.solve_collinear_equal(args.n),
    "collinear-equidistant": lambda cfg, args: cfg.solve_collinear_equidistant(args.n),
    "polygon": lambda cfg, args: cfg.build_polygon(args.n, normalize=args.normalize),
}


def _builder_parameters(p: _Parser) -> None:
    """The builders' parameters, with their defaults: ``config build`` and ``catalog`` take them."""
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--m1", type=float, default=1.0 / 3.0)
    p.add_argument("--m2", type=float, default=1.0 / 3.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=7)


def _config_arguments(p: _Parser) -> None:
    csub = p.add_subparsers(dest="config_command", required=True)
    pv = csub.add_parser("validate", help="validate a configuration JSON file")
    pv.add_argument("path")
    pb = csub.add_parser("build", help="build a named configuration")
    pb.add_argument("builder", choices=list(_BUILDERS))
    _builder_parameters(pb)
    pb.add_argument("--normalize", action="store_true")
    pb.add_argument("-o", "--output", default=None)


def _coeffs_arguments(p: _Parser) -> None:
    p.add_argument("path")
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--jmax", type=int, default=6)


def _fplot_arguments(p: _Parser) -> None:
    from .quadrature import F_NAMES

    p.add_argument("function", help=F_NAMES)
    p.add_argument("--range", nargs=2, type=float, default=(-2.0, 2.0), metavar=("LO", "HI"))
    p.add_argument("--points", type=_count, default=101)
    p.add_argument("--tol", type=float, default=1e-10)


def _melnikov_arguments(p: _Parser) -> None:
    p.add_argument("--order", required=True, help="2j with 2 <= j <= 64, or poly:N")
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--points", type=_count, default=64)
    p.add_argument("--tol", type=float, default=1e-10)


def _classify_arguments(p: _Parser) -> None:
    p.add_argument("path")
    p.add_argument("--lmax", type=int, default=8,
                   help="the first-harmonic scan runs over j = 3, 5, ..., 2 lmax + 1 "
                        "(default 8)")
    p.add_argument("--jmax", type=int, default=None,
                   help="highest Legendre order of the k >= 2 scan "
                        "(default min(2N + 4, 64) for N bodies)")


def _integrate_arguments(p: _Parser) -> None:
    p.description = ("Integrate the truncated near-infinity flow from --state over --tspan and "
                     "sample it to CSV.  The state and the span must be finite.")
    p.add_argument("--config", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--state", nargs=4, type=float, required=True, metavar=("X", "Y", "S", "THETA"))
    p.add_argument("--tspan", nargs=2, type=float, required=True, metavar=("T0", "T1"))
    p.add_argument("--truncation", type=int, default=9, help="3, or odd 2J+3 with 2 <= J <= 64")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=_count, default=200)


def _splitting_arguments(p: _Parser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--points", type=_count, default=16)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--compare", action="store_true",
                   help="add a closed_form column: the same sum with every F_(j,k) at tol "
                        "1e-10 (F4, F61 and F62 are F_(2,2), -F_(3,1) and -F_(3,3))")


def _asymp_arguments(p: _Parser) -> None:
    p.description = (
        "ik: I_k(delta) by quadrature beside its leading term.  recurrence: "
        "J_(k+2) against delta/(2(k+1)) I_k.  leading: eps^4 M4 and eps^6 M6 over s0 "
        "(0 < eps <= 1) with each F_(j,k) replaced by its leading term, which leads "
        "only where its phase scale k |theta0/eps|^3 / 2 is well above "
        "(j + k + 2)^2, roughly.")
    p.add_argument("table", choices=["ik", "recurrence", "leading"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--deltas", nargs="+", type=float, default=[10.0, 20.0, 30.0])
    p.add_argument("--config", default=None)
    p.add_argument("--theta0", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--points", type=_count, default=16)
    p.add_argument("--tol", type=float, default=1e-11)


def _catalog_arguments(p: _Parser) -> None:
    from .catalog import CASES

    p.add_argument("case", help="|".join(CASES) + " | all")
    _builder_parameters(p)


def _cmd_config(args, out) -> int:
    from . import config as cfg

    if args.config_command == "validate":
        c = cfg.load_configuration(args.path)
        max_norm, lam, fit_residual = cfg.balance(c)
        # valid: central at some scale, so an unnormalized polygon passes
        valid = fit_residual <= cfg.LAMBDA_FIT_TOL
        _emit_json(
            {
                "label": c.label,
                "n_bodies": c.n_bodies,
                "valid": valid,
                "max_norm": max_norm,
                "lambda": lam,
            },
            out,
        )
        return EXIT_OK if valid else EXIT_USAGE
    payload = cfg.configuration_to_dict(_BUILDERS[args.builder](cfg, args))
    if args.output:
        with open(args.output, "w") as fh:
            _emit_json(payload, fh)
    else:
        _emit_json(payload, out)
    return EXIT_OK


def _cmd_coeffs(args, out) -> int:
    from .config import load_configuration
    from .harmonics import MAX_LEGENDRE_ORDER, HarmonicTables

    l_max = (MAX_LEGENDRE_ORDER - 1) // 2  # d_l is read at order 2l + 1
    if not (1 <= args.lmax <= l_max) or args.jmax < 2:
        raise ValueError(f"need --lmax >= 1 and --jmax >= 2, and --lmax <= {l_max}, "
                         f"got {args.lmax} and {args.jmax}")
    c = load_configuration(args.path)
    owner = HarmonicTables(c, max(args.jmax, 2 * args.lmax + 1))
    tables = {str(j): [[m, a, b] for m, a, b in owner[j].entries] for j in range(2, args.jmax + 1)}
    payload = {
        "label": c.label,
        "c": [owner.paper("c1")[0], *owner.paper("c2, c3")],
        "d": [*owner.paper("d1, d2"), *owner.paper("d3, d4")],
        "d_l": {str(l): list(owner.d_weight(l)) for l in range(1, args.lmax + 1)},
        "harmonic_tables": tables,
    }
    _emit_json(payload, out)
    return EXIT_OK


def _cmd_fplot(args, out) -> int:
    from .quadrature import eval_oscillatory_list, named_integrand

    integrand = named_integrand(args.function)
    lo, hi = args.range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--range needs finite bounds, got {lo!r} and {hi!r}")
    if math.isfinite(hi - lo):
        thetas = _linspace(lo, hi, args.points)
    else:  # the width overflows: the grid a quarter the size, whose steps do not, scaled back
        thetas = [4.0 * t for t in _linspace(0.25 * lo, 0.25 * hi, args.points)]
    results = eval_oscillatory_list(map(integrand, thetas), args.tol)
    rows = [(tt, res.value, res.error_estimate) for tt, res in zip(thetas, results)]
    _write_csv(out, ["theta_tilde", "value", "error_estimate"], rows)
    return EXIT_OK


def _cmd_melnikov(args, out) -> int:
    from .config import load_configuration
    from .melnikov import legendre_order, splitting_terms

    c = load_configuration(args.config) if args.config is not None else None
    theta_tilde, factor = _gauge(args.theta0, args.eps, 2 * legendre_order(args.order) + 2)
    terms = splitting_terms(c, args.order, theta_tilde, tol=args.tol)
    _write_csv(out, ["s0", "value"], _sampled(args.points, factor, terms))
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    from .config import load_configuration
    from .melnikov import classify, verdict_to_dict

    c = load_configuration(args.path)
    verdict = classify(c, l_max=args.lmax, j_max=args.jmax)
    _emit_json(verdict_to_dict(verdict), out)
    return EXIT_OK


def _cmd_integrate(args, out) -> int:
    from .config import load_configuration
    from .dynamics import FlowParams, McGeheeState, hd_value, integrate_mcgehee

    c = load_configuration(args.config)
    # checked as given: scaling and s mod 2 pi would show an inf s as nan
    if not all(map(math.isfinite, (*args.state, *args.tspan))):
        raise ValueError(f"state and span must be finite, got state {args.state!r} "
                         f"and span {tuple(args.tspan)!r}")
    eps = args.eps
    theta_tilde, _ = _gauge(args.state[3], eps, 0)
    params = FlowParams(c, args.truncation)
    st = McGeheeState(*args.state)
    traj = integrate_mcgehee(McGeheeState(eps * st.x, eps * st.y, st.s, theta_tilde), params,
                             tuple(args.tspan), tol=args.tol)
    ts = _linspace(*args.tspan, args.samples)
    # the input state, then the run mapped back as (X/eps, Y/eps, s, Theta eps)
    states = [(st.x, st.y, st.s, st.theta)] + [(v[0] / eps, v[1] / eps, v[2], v[3] * eps)
                                               for v in map(traj.sol, ts[1:])]
    rows = [(t, xv, yv, sv % (2.0 * math.pi), thv, hd_value(xv, yv, thv))
            for t, (xv, yv, sv, thv) in zip(ts, states)]
    _write_csv(out, ["t", "x", "y", "s", "theta", "H_D"], rows)
    return EXIT_OK


def _cmd_splitting(args, out) -> int:
    from .config import load_configuration
    from .melnikov import melnikov_sum, splitting_terms

    c = load_configuration(args.config)
    header = ["s0", "splitting"]
    tols = [args.tol]
    if args.compare:
        header.append("closed_form")
        tols.append(1e-10)
    theta_tilde, factor = _gauge(args.theta0, args.eps, 2)
    sums = [melnikov_sum([splitting_terms(c, order, theta_tilde, tol=tol) for order in (4, 6)])
            for tol in tols]
    _write_csv(out, header, _sampled(args.points, factor, *sums))
    return EXIT_OK


def _cmd_asymp(args, out) -> int:
    if args.table in ("ik", "recurrence"):
        from .quadrature import eval_oscillatory_list, ik_integrand, jk_integrand

        if args.table == "ik":
            from .asymptotics import ik_asymptotic
        leads = []

        def integrands():  # each delta's I_k, beside its leading term or its J_(k+2)
            for d in args.deltas:
                yield ik_integrand(args.k, d)
                if args.table == "ik":
                    leads.append(ik_asymptotic(args.k, d))
                else:
                    yield jk_integrand(args.k + 2, d)

        halves = [0.5 * res.value for res in eval_oscillatory_list(integrands(), args.tol)]
    if args.table == "ik":
        rows = [(d, exact, asym, exact / asym if asym != 0 else math.nan)
                for d, exact, asym in zip(args.deltas, halves, leads)]
        _write_csv(out, ["delta", "ik_quadrature", "ik_asymptotic", "ratio"], rows)
        return EXIT_OK
    if args.table == "recurrence":
        rows = []
        for d, i_val, j_val in zip(args.deltas, halves[::2], halves[1::2]):
            identity = d / (2.0 * (args.k + 1)) * i_val
            # both values exactly 0 agree; a nonzero J against a zero identity has no ratio
            rel = (abs(j_val - identity) / abs(identity) if identity != 0
                   else 0.0 if j_val == 0 else math.nan)
            rows.append((d, j_val, identity, rel))
        _write_csv(out, ["delta", "jk_quadrature", "identity_value", "rel_error"], rows)
        return EXIT_OK
    from .config import ConfigError, load_configuration
    from .melnikov import leading_terms

    if args.config is None:
        raise ConfigError("the leading table needs --config")
    c = load_configuration(args.config)
    theta_tilde, factor = _gauge(args.theta0, args.eps, 2)
    leads = [leading_terms(c, order, theta_tilde) for order in (4, 6)]
    _write_csv(out, ["s0", "m4_leading", "m6_leading"], _sampled(args.points, factor, *leads))
    return EXIT_OK


def _cmd_catalog(args, out) -> int:
    from .catalog import ALL_CASES, build_case, run_case

    if args.case == "all":
        cases = [build_case(name, **params) for name, params in ALL_CASES]
    else:
        cases = [
            build_case(
                args.case, mu=args.mu, m1=args.m1, m2=args.m2, a=args.a, b=args.b, n=args.n
            )
        ]
    all_ok = True
    for case in cases:
        report = run_case(case)
        all_ok = all_ok and report.passed
        out.write(f"# case {report.name}: {'PASS' if report.passed else 'FAIL'}\n")
        _write_csv(
            out,
            ["key", "computed", "expected", "tolerance", "status"],
            [
                (key, got, want, tol, "ok" if ok else "MISS")
                for key, got, want, tol, ok in report.rows
            ],
        )
    return EXIT_OK if all_ok else EXIT_GOLDEN


# name -> (help, the function that adds the command's arguments, handler)
_COMMANDS = {
    "config": ("build or validate configurations", _config_arguments, _cmd_config),
    "coeffs": ("print perturbation coefficients as JSON", _coeffs_arguments, _cmd_coeffs),
    "fplot": ("sample an oscillatory F-function to CSV", _fplot_arguments, _cmd_fplot),
    "melnikov": ("sample a splitting function over s0 to CSV", _melnikov_arguments,
                 _cmd_melnikov),
    "classify": ("run the transversality decision tree", _classify_arguments, _cmd_classify),
    "integrate": ("integrate the near-infinity flow to CSV", _integrate_arguments,
                  _cmd_integrate),
    "splitting": ("order-4 plus order-6 splitting over an s0 grid to CSV", _splitting_arguments,
                  _cmd_splitting),
    "asymp": ("asymptotic tables to CSV", _asymp_arguments, _cmd_asymp),
    "catalog": ("golden-value report; exit 3 on any miss", _catalog_arguments, _cmd_catalog),
}


def _build_parser(command: Optional[str]) -> _Parser:
    """The top level with every command registered; only ``command`` gets a parser.

    The top level's usage, its help and its invalid-choice message read only
    the names and help lines, so they are the same whichever command is
    built.  The other commands map to no parser: argparse parses only the
    command it dispatches on.
    """
    p = _Parser(prog="melsplit", description=__doc__.splitlines()[0])
    running = f"{p.prog} {command}"  # the prog add_parser gives the running command
    sub = p.add_subparsers(
        dest="command", required=True,
        parser_class=lambda prog, **kw: _Parser(prog=prog, **kw) if prog == running else None)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        if (sp := sub.add_parser(name, help=help_text)) is not None:
            add_arguments(sp)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    finally:
        # The argparse tree is cyclic (each action points back at its
        # container, each validation formatter at its root section), so each
        # call leaves some 90-190 objects that only the cycle collector frees.
        # The automatic collector runs while a call's objects are still live
        # and promotes them, which soon triggers a collection of the oldest
        # generation: a scan of the whole heap (6-16 ms in a long-lived
        # process) inside some later call.  Collecting the young generations
        # once the call's objects are dead costs about 0.1 ms and keeps
        # in-process call times steady.
        if gc.isenabled():
            gc.collect(1)


def _run(argv: Optional[Sequence[str]]) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse runs the first argument that names a command: the top level has
    # no option that takes a value, and refuses any other positional argument
    # before it as an invalid choice, before a subparser runs
    parser = _build_parser(next((a for a in argv if a in _COMMANDS), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return _COMMANDS[args.command][2](args, sys.stdout)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    # a failed quadrature, integration or Newton run; overflow, division by zero
    except (NumericalFailure, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
