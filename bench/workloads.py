"""The benchmark's workloads: set-up, warm-up ops and seeded passes of CLI ops.

An op is one ``melsplit.cli.main(argv)`` call.  Its ``name`` does not depend
on the seed, so ops that fail at a given commit can be listed by name in
known_failures.json; ``kind`` selects the checker in checks.py and
``params`` carries what the checker needs.  A workload's timed phase runs
pass after pass; pass i is drawn from the seed and i alone, so the same seed
always gives the same ops.

Configuration files are written by ``config build`` and by plain JSON
transforms of its output (scaling, rotation, relabelling); the one
transform with no command, ``normalize_omega``, is the exported library
function.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable

from checks import DELTAS, LATTICE, read_bodies

FPLOT_FUNCTIONS = ("F4", "F61", "F62") + tuple(f"poly:{n}" for n in range(4, 11))
ASYMP_KS = range(1, 7)


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)


def _num(x: float) -> str:
    """``x`` in positional notation, digits exact, e.g. -0.000044 for -4.4e-05.

    argparse takes only -digits or -digits.digits for a negative number, so
    a negative value in exponent notation would be read as an option.
    """
    return format(Decimal(repr(float(x))), "f")


def write_config(path: Path, bodies) -> None:
    path.write_text(json.dumps({
        "label": path.stem,
        "bodies": [{"mass": m, "position": [x, y]} for m, x, y in bodies],
    }))


def rotated(bodies, phi: float):
    c, s = math.cos(phi), math.sin(phi)
    return [(m, c * x - s * y, s * x + c * y) for m, x, y in bodies]


class Workload:
    """Base: subclasses define set-up files, warm-up ops and passes."""

    name: str
    #: percentile reported as op_tail_ms, the highest one that keeps at least
    #: ten samples beyond it in a run of the default length
    tail_pct: float
    #: passes in the traced run; fixed so its counters repeat exactly
    trace_passes: int

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(str(k) for k in (self.name, self.seed) + key))

    def setup(self, cli_main: Callable, lib) -> None:
        """Write the workload's input files; ``lib`` is the melsplit package."""

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def make_pass(self, index: int) -> list[Op]:
        raise NotImplementedError

    def build(self, cli_main: Callable, path: Path, builder: str, *args: str) -> None:
        rc = cli_main(["config", "build", builder, *args, "-o", str(path)])
        if rc != 0:
            raise RuntimeError(f"config build {builder} {args} exited {rc}")


# ---------------------------------------------------------------------------


class FSweep(Workload):
    """Distinct integrands only: fplot grids and the I_k/J_k tables."""

    name = "fsweep"
    tail_pct = 95.0
    trace_passes = 1

    def warmup(self):
        return [
            Op("warmup/fplot", "fplot", ("fplot", "F4", "--range", "1.0", "1.0", "--points", "1")),
            Op("warmup/asymp-ik", "asymp-ik", ("asymp", "ik", "--k", "2", "--deltas", "10.0")),
            Op("warmup/asymp-rec", "asymp-rec", ("asymp", "recurrence", "--k", "2", "--deltas", "10.0")),
        ]

    def make_pass(self, index):
        ops = []
        for fn in FPLOT_FUNCTIONS:
            # three 8-node grids of spacing 1 per function, the same in every
            # pass so that passes cost the same; each starts at a negative
            # theta-tilde and ends in [4.5, 5], where values sit below their
            # own error bound
            for a in range(3):
                nodes = [LATTICE[a + 4 * i] for i in range(8)]
                ops.append(Op(
                    f"fplot/{fn}/a{a}", "fplot",
                    ("fplot", fn, "--range", _num(nodes[0]), _num(nodes[-1]), "--points", "8"),
                    {"function": fn, "nodes": nodes},
                ))
        tol = 1e-11
        for k in ASYMP_KS:
            for delta in DELTAS:
                params = {"k": k, "delta": delta, "tol": tol}
                ops.append(Op(f"asymp-ik/k{k}/d{delta:g}", "asymp-ik",
                              ("asymp", "ik", "--k", str(k), "--deltas", _num(delta),
                               "--tol", _num(tol)), params))
                ops.append(Op(f"asymp-rec/k{k}/d{delta:g}", "asymp-rec",
                              ("asymp", "recurrence", "--k", str(k), "--deltas", _num(delta),
                               "--tol", _num(tol)), params))
        self.rng(index).shuffle(ops)
        return ops


# ---------------------------------------------------------------------------


class MelnikovGrid(Workload):
    """Splitting functions over s0: each op re-evaluates one or two F values."""

    name = "melnikov-grid"
    tail_pct = 75.0
    trace_passes = 1
    CONFIGS = {
        "rp3bp": ("rp3bp", "--mu", "0.3"),
        "equilateral": ("equilateral", "--m1", "0.2", "--m2", "0.3"),
        "rhomboid": ("rhomboid", "--a", "1.2", "--b", "1.0"),
        "collinear": ("collinear-equal", "--n", "5"),
    }
    TILDES = (1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5)

    def setup(self, cli_main, lib):
        for label, args in self.CONFIGS.items():
            self.build(cli_main, self.dir / f"{label}.json", *args)

    def _op(self, order: str, theta0: float, eps: float, config: str | None, points: int = 64):
        argv = ["melnikov", "--order", order, "--theta0", _num(theta0), "--eps", _num(eps),
                "--points", str(points)]
        params = {"order": order, "theta0": theta0, "eps": eps, "points": points, "tol": 1e-10}
        if config is not None:
            path = str(self.dir / f"{config}.json")
            argv += ["--config", path]
            params["config"] = path
        name = f"melnikov/{order}" + (f"/{config}" if config else "")
        return Op(name, "melnikov", tuple(argv), params)

    def warmup(self):
        return [self._op("4", 1.0, 0.5, "rp3bp", 1), self._op("6", 1.0, 0.5, "rp3bp", 1),
                self._op("poly:5", 1.0, 0.5, None, 1)]

    def make_pass(self, index):
        rng = self.rng(index)
        jobs = [(order, cfg) for order in ("4", "6") for cfg in self.CONFIGS]
        jobs += [(f"poly:{n}", None) for n in range(4, 11)]
        ops = []
        for i, (order, cfg) in enumerate(jobs):
            # theta-tilde, which sets the cost, cycles with the pass index so
            # that every run sees the same costs; the seed draws theta0 (and
            # with it epsilon) and the order
            tt = self.TILDES[(i + index) % len(self.TILDES)]
            sign = 1.0 if (i + index) % 2 == 0 else -1.0  # both branches in every pass
            theta0 = rng.choice((0.5, 0.75, 1.0))
            ops.append(self._op(order, sign * theta0, theta0 / tt, cfg))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------


class FlowCheck(Workload):
    """Flow-side splitting against the closed forms, plus flow integration."""

    name = "flow-check"
    tail_pct = 90.0
    trace_passes = 3
    ROTATIONS = 16
    EPS_SPLIT = 0.8  # theta-tilde = +-1.25, on the oracle lattice
    EPS_FLOW = 0.5
    INTEGRATIONS = 12  # per pass, against 4 splitting ops

    def setup(self, cli_main, lib):
        rng = self.rng("setup")
        # at mu = 0.3 the panel count of the flow-side splitting jumps 4.5x
        # with the rotation; at mu = 0.4 it does not, which keeps runs steady
        for label, args in (("rp3bp", ("rp3bp", "--mu", "0.4")),
                            ("equilateral", ("equilateral", "--m1", "0.2", "--m2", "0.3"))):
            base = self.dir / f"{label}.json"
            self.build(cli_main, base, *args)
            bodies = read_bodies(base)
            # rotations move the zeros of the splitting off s0 = 0
            for r in range(self.ROTATIONS):
                write_config(self.dir / f"{label}-rot{r}.json",
                             rotated(bodies, rng.uniform(0.0, 2.0 * math.pi)))

    def _split(self, config: str, theta0: float, eps: float):
        path = str(self.dir / f"{config}.json")
        return Op(f"splitting/{config.split('-')[0]}/{theta0:+g}", "splitting",
                  ("splitting", "--config", path, "--eps", _num(eps), "--theta0", _num(theta0),
                   "--points", "1", "--compare"),
                  {"config": path, "theta0": theta0, "eps": eps, "tol": 1e-9})

    def _integrate(self, config: str, state, t1: float = 20.0, samples: int = 50):
        path = str(self.dir / f"{config}.json")
        tol = 1e-11
        return Op(f"integrate/{config.split('-')[0]}", "integrate",
                  ("integrate", "--config", path, "--eps", _num(self.EPS_FLOW),
                   "--state", *map(_num, state), "--tspan", "0.0", _num(t1),
                   "--tol", _num(tol), "--samples", str(samples)),
                  {"config": path, "eps": self.EPS_FLOW, "state": state, "tspan": (0.0, t1),
                   "samples": samples})

    def warmup(self):
        return [self._split("rp3bp", 1.0, self.EPS_SPLIT),
                self._integrate("rp3bp", (0.3, 0.0, 0.0, 1.0), 1.0, 2)]

    def make_pass(self, index):
        rng = self.rng(index)
        rot = index % self.ROTATIONS
        ops = [self._split(f"{cfg}-rot{rot}", theta0, self.EPS_SPLIT)
               for cfg in ("rp3bp", "equilateral") for theta0 in (1.0, -1.0)]
        width = 0.3 / self.INTEGRATIONS
        for i in range(self.INTEGRATIONS):
            # x, which sets the cost, is drawn from the i-th of equal strata
            # of [0.2, 0.5], so that every pass has the same spread of costs
            x = rng.uniform(0.2 + i * width, 0.2 + (i + 1) * width)
            state = (x, rng.uniform(-0.1, 0.1), rng.uniform(0.0, 2.0 * math.pi),
                     rng.uniform(0.5, 1.5))
            ops.append(self._integrate(f"{('rp3bp', 'equilateral')[i % 2]}-rot{rot}", state))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------


class Classify(Workload):
    """Config load/validation, CLI and harmonics; no quadrature at all."""

    name = "classify"
    tail_pct = 99.0
    trace_passes = 1
    SCALES = (0.5, 0.75, 1.25, 1.5, 2.0)
    JMAX = ("default", "64")

    def canonical(self):
        out = {f"polygon-{n}": ("polygon", "--n", str(n)) for n in range(4, 17)}
        for n in range(3, 9):
            out[f"collinear-equal-{n}"] = ("collinear-equal", "--n", str(n))
            out[f"collinear-equidistant-{n}"] = ("collinear-equidistant", "--n", str(n))
        out["rhomboid-1-1"] = ("rhomboid", "--a", "1.0", "--b", "1.0")
        out["rhomboid-1.2-1"] = ("rhomboid", "--a", "1.2", "--b", "1.0")
        out["rp3bp-0.3"] = ("rp3bp", "--mu", "0.3")
        out["rp3bp-0.5"] = ("rp3bp", "--mu", "0.5")
        out["equilateral"] = ("equilateral",)
        out["equilateral-0.2-0.3"] = ("equilateral", "--m1", "0.2", "--m2", "0.3")
        return out

    def variants(self):
        return ["canon"] + [f"scale{c:g}" for c in self.SCALES] + ["rot", "relabel", "norm"]

    def setup(self, cli_main, lib):
        rng = self.rng("setup")
        self.n_bodies = {}
        for group, args in self.canonical().items():
            path = self.dir / f"{group}.canon.json"
            self.build(cli_main, path, *args)
            bodies = read_bodies(path)
            self.n_bodies[group] = len(bodies)
            for c in self.SCALES:
                write_config(self.dir / f"{group}.scale{c:g}.json",
                             [(m, c * x, c * y) for m, x, y in bodies])
            write_config(self.dir / f"{group}.rot.json",
                         rotated(bodies, rng.uniform(0.0, 2.0 * math.pi)))
            perm = list(range(len(bodies)))
            while perm == sorted(perm):
                rng.shuffle(perm)
            write_config(self.dir / f"{group}.relabel.json", [bodies[i] for i in perm])
            norm = lib.normalize_omega(lib.load_configuration(str(path)))
            write_config(self.dir / f"{group}.norm.json",
                         [(b.mass, *b.position) for b in norm.bodies])

    def _classify(self, group: str, variant: str, jmax: str):
        argv = ["classify", str(self.dir / f"{group}.{variant}.json")]
        if jmax != "default":
            argv += ["--jmax", jmax]
        polygon = int(group.split("-")[1]) if group.startswith("polygon-") else None
        return Op(f"classify/{group}/{variant}/j{jmax}", "classify", tuple(argv),
                  {"group": group, "variant": variant, "jmax": jmax, "polygon": polygon})

    def warmup(self):
        return [self._classify("rp3bp-0.3", "canon", "default"),
                Op("warmup/catalog", "catalog", ("catalog", "rp3bp"))]

    def make_pass(self, index):
        rng = self.rng(index)
        groups = []
        for group, args in self.canonical().items():
            out = str(self.dir / f"{group}.canon.json")
            ops = [Op(f"config-build/{group}", "config-build",
                      ("config", "build", *args, "-o", out),
                      {"output": out, "n_bodies": self.n_bodies[group]})]
            # the canonical verdicts come first: variants are checked against them
            ops += [self._classify(group, "canon", j) for j in self.JMAX]
            rest = [self._classify(group, v, j) for v in self.variants()[1:] for j in self.JMAX]
            rng.shuffle(rest)
            groups.append(ops + rest)
        groups.append([Op("catalog/all", "catalog", ("catalog", "all"))])
        rng.shuffle(groups)
        return [op for ops in groups for op in ops]


WORKLOADS = {w.name: w for w in (FSweep, MelnikovGrid, FlowCheck, Classify)}
