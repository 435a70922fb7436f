"""melsplit benchmark: run one workload and print its metrics as one JSON line.

    python3 bench/run.py --workload fsweep --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.  One
process, one thread (BLAS pinned to one thread), closed loop: each op is one
``melsplit.cli.main(argv)`` call with stdout captured, and the next op
starts when the previous one has returned and been checked.

--trace 0 prints the end-to-end metrics: ``setup_s`` is the median over
SETUP_SAMPLES fresh interpreters of importing melsplit.cli, writing the
workload's config files and running one warm-up op of each kind; the timed
phase then runs whole seeded passes until the ops have been busy for
--seconds.  Times are scaled to a fixed reference speed of the host (see
``calibration_unit``).
--trace 1 runs a fixed number of passes untraced and then traced, and prints
the per-layer metrics of the traced ones.  Either way the last line of
stdout is {"correct", "attempted", "failed", "metrics"}; ``failed`` counts
ops that raised, exited non-zero or failed their check, and ``correct`` is
false when any of them is not listed in known_failures.json.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
CAL_REF_S = 0.01  # duration of one calibration unit at the reference speed
CAL_EVERY_S = 0.1  # op time between calibration units in the timed phase
SETUP_CAL_UNITS = 21  # calibration units after each set-up

from checks import Context, Oracle, check  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402


@dataclass
class OpResult:
    op: Op
    rc: int | None
    out: str
    seconds: float
    failure: str | None = None


@dataclass
class Session:
    """An imported melsplit plus one workload's files in a private directory."""

    workload: Workload
    cli: object
    ctx: Context
    setup_s: float
    known: set[str] = field(default_factory=set)

    def run(self, op: Op, tracer: Tracer | None = None, op_id: int = 0) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(op_id, op.name)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except Exception:  # a traceback is a failure of the op, not of the benchmark
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        res = OpResult(op, rc, out.getvalue(), seconds)
        res.failure = check(op, rc, res.out, self.ctx)
        if res.failure and rc is None:
            res.failure += " | " + err.getvalue().strip().splitlines()[-1]
        return res


def open_session(name: str, seed: int, workdir: Path) -> Session:
    """Import melsplit, write the config files and warm up; times all three."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import melsplit
    import melsplit.cli as cli

    workload = WORKLOADS[name](seed, workdir)
    workload.setup(_quiet(cli.main), melsplit)
    session = Session(workload, cli, Context(Oracle()), 0.0)
    for op in workload.warmup():
        res = session.run(op)
        if res.rc != 0:
            raise RuntimeError(f"warm-up {op.argv} exited {res.rc}")
    session.setup_s = time.perf_counter() - start
    known = json.loads((BENCH / "known_failures.json").read_text()).get(name, [])
    session.known = {op for defect in known for op in defect["ops"]}
    return session


def _quiet(main):
    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    return call


def calibration_unit() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now.

    The host's speed drifts by tens of percent within minutes.  Every
    reported time is divided by the slowdown, the median of these units
    (measured alongside the ops or right after a set-up) over CAL_REF_S, so
    that a run reports seconds at a fixed reference speed.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    # float64 and extended precision, both of which the package's kernels use
    x = np.linspace(0.0, 1.0, 2048)
    for _ in range(60):
        x = np.cos(x) + 0.5 * np.sin(x)
    y = np.linspace(0.0, 1.0, 512).astype(np.longdouble)
    for _ in range(20):
        y = np.cos(y) + 0.5 * np.sin(y)
    return time.perf_counter() - start


def slowdown(units: int) -> float:
    """Median of ``units`` calibration units over their reference duration."""
    return statistics.median(calibration_unit() for _ in range(units)) / CAL_REF_S


def timed_phase(session: Session, seconds: float, cal: list[float]) -> list[OpResult]:
    """Whole passes until the ops have been busy for ``seconds``.

    Stopping only between passes keeps the mix of op kinds the same in every
    run, so ops_per_s does not depend on where in a pass the time ran out.
    """
    results: list[OpResult] = []
    busy = since_cal = 0.0
    index = 0
    while busy < seconds:
        for op in session.workload.make_pass(index):
            results.append(session.run(op))
            results[-1].out = ""  # checked; keeping it would grow the peak RSS with the run
            busy += results[-1].seconds
            since_cal += results[-1].seconds
            if since_cal > CAL_EVERY_S:
                cal.extend(calibration_unit() for _ in range(int(since_cal / CAL_EVERY_S)))
                since_cal = 0.0
        index += 1
    return results


def traced_run(session: Session, ops: list[Op]) -> tuple[list[OpResult], list[OpResult], Tracer]:
    """The ops untraced, then traced; the two outputs must match."""
    plain = [session.run(op) for op in ops]
    session.ctx.witness.clear()
    tracer = Tracer()
    tracer.install()
    try:
        traced = [session.run(op, tracer, i) for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def same_outputs(a: OpResult, b: OpResult) -> bool:
    """Equal exit codes and stdout, apart from the elapsed times ``catalog`` prints."""
    strip = lambda out: re.sub(r"\(\d+\.\d+s\)", "", out)  # noqa: E731
    return a.rc == b.rc and strip(a.out) == strip(b.out)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def setup_samples(name: str, seed: int, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, run one after the other."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def summarize(results: list[OpResult], known: set[str]) -> dict:
    failures = [r for r in results if r.failure]
    unexpected = sorted({r.op.name for r in failures} - known)
    for r in failures:
        if r.op.name in unexpected:
            print(f"UNEXPECTED FAILURE {r.op.name}: {r.failure}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": len(results),
        "failed": len(failures),
        "failing_ops": sorted({r.op.name for r in failures}),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "melsplit" / "cli.py").is_file():
        print(f"error: no melsplit sources under {SRC}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            session = open_session(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": session.setup_s / slowdown(SETUP_CAL_UNITS)}))
            return 0
        if args.trace == 0:
            setups = setup_samples(args.workload, args.seed, SETUP_SAMPLES - 1)
        session = open_session(args.workload, args.seed, workdir)
        stem = f"{args.workload}-s{args.seed}"
        if args.trace == 0:
            setups.append(session.setup_s / slowdown(SETUP_CAL_UNITS))
            cal: list[float] = []
            results = timed_phase(session, args.seconds, cal)
            slow = statistics.median(cal) / CAL_REF_S
            lat = sorted(r.seconds / slow for r in results)
            tail = session.workload.tail_pct
            summary = summarize(results, session.known)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (len(results) / sum(lat), "1/s"),
                "op_p50_ms": (1e3 * percentile(lat, 50.0), "ms"),
                "op_tail_ms": (1e3 * percentile(lat, tail), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            detail = {"setup_samples": setups, "slowdown": slow, "tail_pct": tail,
                      "samples_beyond_tail": sum(x > percentile(lat, tail) for x in lat)}
            (RUN_DIR / f"latencies-{stem}.json").write_text(json.dumps(
                {"slowdown_units": cal, "ops": [[r.op.name, r.seconds] for r in results]}))
        else:
            ops = [op for i in range(session.workload.trace_passes)
                   for op in session.workload.make_pass(i)]
            plain, results, tracer = traced_run(session, ops)
            summary = summarize(plain + results, session.known)
            summary["attempted"] = len(results)
            summary["failed"] = sum(1 for r in results if r.failure)
            mismatched = [t.op.name for p, t in zip(plain, results) if not same_outputs(p, t)]
            if mismatched:
                print(f"traced outputs differ from untraced ones: {mismatched[:5]}", file=sys.stderr)
                summary["correct"] = False
            layers = layer_metrics(tracer.spans)
            layers["trace.overhead_frac"] = (
                sum(r.seconds for r in results) / sum(r.seconds for r in plain) - 1.0
            )
            metrics = {k: (v, _unit(k)) for k, v in layers.items()}
            tracer.write(RUN_DIR / f"trace-{stem}.jsonl")
            detail = {"spans": len(tracer.spans)}
        detail.update(summary)
        (RUN_DIR / f"result-{stem}-trace{args.trace}.json").write_text(
            json.dumps({"metrics": metrics, **detail}, indent=1))
        print(f"{args.workload} seed {args.seed}: correct {summary['correct']}, "
              f"{summary['failed']} of {summary['attempted']} ops failed", file=sys.stderr)
        print(json.dumps({
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
