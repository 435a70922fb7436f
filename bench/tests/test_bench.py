"""Tests of the benchmark itself: workloads, checkers and tracer.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
#: counters later changes may claim on; they must repeat exactly
EXACT_COUNTERS = ("quadrature.evaluations", "dynamics.splitting.evaluations",
                  "dynamics.ode.steps", "melnikov.classify.stages")


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    return {name: run.open_session(name, SEED, tmp_path_factory.mktemp(name))
            for name in WORKLOADS}


def tiny(session) -> list:
    """A few ops of pass 0: one per kind, or one config group for classify."""
    ops = session.workload.make_pass(0)
    if session.workload.name == "classify":
        return [op for op in ops if op.name.startswith(("config-build/polygon-5",
                                                        "classify/polygon-5/", "catalog/"))]
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    return list(first.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_at_tiny_size(sessions, name):
    session = sessions[name]
    results = [session.run(op) for op in tiny(session)]
    summary = run.summarize(results, session.known)
    assert summary["correct"], [(r.op.name, r.failure) for r in results if r.failure]
    assert summary["attempted"] == len(results) > 0


def _corrupt_csv(out: str) -> str:
    lines = out.splitlines()
    row = lines[-1].split(",")
    row[1] = repr(2.0 * float(row[1]) + 1.0)
    return "\n".join(lines[:-1] + [",".join(row)]) + "\n"


def _corrupt(op, out: str):
    """The op and output as a checker would see them after a wrong answer."""
    if op.kind == "classify":
        verdict = json.loads(out)
        verdict["witness"]["k"] += 1
        return op, json.dumps(verdict)
    if op.kind == "catalog":
        return op, out.replace(",ok", ",MISS", 1)
    if op.kind == "config-build":
        path = Path(op.params["output"])
        data = json.loads(path.read_text())
        data["bodies"][0]["position"][0] += 0.01
        bad = path.with_suffix(".corrupt.json")
        bad.write_text(json.dumps(data))
        return replace(op, params={**op.params, "output": str(bad)}), out
    return op, _corrupt_csv(out)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_outputs_fail_their_check(sessions, name):
    session = sessions[name]
    for op in tiny(session):
        res = session.run(op)
        if res.failure:
            continue  # a known failure; its checker is exercised by the others
        bad_op, bad_out = _corrupt(op, res.out)
        reason = run.check(bad_op, res.rc, bad_out, session.ctx)
        assert reason is not None, op.name
        assert run.check(op, 1, res.out, session.ctx) is not None  # non-zero exit


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_match_and_counters_repeat(sessions, tmp_path, name):
    ops = tiny(sessions[name])
    plain, traced, tracer = run.traced_run(sessions[name], ops)
    assert all(run.same_outputs(p, t) for p, t in zip(plain, traced))
    assert len(plain) == len(traced) == len(ops)
    first = layer_metrics(tracer.spans)
    # a second session with the same seed writes its own files from scratch
    again = run.open_session(name, SEED, tmp_path)
    ops2 = tiny(again)
    assert [op.name for op in ops2] == [op.name for op in ops]
    _, _, tracer2 = run.traced_run(again, ops2)
    second = layer_metrics(tracer2.spans)
    assert {k: first[k] for k in EXACT_COUNTERS} == {k: second[k] for k in EXACT_COUNTERS}
    assert first["cli.calls"] == len(ops)


def test_counters_are_exercised(sessions):
    counts = {}
    for name in ("fsweep", "flow-check", "classify"):
        _, _, tracer = run.traced_run(sessions[name], tiny(sessions[name]))
        counts.update({k: v for k, v in layer_metrics(tracer.spans).items() if v})
    assert all(counts.get(k, 0) > 0 for k in EXACT_COUNTERS), counts


def test_criterion_7_misses_are_the_listed_failures(sessions):
    session = sessions["fsweep"]
    ops = [op for op in session.workload.make_pass(0) if op.kind == "asymp-ik"
           and op.params["k"] in (2, 3, 4) and op.params["delta"] >= 30.0]
    failing = {r.op.name for r in map(session.run, ops) if r.failure}
    assert failing == {f"asymp-ik/k{k}/d{d}" for k in (2, 3, 4) for d in (100, 300)}
    assert failing <= session.known


def test_negative_arguments_are_not_read_as_options(tmp_path):
    """Every negative number an op passes has a form argparse reads as a number."""
    negative_number = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's own pattern
    for name in ("fsweep", "melnikov-grid", "flow-check"):
        for seed in range(200):
            workload = WORKLOADS[name](seed, tmp_path)
            for index in range(3):
                for op in workload.make_pass(index):
                    for arg in op.argv:
                        if arg.startswith("-") and arg[1:2].isdigit():
                            assert negative_number.match(arg), (op.name, arg)


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fsweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_command_prints_the_metrics_named_in_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fsweep", "--seed", "3",
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()}
