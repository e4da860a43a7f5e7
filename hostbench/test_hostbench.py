"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q hostbench/test_hostbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import ROOT_SPAN, Tracer  # noqa: E402
from workloads import Pond, WORKLOADS, run_op  # noqa: E402

SCALE = 0.02


def _quiet(*_args):
    pass


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_its_digest_repeats(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=False,
                              scale=SCALE, out=_quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    workload = WORKLOADS[name](3, SCALE)
    label = workload.labels()[0]
    assert run_op(workload, label).digest == run_op(workload, label).digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_digest_equals_untraced(name):
    workload = WORKLOADS[name](5, SCALE)
    label = workload.labels()[0]
    plain = run_op(workload, label)
    tracer = Tracer()
    with tracer:
        traced = run_op(workload, label, tracer)
    assert (traced.digest, traced.counts) == (plain.digest, plain.counts)
    summary = tracer.summary(0)
    total = sum(row["self_s"] for row in summary.values())
    assert total == pytest.approx(summary[ROOT_SPAN]["total_s"])
    result = run.run_workload(name, seed=5, seconds=0, trace=True,
                              scale=SCALE, out=_quiet)
    assert result["correct"] and result["failed"] == 0


def test_tracer_is_removed_after_a_traced_run():
    from repro.core.buffer import TieredBufferPool
    before = dict(vars(TieredBufferPool))
    with Tracer():
        assert vars(TieredBufferPool)["access"] is not before["access"]
    assert dict(vars(TieredBufferPool)) == before


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_those_of_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiering",
         "--seed", "2", "--seconds", "0", "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert {name: m["unit"] for name, m in last["metrics"].items()} == units


def test_perturbed_reference_counts_failed_operations():
    workload = WORKLOADS["sessions"](4, SCALE)
    label = workload.labels()[0]
    good = run_op(workload, label).digest
    bad = "0" * len(good)
    result = run.run_workload("sessions", seed=4, seconds=0, trace=False,
                              scale=SCALE, reference={label: bad},
                              out=_quiet)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_OPS


def test_broken_invariant_fails_the_cells_it_covers():
    pond = Pond(6, SCALE)
    ops = [run_op(pond, label) for label in pond.labels()[:2]]
    pond.baseline = {"name": "perturbed", "invariants": [{
        "kind": "metric_bound",
        "where": dict(pond.cells[ops[0].label][0].assignments),
        "metric": "churn.admitted", "min": 10 ** 9}]}
    failed = run.check(pond, ops, None)
    assert list(failed) == [0]
    assert "metric_bound" in failed[0]


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pond",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
