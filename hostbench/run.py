"""Host-time benchmark of the simulator: pond, tiering and sessions.

Run from the repository root::

    python3 hostbench/run.py --workload pond --seed 1 --seconds 30 --trace 0

Operations of the chosen workload repeat for ``--seconds``: at least
three, and whole cycles over the workload's inputs (for pond, every
cell of the a8 sweep); a traced run makes at least one
untraced/traced pair. Every operation's simulated outputs are
digested and checked: against ``reference.json`` on its recorded seed,
and for repeats of one input against each other on any seed; pond cells
must also keep the committed a8 invariants they cover. With
``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over operations); with ``--trace 1`` each operation runs once
untraced and once traced, the two digests must match, and the line
reports the per-layer metrics of the traced runs. Names and units of
both sets are listed in ``BENCHMARK.json``; see ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracing import ROOT_SPAN, Tracer  # noqa: E402

MIN_OPS = 3
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".hostbench"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "accesses_per_s": "1/s",
    "slowdown": "host-ns/sim-ns",
    "peak_rss_mib": "MiB",
}

#: Per-layer metric -> unit. ``.self_s`` is span time minus child span
#: time; ``_s`` without ``self`` is inclusive span time; the rest are
#: exact counts read from public state or counted at the span.
PER_LAYER = {
    "core.buffer.access.calls": "count",
    "core.buffer.access.self_s": "s",
    "core.buffer.scalar_share": "ratio",
    "core.buffer.access_block.self_s": "s",
    "core.buffer.access_batch.self_s": "s",
    "core.buffer.access_run.self_s": "s",
    "core.buffer.access_quantum.self_s": "s",
    "core.buffer.preload.self_s": "s",
    "core.buffer.accesses": "count",
    "core.buffer.misses": "count",
    "core.buffer.hit_rate": "ratio",
    "core.buffer.writebacks": "count",
    "core.buffer.migrations": "count",
    "core.engine.run.self_s": "s",
    "core.sessions.run.self_s": "s",
    "core.sessions.quanta": "count",
    "sim.bandwidth.self_s": "s",
    "sim.bandwidth.calls": "count",
    "sim.events.self_s": "s",
    "sim.events.calls": "count",
    "sim.ladder.chain_values.calls": "count",
    "sim.ladder.chain_values.self_s": "s",
    "core.placement.self_s": "s",
    "core.temperature.self_s": "s",
    "core.replacement.self_s": "s",
    "storage.self_s": "s",
    "storage.page_reads": "count",
    "storage.page_writes": "count",
    "workloads.gen_s": "s",
    "workloads.accesses": "count",
    "serving.tenants.generate_s": "s",
    "serving.churn.run_s": "s",
    "serving.churn.events": "count",
    "serving.buckets_s": "s",
    "serving.fold_s": "s",
    "serving.table_mib": "MiB",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end(ops) -> dict:
    """End-to-end metrics over the untraced operations that completed.

    Rates are ratios of medians: pond cells differ in simulated time,
    and a median of per-cell ratios would jump between cells with host
    noise, while the median simulated time of a fixed cell set does not.
    """
    if not ops:
        return dict.fromkeys(END_TO_END)
    run_s = _median(op.run_s for op in ops)
    return {
        "wall_s": _median(op.wall_s for op in ops),
        "setup_s": _median(op.setup_s for op in ops),
        "run_s": run_s,
        "accesses_per_s": _median(
            op.counts["core.buffer.accesses"] for op in ops) / run_s,
        "slowdown": run_s * 1e9 / _median(op.sim_ns for op in ops),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, run_id: int, op, plain) -> dict:
    """Per-layer metrics of one traced operation."""
    summary = tracer.summary(run_id)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    accesses = op.counts["core.buffer.accesses"]
    out = dict(op.counts)
    out["serving.table_mib"] = op.table_mib
    for name, row in summary.items():
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.calls"] = row["calls"]
    out.update({
        "core.buffer.scalar_share": (get("core.buffer.access", "calls")
                                     / accesses if accesses else 0.0),
        "workloads.gen_s": get("workloads.gen", "self_s"),
        "workloads.accesses": tracer.items[run_id, "workloads.gen"],
        "serving.tenants.generate_s": get("serving.tenants.generate",
                                          "total_s"),
        "serving.churn.run_s": get("serving.churn.run", "total_s"),
        "serving.buckets_s": get("serving.buckets", "total_s"),
        "serving.fold_s": get("serving.fold", "self_s"),
        "trace.wall_s": get(ROOT_SPAN, "total_s"),
        "trace.unattributed_s": get(ROOT_SPAN, "self_s"),
        "trace.overhead_s": op.wall_s - plain.wall_s,
    })
    # A layer the operation never entered has no spans: zero.
    return {name: out.get(name, 0) for name in PER_LAYER}


def layer_table(tracer, run_ids) -> list[str]:
    """Self time and calls per span name, summed over *run_ids*."""
    rows: dict[str, list[float]] = {}
    wall = 0.0
    for run_id in run_ids:
        for name, row in tracer.summary(run_id).items():
            acc = rows.setdefault(name, [0, 0.0])
            acc[0] += row["calls"]
            acc[1] += row["self_s"]
            if name == ROOT_SPAN:
                wall += row["total_s"]
    total = sum(self_s for _calls, self_s in rows.values())
    lines = [f"{'layer':32s} {'calls':>10s} {'self_s':>12s} {'share':>7s}"]
    for name, (calls, self_s) in sorted(rows.items(),
                                        key=lambda kv: -kv[1][1]):
        label = "(unattributed)" if name == ROOT_SPAN else name
        lines.append(f"{label:32s} {calls:10d} {self_s:12.6f}"
                     f" {self_s / wall:7.1%}")
    lines.append(f"{'sum of self times':32s} {'':10s} {total:12.6f}")
    lines.append(f"{'traced wall_s':32s} {'':10s} {wall:12.6f}")
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        raise RuntimeError("layer self times do not sum to the traced wall")
    return lines


def _reference(name: str, seed: int, scale: float) -> dict | None:
    """Recorded digests of *name* by label, if recorded for this input."""
    if not REFERENCE.exists():
        return None
    data = json.loads(REFERENCE.read_text())
    if data["seed"] != seed or data["scale"] != scale:
        return None
    return data["digests"].get(name)


def check(workload, ops, reference) -> dict[int, str]:
    """Failure reason by operation index; ``None`` entries raised."""
    failed: dict[int, str] = {}
    first: dict[str, object] = {}
    for index, op in enumerate(ops):
        if op is None:
            failed[index] = "raised"
            continue
        expected = (reference or {}).get(op.label)
        if expected is not None and op.digest != expected:
            failed[index] = f"digest {op.digest[:12]} != reference" \
                            f" {expected[:12]}"
            continue
        seen = first.setdefault(op.label, op)
        if (op.digest, op.counts) != (seen.digest, seen.counts):
            failed[index] = "differs from an earlier repeat of its input"
    if hasattr(workload, "gate"):
        broken = workload.gate([op for i, op in enumerate(ops)
                                if op is not None and i not in failed])
        for index, op in enumerate(ops):
            if op is not None and op.label in broken and index not in failed:
                failed[index] = "; ".join(broken[op.label])
    return failed


def _attempt(workload, label, tracer=None):
    from workloads import run_op
    try:
        return run_op(workload, label, tracer)
    except Exception:  # one failed operation must not stop the run
        traceback.print_exc()
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, reference=None,
                 out=print) -> dict:
    """Run one workload; print its tables; return the result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, scale)
    labels = workload.labels()
    deadline = time.perf_counter() + seconds
    plain_ops, traced_ops = [], []
    tracer = Tracer() if trace else None
    # An untraced run starts whole cycles over the workload's inputs, so
    # every run's medians cover the same inputs (one cycle of the eight
    # pond cells is one full a8 sweep); a traced run needs one pair.
    # Another round starts only while it is expected, from the last
    # one, to end inside the window.
    minimum, rounds = (1, 1) if trace else (MIN_OPS, len(labels))
    i, last = 0, 0.0
    while i < minimum or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        for _ in range(rounds):
            label = labels[i % len(labels)]
            plain_ops.append(_attempt(workload, label))
            if tracer:
                tracer.start_run(i)
                with tracer:
                    traced_ops.append(_attempt(workload, label, tracer))
            i += 1
        last = time.perf_counter() - began

    failed = check(workload, plain_ops, reference)
    for index, (plain, traced) in enumerate(zip(plain_ops, traced_ops)):
        if traced is None:
            failed.setdefault(len(plain_ops) + index, "traced run raised")
        elif plain is not None and (traced.digest, traced.counts) != (
                plain.digest, plain.counts):
            failed.setdefault(len(plain_ops) + index,
                              "traced digest differs from untraced")

    out(f"hostbench {name}: seed={seed} seconds={seconds:g}"
        f" trace={int(trace)} scale={scale:g}"
        f" reference={'recorded' if reference else 'none (repeats agree)'}")
    out(f"{'op':>3s} {'label':48s} {'setup_s':>9s} {'run_s':>9s}"
        f" {'accesses':>10s}  status")
    for index, op in enumerate(plain_ops + traced_ops):
        kind = "traced " if index >= len(plain_ops) else ""
        if op is None:
            out(f"{index:3d} {kind + '?':48s} raised")
            continue
        status = failed.get(index, "ok")
        out(f"{index:3d} {kind + op.label:48s} {op.setup_s:9.4f}"
            f" {op.run_s:9.4f} {op.counts['core.buffer.accesses']:10d}"
            f"  {status}")

    done = [op for op in plain_ops if op is not None]
    if trace:
        pairs = [(i, p, t) for i, (p, t)
                 in enumerate(zip(plain_ops, traced_ops))
                 if p is not None and t is not None]
        rows = [per_layer(tracer, i, t, p) for i, p, t in pairs]
        metrics = {m: _median(row[m] for row in rows) for m in PER_LAYER}
        units = PER_LAYER
        for line in layer_table(tracer, [i for i, _p, _t in pairs]):
            out(line)
        tracer.write(SPANS_DIR / f"spans-{name}-seed{seed}.tsv")
    else:
        metrics = end_to_end(done)
        units = END_TO_END
    for metric, value in metrics.items():
        out(f"  {metric:32s} {value!r:>24s} {units[metric]}")
    attempted = len(plain_ops) + len(traced_ops)
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
        "digests": {op.label: op.digest for op in done},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pond", "tiering", "sessions", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (self-tests only);"
                             " recorded digests apply at 1")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests as the reference"
                             " for its seed")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or not 0 < args.scale <= 1:
        parser.error("--seed and --seconds must be non-negative and"
                     " --scale in (0, 1]")
    try:
        import repro
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"hostbench: cannot import the simulator from"
              f" {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"hostbench: imported {repro.__file__}, not the simulator"
              f" of this checkout under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = (["pond", "tiering", "sessions"] if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        reference = (None if args.record_reference
                     else _reference(name, args.seed, args.scale))
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), args.scale,
                                     reference)
    if args.record_reference:
        if not all(r["correct"] for r in results.values()):
            print("hostbench: not recording digests of a failed run",
                  file=sys.stderr)
            return 1
        data = (json.loads(REFERENCE.read_text()) if REFERENCE.exists()
                else {})
        if data.get("seed") != args.seed or data.get("scale") != args.scale:
            data = {"seed": args.seed, "scale": args.scale, "digests": {}}
        for name, result in results.items():
            data["digests"].setdefault(name, {}).update(result["digests"])
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True)
                             + "\n")
    for result in results.values():
        del result["digests"]
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
