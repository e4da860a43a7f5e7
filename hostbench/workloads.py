"""The benchmark's three workloads and the operation they repeat.

Each workload is one closed-loop batch client: the benchmark builds the
whole input from the seed, hands it to the simulator through its public
API, and waits. An *operation* is one simulated run — one pond cell,
one tiering run or one sessions run — timed from the start of its setup
to the return of its measured call:

* ``setup_s``: engine/pool build, trace or population generation and
  warm-up, up to the first measured call;
* ``run_s``: host time inside the measured simulation calls.

Why each workload, its size against pool capacity and whether it
starts cold or warm are in this directory's README.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import ScaleUpEngine, StaticPolicy
from repro.core.sessions import ClientSession
from repro.harness.executor import CellResult
from repro.harness.experiments import run_scenario
from repro.harness.gate import check_gate, load_baseline
from repro.harness.scenario import canonical_json, load_sweep
from repro.units import PAGE_SIZE
from repro.workloads import ycsb
from repro.workloads.traces import AccessBlock

from tracing import ROOT_SPAN, Probes

ROOT = Path(__file__).resolve().parent.parent
MIB = 1 << 20


def _digest(payload) -> str:
    """SHA-256 over canonical JSON; callers write floats via ``repr``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _pool_payload(pool) -> dict:
    stats = pool.stats
    payload = {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "writebacks": stats.writebacks,
        "migrations": stats.migrations,
        "demand_time_ns": repr(stats.demand_time_ns),
        "fault_time_ns": repr(stats.fault_time_ns),
        "migration_time_ns": repr(stats.migration_time_ns),
        "per_tier": [tier.snapshot() for tier in stats.per_tier],
        "clock_now": repr(pool.clock.now),
    }
    if pool.backing is not None:
        payload["storage"] = dataclasses.asdict(pool.backing.device.stats)
    return payload


def _engine_counts(engine) -> np.ndarray:
    """Exact counters of one engine, read from public state."""
    pool = engine.pool
    stats = pool.stats
    device = pool.backing.device.stats if pool.backing is not None else None
    return np.array([
        stats.accesses, stats.misses, stats.writebacks, stats.migrations,
        device.reads if device else 0, device.writes if device else 0,
    ], dtype=np.int64)


@dataclass
class Op:
    """One finished operation: host times, digest and exact counts."""

    label: str
    setup_s: float
    run_s: float
    digest: str
    #: Simulated time covered: the clock advance of every engine the
    #: operation built or ran, summed over engines, in ns.
    sim_ns: float
    counts: dict
    #: The digested payload; for pond, the cell result the gate reads.
    result: dict
    #: Host bytes of the tenant tables the operation generated, in MiB.
    table_mib: float

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


def run_op(workload, label: str, tracer=None) -> Op:
    """Run one operation of *workload* under fresh probes.

    With a *tracer*, its wrappers are active for the whole operation
    and the operation is one root span, so layer self times sum to the
    traced wall time.
    """
    gc.collect()
    probes = Probes()
    with probes, (tracer.span(ROOT_SPAN) if tracer else nullcontext()):
        start = time.perf_counter()
        state = workload.setup(label)
        probes.begin_run()
        base = {id(e): (_engine_counts(e), e.pool.clock.now)
                for e in probes.engines}
        payload, extra = workload.run(state)
        end = time.perf_counter()
    zero = (np.zeros(6, np.int64), 0.0)
    delta = sum((_engine_counts(e) - base.get(id(e), zero)[0]
                 for e in probes.engines), zero[0])
    sim_ns = sum(e.pool.clock.now - base.get(id(e), zero)[1]
                 for e in probes.engines)
    accesses, misses, writebacks, migrations, reads, writes = map(
        int, delta)
    counts = {
        "core.buffer.accesses": accesses,
        "core.buffer.misses": misses,
        "core.buffer.hit_rate": (1.0 - misses / accesses
                                 if accesses else 0.0),
        "core.buffer.writebacks": writebacks,
        "core.buffer.migrations": migrations,
        "storage.page_reads": reads,
        "storage.page_writes": writes,
        "core.sessions.quanta": 0,
        "serving.churn.events": sum(c.sim.dispatched for c in probes.churns),
    }
    counts.update(extra)
    return Op(label=label, setup_s=probes.mark - start,
              run_s=end - probes.mark, digest=_digest(payload),
              sim_ns=sim_ns, counts=counts, result=payload,
              table_mib=sum(t.nbytes for t in probes.tables) / MIB)


# -- pond --------------------------------------------------------------------


def _wheres(node) -> list[dict]:
    """Every ``where`` selector inside one baseline invariant."""
    found = []
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "where" and isinstance(value, dict):
                found.append(value)
            else:
                found.extend(_wheres(value))
    return found


class Pond:
    """The a8.pondscale kernel on the cells of ``specs/a8_pondscale.json``.

    Operations cycle through the spec's cells, ordered so that the first
    five cover every committed invariant. The seed replaces the spec's
    scenario seed (the spec uses one seed for all cells). *scale* < 1
    shrinks the population and representative traces for self-tests;
    the committed invariants are stated for the spec's sizes, so they
    are checked only at scale 1.
    """

    name = "pond"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        sweep = load_sweep(ROOT / "specs" / "a8_pondscale.json")
        self.cells = {}
        for cell in sweep.cells():
            scenario = dataclasses.replace(cell.scenario, seed=seed)
            if scale != 1.0:
                scenario = scenario.with_params({
                    "workload.tenants": max(50, int(
                        scenario.workload["tenants"] * scale)),
                    "policy.rep_ops": max(50, int(
                        scenario.policy["rep_ops"] * scale)),
                })
            self.cells[cell.cell_id] = (cell, scenario)

        def first_to_cover(cid):
            # The four one-shard cells, then the 16-shard cell at 0.3
            # that the shard-invariance ratios compare against.
            axes = self.cells[cid][0].assignments
            fraction = axes["workload.remote_fraction"]
            return axes["policy.shards"] != 1, fraction != 0.3, fraction
        self.order = sorted(self.cells, key=first_to_cover)
        self.baseline = (load_baseline(ROOT / "results" / "baselines"
                                       / "a8_pondscale.json")
                         if scale == 1.0 else None)

    def labels(self) -> list[str]:
        return self.order

    def setup(self, label: str):
        return self.cells[label][1]

    def run(self, scenario):
        return run_scenario(scenario), {}

    def gate(self, ops: list[Op]) -> dict[str, list[str]]:
        """Broken committed invariants whose cells these ops cover.

        Returns ``{cell id: [failure message, ...]}`` for every cell
        that takes part in a broken invariant.
        """
        if self.baseline is None:
            return {}
        latest = {op.label: op for op in ops}
        results = [
            CellResult(index=cell.index, cell_id=cid,
                       assignments=cell.assignments,
                       scenario=scenario.to_dict(), status="ok",
                       result=latest[cid].result)
            for cid, (cell, scenario) in self.cells.items()
            if cid in latest]
        broken: dict[str, list[str]] = {}
        for invariant in self.baseline["invariants"]:
            involved = {
                cid for where in _wheres(invariant)
                for cid, (cell, _s) in self.cells.items()
                if all(cell.assignments.get(k) == v
                       for k, v in where.items())}
            if not involved or not involved <= latest.keys():
                continue
            report = check_gate(results, {
                "name": self.baseline["name"], "invariants": [invariant]})
            for failure in report.failures:
                for cid in involved:
                    broken.setdefault(cid, []).append(str(failure))
        return broken


# -- tiering -----------------------------------------------------------------


class Tiering:
    """Larger-than-memory zipfian YCSB-A over DRAM + CXL + NVMe.

    40k pages over 4k DRAM + 16k CXL frames (working set 2x the pool),
    backed by the engine-default NVMe ``PageFile`` with the default
    ``DbCostPolicy``; warmed by one read-only pass over every page, so
    the run starts warm with the last 20k pages resident and clean.
    """

    name = "tiering"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.pages = max(400, int(40_000 * scale))
        self.dram = max(40, int(4_000 * scale))
        self.cxl = max(160, int(16_000 * scale))
        self.ops = max(1_000, int(120_000 * scale))

    def labels(self) -> list[str]:
        return [self.name]

    def setup(self, label: str):
        engine = ScaleUpEngine.build(dram_pages=self.dram,
                                     cxl_pages=self.cxl, name="hb-tiering")
        engine.preload(np.arange(self.pages, dtype=np.int64))
        trace = list(ycsb.ycsb_blocks(ycsb.YCSBConfig(
            mix="A", num_pages=self.pages, num_ops=self.ops,
            seed=self.seed)))
        return engine, trace

    def run(self, state):
        engine, trace = state
        report = engine.run(trace, label="hostbench:tiering")
        payload = {
            "total_ns": repr(report.total_ns),
            "demand_ns": repr(report.demand_ns),
            "think_ns": repr(report.think_ns),
            "ops": report.ops,
            "misses": report.misses,
            "migrations": report.migrations,
            "hit_rate": repr(report.hit_rate),
            "tier_hit_rates": [repr(r) for r in report.tier_hit_rates],
            "pool": _pool_payload(engine.pool),
        }
        return payload, {}


# -- sessions ----------------------------------------------------------------


class Sessions:
    """Scaled-up a7 HTAP interference on one shared CXL expander.

    Four YCSB-B point sessions (think 150 ns) over a 2k-page OLTP range
    and four 64 KiB-readahead scan sessions over an 8k-page OLAP range
    share one expander. The backing-less pool holds the whole footprint
    and is preloaded with it, so the run starts warm and never faults.
    """

    name = "sessions"
    point_sessions = 4
    scan_sessions = 4
    chunk_pages = 16
    morsel_ops = 8

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.oltp = max(100, int(2_000 * scale))
        self.olap = max(400, int(8_000 * scale))
        self.point_ops = max(1_000, int(100_000 * scale))
        self.scan_repeats = max(1, int(8 * scale))

    def labels(self) -> list[str]:
        return [self.name]

    def setup(self, label: str):
        footprint = self.oltp + self.olap
        engine = ScaleUpEngine.build(
            dram_pages=1, cxl_pages=footprint + 16,
            placement=StaticPolicy(lambda _p: 1), with_storage=False,
            name="hb-sessions")
        engine.preload(np.arange(footprint, dtype=np.int64))
        sessions = [
            ClientSession(f"pt-{i}", list(ycsb.ycsb_blocks(ycsb.YCSBConfig(
                mix="B", num_pages=self.oltp, num_ops=self.point_ops,
                think_ns=150.0, seed=1_000 * self.seed + i))))
            for i in range(self.point_sessions)]
        starts = np.tile(np.arange(self.oltp, footprint, self.chunk_pages,
                                   dtype=np.int64), self.scan_repeats)
        n = len(starts)
        scan = AccessBlock.from_columns(
            starts, np.zeros(n, np.bool_), np.ones(n, np.bool_),
            np.full(n, self.chunk_pages * PAGE_SIZE), np.zeros(n))
        sessions += [ClientSession(f"scan-{i}", [scan])
                     for i in range(self.scan_sessions)]
        return engine, sessions

    def run(self, state):
        engine, sessions = state
        report = engine.run_sessions(sessions, label="hostbench:sessions",
                                     morsel_ops=self.morsel_ops)
        payload = {
            "makespan_ns": repr(report.makespan_ns),
            "policy": report.policy,
            "sessions": {
                name: {
                    "ops": s.ops,
                    "demand_ns": repr(s.demand_ns),
                    "think_ns": repr(s.think_ns),
                    "wait_ns": repr(s.wait_ns),
                    "end_ns": repr(s.end_ns),
                    "misses": s.misses,
                    "migrations": s.migrations,
                    "quanta": s.quanta,
                }
                for name, s in sorted(report.sessions.items())
            },
            "pool": _pool_payload(engine.pool),
        }
        quanta = sum(s.quanta for s in report.sessions.values())
        return payload, {"core.sessions.quanta": quanta}


WORKLOADS = {cls.name: cls for cls in (Pond, Tiering, Sessions)}
