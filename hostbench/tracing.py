"""Host-time spans and zero-cost probes around the simulator's layers.

Two instruments, both installed by patching attributes of the
simulator's modules and classes from outside (``src/`` is never
edited) and both removed again on exit:

* :class:`Probes` — installed in every run, traced or not. It wraps
  only constructors and once-per-run entry points (a handful of calls
  per operation), to find the objects a run builds internally — every
  :class:`ScaleUpEngine`, the pond tenant table and churn simulator —
  and to mark the setup/run boundary inside the a8 kernel. All counts
  are then read from those objects' public state.
* :class:`Tracer` — installed only in a traced run. It wraps the public
  entry points of each layer, opens one span per call, aggregates
  calls, self time and inclusive time per layer name in memory, and
  keeps a bounded log of span records (id, parent, run, name, start,
  end, self time) that is written out once, at the end.

A layer's self time is its span's duration minus the time its child
spans cover; the benchmark's own root span takes what no layer claims,
so the self times of one run sum to its wall time exactly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _patch(owner, attr, make):
    """Replace ``owner.attr`` with ``make(original)``; return an undo."""
    static = inspect.getattr_static(owner, attr)
    had_own = attr in vars(owner)
    if isinstance(static, classmethod):
        setattr(owner, attr, classmethod(make(static.__func__)))
    else:
        setattr(owner, attr, make(static))

    def undo():
        if had_own:
            setattr(owner, attr, static)
        else:
            delattr(owner, attr)
    return undo


class _Patched:
    """Context manager base: ``_install`` returns a list of undos."""

    def __enter__(self):
        self._undo = self._install()
        return self

    def __exit__(self, *exc):
        for undo in reversed(self._undo):
            undo()
        return False

    def _install(self) -> list:
        raise NotImplementedError


class Probes(_Patched):
    """Finds the objects one operation builds; marks the run boundary.

    ``mark`` is the host time at which the measured call began: the
    benchmark sets it before calling into the engine, and for the a8
    kernel the ``ChurnSimulator.run`` probe moves it to the first call
    after population generation.
    """

    def __init__(self) -> None:
        self.engines: list = []
        self.tables: list = []
        self.churns: list = []
        self.mark: float | None = None

    def begin_run(self) -> None:
        self.mark = time.perf_counter()

    def _install(self) -> list:
        from repro.core.engine import ScaleUpEngine
        from repro.serving.churn import ChurnSimulator
        from repro.serving.tenants import TenantTable

        probes = self

        def engine_init(init):
            @functools.wraps(init)
            def wrapper(self, *args, **kwargs):
                init(self, *args, **kwargs)
                probes.engines.append(self)
            return wrapper

        def table_generate(generate):
            @functools.wraps(generate)
            def wrapper(cls, *args, **kwargs):
                table = generate(cls, *args, **kwargs)
                probes.tables.append(table)
                return table
            return wrapper

        def churn_run(run):
            @functools.wraps(run)
            def wrapper(self, *args, **kwargs):
                probes.churns.append(self)
                probes.begin_run()
                return run(self, *args, **kwargs)
            return wrapper

        return [
            _patch(ScaleUpEngine, "__init__", engine_init),
            _patch(TenantTable, "generate", table_generate),
            _patch(ChurnSimulator, "run", churn_run),
        ]


# -- traced spans ------------------------------------------------------------

#: Root span name of one benchmark operation; its self time is the
#: benchmark's own code (scenario building, digests) — "unattributed".
ROOT_SPAN = "bench.op"


def trace_points():
    """``(owner, attribute, span name, kind)`` for every traced call.

    ``kind`` is ``"call"`` for a plain call and ``"gen"`` for a
    function returning a trace generator, whose every ``next()`` is a
    span and whose yielded accesses are counted. Layer groups share one
    span name so their self time and calls aggregate per layer.
    """
    from repro.core import buffer, engine, placement, replacement, \
        sessions, temperature
    from repro.serving import churn, executor, tenants
    import repro.serving as serving
    from repro.sim import bandwidth, events
    from repro.storage import disk, file
    from repro.workloads import cloudmix, ycsb

    pool = buffer.TieredBufferPool
    points = [
        (pool, "access", "core.buffer.access", "call"),
        (pool, "access_batch", "core.buffer.access_batch", "call"),
        (pool, "access_run", "core.buffer.access_run", "call"),
        (pool, "access_quantum", "core.buffer.access_quantum", "call"),
        (pool, "access_block", "core.buffer.access_block", "call"),
        (pool, "preload", "core.buffer.preload", "call"),
        (engine.ScaleUpEngine, "run", "core.engine.run", "call"),
        (sessions.ConcurrentEngine, "run", "core.sessions.run", "call"),
        (buffer, "chain_values", "sim.ladder.chain_values", "call"),
        (tenants.TenantTable, "generate", "serving.tenants.generate",
         "call"),
        (churn.ChurnSimulator, "run", "serving.churn.run", "call"),
        (executor, "measure_buckets", "serving.buckets", "call"),
        (serving, "run_serving", "serving.fold", "call"),
        (ycsb, "ycsb_blocks", "workloads.gen", "gen"),
        (cloudmix.CloudWorkload, "trace_blocks", "workloads.gen", "gen"),
    ]
    groups = [
        ("sim.bandwidth", [bandwidth.WaitQueue],
         ["occupy_run", "reserve_run", "delay_ns", "note_wait"]),
        ("sim.events", [events.Simulator],
         ["at", "after", "schedule", "pop_due", "peek_time_ns"]),
        ("core.placement",
         [placement.StaticPolicy, placement.OSPagingPolicy,
          placement.DbCostPolicy],
         ["choose_admit_tier", "choose_admit_tiers", "on_access",
          "note_accesses", "demote_target", "fast_headroom", "rebalance"]),
        ("core.temperature", [temperature.ExactTracker],
         ["record", "record_batch", "record_block", "heat", "heat_array",
          "hottest", "coldest", "forget"]),
        ("core.replacement", [replacement.LRUPolicy],
         ["record_insert", "record_insert_batch", "record_access",
          "record_access_batch", "remove", "victim", "victim_batch",
          "peek_batch"]),
        ("storage", [file.PageFile],
         ["read_page", "write_page", "ensure", "install", "peek"]),
        ("storage", [disk.StorageDevice],
         ["read_time", "write_time", "read_completion",
          "write_completion"]),
    ]
    for name, owners, attrs in groups:
        for owner in owners:
            for attr in attrs:
                if hasattr(owner, attr):
                    points.append((owner, attr, name, "call"))
    return points


#: Inside ``preload`` (the array-native warm-up) the buffer pool's own
#: entry points are its body: their time is counted as preload time.
_FOLD_INTO, _FOLD_PREFIX = "core.buffer.preload", "core.buffer."

#: Span records kept per traced operation for the span log. Aggregates
#: (calls, self and inclusive time per name) always cover every span;
#: the log keeps a run's first spans so its memory stays bounded.
SPAN_LOG_LIMIT = 20_000


class Tracer(_Patched):
    """Records a span per call into every traced layer entry point."""

    def __init__(self) -> None:
        self.run_id = 0
        self.log: list[tuple] = []
        self.dropped = 0
        #: Accesses yielded by traced generators, per (run id, name).
        self.items: dict[tuple, int] = defaultdict(int)
        self._agg: dict[tuple, list] = {}
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._logged = 0
        self._folding = 0

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        entry = [next(self._ids), parent, name, time.perf_counter(), 0.0]
        stack.append(entry)
        self._depth[name] += 1
        return entry

    def _close(self, entry: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name = entry[2]
        duration = end - entry[3]
        self_s = duration - entry[4]
        if stack:
            stack[-1][4] += duration
        key = (self.run_id, name)
        row = self._agg.get(key)
        if row is None:
            row = self._agg[key] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += self_s
        self._depth[name] -= 1
        if not self._depth[name]:
            row[2] += duration
        if self._logged < SPAN_LOG_LIMIT:
            self._logged += 1
            self.log.append((entry[0], entry[1], self.run_id, name,
                             entry[3], end, self_s))
        else:
            self.dropped += 1

    def start_run(self, run_id: int) -> None:
        """Attribute the following spans to operation *run_id*."""
        self.run_id = run_id
        self._logged = 0

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        entry = self._open(name)
        try:
            yield
        finally:
            self._close(entry)

    # -- wrappers -------------------------------------------------------

    def _call(self, name: str):
        tracer = self
        folds = name == _FOLD_INTO
        foldable = name.startswith(_FOLD_PREFIX) and not folds

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if foldable and tracer._folding:
                    return fn(*args, **kwargs)
                entry = tracer._open(name)
                tracer._folding += folds
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._folding -= folds
                    tracer._close(entry)
            return wrapper
        return make

    def _gen(self, name: str):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def spanned():
                    while True:
                        entry = tracer._open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(entry)
                        tracer.items[tracer.run_id, name] += len(item)
                        yield item
                return spanned()
            return wrapper
        return make

    def _install(self) -> list:
        undo = []
        for owner, attr, name, kind in trace_points():
            make = self._gen(name) if kind == "gen" else self._call(name)
            undo.append(_patch(owner, attr, make))
        return undo

    # -- aggregation ----------------------------------------------------

    def summary(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and inclusive ``total_s``.

        ``total_s`` sums the durations of the outermost spans of a name
        (a nested span of the same name is already inside its parent).
        """
        return {name: {"calls": row[0], "self_s": row[1],
                       "total_s": row[2]}
                for (run, name), row in self._agg.items() if run == run_id}

    def write(self, path: Path) -> None:
        """Write the span log as tab-separated text, once, at the end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(f"# first {SPAN_LOG_LIMIT} spans of each traced"
                      f" operation; {self.dropped} more were aggregated"
                      " but not logged\n")
            out.write("id\tparent\trun\tname\tstart_s\tend_s\tself_s\n")
            for span in self.log:
                out.write("\t".join(map(str, span)) + "\n")
