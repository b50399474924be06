"""Outside-in layer tracing for the benchmark.

Spans are recorded by wrapping public entry points of each ``repro``
layer on their classes; nothing inside the program is edited.  The
wrappers must be installed before the objects that call them are built:
``replay_epoch`` and the scalar loop bind ``controller.access`` (and the
epoch hooks) once when a run starts, and controllers bind their devices
when they are constructed, so wrapping on the class before each pass
builds its harness is early enough.

Every span is attributed to the current *cell* (``design::workload``, set
from the harness entry points) and to the current *phase*
(``setup``/``timed``).  A span's self time is its duration minus the
time its direct child spans cover; the stack is per process and calls
are single-threaded, so children always nest inside their parent.

Hot entry points (controller hooks, device accesses) run up to millions
of times per pass, so they are aggregated per (phase, cell, span name)
as calls/total/self.  Coarse spans (one per cell or pass) are also kept
one by one and written out once at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from pathlib import Path

#: Span names recorded one by one (everything else is aggregated only).
COARSE = frozenset({
    "exec.open", "exec.execute", "campaign.persist", "resultcache.get",
    "resultcache.put", "designs.build", "sim.run", "traces.gen",
    "traces.cache_get", "traces.cache_put",
})


class _Frame:
    """One open span on the stack."""

    __slots__ = ("id", "name", "start", "child", "bridged")

    _ids = itertools.count()

    def __init__(self, name: str, start: float) -> None:
        self.id = next(self._ids)
        self.name = name
        self.start = start
        self.child = 0.0
        self.bridged = 0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Attributes:
        phase: Label of the benchmark phase spans are charged to.
        cell: Label of the cell the program is working on.
        aggregates: ``{(phase, cell): {name: [calls, total_s, self_s]}}``.
        spans: One dict per coarse span, in completion order.
        runs: One dict per ``SimulationDriver.run`` (design, engine,
            requests replayed, bridged ``access`` calls, epochs, result).
        hits: ``{(phase, name): hits}`` for lookups that can miss.
    """

    def __init__(self) -> None:
        self.aggregates: dict[tuple, dict] = {}
        self.spans: list[dict] = []
        self.runs: list[dict] = []
        self.hits: dict[tuple, int] = {}
        self._stack = [_Frame("root", 0.0)]
        self._patches: list[tuple] = []
        self._phase = "setup"
        self._cell = "-"
        self._bucket: dict = {}
        self._rebucket()

    @property
    def phase(self) -> str:
        return self._phase

    @phase.setter
    def phase(self, value: str) -> None:
        self._phase = value
        self._rebucket()

    @property
    def cell(self) -> str:
        return self._cell

    @cell.setter
    def cell(self, value: str) -> None:
        if value != self._cell:
            self._cell = value
            self._rebucket()

    def _rebucket(self) -> None:
        self._bucket = self.aggregates.setdefault(
            (self._phase, self._cell), {})

    # ---- recording -------------------------------------------------------

    def _close(self, frame: _Frame, end: float) -> float:
        """Pop ``frame``; charge it to its parent and the aggregates."""
        duration = end - frame.start
        stack = self._stack
        stack.pop()
        stack[-1].child += duration
        own = duration - frame.child
        entry = self._bucket.get(frame.name)
        if entry is None:
            self._bucket[frame.name] = [1, duration, own]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        if frame.name in COARSE:
            parent = stack[-1]
            self.spans.append({
                "id": frame.id, "parent": parent.id,
                "parent_name": parent.name,
                "phase": self._phase, "cell": self._cell,
                "name": frame.name, "start": frame.start, "end": end,
                "self_s": own})
        return duration

    def span(self, name: str, fn):
        """``fn`` wrapped so each call records one span called ``name``."""
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name, clock())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock())
        return wrapper

    def _bridge(self, name: str, fn):
        """A controller ``access`` span that also counts bridges.

        A call whose parent span is ``sim.run`` came straight from the
        replay engine: in the epoch engine that is a scalar bridge for
        a request pass 1 could not plan.
        """
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack[-1].bridged += 1
            frame = _Frame(name, clock())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock())
        return wrapper

    def _lookup(self, name: str, fn):
        """A span around a lookup that returns None on a miss."""
        traced = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            found = traced(*args, **kwargs)
            if found is not None:
                key = (self.phase, name)
                self.hits[key] = self.hits.get(key, 0) + 1
            return found
        return wrapper

    def _sim_run(self, fn):
        """``SimulationDriver.run``: a span plus one ``runs`` entry."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(driver, controller, trace, *args, **kwargs):
            frame = _Frame("sim.run", clock())
            stack.append(frame)
            try:
                result = fn(driver, controller, trace, *args, **kwargs)
            finally:
                duration = self._close(frame, clock())
            self.runs.append({
                "phase": self.phase, "cell": self.cell,
                "design": controller.name,
                "workload": result.workload,
                "engine": driver.last_engine,
                "epoch_engine": callable(
                    getattr(controller, "batch_epoch_plan", None)),
                "requests": len(trace),
                "bridged": frame.bridged,
                "vector_epochs": driver.last_vector_epochs,
                "scalar_epochs": driver.last_scalar_epochs,
                "fallback": driver.last_fallback_reason,
                "run_s": duration, "self_s": duration - frame.child,
                "result": result.to_record()})
            return result
        return wrapper

    def _cell_context(self, fn):
        """Harness entry points: set the current cell, record no span."""
        @functools.wraps(fn)
        def wrapper(harness, design, workload, *args, **kwargs):
            self.cell = f"{getattr(design, 'name', design)}::{workload}"
            return fn(harness, design, workload, *args, **kwargs)
        return wrapper

    # ---- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrap) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        """Wrap every traced entry point (idempotent)."""
        if self._patches:
            return
        from repro.analysis.campaign import Campaign
        from repro.analysis.experiments import ExperimentHarness
        from repro.analysis.resultcache import ResultCache
        from repro.baselines.base import HybridMemoryController
        from repro.core.hmmc import BumblebeeController
        from repro.designs.registry import DesignRegistry
        from repro.exec.backends import ExecutionBackend, SerialBackend
        from repro.exec.plan import CellPlan
        from repro.mem.device import MemoryDevice
        from repro.sim.driver import SimulationDriver
        from repro.traces.synthetic import SyntheticTraceGenerator
        from repro.traces.tracecache import TraceCache

        span = self.span
        self._patch(CellPlan, "open_campaign",
                    lambda fn: span("exec.open", fn))
        # SerialBackend inherits execute(); shadow it on the subclass.
        original = ExecutionBackend.execute
        self._patches.append((SerialBackend, "execute", None))
        SerialBackend.execute = span("exec.execute", original)
        self._patch(Campaign, "persist_comparison",
                    lambda fn: self._cell_context(
                        span("campaign.persist", fn)))
        self._patch(ExperimentHarness, "cached_comparison",
                    self._cell_context)
        self._patch(ExperimentHarness, "run_design", self._cell_context)
        self._patch(ResultCache, "get",
                    lambda fn: self._lookup("resultcache.get", fn))
        self._patch(ResultCache, "put",
                    lambda fn: span("resultcache.put", fn))
        self._patch(TraceCache, "get",
                    lambda fn: self._lookup("traces.cache_get", fn))
        self._patch(TraceCache, "put",
                    lambda fn: span("traces.cache_put", fn))
        self._patch(SyntheticTraceGenerator, "generate_packed",
                    lambda fn: span("traces.gen", fn))
        self._patch(DesignRegistry, "build",
                    lambda fn: span("designs.build", fn))
        self._patch(SimulationDriver, "run", self._sim_run)
        self._patch(MemoryDevice, "access", self._device("access"))
        self._patch(MemoryDevice, "bulk_transfer", self._device("bulk"))
        for cls in _controller_classes(HybridMemoryController):
            layer = ("core" if issubclass(cls, BumblebeeController)
                     else "baselines")
            if "batch_epoch_plan" in cls.__dict__:
                self._patch(cls, "batch_epoch_plan",
                            lambda fn, n=f"{layer}.plan": span(n, fn))
            if "commit_epoch" in cls.__dict__:
                self._patch(cls, "commit_epoch",
                            lambda fn, n=f"{layer}.commit": span(n, fn))
            if "access" in cls.__dict__:
                self._patch(cls, "access",
                            lambda fn, n=f"{layer}.access":
                            self._bridge(n, fn))

    def _device(self, op: str):
        """Wrap a ``MemoryDevice`` method as ``mem.<hbm|dram>.<op>``."""
        def wrap(fn):
            hbm = self.span(f"mem.hbm.{op}", fn)
            dram = self.span(f"mem.dram.{op}", fn)
            routes: dict = {}

            @functools.wraps(fn)
            def wrapper(device, *args, **kwargs):
                route = routes.get(device)
                if route is None:
                    route = routes[device] = (
                        hbm if "HBM" in device.name else dram)
                return route(device, *args, **kwargs)
            return wrapper
        return wrap

    def uninstall(self) -> None:
        """Restore every wrapped entry point (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ---- views -----------------------------------------------------------

    def totals(self, phase: str) -> dict[str, list]:
        """``{name: [calls, total_s, self_s]}`` summed over cells."""
        out: dict[str, list] = {}
        for (span_phase, _cell), names in self.aggregates.items():
            if span_phase != phase:
                continue
            for name, (calls, total, own) in names.items():
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return out

    def dump(self, path: Path, extra: dict) -> None:
        """Write every coarse span, run and aggregate as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"kind": "meta", **extra}) + "\n")
            for span in self.spans:
                handle.write(json.dumps({"kind": "span", **span}) + "\n")
            for run in self.runs:
                row = {k: v for k, v in run.items() if k != "result"}
                handle.write(json.dumps({"kind": "run", **row}) + "\n")
            for (phase, cell), names in self.aggregates.items():
                for name, (calls, total, own) in names.items():
                    handle.write(json.dumps({
                        "kind": "aggregate", "phase": phase, "cell": cell,
                        "name": name, "calls": calls, "total_s": total,
                        "self_s": own}) + "\n")


def _controller_classes(base) -> list:
    """Every concrete controller class below ``base``, parents first."""
    out, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop(0)
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out
