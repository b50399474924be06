"""The benchmark's workloads: cell plans, set-up, and one timed pass.

All load comes from one process through ``repro.exec.CellPlan`` and
``SerialBackend`` (the path ``repro campaign`` takes) with the ``auto``
engine.  Each workload puts a different layer of ``repro`` under load;
the reasons are recorded beside each definition.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: The Figure 8 comparison set plus the No-HBM baseline and MemPod.
#: MemPod has no batch hooks, so it always takes the scalar loop.
FIG8_DESIGNS = ("Banshee", "AlloyCache", "UnisonCache", "Chameleon",
                "Hybrid2", "Bumblebee", "No-HBM", "MemPod")

#: Every Table-II workload, in the order ``ExperimentConfig`` lists them.
TABLE2 = ("roms", "lbm", "bwaves", "wrf", "xalancbmk", "mcf", "cam4",
          "cactuBSSN", "fotonik3d", "x264", "nab", "namd", "xz", "leela")

#: Bumblebee ``chbm_ratio`` points of the cached re-run grid.
CHBM_RATIOS = (0.0, 0.25, 0.5, 0.75)

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Variables that would inject faults (``REPRO_CHAOS``) or serve a warm
#: user cache instead of the run's fresh one; removed before ``repro``
#: is imported.
STRIPPED_ENV = ("REPRO_CHAOS", "REPRO_TRACE_CACHE", "REPRO_CACHE_DIR")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name (``--workload``).
        why: One line: which layer it loads and why it was chosen.
        workloads: Table-II workloads of the plan.
        requests: Measured requests per cell.
        warmup: Warm-up requests per cell.
        cached: Serve the timed passes from a result cache filled cold
            during set-up (otherwise the result cache is off and every
            pass simulates every cell).
    """

    name: str
    why: str
    workloads: tuple
    requests: int = 120_000
    warmup: int = 60_000
    cached: bool = False

    @property
    def window(self) -> int:
        """Requests one replay consumes (warm-up + measured)."""
        return self.requests + self.warmup

    def designs(self) -> tuple:
        """The design axis of the plan (names and/or specs)."""
        if not self.cached:
            return FIG8_DESIGNS
        from repro.designs import registry
        grid = registry.expand_grid(
            "Bumblebee", {"chbm_ratio": list(CHBM_RATIOS)})
        return tuple(grid) + ("Banshee", "Hybrid2")


WORKLOADS = {load.name: load for load in (
    # Bumblebee's epoch plans are ~91% pure on these (mcf bridges 15,443
    # of 180,000 requests), so time goes to the sim vector recurrence and
    # Hybrid2's pass-1 plan rather than to scalar policy bridges.
    Workload("fig8-friendly",
             "leela+mcf: epoch plans mostly pure, so the sim vector "
             "kernel and policy pass 1 dominate",
             ("leela", "mcf")),
    # Bumblebee bridges 76-100% of requests here, so core and mem do the
    # work; lbm adds write/writeback traffic; xz and lbm are where the
    # auto/scalar over-fetch divergence lives.
    Workload("fig8-pressure",
             "xz+roms+lbm: most requests bridge to the scalar controller, "
             "so core policy and mem devices dominate",
             ("xz", "roms", "lbm")),
    # Nothing replays in the timed phase: result-cache gets, record
    # building, the campaign append+fsync and plane overhead are all of
    # the cost (the path a single content store must not slow).
    Workload("rerun-cached",
             "84 cells re-served from warm caches: result-cache get, "
             "record build, campaign append and plane overhead",
             TABLE2, requests=600, warmup=300, cached=True),
)}


@dataclass
class State:
    """What set-up leaves for the timed passes."""

    load: Workload
    config: object
    designs: tuple
    root: Path
    cache_dir: "str | None"
    cold: "list[dict] | None"


@dataclass
class PassResult:
    """One timed pass of the whole plan.

    ``wall_s`` is elapsed time, of which ``fsync_wait_s`` was spent in
    ``os.fsync``; ``cpu_s`` and the per-cell ``cell_s`` are process CPU
    time (user + system).  ``peak_rss_mb`` is the process's peak
    resident memory (MiB) when the pass ends.
    """

    wall_s: float
    fsync_wait_s: float
    cpu_s: float
    cell_s: dict
    records: list
    persisted: int
    attempted: int
    peak_rss_mb: float


def isolate(root: Path) -> None:
    """Strip :data:`STRIPPED_ENV` and make ``root/src`` importable."""
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(root / "src"))


def make_config(load: Workload, seed: int, root: Path, engine="auto"):
    """The plan's frozen ``ExperimentConfig`` (trace cache under root)."""
    from repro.analysis.experiments import ExperimentConfig
    return ExperimentConfig(requests=load.requests, warmup=load.warmup,
                            seed=seed, workloads=load.workloads,
                            trace_cache_dir=str(root / "traces"),
                            engine=engine)


def execute(config, designs, out: Path, cache_dir: "str | None",
            workloads: tuple = (), probe=None) -> PassResult:
    """Run one plan through the serial backend into a fresh campaign.

    ``workloads`` narrows the plan to those workloads (default: all of
    the config's).  ``probe`` (a :class:`speed.SpeedProbe`) is sampled
    at cell boundaries; the time it takes is left out of the result.

    Host time of a cell is the CPU time of its outermost harness call
    (``cached_comparison`` for a served cell, ``run_design`` for a
    simulated one) plus its ``persist_comparison``.  The stamps are
    instance attributes set after the campaign is opened, so they add
    two clock reads per call and no span machinery.

    Rates and cell times use process CPU time rather than elapsed time:
    on a shared host the wait for ``fsync`` on a served cell swung
    between runs by more than the whole CPU cost of the cell, while CPU
    time stayed within a few percent.  For the same reason the elapsed
    time spent inside ``os.fsync`` is recorded apart (``fsync_wait_s``),
    through a wrapper installed for the pass; the program calls
    ``os.fsync`` through the module, so every call is seen.
    """
    from repro.exec import CellPlan, SerialBackend
    plan = CellPlan(config, designs=designs, workloads=workloads, out=out,
                    cache_dir=cache_dir)
    cells: dict = {}
    depth = [0]

    def timed(fn):
        def wrapper(design, workload, *args, **kwargs):
            depth[0] += 1
            start = time.process_time()
            try:
                return fn(design, workload, *args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    key = (getattr(design, "name", design), workload)
                    cells[key] = (cells.get(key, 0.0)
                                  + time.process_time() - start)
        return wrapper

    def then_probe(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                probe.at_boundary()
        return wrapper

    waited = [0.0]
    real_fsync = os.fsync

    def fsync(fd):
        begin = time.perf_counter()
        try:
            return real_fsync(fd)
        finally:
            waited[0] += time.perf_counter() - begin

    probed = (probe.wall_s, probe.cpu_s) if probe is not None else (0, 0)
    start, cpu_start = time.perf_counter(), time.process_time()
    os.fsync = fsync
    try:
        campaign = plan.open_campaign()
        harness = campaign.harness
        harness.cached_comparison = timed(harness.cached_comparison)
        harness.run_design = timed(harness.run_design)
        campaign.persist_comparison = timed(campaign.persist_comparison)
        if probe is not None:
            campaign.persist_comparison = then_probe(
                campaign.persist_comparison)
        outcome = SerialBackend().execute(plan, campaign)
    finally:
        os.fsync = real_fsync
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    if probe is not None:
        wall -= probe.wall_s - probed[0]
        cpu -= probe.cpu_s - probed[1]
    return PassResult(
        wall_s=wall, fsync_wait_s=waited[0], cpu_s=cpu, cell_s=cells,
        records=read_records(out), persisted=outcome.new_runs,
        attempted=plan.cell_count,
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024)


def read_records(path: Path) -> list:
    """The records a campaign file holds, in file order."""
    if not path.exists():
        return []
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def set_up(load: Workload, seed: int, root: Path) -> State:
    """Fresh caches under ``root``: traces synthesised, and for a cached
    workload every cell computed cold (the result-cache put side)."""
    from repro.analysis.experiments import ExperimentHarness
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    config = make_config(load, seed, root)
    harness = ExperimentHarness(config)
    for workload in load.workloads:
        harness.trace(workload)
    designs = load.designs()
    cache_dir = cold = None
    if load.cached:
        cache_dir = str(root / "results")
        cold = execute(config, designs, root / "cold.jsonl",
                       cache_dir).records
    return State(load, config, designs, root, cache_dir, cold)


def run_pass(state: State, index: int, workloads: tuple = (),
             probe=None) -> PassResult:
    """One timed pass: the whole plan into a fresh campaign file.

    Every pass builds a fresh harness, so nothing is served from a
    previous pass's memory: without a result cache every cell (and each
    workload's No-HBM baseline) is simulated again; with one, every cell
    is read back from the warm store.
    """
    out = state.root / f"pass-{index}.jsonl"
    result = execute(state.config, state.designs, out, state.cache_dir,
                     workloads, probe)
    out.unlink()
    return result
