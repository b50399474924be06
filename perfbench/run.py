"""Locality-class replay benchmark for the ``repro`` simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8-friendly --seed 1234 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same timed phase untraced and then traced, and
reports per-layer metrics (plus the auto-vs-scalar engine cross-check on
the fig8 workloads).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it print every metric by name and unit with its base counts and the
run's provenance.  Artifacts (result summary, spans) are written under
``.perfbench/`` in the repository root.

A timed phase runs whole passes of the workload's cell plan until
``--seconds`` would be exceeded by one more pass (always at least one
pass); every metric is computed over complete passes only.  ``wall_s``
is the elapsed time of one pass; set-up, rates and cell times are
process CPU time.
Every host time is scaled to a reference host speed measured by a probe
in the same run (see ``speed.py``); unscaled values are printed beside
them.

Every pass is checked: each persisted record, minus ``timing``, must
equal the record pinned for ``--seed`` in ``perfbench/references`` (see
``reference.py``); on ``rerun-cached`` every served record must also
equal the one computed cold in set-up.  For a seed with no pinned
reference, passes are checked against each other (and against the cold
fill) only, and the output says so.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

#: Speed probes taken before set-up and after the timed phase (more are
#: taken at cell boundaries in between).
PROBES_AROUND = 3

#: Elapsed-time origin of the run (for the cross-check deadline).
START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import (FIG8_DESIGNS, SETUP_REPEATS,  # noqa: E402
                       WORKLOADS, isolate, make_config, run_pass, set_up)

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "req_per_s": "1/s",
    "cells_per_s": "1/s", "cell_ms_p50": "ms", "cell_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}

#: Seconds after start by which the engine cross-check must have begun
#: its last cell; every run has to end within 180 s.
CROSS_CHECK_DEADLINE_S = 140

#: Designs replayed by the two-pass epoch engine (they can bridge); the
#: others are No-HBM (vectorised, never bridges) and MemPod (scalar).
EPOCH_DESIGNS = tuple(d for d in FIG8_DESIGNS if d not in ("No-HBM",
                                                           "MemPod"))


def per_layer_units() -> dict:
    """Per-layer metrics (traced run): name -> unit, in report order.

    Time metrics are per timed pass (``_s``: inclusive span time unless
    named ``self``); counts are per pass; ``traces.gen*``,
    ``traces.cache_put_s``, ``traces.cache_misses`` and
    ``resultcache.put*`` are per set-up, where that work happens.
    """
    units = {}
    for design in FIG8_DESIGNS:
        units[f"sim.run_s.{design}"] = "s"
        units[f"sim.req_per_s.{design}"] = "1/s"
    units.update({"sim.vector_epochs": "count", "sim.scalar_epochs": "count",
                  "sim.fallback_cells": "count", "sim.kernel_self_s": "s"})
    for design in EPOCH_DESIGNS:
        units[f"sim.bridged_ratio.{design}"] = "ratio"
        units[f"sim.bridged_calls.{design}"] = "count"
        units[f"sim.epoch_requests.{design}"] = "count"
    units.update({"sim.engine_divergent_cells": "count",
                  "sim.engine_checked_cells": "count"})
    for layer in ("core", "baselines"):
        for hook in ("plan", "commit", "access"):
            units[f"{layer}.{hook}_s"] = "s"
            units[f"{layer}.{hook}_calls"] = "count"
    for device in ("hbm", "dram"):
        for op in ("access", "bulk"):
            units[f"mem.{device}.{op}_calls"] = "count"
            units[f"mem.{device}.{op}_s"] = "s"
    units.update({
        "traces.gen_s": "s", "traces.gen_calls": "count",
        "traces.cache_get_s": "s", "traces.cache_put_s": "s",
        "traces.cache_hits": "count", "traces.cache_misses": "count",
        "designs.build_s": "s", "designs.builds": "count",
        "resultcache.get_s": "s", "resultcache.gets": "count",
        "resultcache.hit_ratio": "ratio", "resultcache.put_s": "s",
        "resultcache.puts": "count", "campaign.persist_s": "s",
        "campaign.persists": "count", "exec.open_s": "s",
        "exec.execute_s": "s", "exec.self_s": "s",
        "trace.overhead_ratio": "ratio", "trace.traced_cells_s": "s",
        "trace.untraced_cells_s": "s",
    })
    return units


class Checks:
    """Output check over every plan execution of a run.

    Each execution's records are compared with the pinned reference for
    the seed (when one exists), with the cold fill (on a cached
    workload), and with every record of the same cell seen earlier in
    the run; a cell that is missing or differs counts as failed.
    """

    def __init__(self, pinned: "dict | None") -> None:
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.bad_cells: list = []
        self.seen: dict = {}

    def add(self, records: list, attempted: int,
            expected: "dict | None" = None, workloads: tuple = ()) -> None:
        """Check one execution's records; ``workloads`` narrows the
        expectations to a sub-plan's cells."""
        actual = reference.digests(records)
        bad = {cell for cell, value in actual.items()
               if self.seen.setdefault(cell, value) != value}
        for target in (expected, self.pinned):
            if target is None:
                continue
            if workloads:
                target = {cell: value for cell, value in target.items()
                          if cell.rsplit("::", 1)[1] in workloads}
            bad.update(reference.mismatches(records, target))
        missing = max(0, attempted - len(actual))
        self.attempted += attempted
        self.failed += min(attempted, max(len(bad), missing))
        self.bad_cells.extend(sorted(bad))

    @property
    def correct(self) -> bool:
        return self.failed == 0


def timed_phase(state, seconds: float, checks: Checks,
                workloads: tuple = (), probe=None) -> list:
    """Whole passes until one more would overrun ``seconds``."""
    passes, spent = [], 0.0
    expected = (reference.digests(state.cold)
                if state.cold is not None else None)
    while True:
        result = run_pass(state, len(passes), workloads, probe)
        checks.add(result.records, result.attempted, expected, workloads)
        result.records = None
        passes.append(result)
        spent += result.wall_s
        if spent + result.wall_s > seconds:
            return passes


def replays_per_pass(state, result) -> int:
    """Replays one pass performs (or, when served, represents)."""
    if state.cache_dir is not None:
        return result.persisted
    return len(state.designs) * len(state.load.workloads) + \
        len(state.load.workloads)


def harrell_davis(samples, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``samples``.

    A weighted mean of every order statistic, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution over rank intervals.  A fig8
    pass has only 16 or 24 cells, and their times cluster by design, so
    any single order statistic jumps whenever two cells swap ranks; this
    estimate moves smoothly instead.  The Beta density is integrated by
    the midpoint rule, 32 points per rank interval.
    """
    import numpy as np
    ordered = np.sort(np.asarray(samples, dtype=float))
    n, steps = len(ordered), 32
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def end_to_end(state, passes: list, setup_s: float,
               scale: float = 1.0) -> dict:
    """End-to-end metrics, host times multiplied by ``scale``.

    ``wall_s`` is the elapsed time of one pass outside ``os.fsync`` (the
    device's flush latency on a shared host swung by more than the
    program's own time; the calls' CPU cost stays in the rates and cell
    times), and the rates are per CPU second of the process (see
    ``workloads.execute``), each the median over passes; cell times pool
    every pass's cells.  Memory is the peak at the end of the first
    pass: a fixed amount of work, whereas how many passes fit in a run
    depends on speed.
    """
    cell_ms = [s * 1e3 * scale for p in passes for s in p.cell_s.values()]
    return {
        "setup_s": setup_s * scale,
        "wall_s": statistics.median(p.wall_s - p.fsync_wait_s
                                    for p in passes) * scale,
        "req_per_s": statistics.median(
            replays_per_pass(state, p) * state.load.window / p.cpu_s
            for p in passes) / scale,
        "cells_per_s": statistics.median(p.persisted / p.cpu_s
                                         for p in passes) / scale,
        "cell_ms_p50": harrell_davis(cell_ms, 0.5),
        "cell_ms_p90": harrell_davis(cell_ms, 0.9),
        "peak_rss_mb": passes[0].peak_rss_mb,
    }


def flatten(value, prefix: str = "") -> dict:
    """Nested dicts as ``{dotted.path: leaf}``."""
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for key, inner in value.items():
        out.update(flatten(inner, f"{prefix}.{key}" if prefix else key))
    return out


def engine_cross_check(state, runs: list, deadline: float) -> tuple:
    """Replay every fig8 cell the auto engine vectorised once more with
    ``engine="scalar"`` and diff the two ``SimResult`` records.

    Cells not started by ``deadline`` (a ``perf_counter`` instant) are
    left unchecked and counted, so a slow host still finishes the run in
    time.  Returns ``(checked, divergent, unchecked)`` with
    ``divergent`` a list of ``(design, workload, field)``.
    """
    from repro.analysis.experiments import ExperimentHarness
    from repro.designs import registry
    harness = ExperimentHarness(make_config(
        state.load, state.config.seed, state.root, engine="scalar"))
    auto = {(run["design"], run["workload"]): run for run in runs}
    cells = [(design, auto[(getattr(design, "name", design), workload)])
             for design in state.designs
             for workload in state.load.workloads]
    # Cells whose epoch replay bridged most go first: that is where the
    # two engines' code paths differ most.
    cells = sorted((cell for cell in cells if cell[1]["engine"] == "vector"),
                   key=lambda cell: -cell[1]["bridged"])
    checked, divergent, unchecked = 0, [], 0
    for design, run in cells:
        if time.perf_counter() > deadline:
            unchecked += 1
            continue
        workload = run["workload"]
        controller = registry.build(
            design, harness.hbm_config, harness.dram_config,
            sram_bytes=harness.config.scale.sram_bytes)
        scalar = harness.driver.run(
            controller, harness.trace(workload), workload=workload,
            warmup=harness.config.warmup, engine="scalar")
        want, got = flatten(run["result"]), flatten(scalar.to_record())
        checked += 1
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                divergent.append((run["design"], workload, field))
    return checked, divergent, unchecked


def per_layer(tracer, traced: list, cross: tuple, setups: int) -> dict:
    """Per-layer metrics from the traced timed phase (see units)."""
    npass = len(traced)
    timed = tracer.totals("timed")
    setup = tracer.totals("setup")

    def span(name, index, totals=timed, per=npass):
        return totals.get(name, (0, 0.0, 0.0))[index] / per

    out = {}
    runs = [run for run in tracer.runs if run["phase"] == "timed"]
    for design in FIG8_DESIGNS:
        mine = [run for run in runs if run["design"] == design]
        run_s = sum(run["run_s"] for run in mine)
        out[f"sim.run_s.{design}"] = run_s / npass
        out[f"sim.req_per_s.{design}"] = (
            sum(run["requests"] for run in mine) / run_s if run_s else 0.0)
    out["sim.vector_epochs"] = sum(r["vector_epochs"] for r in runs) / npass
    out["sim.scalar_epochs"] = sum(r["scalar_epochs"] for r in runs) / npass
    out["sim.fallback_cells"] = sum(
        r["engine"] != "vector" for r in runs) / npass
    out["sim.kernel_self_s"] = sum(
        r["self_s"] for r in runs if r["engine"] == "vector") / npass
    for design in EPOCH_DESIGNS:
        mine = [run for run in runs if run["design"] == design
                and run["engine"] == "vector" and run["epoch_engine"]]
        calls = sum(run["bridged"] for run in mine)
        requests = sum(run["requests"] for run in mine)
        out[f"sim.bridged_ratio.{design}"] = (calls / requests
                                              if requests else 0.0)
        out[f"sim.bridged_calls.{design}"] = calls / npass
        out[f"sim.epoch_requests.{design}"] = requests / npass
    checked, divergent, _ = cross
    out["sim.engine_divergent_cells"] = len({d[:2] for d in divergent})
    out["sim.engine_checked_cells"] = checked
    for layer in ("core", "baselines"):
        for hook in ("plan", "commit", "access"):
            out[f"{layer}.{hook}_s"] = span(f"{layer}.{hook}", 1)
            out[f"{layer}.{hook}_calls"] = span(f"{layer}.{hook}", 0)
    for device in ("hbm", "dram"):
        for op in ("access", "bulk"):
            out[f"mem.{device}.{op}_calls"] = span(f"mem.{device}.{op}", 0)
            out[f"mem.{device}.{op}_s"] = span(f"mem.{device}.{op}", 1)
    gets = span("resultcache.get", 0)
    hits = tracer.hits.get(("timed", "resultcache.get"), 0) / npass
    out.update({
        "traces.gen_s": span("traces.gen", 1, setup, setups),
        "traces.gen_calls": span("traces.gen", 0, setup, setups),
        "traces.cache_get_s": span("traces.cache_get", 1),
        "traces.cache_put_s": span("traces.cache_put", 1, setup,
                                   setups),
        "traces.cache_hits": tracer.hits.get(
            ("timed", "traces.cache_get"), 0) / npass,
        "traces.cache_misses": (
            span("traces.cache_get", 0, setup, setups)
            - tracer.hits.get(("setup", "traces.cache_get"), 0)
            / setups),
        "designs.build_s": span("designs.build", 1),
        "designs.builds": span("designs.build", 0),
        "resultcache.get_s": span("resultcache.get", 1),
        "resultcache.gets": gets,
        "resultcache.hit_ratio": hits / gets if gets else 0.0,
        "resultcache.put_s": span("resultcache.put", 1, setup,
                                  setups),
        "resultcache.puts": span("resultcache.put", 0, setup,
                                 setups),
        "campaign.persist_s": span("campaign.persist", 1),
        "campaign.persists": span("campaign.persist", 0),
        "exec.open_s": span("exec.open", 1),
        "exec.execute_s": span("exec.execute", 1),
        "exec.self_s": span("exec.execute", 2),
    })
    return out


def provenance(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": reference.commit(ROOT),
        "source_sha256": reference.source_digest(ROOT),
    }


def set_up_checked(load, args, work: Path, checks: Checks,
                   repeats: int) -> tuple:
    """Set up ``repeats`` times (keeping the last); check cold fills.

    Returns ``(state, seconds of each set-up)``.
    """
    times, state = [], None
    for index in range(repeats):
        if state is not None:
            shutil.rmtree(state.root)
        start = time.process_time()
        state = set_up(load, args.seed, work / f"setup-{index}")
        times.append(time.process_time() - start)
        if state.cold is not None:
            checks.add(state.cold, len(state.cold))
    return state, times


def bench(args, work: Path) -> dict:
    """Set up, run the timed phase, check, and return the summary."""
    load = WORKLOADS[args.workload]
    import repro.exec  # noqa: F401  (charged to setup_s)
    import_s = time.process_time()      # CPU time since the process began
    pinned = reference.load(args.seed)
    checks = Checks(pinned.get(load.name) if pinned else None)
    # A workload that serves records is probed for serving speed too.
    work.mkdir(parents=True, exist_ok=True)
    probe = SpeedProbe(work / "serve-probe.jsonl" if load.cached else None)
    for _ in range(PROBES_AROUND):
        probe.sample()
    state, setup_times = set_up_checked(load, args, work, checks,
                                        SETUP_REPEATS)
    setup_s = import_s + statistics.median(setup_times)
    passes = timed_phase(state, args.seconds, checks, probe=probe)
    for _ in range(PROBES_AROUND):
        probe.sample()
    return {"provenance": provenance(args),
            "pinned_reference": checks.pinned is not None,
            "passes": len(passes),
            "cell_samples": sum(len(p.cell_s) for p in passes),
            "metrics": end_to_end(state, passes, setup_s, probe.scale),
            "unscaled": end_to_end(state, passes, setup_s),
            "probe_s": probe.samples,
            "serve_probe_s": probe.serve_samples, "scale": probe.scale,
            "units": END_TO_END, "checks": checks}


def bench_traced(args, work: Path) -> dict:
    """The traced run: per-layer metrics and the engine cross-check.

    Set-up runs once, traced.  The tracing overhead compares the host
    time of the plan's first workload's cells traced and untraced (an
    untraced pass over that sub-plan instead of the whole plan keeps the
    run, cross-check included, well inside its time limit).
    """
    from tracer import Tracer
    load = WORKLOADS[args.workload]
    tracer = Tracer()
    tracer.install()
    pinned = reference.load(args.seed)
    checks = Checks(pinned.get(load.name) if pinned else None)
    try:
        state, _ = set_up_checked(load, args, work, checks, 1)
    finally:
        tracer.uninstall()
    subset = load.workloads[:1]
    untraced = timed_phase(state, args.seconds, checks, subset)
    tracer.phase = "timed"
    tracer.install()
    try:
        traced = timed_phase(state, args.seconds, checks)
    finally:
        tracer.uninstall()
    cross = (0, [], 0)
    if state.cache_dir is None:
        cross = engine_cross_check(
            state, [r for r in tracer.runs if r["phase"] == "timed"],
            START + CROSS_CHECK_DEADLINE_S)
    metrics = per_layer(tracer, traced, cross, setups=1)
    metrics.update(overhead(traced, untraced, subset))
    summary = {"provenance": provenance(args),
               "pinned_reference": checks.pinned is not None,
               "passes": len(traced), "metrics": metrics,
               "units": per_layer_units(), "checks": checks,
               "engine_divergent": [list(d) for d in cross[1]],
               "engine_unchecked_cells": cross[2],
               "traced_passes_s": sum(p.wall_s for p in traced)}
    tracer.dump(ROOT / ".perfbench" / "spans" /
                f"{args.workload}-seed{args.seed}.jsonl",
                summary["provenance"])
    return summary


def overhead(traced: list, untraced: list, subset: tuple) -> dict:
    """Host time of ``subset``'s cells per pass, traced vs untraced."""
    def per_pass(passes):
        return sum(seconds for p in passes
                   for (_, workload), seconds in p.cell_s.items()
                   if workload in subset) / len(passes)
    traced_s, untraced_s = per_pass(traced), per_pass(untraced)
    return {"trace.overhead_ratio": traced_s / untraced_s,
            "trace.traced_cells_s": traced_s,
            "trace.untraced_cells_s": untraced_s}


def report(summary: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    prov = summary["provenance"]
    print("perfbench " + " ".join(f"{k}={v}" for k, v in prov.items()))
    samples = summary.get("cell_samples")
    print(f"passes={summary['passes']}" + (
        f" cell_samples={samples} (cell_ms_p50/p90 base)"
        if samples is not None else ""))
    unscaled = summary.get("unscaled")
    if unscaled is not None:
        print(f"host-speed scale={summary['scale']:.4f} from "
              f"{len(summary['probe_s'])} probes (metrics below are "
              f"scaled; unscaled in brackets)")
    for name, value in summary["metrics"].items():
        raw = f" [{unscaled[name]:.6g}]" if unscaled is not None else ""
        print(f"  {name:<34} {value:>16.6g} {summary['units'][name]}{raw}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  {'failed_cell_ratio':<34} {failed / attempted:>16.6g} "
          f"ratio ({failed} of {attempted} cells)")
    if summary["pinned_reference"]:
        print("reference: records pinned for this seed (they pin "
              "'unchanged', not 'true'; the model has no hardware "
              "reference to report an error against)")
    else:
        print("reference: none pinned for this seed; passes were checked "
              "against each other and the cold fill only")
    for cell in summary["bad_cells"][:20]:
        print(f"MISMATCH {cell}")
    for design, workload, field in summary.get("engine_divergent", []):
        print(f"ENGINE-DIVERGENT {design} {workload} {field}")
    if summary.get("engine_unchecked_cells"):
        print(f"engine cross-check: {summary['engine_unchecked_cells']} "
              f"cells left unchecked at the run's deadline")
    print(json.dumps({
        "correct": summary["correct"], "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": summary["units"][name]}
                    for name, value in summary["metrics"].items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    isolate(ROOT)
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        summary = (bench_traced if args.trace else bench)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = summary.pop("checks")
    summary.update(correct=checks.correct, attempted=checks.attempted,
                   failed=checks.failed, bad_cells=checks.bad_cells)
    out = ROOT / ".perfbench" / "results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    report(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
