"""Tests for the benchmark itself (not for the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, run_pass, set_up  # noqa: E402

#: The fig8 plan at a window small enough for a unit test.
TINY = dataclasses.replace(WORKLOADS["fig8-pressure"], requests=400,
                           warmup=200)
TINY_CELLS = len(TINY.designs()) * len(TINY.workloads)


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    return set_up(TINY, 1234, tmp_path_factory.mktemp("bench"))


@pytest.fixture(scope="module")
def untraced(state):
    return run_pass(state, 0)


@pytest.fixture(scope="module")
def traced(state):
    tracer = Tracer()
    tracer.phase = "timed"
    tracer.install()
    try:
        result = run_pass(state, 1)
    finally:
        tracer.uninstall()
    return tracer, result


def test_one_field_change_is_a_mismatch(untraced):
    records = untraced.records
    pinned = reference.digests(records)
    assert reference.mismatches(records, pinned) == []
    changed = copy.deepcopy(records)
    changed[3]["norm_ipc"] = changed[3]["norm_ipc"] * (1 + 2 ** -52)
    assert reference.mismatches(changed, pinned) == [
        reference.cell_key(changed[3])]
    checks = run.Checks(pinned)
    checks.add(changed, len(changed))
    assert (checks.failed, checks.attempted) == (1, len(records))
    assert not checks.correct


def test_unpinned_run_flags_a_pass_that_differs(untraced):
    records = untraced.records
    changed = copy.deepcopy(records)
    changed[0]["page_faults"] += 1
    checks = run.Checks(None)
    checks.add(records, len(records))
    assert checks.correct
    checks.add(changed, len(changed))
    assert checks.failed == 1
    assert checks.bad_cells == [reference.cell_key(changed[0])]


def test_timing_block_is_not_compared(untraced):
    records = copy.deepcopy(untraced.records)
    pinned = reference.digests(records)
    records[0]["timing"]["sim_s"] += 1.0
    assert reference.mismatches(records, pinned) == []


def test_missing_cell_fails(untraced):
    pinned = reference.digests(untraced.records)
    checks = run.Checks(pinned)
    checks.add(untraced.records[1:], len(untraced.records))
    assert checks.failed == 1


def test_traced_and_untraced_records_identical(untraced, traced):
    _, result = traced
    assert len(untraced.records) == TINY_CELLS
    assert reference.digests(result.records) == \
        reference.digests(untraced.records)


def test_span_self_times_sum_to_the_traced_pass(traced):
    tracer, result = traced
    totals = tracer.totals("timed")
    assert all(own >= -1e-9 for _, _, own in totals.values())
    covered = sum(own for _, _, own in totals.values())
    top = totals["exec.open"][1] + totals["exec.execute"][1]
    assert covered == pytest.approx(top, rel=1e-9)
    # What the top-level spans leave out of the pass is the benchmark's
    # own stamping, a few clock reads.
    assert 0 <= result.wall_s - top < 0.01 * result.wall_s + 0.005
    assert totals["exec.execute"][2] >= 0


def test_traced_counts_match_the_plan(state, traced):
    tracer, _ = traced
    replays = len(state.designs) * len(TINY.workloads) + len(TINY.workloads)
    assert len(tracer.runs) == replays
    assert all(r["requests"] == TINY.window for r in tracer.runs)
    totals = tracer.totals("timed")
    assert totals["campaign.persist"][0] == TINY_CELLS
    assert totals["designs.build"][0] == replays


def test_pass_charges_fsync_wait_apart_and_restores_fsync(untraced):
    import os
    import speed
    assert os.fsync is speed._fsync
    # Every persisted cell is an fsync'd append.
    assert 0 < untraced.fsync_wait_s < untraced.wall_s


def test_harrell_davis_quantiles():
    assert run.harrell_davis([3.0] * 5, 0.9) == pytest.approx(3.0)
    assert run.harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == \
        pytest.approx(3.0)
    low, high = (run.harrell_davis(list(range(100)), q) for q in (0.1, 0.9))
    assert low == pytest.approx(9.9, abs=0.5)
    assert high == pytest.approx(89.1, abs=0.5)


def test_uninstall_restores_every_entry_point():
    from repro.exec.backends import SerialBackend
    from repro.sim.driver import SimulationDriver
    original = SimulationDriver.run
    tracer = Tracer()
    tracer.install()
    assert SimulationDriver.run is not original
    assert "execute" in SerialBackend.__dict__
    tracer.uninstall()
    assert SimulationDriver.run is original
    assert "execute" not in SerialBackend.__dict__


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_pinned_references_name_every_cell():
    pinned = reference.load(reference.DEFAULT_SEED)
    assert pinned is not None
    for name, load in WORKLOADS.items():
        assert len(pinned[name]) == len(load.workloads) * len(load.designs())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8-friendly",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
