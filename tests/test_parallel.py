"""Parallel execution, the persistent result cache, and JSONL campaigns.

The contract under test: fanning experiment cells over worker processes,
or loading them from the on-disk cache, must be *bit-identical* to
computing them serially in-process — same floats, same records — and a
corrupted cache entry must be healed by recomputation, never returned.
"""

import dataclasses
import json

import pytest

from repro import ExperimentConfig, ExperimentHarness
from repro.analysis import Campaign, ResultCache, geomean_speedup
from repro.analysis.campaign import run_campaign
from repro.baselines import make_controller
from repro.designs import DesignSpec, registry
from repro.exec import enumerate_cells, resolve_jobs, run_cells
from repro.sim.driver import SimulationDriver

FAST = ExperimentConfig(requests=1500, warmup=500,
                        workloads=("leela", "mcf"))

CELLS = [("Bumblebee", "leela"), ("Bumblebee", "mcf"),
         ("Banshee", "leela"), ("Banshee", "mcf")]


class TestParallelIdentical:
    def test_design_cells_bit_identical(self):
        serial = run_cells(ExperimentHarness(FAST), CELLS, jobs=1)
        parallel = run_cells(ExperimentHarness(FAST), CELLS, jobs=2)
        assert serial == parallel    # frozen dataclasses: exact equality

    def test_duplicates_collapse(self):
        results = run_cells(
            ExperimentHarness(FAST),
            [("Banshee", "leela"), ("Banshee", "leela")], jobs=2)
        assert len(results) == 1

    def test_figure7_identical(self):
        variants = ("Bumblebee", "No-HMF")
        serial = ExperimentHarness(FAST).figure7_breakdown(
            variants=variants, workloads=("leela",))
        parallel = ExperimentHarness(FAST).figure7_breakdown(
            variants=variants, workloads=("leela",), jobs=2)
        assert serial == parallel

    def test_sweep_identical(self):
        specs = registry.expand_grid(
            "Bumblebee", {"hot_queue_dram_entries": [4, 8]})
        cells = enumerate_cells(specs, ("leela",))
        serial = run_cells(ExperimentHarness(FAST), cells, jobs=1)
        parallel = run_cells(ExperimentHarness(FAST), cells, jobs=2)
        assert serial == parallel

    def test_bumblebee_cells_page_refit(self):
        cells = enumerate_cells(
            [DesignSpec("Bumblebee", {"page_bytes": 128 * 1024})],
            ("leela", "mcf"))
        serial = run_cells(ExperimentHarness(FAST), cells)
        parallel = run_cells(ExperimentHarness(FAST), cells, jobs=2)
        assert serial == parallel

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestResultCache:
    def test_hit_returns_identical_comparison(self, tmp_path):
        first = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        computed = first.run_design("Bumblebee", "leela")
        second = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        cached = second.run_design("Bumblebee", "leela")
        assert cached == computed
        assert second.cache.hits == 1 and second.cache.misses == 0

    def test_key_covers_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentHarness(FAST, cache=cache).run_design("Banshee", "leela")
        other = dataclasses.replace(FAST, seed=99)
        fresh = ExperimentHarness(other, cache=cache)
        assert fresh.cached_comparison("Banshee", "leela") is None

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        harness = ExperimentHarness(FAST, cache=cache)
        computed = harness.run_design("Bumblebee", "leela")
        key = harness._comparison_key("Bumblebee", "leela")
        entry = tmp_path / f"{key}.json"
        entry.write_text("{ not json at all")
        healed = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        assert healed.run_design("Bumblebee", "leela") == computed
        assert healed.cache.misses == 1

    def test_tampered_record_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        harness = ExperimentHarness(FAST, cache=cache)
        computed = harness.run_design("Bumblebee", "leela")
        key = harness._comparison_key("Bumblebee", "leela")
        entry = tmp_path / f"{key}.json"
        wrapped = json.loads(entry.read_text())
        wrapped["record"]["norm_ipc"] = 99.0    # poison, stale digest
        entry.write_text(json.dumps(wrapped))
        healed = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        result = healed.run_design("Bumblebee", "leela")
        assert result == computed
        assert result.norm_ipc != 99.0

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(ResultCache.key_for(a=1), {"x": 1})
        cache.put(ResultCache.key_for(a=2), {"x": 2})
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_bumblebee_cells_share_cache(self, tmp_path):
        cells = [(DesignSpec("Bumblebee", {"block_bytes": 2048}), "leela")]
        first = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        computed = run_cells(first, cells)
        second = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        assert run_cells(second, cells) == computed
        assert second.cache.hits == 1


class TestPageRefit:
    """Bumblebee page/way geometry is an ordinary spec axis: the
    devices are refitted from the spec, so a page size that does not
    tile the default devices (96KB) runs like any other sweep point."""

    SPEC = DesignSpec("Bumblebee", {"block_bytes": 2048,
                                    "page_bytes": 96 * 1024})

    def test_96k_pages_run_and_share_figure6_key(self, tmp_path):
        cells = enumerate_cells(
            registry.expand_grid("Bumblebee", {"block_bytes": [2048],
                                               "page_bytes": [96 * 1024]}),
            ("leela", "mcf"))
        assert cells[0][0] == self.SPEC
        first = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        serial = run_cells(first, cells, jobs=1)
        parallel = run_cells(ExperimentHarness(FAST), cells, jobs=2)
        assert serial == parallel
        # Figure 6's (2KB, 96KB) point is the same cell: served from
        # the cache the sweep filled, never re-simulated.
        figure = ExperimentHarness(FAST, cache=ResultCache(tmp_path))
        out = figure.figure6_design_space(block_sizes=(2048,),
                                          page_sizes=(96 * 1024,),
                                          workloads=("leela",))
        assert figure.cache.hits == 1 and figure.cache.misses == 0
        assert out[(2048, 96 * 1024)]["norm_ipc"] == \
            geomean_speedup(serial[:1])

    def test_default_geometry_keeps_harness_devices(self):
        harness = ExperimentHarness(FAST)
        devices = (harness.hbm_config, harness.dram_config)
        for design in ("Bumblebee", "Banshee", "25%-C",
                       DesignSpec("Bumblebee", {"page_bytes": 64 * 1024,
                                                "hbm_ways": 8})):
            spec = registry.resolve(design)
            assert harness.devices_for(spec) == devices
        refit = harness.devices_for(self.SPEC)
        assert refit != devices
        assert harness.devices_for(self.SPEC) is refit    # memoised


class TestFigure6Pinned:
    """Figure 6 numbers, pinned from the dedicated custom-Bumblebee
    runner the spec cells replaced: the nine block x page points must
    reproduce them bit for bit (exact float reprs, compared with ==)."""

    CONFIG = ExperimentConfig(requests=3000, warmup=1000,
                              workloads=("leela", "mcf"))
    EXPECTED = {
        (1024, 65536): (1.1989372023134703, 16512, False),
        (2048, 65536): (1.2767250130183496, 12416, True),
        (4096, 65536): (1.3348109865670639, 10368, True),
        (1024, 98304): (1.2197403598807772, 13566, True),
        (2048, 98304): (1.2551730880300629, 9534, True),
        (4096, 98304): (1.3118782392274282, 7518, True),
        (1024, 131072): (1.2144731973059566, 12352, True),
        (2048, 131072): (1.2492565088796963, 8256, True),
        (4096, 131072): (1.3107905678542249, 6208, True),
    }

    def test_nine_points_bit_identical(self):
        out = ExperimentHarness(self.CONFIG).figure6_design_space()
        assert list(out) == list(self.EXPECTED)
        assert {point: (cell["norm_ipc"], cell["metadata_bytes"],
                        cell["fits_sram"])
                for point, cell in out.items()} == self.EXPECTED


class TestCampaignJsonl:
    def test_appends_one_line_per_cell(self, tmp_path):
        path = tmp_path / "c.jsonl"
        run_campaign(ExperimentHarness(FAST), path, ["Banshee"],
                     ["leela", "mcf"])
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 2
        assert all(json.loads(line)["design"] == "Banshee"
                   for line in lines)

    def test_reads_legacy_json_array(self, tmp_path):
        harness = ExperimentHarness(FAST)
        path = tmp_path / "c.json"
        run_campaign(harness, path, ["Banshee"], ["leela"])
        records = [json.loads(l) for l in path.read_text().splitlines()]
        path.write_text(json.dumps(records, indent=1))   # legacy format
        resumed = Campaign(ExperimentHarness(FAST), path)
        assert resumed.completed_cells == 1
        assert resumed.run(["Banshee"], ["leela"]) == 0

    def test_legacy_file_migrates_on_append(self, tmp_path):
        harness = ExperimentHarness(FAST)
        path = tmp_path / "c.json"
        run_campaign(harness, path, ["Banshee"], ["leela"])
        records = [json.loads(l) for l in path.read_text().splitlines()]
        path.write_text(json.dumps(records, indent=1))
        resumed = Campaign(ExperimentHarness(FAST), path)
        resumed.run(["Banshee"], ["mcf"])    # triggers migration + append
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 2
        assert {json.loads(l)["workload"] for l in lines} == \
            {"leela", "mcf"}

    def test_truncated_tail_line_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        run_campaign(ExperimentHarness(FAST), path, ["Banshee"],
                     ["leela", "mcf"])
        text = path.read_text()
        path.write_text(text[:text.rindex("{") + 10])   # torn last write
        resumed = Campaign(ExperimentHarness(FAST), path)
        assert resumed.completed_cells == 1

    def test_parallel_campaign_identical(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        run_campaign(ExperimentHarness(FAST), serial,
                     ["Banshee", "Bumblebee"], ["leela", "mcf"])
        parallel = tmp_path / "parallel.jsonl"
        run_campaign(ExperimentHarness(FAST), parallel,
                     ["Banshee", "Bumblebee"], ["leela", "mcf"], jobs=2)

        def records(path):
            # The timing block is observability, not a result — it
            # legitimately differs between runs and is stripped here.
            return sorted(({k: v for k, v in json.loads(l).items()
                            if k != "timing"}
                           for l in path.read_text().splitlines()),
                          key=lambda r: (r["design"], r["workload"]))

        assert records(serial) == records(parallel)


class TestZeroRequestRuns:
    def test_empty_run_reports_zero_not_fabricated(self):
        harness = ExperimentHarness(FAST)
        controller = make_controller("No-HBM", harness.hbm_config,
                                     harness.dram_config)
        result = SimulationDriver().run(controller, [], workload="empty")
        assert result.requests == 0
        assert result.elapsed_ns == 0.0

    def test_empty_run_ipc_raises(self):
        harness = ExperimentHarness(FAST)
        controller = make_controller("No-HBM", harness.hbm_config,
                                     harness.dram_config)
        result = SimulationDriver().run(controller, [], workload="empty")
        with pytest.raises(ValueError, match="no IPC"):
            result.ipc
