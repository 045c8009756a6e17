"""Tests for the campaign execution runtime: parallel determinism,
the on-disk cache tier, cache keys, and metrics."""

import dataclasses
import json

import pytest

from repro import runtime
from repro.cluster import paper_spec
from repro.experiments import platform
from repro.experiments.platform import (
    clear_campaign_cache,
    measure_campaign,
)
from repro.npb import EPBenchmark, FTBenchmark, ProblemClass
from repro.runtime.diskcache import (
    SCHEMA_VERSION,
    DiskCache,
    benchmark_digest,
    spec_digest,
)
from repro.runtime.memcache import LRUCache
from repro.runtime.metrics import MAX_RECORDS, MetricsRegistry
from repro.units import mhz


@pytest.fixture(autouse=True)
def isolated_runtime(tmp_path):
    """Point the disk cache at a temp dir and reset all global state."""
    runtime.configure(jobs=None, disk_cache=None, cache_dir=tmp_path)
    platform._CACHE.clear()
    runtime.reset_campaign_metrics()
    yield
    runtime.configure(jobs=None, disk_cache=None, cache_dir=None)
    platform._CACHE.clear()
    runtime.reset_campaign_metrics()


class TestParallelDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        ep = EPBenchmark(ProblemClass.S)
        grid = ((1, 2, 4), (mhz(600), mhz(1400)))
        serial = measure_campaign(ep, *grid, use_cache=False, jobs=1)
        parallel = measure_campaign(ep, *grid, use_cache=False, jobs=4)
        assert serial.times == parallel.times
        assert serial.energies == parallel.energies
        # Same insertion (grid) order too, not just equal values.
        assert list(serial.times) == list(parallel.times)
        assert list(serial.energies) == list(parallel.energies)

    def test_parallel_records_jobs_used(self):
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(
            ep, (1, 2), (mhz(600),), use_cache=False, jobs=2
        )
        record = runtime.campaign_metrics()["records"][-1]
        assert record["source"] == "simulated"
        assert record["jobs"] == 2
        assert len(record["cell_wall_s"]) == 2

    def test_unpicklable_benchmark_falls_back_to_serial(self):
        class LocalEP(EPBenchmark):  # local classes cannot pickle
            pass

        campaign = measure_campaign(
            LocalEP(ProblemClass.S),
            (1, 2),
            (mhz(600),),
            use_cache=False,
            jobs=4,
        )
        assert len(campaign.times) == 2
        record = runtime.campaign_metrics()["records"][-1]
        assert record["jobs"] == 1


class TestDiskCacheTier:
    def test_round_trip_is_lossless(self):
        ep = EPBenchmark(ProblemClass.S)
        grid = ((1, 2), (mhz(600), mhz(1400)))
        fresh = measure_campaign(ep, *grid)
        # New-process simulation: drop the in-memory tier only.
        platform._CACHE.clear()
        reloaded = measure_campaign(ep, *grid)
        assert reloaded is not fresh
        assert reloaded.times == fresh.times
        assert reloaded.energies == fresh.energies
        assert reloaded.base_frequency_hz == fresh.base_frequency_hz
        assert reloaded.label == fresh.label
        record = runtime.campaign_metrics()["records"][-1]
        assert record["source"] == "disk"

    def test_warm_disk_campaign_simulates_zero_cells(self):
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, (1,), (mhz(600),))
        platform._CACHE.clear()
        runtime.reset_campaign_metrics()
        measure_campaign(ep, (1,), (mhz(600),))
        snapshot = runtime.campaign_metrics()
        assert snapshot["simulated_cells"] == 0
        assert snapshot["disk_hits"] == 1

    def test_use_cache_false_bypasses_disk(self):
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, (1,), (mhz(600),), use_cache=False)
        assert len(runtime.disk_cache()) == 0

    def test_disk_cache_disabled_by_flag(self):
        runtime.configure(disk_cache=False)
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, (1,), (mhz(600),))
        assert len(runtime.disk_cache()) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        ep = EPBenchmark(ProblemClass.S)
        fresh = measure_campaign(ep, (1,), (mhz(600),))
        (entry,) = list(tmp_path.glob("*.json"))
        entry.write_text("{not json")
        platform._CACHE.clear()
        again = measure_campaign(ep, (1,), (mhz(600),))
        assert again.times == fresh.times
        record = runtime.campaign_metrics()["records"][-1]
        assert record["source"] == "simulated"

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, (1,), (mhz(600),))
        (entry,) = list(tmp_path.glob("*.json"))
        document = json.loads(entry.read_text())
        document["schema"] = SCHEMA_VERSION + 1
        entry.write_text(json.dumps(document))
        cache = DiskCache(tmp_path)
        assert cache.get(entry.stem) is None

    def test_memory_tier_evicts_least_recent_to_disk(self, monkeypatch):
        monkeypatch.setattr(platform, "_CACHE", LRUCache(2))
        ep = EPBenchmark(ProblemClass.S)
        for m in (600, 800, 1000):
            measure_campaign(ep, (1,), (mhz(m),))
        stats = platform.campaign_cache_stats()
        assert (stats["entries"], stats["max_entries"]) == (2, 2)
        assert stats["evictions"] == 1
        measure_campaign(ep, (1,), (mhz(600),))
        record = runtime.campaign_metrics()["records"][-1]
        assert record["source"] == "disk"

    def test_clear_campaign_cache_clears_both_tiers(self):
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, (1,), (mhz(600),))
        assert platform._CACHE and len(runtime.disk_cache()) == 1
        clear_campaign_cache()
        assert not platform._CACHE
        assert len(runtime.disk_cache()) == 0


class TestCacheKeys:
    def test_spec_campaigns_are_cacheable(self):
        slow = dataclasses.replace(
            paper_spec(),
            network=dataclasses.replace(
                paper_spec().network, efficiency=0.1
            ),
        )
        ep = EPBenchmark(ProblemClass.S)
        first = measure_campaign(ep, (2,), (mhz(600),), spec=slow)
        second = measure_campaign(ep, (2,), (mhz(600),), spec=slow)
        assert first is second

    def test_explicit_paper_spec_shares_default_entry(self):
        ep = EPBenchmark(ProblemClass.S)
        default = measure_campaign(ep, (1,), (mhz(600),))
        explicit = measure_campaign(
            ep, (1,), (mhz(600),), spec=paper_spec()
        )
        assert default is explicit

    def test_different_specs_do_not_collide(self):
        slow = dataclasses.replace(
            paper_spec(),
            network=dataclasses.replace(
                paper_spec().network, efficiency=0.1
            ),
        )
        ep = EPBenchmark(ProblemClass.S)
        normal = measure_campaign(ep, (2,), (mhz(600),))
        slowed = measure_campaign(ep, (2,), (mhz(600),), spec=slow)
        assert slowed.times[(2, mhz(600))] > normal.times[(2, mhz(600))]

    def test_spec_digest_ignores_node_count(self):
        assert spec_digest(paper_spec(4)) == spec_digest(paper_spec(16))

    def test_benchmark_digest_sees_decomposition(self):
        ft1 = FTBenchmark(ProblemClass.S, decomposition="1d")
        ft2 = FTBenchmark(ProblemClass.S, decomposition="2d")
        assert benchmark_digest(ft1) != benchmark_digest(ft2)
        assert benchmark_digest(ft1) == benchmark_digest(
            FTBenchmark(ProblemClass.S, decomposition="1d")
        )

    def test_ft_decompositions_get_distinct_cache_entries(self):
        ft1 = FTBenchmark(ProblemClass.S, decomposition="1d")
        ft2 = FTBenchmark(ProblemClass.S, decomposition="2d")
        one = measure_campaign(ft1, (4,), (mhz(600),))
        two = measure_campaign(ft2, (4,), (mhz(600),))
        assert one is not two
        assert one.times != two.times


class TestConfigResolution:
    def test_explicit_jobs_wins(self):
        runtime.configure(jobs=8)
        assert runtime.settings(jobs=2).jobs_for(100) == 2

    def test_configured_jobs_used(self):
        runtime.configure(jobs=3)
        assert runtime.settings().jobs_for(100) == 3

    def test_env_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert runtime.settings().jobs_for(100) == 5

    def test_jobs_capped_by_cells(self):
        assert runtime.settings(jobs=16).jobs_for(4) == 4

    def test_auto_stays_serial_below_threshold(self):
        assert (
            runtime.settings().jobs_for(
                runtime.MIN_CELLS_AUTO_PARALLEL - 1
            )
            == 1
        )

    def test_disk_cache_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert runtime.settings().disk_cache is False
        assert runtime.settings(disk_cache=True).disk_cache is True

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        runtime.configure(cache_dir=None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert runtime.cache_dir() == tmp_path / "alt"


class TestMetrics:
    def test_snapshot_counts_sources(self):
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, (1,), (mhz(600),))  # simulated
        measure_campaign(ep, (1,), (mhz(600),))  # memory hit
        platform._CACHE.clear()
        measure_campaign(ep, (1,), (mhz(600),))  # disk hit
        snapshot = runtime.campaign_metrics()
        assert snapshot["campaigns"] == 3
        assert snapshot["simulated_campaigns"] == 1
        assert snapshot["memory_hits"] == 1
        assert snapshot["disk_hits"] == 1
        assert snapshot["simulated_cells"] == 1

    def test_records_ring_keeps_the_newest(self):
        registry = MetricsRegistry()
        for index in range(MAX_RECORDS + 10):
            registry.record(
                runtime.CampaignRecord(
                    label=f"c{index}", source="simulated", cells=1, wall_s=0.0
                )
            )
        snapshot = registry.snapshot()
        assert snapshot["campaigns"] == MAX_RECORDS + 10
        assert snapshot["simulated_campaigns"] == MAX_RECORDS + 10
        assert [r["label"] for r in snapshot["records"]] == [
            f"c{index}" for index in range(10, MAX_RECORDS + 10)
        ]
        assert snapshot["record_ring"] == {
            "entries": MAX_RECORDS,
            "max_entries": MAX_RECORDS,
            "evictions": 10,
        }
        assert registry.summary_line().startswith(
            f"{MAX_RECORDS + 10} campaigns:"
        )

    def test_reset(self):
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, (1,), (mhz(600),))
        runtime.reset_campaign_metrics()
        assert runtime.campaign_metrics()["campaigns"] == 0


class TestCliJsonify:
    def test_grid_tuple_keys(self):
        from repro.experiments.cli import _jsonify

        data = {(2, mhz(600)): 1.5}
        assert _jsonify(data) == {"2@600MHz": 1.5}

    def test_non_grid_tuple_keys_stringify(self):
        from repro.experiments.cli import _jsonify

        data = {("a", "b"): 1, (1, 2): 2}
        assert _jsonify(data) == {"('a', 'b')": 1, "(1, 2)": 2}

    def test_nested_values_recurse(self):
        from repro.experiments.cli import _jsonify

        data = {"outer": {(4, mhz(1400)): [1, 2]}}
        assert _jsonify(data) == {"outer": {"4@1400MHz": [1, 2]}}
