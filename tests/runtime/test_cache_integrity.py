"""Tests for disk-cache integrity: payload checksums, quarantine of
corrupt entries, the non-dict JSON regression, the bounded LRU sweep,
and concurrent multi-process access to one cache directory."""

import json
import multiprocessing
import os
import pathlib
import sys
import threading
import time

import pytest

from repro.core.measurements import TimingCampaign
from repro.errors import ConfigurationError
from repro.runtime import FaultPlan, install_fault_plan
from repro.runtime.diskcache import (
    SCHEMA_VERSION,
    DiskCache,
    _payload_checksum,
)
from repro.units import mhz


@pytest.fixture(autouse=True)
def no_fault_plan():
    """Keep any installed fault plan out of these tests."""
    install_fault_plan(None)
    yield
    install_fault_plan(None)


def _campaign(seconds: float = 1.5) -> TimingCampaign:
    return TimingCampaign(
        times={(1, mhz(600)): seconds, (2, mhz(600)): seconds / 2},
        base_frequency_hz=mhz(600),
        energies={(1, mhz(600)): 9.0, (2, mhz(600)): 10.0},
        label="ep.S",
    )


class TestChecksum:
    def test_round_trip_is_lossless(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("d1", _campaign())
        loaded = cache.get("d1")
        assert loaded is not None
        assert loaded.times == _campaign().times
        assert loaded.energies == _campaign().energies
        assert loaded.label == "ep.S"

    def test_tampered_payload_is_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("d1", _campaign())
        path = tmp_path / "d1.json"
        document = json.loads(path.read_text())
        document["times"][0][2] = 123.456  # flip one float
        path.write_text(json.dumps(document))
        assert cache.get("d1") is None
        assert not path.exists()
        assert (tmp_path / "d1.json.corrupt").exists()
        assert cache.quarantined() == 1
        assert len(cache) == 0

    def test_missing_checksum_is_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("d1", _campaign())
        path = tmp_path / "d1.json"
        document = json.loads(path.read_text())
        del document["checksum"]
        path.write_text(json.dumps(document))
        assert cache.get("d1") is None
        assert cache.quarantined() == 1

    def test_checksum_ignores_key_order(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("d1", _campaign())
        path = tmp_path / "d1.json"
        document = json.loads(path.read_text())
        shuffled = dict(reversed(list(document.items())))
        path.write_text(json.dumps(shuffled))
        assert cache.get("d1") is not None

    def test_unparseable_json_is_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        (tmp_path / "d1.json").write_text("{definitely not json")
        assert cache.get("d1") is None
        assert cache.quarantined() == 1

    def test_non_dict_document_is_a_miss_not_a_crash(self, tmp_path):
        """Regression: a corrupt entry whose JSON parses to a list
        used to raise AttributeError on ``document.get``."""
        cache = DiskCache(tmp_path)
        (tmp_path / "d1.json").write_text("[1, 2, 3]")
        assert cache.get("d1") is None
        assert cache.quarantined() == 1

    def test_schema_mismatch_is_orphaned_not_quarantined(
        self, tmp_path
    ):
        cache = DiskCache(tmp_path)
        cache.put("d1", _campaign())
        path = tmp_path / "d1.json"
        document = json.loads(path.read_text())
        document["schema"] = SCHEMA_VERSION + 1
        document["checksum"] = _payload_checksum(document)
        path.write_text(json.dumps(document))
        assert cache.get("d1") is None
        assert cache.quarantined() == 0  # old version, not corruption
        assert path.exists()

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.quarantined() == 0

    def test_clear_removes_quarantined_entries_too(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("d1", _campaign())
        (tmp_path / "bad.json").write_text("nope")
        assert cache.get("bad") is None  # quarantines
        assert cache.clear() == 1
        assert cache.quarantined() == 0
        assert len(cache) == 0


class TestInjectedCorruption:
    def test_corrupt_fault_writes_checksum_failing_entry(
        self, tmp_path
    ):
        install_fault_plan(FaultPlan(corrupt=1.0))
        cache = DiskCache(tmp_path)
        cache.put("d1", _campaign())
        install_fault_plan(None)
        assert len(cache) == 1  # written...
        assert cache.get("d1") is None  # ...but never served
        assert cache.quarantined() == 1

    def test_corruption_draw_is_per_digest_and_seeded(self):
        plan = FaultPlan(seed=5, corrupt=0.5)
        digests = [f"digest-{i}" for i in range(100)]
        picks = [plan.corrupts(d) for d in digests]
        assert picks == [plan.corrupts(d) for d in digests]
        assert 0 < sum(picks) < 100


class TestLruSweep:
    def test_put_evicts_least_recently_used(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=2)
        cache.put("a", _campaign())
        cache.put("b", _campaign())
        old = time.time() - 3600
        os.utime(tmp_path / "a.json", (old, old))
        cache.put("c", _campaign())
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.get("c") is not None

    def test_get_refreshes_recency(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=2)
        cache.put("a", _campaign())
        cache.put("b", _campaign())
        old = time.time() - 3600
        os.utime(tmp_path / "a.json", (old, old))
        os.utime(tmp_path / "b.json", (old + 60, old + 60))
        assert cache.get("a") is not None  # touch: now most recent
        cache.put("c", _campaign())
        assert cache.get("a") is not None
        assert cache.get("b") is None  # b became the oldest
        assert cache.get("c") is not None

    def test_writes_below_the_bound_list_the_directory_once(
        self, tmp_path, monkeypatch
    ):
        listings = []
        glob = pathlib.Path.glob

        def counting(path, pattern):
            if path == tmp_path:
                listings.append(pattern)
            return glob(path, pattern)

        monkeypatch.setattr(pathlib.Path, "glob", counting)
        # A fresh instance per write, as the runtime builds them.
        for index in range(50):
            DiskCache(tmp_path, max_entries=100).put(f"d{index}", _campaign())
        # The first write learns the count; the other 49 cannot pass 100.
        assert listings == ["*.json"]

    def test_bound_holds_past_overflows(self, tmp_path):
        for index in range(40):
            DiskCache(tmp_path, max_entries=16).put(f"d{index:02d}", _campaign())
            # Distinct, increasing recency whatever the clock's grain.
            os.utime(tmp_path / f"d{index:02d}.json", (index, index))
            assert len(DiskCache(tmp_path)) <= 16
        survivors = sorted(path.stem for path in tmp_path.glob("*.json"))
        newest = [f"d{index:02d}" for index in range(40)][-len(survivors):]
        assert survivors == newest

    def test_concurrent_writers_keep_the_bound(self, tmp_path):
        """Threads writing one directory at once lose no write's count:
        once they finish, the bound holds."""

        def writer(offset):
            for index in range(40):
                DiskCache(tmp_path, max_entries=16).put(
                    f"t{offset}-{index}", _campaign()
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(offset,))
                for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(DiskCache(tmp_path)) <= 16

    def test_another_writer_makes_the_next_write_list(self, tmp_path):
        cache = DiskCache(tmp_path, max_entries=4)
        cache.put("a", _campaign())  # lists: three writes of headroom
        for name in "bcde":  # entries another process wrote
            (tmp_path / f"{name}.json").write_text("{}")
        # As the clock moves on; a coarse clock may not have yet.
        stamp = os.stat(tmp_path).st_mtime_ns + 10**9
        os.utime(tmp_path, ns=(stamp, stamp))
        cache.put("f", _campaign())
        assert len(cache) == 4

    def test_max_entries_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
        assert DiskCache(tmp_path).max_entries == 7

    def test_explicit_max_entries_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "7")
        assert DiskCache(tmp_path, max_entries=3).max_entries == 3

    def test_bad_env_falls_back_to_default(
        self, tmp_path, monkeypatch
    ):
        # A malformed value is an error naming the variable, not a
        # silent fallback to the default.
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "banana")
        with pytest.raises(
            ConfigurationError, match="REPRO_CACHE_MAX_ENTRIES"
        ):
            DiskCache(tmp_path)


def _hammer_cache(root: str, rounds: int) -> None:
    """Child process: fill, tamper with, and clear one shared cache."""
    cache = DiskCache(root)
    campaign = _campaign()
    for i in range(rounds):
        cache.put("shared", campaign)
        if i % 5 == 1:  # valid JSON, broken payload
            path = cache.root / "shared.json"
            try:
                document = json.loads(path.read_text())
                if isinstance(document, dict) and document["times"]:
                    document["times"][0][2] = -1.0
                    path.write_text(json.dumps(document))
            except (OSError, ValueError, KeyError):
                pass
        elif i % 5 == 3:
            path = cache.root / "shared.json"
            try:
                path.write_text("{half written garbag")
            except OSError:
                pass
        elif i % 5 == 4:
            cache.clear()


class TestConcurrentAccess:
    def test_readers_never_observe_invalid_campaigns(self, tmp_path):
        """Two processes filling/tampering/clearing the same cache
        directory: every concurrent read must be a clean miss or a
        checksum-verified, bit-exact campaign — never a half-written
        or quarantined entry."""
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(
                target=_hammer_cache, args=(str(tmp_path), 120)
            )
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        reference = _campaign()
        cache = DiskCache(tmp_path)
        observed_hit = False
        try:
            while any(w.is_alive() for w in writers):
                loaded = cache.get("shared")
                if loaded is not None:
                    observed_hit = True
                    assert loaded.times == reference.times
                    assert loaded.energies == reference.energies
                    assert loaded.label == reference.label
        finally:
            for writer in writers:
                writer.join(timeout=30)
                assert writer.exitcode == 0
        assert observed_hit  # the race was actually exercised
