"""Campaign-runtime metrics: per-cell timings, cache-hit counters and
fault-tolerance accounting.

The runtime keeps one process-global :class:`MetricsRegistry` that the
campaign runner reports into.  The benchmark harness (and the CLI's
``--jobs`` plumbing) reads a :meth:`~MetricsRegistry.snapshot` at the
end of a session to track the perf trajectory across PRs — how many
cells were actually simulated, how many came from each cache tier,
how long the simulated cells took, and what the fault-tolerance layer
had to absorb (retries, timeouts, crash recoveries, permanently
failed cells).

The counters cover every record ever written, but the registry keeps
only the :data:`MAX_RECORDS` most recent records themselves (and every
failed cell's report), so a long-running server's metrics stay flat.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import threading
import typing as _t

__all__ = [
    "MAX_RECORDS",
    "CampaignRecord",
    "MetricsRegistry",
    "campaign_metrics",
    "reset_campaign_metrics",
]

#: Campaign records the registry keeps, oldest dropped first.
MAX_RECORDS = 64


@dataclasses.dataclass
class CampaignRecord:
    """One campaign cache hit, execution or plan assembly.

    Written only by the campaign steps in
    :mod:`repro.experiments.platform` and by the planner's ``planned``
    record; one ``measure_campaign`` call writes exactly one.

    Attributes
    ----------
    label:
        Campaign label (``benchmark.class``).
    source:
        Where the result came from: ``"memory"``, ``"disk"``,
        ``"simulated"``, ``"planned"`` (assembled from a shared
        cross-experiment batch by :mod:`repro.pipeline`; the batch
        itself reports separately as ``"simulated"``) or ``"failed"``
        (retry budget exhausted without ``allow_partial``).
    cells:
        Number of grid cells in the campaign.
    wall_s:
        Wall-clock spent producing the result (≈0 for cache hits).
    jobs:
        Worker processes used (1 = serial; only meaningful when
        ``source == "simulated"``).
    cell_wall_s:
        Per-cell simulation wall times, in grid order (empty for
        cache hits).
    attempts:
        Total cell attempts across all retry rounds (== ``cells`` on
        a clean simulated run, 0 for cache hits).
    retries:
        Attempts beyond each cell's first.
    timeouts:
        Attempts that ended in a per-cell timeout.
    crash_recoveries:
        Worker-pool breaks survived without discarding finished cells.
    failed_cells:
        Cells that exhausted their budget (> 0 only with
        ``allow_partial`` or ``source == "failed"``).
    cell_attempts:
        Per-cell attempt counts as ``[n, f, attempts]`` triples, grid
        order (empty when every cell took exactly one attempt).
    failures:
        Structured per-cell failure report (see
        :meth:`repro.runtime.runner.CampaignExecution.failure_report`).
    events_processed:
        Engine heap entries executed, summed over simulated cells
        (0 for cache hits).
    processes_spawned:
        Simulated processes started (transfer chains included),
        summed over simulated cells.
    peak_queue_len:
        Largest event-heap high-water mark over the campaign's cells.
    analytic_cells:
        Cells evaluated by the closed-form analytic backend (they
        count toward ``cells`` but not toward *simulated* cells).
    fabric_cells:
        Cells whose result was produced by the distributed worker
        fleet (:mod:`repro.fabric`).
    fabric_workers:
        Distinct fleet workers that contributed results.
    fabric_reassignments:
        Cells requeued after a lost worker or expired lease.
    """

    label: str
    source: str
    cells: int
    wall_s: float
    jobs: int = 1
    analytic_cells: int = 0
    fabric_cells: int = 0
    fabric_workers: int = 0
    fabric_reassignments: int = 0
    cell_wall_s: tuple[float, ...] = ()
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    crash_recoveries: int = 0
    failed_cells: int = 0
    cell_attempts: tuple[tuple[int, float, int], ...] = ()
    failures: tuple[dict[str, _t.Any], ...] = ()
    events_processed: int = 0
    processes_spawned: int = 0
    peak_queue_len: int = 0

    @property
    def events_per_second(self) -> float:
        """Engine throughput over this campaign's simulated cells."""
        wall = sum(self.cell_wall_s)
        return self.events_processed / wall if wall > 0 else 0.0

    def as_dict(self) -> dict[str, _t.Any]:
        """JSON-ready form (one entry of ``campaign_metrics()["records"]``)."""
        return {
            "label": self.label,
            "source": self.source,
            "cells": self.cells,
            "wall_s": self.wall_s,
            "jobs": self.jobs,
            "analytic_cells": self.analytic_cells,
            "fabric_cells": self.fabric_cells,
            "fabric_workers": self.fabric_workers,
            "fabric_reassignments": self.fabric_reassignments,
            "cell_wall_s": list(self.cell_wall_s),
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crash_recoveries": self.crash_recoveries,
            "failed_cells": self.failed_cells,
            "cell_attempts": [list(t) for t in self.cell_attempts],
            "failures": list(self.failures),
            "events_processed": self.events_processed,
            "processes_spawned": self.processes_spawned,
            "peak_queue_len": self.peak_queue_len,
            "events_per_second": self.events_per_second,
        }


class MetricsRegistry:
    """Accumulates campaign records and aggregate counters."""

    def __init__(self) -> None:
        # The service records campaigns from worker threads; the lock
        # keeps the aggregate counters exact under that concurrency.
        self._lock = threading.Lock()
        self._local = threading.local()
        #: The most recent records, oldest first.
        self.records: collections.deque[CampaignRecord] = (
            collections.deque(maxlen=MAX_RECORDS)
        )
        #: Records ever written (``records`` keeps the newest).
        self.campaigns = 0
        #: ``(label, failure report)`` of every failed cell, kept
        #: beside the ring so no failure drops out of a long session.
        self.failures: list[tuple[str, dict[str, _t.Any]]] = []
        self.memory_hits = 0
        self.disk_hits = 0
        self.simulated_campaigns = 0
        self.simulated_cells = 0
        self.simulated_wall_s = 0.0
        self.failed_campaigns = 0
        self.planned_campaigns = 0
        #: Cells answered by the closed-form analytic backend.
        self.analytic_cells = 0
        #: Cells executed on the distributed worker fleet, and the
        #: fleet's recovery work (lost-worker/expired-lease requeues).
        self.fabric_cells = 0
        self.fabric_reassignments = 0
        # Cross-experiment planner accounting (repro.pipeline): cells
        # requested across all experiments in a plan, cells saved by
        # dedup/caching, cells the batch actually simulated.
        self.plans = 0
        self.planned_cells = 0
        self.deduped_cells = 0
        self.executed_cells = 0
        self.total_retries = 0
        self.total_timeouts = 0
        self.total_crash_recoveries = 0
        self.total_failed_cells = 0
        self.total_events_processed = 0
        self.total_processes_spawned = 0
        self.peak_queue_len = 0
        #: Sum of per-cell simulation wall times (the engine-throughput
        #: denominator; excludes pool startup and harness overhead).
        self.simulated_cell_wall_s = 0.0

    def record(self, record: CampaignRecord) -> None:
        """Append one campaign record and update the aggregates (and
        the calling thread's :meth:`capture` list, if one is open)."""
        sink = getattr(self._local, "sink", None)
        if sink is not None:
            sink.append(record)
        with self._lock:
            self.records.append(record)
            self.campaigns += 1
            self.failures.extend(
                (record.label, failure) for failure in record.failures
            )
            if record.source == "memory":
                self.memory_hits += 1
            elif record.source == "disk":
                self.disk_hits += 1
            elif record.source == "failed":
                self.failed_campaigns += 1
            elif record.source == "planned":
                self.planned_campaigns += 1
            else:
                self.simulated_campaigns += 1
                self.simulated_cells += (
                    record.cells - record.analytic_cells
                )
                self.simulated_wall_s += record.wall_s
            self.analytic_cells += record.analytic_cells
            self.fabric_cells += record.fabric_cells
            self.fabric_reassignments += record.fabric_reassignments
            self.total_retries += record.retries
            self.total_timeouts += record.timeouts
            self.total_crash_recoveries += record.crash_recoveries
            self.total_failed_cells += record.failed_cells
            self.total_events_processed += record.events_processed
            self.total_processes_spawned += record.processes_spawned
            if record.peak_queue_len > self.peak_queue_len:
                self.peak_queue_len = record.peak_queue_len
            self.simulated_cell_wall_s += sum(record.cell_wall_s)

    @contextlib.contextmanager
    def capture(self) -> _t.Iterator[list[CampaignRecord]]:
        """Collect the records the calling thread writes in the block.

        A service job reads its own campaign's record from here: a
        concurrent job's record, even under the same label, is written
        on another thread and never lands in this list.
        """
        outer = getattr(self._local, "sink", None)
        self._local.sink = sink = []
        try:
            yield sink
        finally:
            self._local.sink = outer

    def record_plan(
        self, planned: int, deduped: int, executed: int
    ) -> None:
        """Account one cross-experiment plan's cell bookkeeping.

        ``planned`` counts cells over all requested campaigns,
        ``deduped`` the cells dedup and the cache tiers avoided
        simulating, and ``executed`` the cells the shared batch
        actually ran (``planned == deduped + executed`` on a clean
        plan).
        """
        with self._lock:
            self.plans += 1
            self.planned_cells += int(planned)
            self.deduped_cells += int(deduped)
            self.executed_cells += int(executed)

    def reset(self) -> None:
        """Drop all records and zero every counter."""
        self.__init__()

    @property
    def events_per_second(self) -> float:
        """Aggregate engine throughput over all simulated cells."""
        wall = self.simulated_cell_wall_s
        return self.total_events_processed / wall if wall > 0 else 0.0

    def snapshot(self) -> dict[str, _t.Any]:
        """A JSON-ready summary of everything recorded so far.

        ``disk_cache`` reports the *per-process* disk-cache counters
        (:func:`repro.runtime.diskcache.cache_stats`) — unlike the
        per-campaign ``disk_hits``, they also count misses, LRU
        evictions and quarantined entries.  ``campaigns`` counts every
        record written; ``records`` holds the most recent
        :data:`MAX_RECORDS`, and ``record_ring`` reports their count,
        bound and how many older ones were dropped.
        """
        from repro.runtime.diskcache import cache_stats

        with self._lock:
            records = [r.as_dict() for r in self.records]
            campaigns = self.campaigns
        return {
            "disk_cache": cache_stats(),
            "campaigns": campaigns,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "simulated_campaigns": self.simulated_campaigns,
            "simulated_cells": self.simulated_cells,
            "analytic_cells": self.analytic_cells,
            "fabric_cells": self.fabric_cells,
            "fabric_reassignments": self.fabric_reassignments,
            "simulated_wall_s": self.simulated_wall_s,
            "failed_campaigns": self.failed_campaigns,
            "planned_campaigns": self.planned_campaigns,
            "plans": self.plans,
            "planned_cells": self.planned_cells,
            "deduped_cells": self.deduped_cells,
            "executed_cells": self.executed_cells,
            "retries": self.total_retries,
            "timeouts": self.total_timeouts,
            "crash_recoveries": self.total_crash_recoveries,
            "failed_cells": self.total_failed_cells,
            "events_processed": self.total_events_processed,
            "processes_spawned": self.total_processes_spawned,
            "peak_queue_len": self.peak_queue_len,
            "events_per_second": self.events_per_second,
            "records": records,
            "record_ring": {
                "entries": len(records),
                "max_entries": self.records.maxlen,
                "evictions": campaigns - len(records),
            },
        }

    def summary_line(self) -> str:
        """One-line human summary (the CLI prints this).

        Fault-tolerance counters appear only when something actually
        went wrong, so clean runs keep the familiar short line.
        """
        line = (
            f"{self.campaigns} campaigns: "
            f"{self.simulated_cells} cells simulated in "
            f"{self.simulated_wall_s:.2f}s, "
        )
        if self.analytic_cells:
            line += f"{self.analytic_cells} analytic cells, "
        if self.fabric_cells:
            line += f"{self.fabric_cells} fabric cells, "
            if self.fabric_reassignments:
                line += (
                    f"{self.fabric_reassignments} fleet reassignments, "
                )
        line += (
            f"{self.memory_hits} memory hits, "
            f"{self.disk_hits} disk hits"
        )
        if self.total_events_processed:
            line += (
                f"; engine: {self.total_events_processed / 1e6:.1f}M events"
                f" at {self.events_per_second / 1e3:.0f}k ev/s,"
                f" peak queue {self.peak_queue_len}"
            )
        if self.plans:
            line += (
                f"; plan: {self.planned_cells} cells planned, "
                f"{self.deduped_cells} deduped, "
                f"{self.executed_cells} executed"
            )
        if (
            self.total_retries
            or self.total_timeouts
            or self.total_crash_recoveries
            or self.total_failed_cells
        ):
            line += (
                f"; faults absorbed: {self.total_retries} retries, "
                f"{self.total_timeouts} timeouts, "
                f"{self.total_crash_recoveries} crash recoveries, "
                f"{self.total_failed_cells} failed cells"
            )
        from repro.runtime.diskcache import cache_stats

        disk = cache_stats()
        if any(disk.values()):
            line += (
                f"; disk cache: {disk['hits']}/{disk['hits'] + disk['misses']}"
                f" reads hit, {disk['writes']} writes, "
                f"{disk['evictions']} evictions, "
                f"{disk['quarantines']} quarantines"
            )
        return line


#: The process-global registry the campaign runner reports into.
METRICS = MetricsRegistry()


def campaign_metrics() -> dict[str, _t.Any]:
    """Snapshot of the global campaign-runtime metrics."""
    return METRICS.snapshot()


def reset_campaign_metrics() -> None:
    """Zero the global campaign-runtime metrics."""
    METRICS.reset()
