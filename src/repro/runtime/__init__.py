"""Campaign execution runtime: parallelism, caching, fault tolerance.

This subsystem turns :func:`repro.experiments.platform.
measure_campaign` from a serial, per-process-cached loop into a
runtime with five layers:

* :mod:`repro.runtime.runner` — fans grid cells out over a persistent
  process pool, merges results deterministically, and survives worker
  exceptions, hangs and crashes via per-cell retries, timeouts and
  crash recovery.
* :mod:`repro.runtime.diskcache` — a content-addressed on-disk cache
  under ``.repro_cache/`` with checksummed, quarantine-on-corruption
  entries and a bounded LRU footprint, so *warm processes skip
  simulation entirely*.
* :mod:`repro.runtime.memcache` — the bounded LRU behind the
  per-process memory tier (and the service's response cache).
* :mod:`repro.runtime.metrics` — per-cell timing, cache-hit and
  fault-tolerance counters for the benchmark harness, keeping only
  the most recent campaign records.
* :mod:`repro.runtime.faults` — a deterministic, seeded
  fault-injection harness (``REPRO_FAULTS``) that makes the runner,
  the disk cache and the metrics testable.

There is one campaign path.  :func:`execute_cells` (and
:func:`execute_campaign`, its full-grid form) only execute, on the
``ClusterSpec`` they are given.  Cache tiers and campaign records
belong to three steps on a campaign's cache key in
:mod:`repro.experiments.platform`: ``lookup_campaign`` (memory, then
disk), ``run_cells`` (:func:`execute_cells` plus one ``simulated`` or
``failed`` record) and ``store_campaign`` (both tiers).
``measure_campaign`` and the experiment planner
(:mod:`repro.pipeline`) are both built from them.

Settings (jobs, cache tier and directory, fault tolerance, backend,
fabric, platform) come from one resolution, :func:`repro.settings.
settings`, re-exported here with :func:`configure` (what the CLI's
``--jobs`` / ``--no-disk-cache`` / ``--retries`` / ``--cell-timeout``
/ ``--allow-partial`` / ``--backend`` / ``--platform`` set).  Auto
parallelism only engages for grids of at least
:data:`MIN_CELLS_AUTO_PARALLEL` cells on multi-core hosts — tiny
campaigns are faster serial than through a pool.
"""

from __future__ import annotations

import pathlib

from repro.runtime.diskcache import (
    DEFAULT_MAX_ENTRIES,
    SCHEMA_VERSION,
    DiskCache,
    benchmark_digest,
    cache_stats,
    campaign_digest,
    reset_cache_stats,
    spec_digest,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    WORKER_FAULT_KINDS,
    FaultPlan,
    InjectedFaultError,
    active_fault_plan,
    install_fault_plan,
    mark_server_process,
    parse_fault_plan,
    server_process_context,
    unmark_server_process,
)
from repro.runtime.metrics import (
    METRICS,
    CampaignRecord,
    campaign_metrics,
    reset_campaign_metrics,
)
from repro.runtime.runner import (
    BACKENDS,
    DEFAULT_RETRIES,
    DEFAULT_RETRY_BACKOFF_S,
    CampaignExecution,
    CellAttempt,
    check_backend,
    execute_campaign,
    execute_cells,
    shutdown_executor,
)
from repro.settings import (
    MIN_CELLS_AUTO_PARALLEL,
    Settings,
    configure,
    settings,
)

__all__ = [
    "BACKENDS",
    "SCHEMA_VERSION",
    "MIN_CELLS_AUTO_PARALLEL",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_RETRIES",
    "DEFAULT_RETRY_BACKOFF_S",
    "FAULT_KINDS",
    "WORKER_FAULT_KINDS",
    "DiskCache",
    "CampaignRecord",
    "CampaignExecution",
    "CellAttempt",
    "FaultPlan",
    "InjectedFaultError",
    "benchmark_digest",
    "campaign_digest",
    "spec_digest",
    "cache_stats",
    "reset_cache_stats",
    "campaign_metrics",
    "reset_campaign_metrics",
    "execute_campaign",
    "execute_cells",
    "shutdown_executor",
    "parse_fault_plan",
    "install_fault_plan",
    "active_fault_plan",
    "mark_server_process",
    "unmark_server_process",
    "server_process_context",
    "check_backend",
    "Settings",
    "configure",
    "settings",
    "cache_dir",
    "disk_cache",
]


def cache_dir() -> pathlib.Path:
    """Root directory of the on-disk campaign cache."""
    return settings().cache_dir


def disk_cache(resolved: Settings | None = None) -> DiskCache:
    """A :class:`DiskCache` at the configured root (or ``resolved``'s)."""
    resolved = resolved or settings()
    return DiskCache(resolved.cache_dir, resolved.cache_max_entries)
