"""Campaign execution runtime: parallelism, caching, fault tolerance.

This subsystem turns :func:`repro.experiments.platform.
measure_campaign` from a serial, per-process-cached loop into a
runtime with four layers:

* :mod:`repro.runtime.runner` — fans grid cells out over a persistent
  process pool, merges results deterministically, and survives worker
  exceptions, hangs and crashes via per-cell retries, timeouts and
  crash recovery.
* :mod:`repro.runtime.diskcache` — a content-addressed on-disk cache
  under ``.repro_cache/`` with checksummed, quarantine-on-corruption
  entries and a bounded LRU footprint, so *warm processes skip
  simulation entirely*.
* :mod:`repro.runtime.metrics` — per-cell timing, cache-hit and
  fault-tolerance counters for the benchmark harness.
* :mod:`repro.runtime.faults` — a deterministic, seeded
  fault-injection harness (``REPRO_FAULTS``) that makes the other
  three testable.

There is one campaign path.  :func:`execute_cells` (and
:func:`execute_campaign`, its full-grid form) only execute, on the
``ClusterSpec`` they are given.  Cache tiers and campaign records
belong to three steps on a campaign's cache key in
:mod:`repro.experiments.platform`: ``lookup_campaign`` (memory, then
disk), ``run_cells`` (:func:`execute_cells` plus one ``simulated`` or
``failed`` record) and ``store_campaign`` (both tiers).
``measure_campaign`` and the experiment planner
(:mod:`repro.pipeline`) are both built from them.

Configuration resolves in priority order: explicit call argument →
:func:`configure` (what the CLI's ``--jobs`` / ``--no-disk-cache`` /
``--retries`` / ``--cell-timeout`` / ``--allow-partial`` /
``--backend`` set) → environment (``REPRO_JOBS``,
``REPRO_DISK_CACHE``, ``REPRO_CACHE_DIR``, ``REPRO_RETRIES``,
``REPRO_CELL_TIMEOUT``, ``REPRO_ALLOW_PARTIAL``,
``REPRO_RETRY_BACKOFF_S``, ``REPRO_BACKEND``, ``REPRO_FABRIC``,
``REPRO_PLATFORM``) →
defaults.  Auto
parallelism only engages for grids of at least
:data:`MIN_CELLS_AUTO_PARALLEL` cells on multi-core hosts — tiny
campaigns are faster serial than through a pool.
"""

from __future__ import annotations

import os
import pathlib
import typing as _t

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
    "configure",
    "resolve_backend",
    "resolve_platform",
    "resolve_fabric",
    "resolve_jobs",
    "resolve_plan_window",
    "resolve_retries",
    "resolve_cell_timeout",
    "resolve_retry_backoff",
    "resolve_allow_partial",
    "disk_cache_enabled",
    "cache_dir",
    "disk_cache",
]

#: Below this many cells, auto mode stays serial (pool + pickling
#: overhead beats the win on small grids).
MIN_CELLS_AUTO_PARALLEL = 10

_UNSET: _t.Any = object()

_jobs: int | None = None
_disk_cache: bool | None = None
_cache_dir: pathlib.Path | None = None
_retries: int | None = None
_cell_timeout: float | None = None
_allow_partial: bool | None = None
_retry_backoff_s: float | None = None
_backend: str | None = None
_fabric: bool | None = None
_platform: str | None = None


def configure(
    jobs: int | None = _UNSET,
    disk_cache: bool | None = _UNSET,
    cache_dir: str | os.PathLike | None = _UNSET,
    retries: int | None = _UNSET,
    cell_timeout: float | None = _UNSET,
    allow_partial: bool | None = _UNSET,
    retry_backoff_s: float | None = _UNSET,
    backend: str | None = _UNSET,
    fabric: bool | None = _UNSET,
    platform: str | None = _UNSET,
) -> None:
    """Set process-wide runtime defaults (``None`` restores auto).

    Only the arguments actually passed are changed.
    """
    global _jobs, _disk_cache, _cache_dir
    global _retries, _cell_timeout, _allow_partial, _retry_backoff_s
    global _backend, _fabric, _platform
    if backend is not _UNSET:
        _backend = None if backend is None else check_backend(backend)
    if platform is not _UNSET:
        if platform is None:
            _platform = None
        else:
            from repro.platforms import check_platform

            _platform = check_platform(platform)
    if fabric is not _UNSET:
        _fabric = None if fabric is None else bool(fabric)
    if jobs is not _UNSET:
        _jobs = None if jobs is None else max(1, int(jobs))
    if disk_cache is not _UNSET:
        _disk_cache = disk_cache
    if cache_dir is not _UNSET:
        _cache_dir = (
            None if cache_dir is None else pathlib.Path(cache_dir)
        )
    if retries is not _UNSET:
        _retries = None if retries is None else max(0, int(retries))
    if cell_timeout is not _UNSET:
        _cell_timeout = (
            None if cell_timeout is None else float(cell_timeout)
        )
    if allow_partial is not _UNSET:
        _allow_partial = allow_partial
    if retry_backoff_s is not _UNSET:
        _retry_backoff_s = (
            None
            if retry_backoff_s is None
            else max(0.0, float(retry_backoff_s))
        )


def _env_number(
    name: str, convert: _t.Callable[[str], _t.Any]
) -> _t.Any | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return convert(raw)
    except ValueError:
        return None


def resolve_jobs(explicit: int | None, n_cells: int) -> int:
    """Worker count for a campaign of ``n_cells`` grid cells."""
    jobs = explicit if explicit is not None else _jobs
    if jobs is None:
        jobs = _env_number("REPRO_JOBS", int)
    if jobs is None:  # auto
        if n_cells < MIN_CELLS_AUTO_PARALLEL:
            return 1
        jobs = os.cpu_count() or 1
    return max(1, min(int(jobs), max(1, n_cells)))


def resolve_backend(explicit: str | None = None) -> str:
    """Campaign execution backend: ``"des"``, ``"analytic"`` or ``"auto"``.

    Resolution order: explicit argument → :func:`configure` →
    ``REPRO_BACKEND`` → ``"des"``.  Unknown names raise
    :class:`~repro.errors.ConfigurationError` naming the choices.
    """
    backend = explicit if explicit is not None else _backend
    if backend is None:
        env = os.environ.get("REPRO_BACKEND", "").strip()
        backend = env or "des"
    return check_backend(backend)


def resolve_platform(explicit: str | None = None) -> str:
    """Named platform campaigns run on (see :mod:`repro.platforms`).

    Resolution order: explicit argument → :func:`configure` →
    ``REPRO_PLATFORM`` → ``"paper"``.  Unknown names raise
    :class:`~repro.errors.ConfigurationError` naming the registered
    choices, exactly like :func:`resolve_backend` does for backends.
    """
    from repro.platforms import DEFAULT_PLATFORM, check_platform

    platform = explicit if explicit is not None else _platform
    if platform is None:
        env = os.environ.get("REPRO_PLATFORM", "").strip()
        platform = env or DEFAULT_PLATFORM
    return check_platform(platform)


def resolve_fabric(explicit: bool | None = None) -> bool:
    """Whether DES cells are offered to the distributed worker fleet.

    Resolution order: explicit argument → :func:`configure` →
    ``REPRO_FABRIC`` → ``False``.  Enabling fabric is *safe* even with
    no fleet: the dispatcher falls back to local execution when no
    coordinator is installed or no workers are live.  Fabric is not
    part of the campaign cache identity — it changes where DES cells
    run, never what they compute.
    """
    if explicit is not None:
        return bool(explicit)
    if _fabric is not None:
        return _fabric
    env = os.environ.get("REPRO_FABRIC", "").strip().lower()
    return env in ("1", "true", "yes", "on")


#: Default bounded in-flight window for pipelined planner dispatch.
DEFAULT_PLAN_WINDOW = 4


def resolve_plan_window(explicit: int | None = None) -> int:
    """Concurrent execution groups the planner keeps in flight.

    Only applies when a live worker fleet is dispatching the plan
    (``fabric``); the local-pool path stays strictly sequential.
    Resolution order: explicit argument → ``REPRO_PLAN_WINDOW`` →
    ``4``.  ``1`` disables pipelining.
    """
    window = explicit
    if window is None:
        window = _env_number("REPRO_PLAN_WINDOW", int)
    if window is None:
        window = DEFAULT_PLAN_WINDOW
    return max(1, int(window))


def resolve_retries(explicit: int | None = None) -> int:
    """Extra attempts each cell gets after a failure of its own."""
    retries = explicit if explicit is not None else _retries
    if retries is None:
        retries = _env_number("REPRO_RETRIES", int)
    if retries is None:
        retries = DEFAULT_RETRIES
    return max(0, int(retries))


def resolve_cell_timeout(explicit: float | None = None) -> float | None:
    """Per-cell stall timeout in seconds (``None`` = disabled).

    Non-positive values disable the timeout, matching ``--cell-timeout
    0`` on the CLI.
    """
    timeout = explicit if explicit is not None else _cell_timeout
    if timeout is None:
        timeout = _env_number("REPRO_CELL_TIMEOUT", float)
    if timeout is None or timeout <= 0:
        return None
    return float(timeout)


def resolve_retry_backoff(explicit: float | None = None) -> float:
    """Base of the exponential retry backoff, in seconds."""
    backoff = explicit if explicit is not None else _retry_backoff_s
    if backoff is None:
        backoff = _env_number("REPRO_RETRY_BACKOFF_S", float)
    if backoff is None:
        backoff = DEFAULT_RETRY_BACKOFF_S
    return max(0.0, float(backoff))


def resolve_allow_partial(explicit: bool | None = None) -> bool:
    """Whether exhausted cells degrade to a partial campaign."""
    if explicit is not None:
        return explicit
    if _allow_partial is not None:
        return _allow_partial
    env = os.environ.get("REPRO_ALLOW_PARTIAL", "").strip().lower()
    return env in ("1", "true", "yes", "on")


def disk_cache_enabled(explicit: bool | None = None) -> bool:
    """Whether the on-disk cache tier is active."""
    if explicit is not None:
        return explicit
    if _disk_cache is not None:
        return _disk_cache
    env = os.environ.get("REPRO_DISK_CACHE", "").strip().lower()
    return env not in ("0", "false", "no", "off")


def cache_dir() -> pathlib.Path:
    """Root directory of the on-disk campaign cache."""
    if _cache_dir is not None:
        return _cache_dir
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return pathlib.Path(env) if env else pathlib.Path(".repro_cache")


def disk_cache() -> DiskCache:
    """A :class:`DiskCache` at the currently-configured root."""
    return DiskCache(cache_dir())
