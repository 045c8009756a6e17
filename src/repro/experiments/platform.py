"""The paper's measurement grid and campaign runner.

The experiments all share one measurement protocol: run a benchmark at
every (processor count, frequency) combination on the simulated
platform, recording execution time and energy.  This module provides
the paper's grid constants and a cached campaign runner — simulation
is deterministic, so re-measuring the same (benchmark, grid, platform)
is wasted work.

Execution is delegated to :mod:`repro.runtime`: cells fan out across a
process pool when it pays off, and results are cached in two tiers —
a per-process LRU of the :data:`CAMPAIGN_CACHE_ENTRIES` most recently
used campaigns, whose misses fall through to a content-addressed
on-disk cache under ``.repro_cache/`` that survives process restarts.
Campaigns measured on ``spec``-overridden platforms are cached too
(the key includes a digest of every spec field), so ablations only
ever simulate once.

Three steps on a campaign's cache key are the only code that touches
the cache tiers or writes campaign records: :func:`lookup_campaign`
(memory, then disk), :func:`run_cells` (execute plus one record) and
:func:`store_campaign` (both tiers).  :func:`measure_campaign` is
lookup → run → store, :func:`peek_campaign` is lookup, and the
experiment planner (:mod:`repro.pipeline.planner`) composes the same
steps over whole plans.

Governed runs are deterministic too, and their seed is provenance
only: beside the campaign tier sits a memory-only LRU of the
:data:`GOVERNED_RUN_ENTRIES` most recently used governed runs, keyed
by a seedless identity (:func:`cached_governed_run`, used by
:meth:`repro.pipeline.GovernRequest.run`).
"""

from __future__ import annotations

import time
import typing as _t

from repro import runtime
from repro.cluster.machine import ClusterSpec, paper_spec
from repro.errors import CampaignExecutionError, ConfigurationError
from repro.core.measurements import TimingCampaign
from repro.npb.base import BenchmarkModel
from repro.runtime.memcache import LRUCache
from repro.units import mhz

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.governor import GovernedRun

__all__ = [
    "CAMPAIGN_CACHE_ENTRIES",
    "GOVERNED_RUN_ENTRIES",
    "PAPER_COUNTS",
    "PAPER_FREQUENCIES",
    "measure_campaign",
    "peek_campaign",
    "lookup_campaign",
    "run_cells",
    "store_campaign",
    "clear_campaign_cache",
    "campaign_cache_stats",
    "cached_governed_run",
    "governed_run_cache_stats",
]

#: The processor counts of the paper's tables (powers of two to 16).
PAPER_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16)

#: The five SpeedStep frequencies of Table 2, in hertz.
PAPER_FREQUENCIES: tuple[float, ...] = tuple(
    mhz(m) for m in (600, 800, 1000, 1200, 1400)
)

#: Campaigns the per-process memory tier keeps; a long-lived server
#: measuring ever-new grids would otherwise grow without limit.
CAMPAIGN_CACHE_ENTRIES = 256

_CACHE = LRUCache(CAMPAIGN_CACHE_ENTRIES)

#: Governed runs the per-process memory tier keeps.  A stored run
#: retains about 13 KB (EP.A at 4 ranks) to 430 KB (LU.A at 16 ranks)
#: by ``tracemalloc``, so the tier stays under about 14 MB.
GOVERNED_RUN_ENTRIES = 32

_GOVERNED_RUNS = LRUCache(GOVERNED_RUN_ENTRIES)

_DEFAULT_SPEC_DIGEST: str | None = None


def _default_spec_digest() -> str:
    """Digest of the paper platform (memoized — it never changes)."""
    global _DEFAULT_SPEC_DIGEST
    if _DEFAULT_SPEC_DIGEST is None:
        _DEFAULT_SPEC_DIGEST = runtime.spec_digest(paper_spec())
    return _DEFAULT_SPEC_DIGEST


def _resolve_spec(
    spec: ClusterSpec | None,
    platform: str | None,
    settings: runtime.Settings,
) -> ClusterSpec | None:
    """Resolve the (spec, platform) pair every entry point accepts.

    An explicit ``spec`` wins (and excludes ``platform``); otherwise
    ``settings.platform`` names the platform.  The paper platform
    resolves to ``None`` so its campaigns keep their pre-registry
    cache keys.
    """
    if spec is not None:
        if platform is not None:
            raise ConfigurationError(
                f"pass either spec= or platform={platform!r}, not both"
            )
        return spec
    from repro.platforms import DEFAULT_PLATFORM, get_platform

    if settings.platform == DEFAULT_PLATFORM:
        return None
    return get_platform(settings.platform)


def _cache_key(
    benchmark: BenchmarkModel,
    counts: _t.Sequence[int],
    frequencies: _t.Sequence[float],
    spec: ClusterSpec | None,
    backend: str,
) -> tuple:
    """Campaign identity, including platform and benchmark digests.

    ``spec=None`` (the paper platform) and an explicitly-passed
    ``paper_spec()`` hash identically, so they share cache entries.
    The benchmark digest covers configuration beyond (name, class) —
    e.g. FT's ``decomposition`` option.  The resolved ``backend`` is
    part of the identity: analytic and DES results agree only to
    documented tolerances, so their campaigns never share cache
    entries.
    """
    return (
        benchmark.name,
        benchmark.problem_class.value,
        tuple(int(n) for n in counts),
        tuple(float(f) for f in frequencies),
        (
            runtime.spec_digest(spec)
            if spec is not None
            else _default_spec_digest()
        ),
        runtime.benchmark_digest(benchmark),
        backend,
    )


def _label(key: tuple) -> str:
    """Campaign label (``ft.S``) of a cache key."""
    return f"{key[0]}.{key[1]}"


def lookup_campaign(
    key: tuple, settings: runtime.Settings
) -> TimingCampaign | None:
    """The cached campaign under ``key``, or ``None`` — never simulates.

    Checks the per-process tier, then the on-disk tier (promoting a
    disk hit into memory).  A hit writes one ``memory`` or ``disk``
    campaign record.
    """
    start = time.perf_counter()
    source = "memory"
    campaign = _CACHE.get(key)
    if campaign is None:
        if not settings.disk_cache:
            return None
        campaign = runtime.disk_cache(settings).get(
            runtime.campaign_digest(*key)
        )
        if campaign is None:
            return None
        _CACHE.put(key, campaign)
        source = "disk"
    runtime.METRICS.record(
        runtime.CampaignRecord(
            label=_label(key),
            source=source,
            cells=len(key[2]) * len(key[3]),
            wall_s=time.perf_counter() - start,
        )
    )
    return campaign


def run_cells(
    key: tuple,
    benchmark: BenchmarkModel,
    cells: _t.Sequence[tuple[int, float]],
    spec: ClusterSpec | None,
    settings: runtime.Settings,
) -> runtime.CampaignExecution:
    """Execute ``cells`` of the campaign under ``key``.

    Runs :func:`repro.runtime.execute_cells` on ``spec`` (``None`` is
    the paper cluster) with the key's backend and the parallelism,
    fault-tolerance and fabric of ``settings``, then writes one
    ``simulated`` campaign record — or one ``failed`` record before
    re-raising :class:`~repro.errors.CampaignExecutionError`.
    """
    start = time.perf_counter()
    label = _label(key)
    try:
        execution = runtime.execute_cells(
            benchmark,
            cells,
            spec if spec is not None else paper_spec(),
            jobs=settings.jobs_for(len(cells)),
            retries=settings.retries,
            cell_timeout=settings.cell_timeout,
            backoff_s=settings.retry_backoff_s,
            allow_partial=settings.allow_partial,
            backend=key[6],
            fabric=settings.fabric,
        )
    except CampaignExecutionError as error:
        runtime.METRICS.record(
            runtime.CampaignRecord(
                label=label,
                source="failed",
                cells=len(cells),
                wall_s=time.perf_counter() - start,
                failed_cells=len(error.failures),
                failures=tuple(
                    {"cell": list(err.cell), "error": str(err)}
                    for err in error.failures
                ),
            )
        )
        raise
    runtime.METRICS.record(
        runtime.CampaignRecord(
            label=label,
            source="simulated",
            cells=len(cells),
            wall_s=time.perf_counter() - start,
            jobs=execution.jobs,
            analytic_cells=execution.analytic_cells,
            fabric_cells=execution.fabric_cells,
            fabric_workers=execution.fabric_workers,
            fabric_reassignments=execution.fabric_reassignments,
            cell_wall_s=execution.cell_wall_s,
            attempts=len(execution.attempts),
            retries=execution.retry_count,
            timeouts=execution.timeout_count,
            crash_recoveries=execution.crash_recoveries,
            failed_cells=len(execution.failures),
            cell_attempts=tuple(
                (n, f, count)
                for (n, f), count in execution.cell_attempts().items()
            ),
            failures=tuple(execution.failure_report()),
            events_processed=execution.events_processed,
            processes_spawned=execution.processes_spawned,
            peak_queue_len=execution.peak_queue_len,
        )
    )
    return execution


def store_campaign(
    key: tuple, campaign: TimingCampaign, settings: runtime.Settings
) -> None:
    """Write a complete campaign to both cache tiers under ``key``."""
    _CACHE.put(key, campaign)
    if settings.disk_cache:
        runtime.disk_cache(settings).put(
            runtime.campaign_digest(*key), campaign
        )


def measure_campaign(
    benchmark: BenchmarkModel,
    counts: _t.Sequence[int] = PAPER_COUNTS,
    frequencies: _t.Sequence[float] = PAPER_FREQUENCIES,
    use_cache: bool = True,
    spec: ClusterSpec | None = None,
    *,
    jobs: int | None = None,
    disk_cache: bool | None = None,
    retries: int | None = None,
    cell_timeout: float | None = None,
    allow_partial: bool | None = None,
    backend: str | None = None,
    fabric: bool | None = None,
    platform: str | None = None,
) -> TimingCampaign:
    """Measure a benchmark over a (counts × frequencies) grid.

    Each cell is one fresh simulated job: a cluster of exactly ``n``
    nodes pinned at frequency ``f`` running the benchmark to
    completion.  Returns a :class:`~repro.core.measurements.
    TimingCampaign` with both times and energies.

    ``spec`` overrides the platform (ablations measure on modified
    hardware); such campaigns are cached under a spec-digest key.
    ``jobs`` sets the worker-process count (default: auto — see
    :meth:`repro.settings.Settings.jobs_for`); parallel runs are
    bit-identical to serial ones.  ``disk_cache`` overrides the
    on-disk tier for this call; ``use_cache=False`` bypasses (and
    does not populate) both tiers.

    Execution is fault tolerant: cells that raise or hang are retried
    (``retries`` extra attempts each, default 2) with exponential
    backoff, ``cell_timeout`` seconds of stall marks running cells
    hung (workers are terminated and the cells re-run), and a worker
    crash re-simulates only the unfinished cells.  When a cell
    exhausts its budget the campaign raises :class:`~repro.errors.
    CampaignExecutionError` — unless ``allow_partial`` is set, in
    which case the surviving cells are returned and a structured
    failure report lands in the campaign's metrics record.  Partial
    campaigns are never written to either cache tier.

    ``backend`` selects the execution path (``"des"``, ``"analytic"``
    or ``"auto"``; ``None`` resolves the configured default).  The
    resolved backend is part of the cache identity, so a DES-measured
    grid is never served for an analytic request or vice versa.

    ``fabric`` offers the DES cells to the distributed worker fleet
    (:mod:`repro.fabric`) when one is installed, falling back to the
    local pool otherwise.  Fabric is *not* part of the cache identity:
    it changes where cells run, never what they compute — fleet
    results are bit-identical to local ones.

    ``platform`` names a registered platform (:mod:`repro.platforms`)
    as an alternative to ``spec``.

    Every runtime keyword left at ``None`` resolves once, through
    :func:`repro.settings.settings`.
    """
    settings = runtime.settings(
        jobs=jobs,
        disk_cache=disk_cache,
        retries=retries,
        cell_timeout=cell_timeout,
        allow_partial=allow_partial,
        backend=backend,
        fabric=fabric,
        platform=platform,
    )
    spec = _resolve_spec(spec, platform, settings)
    key = _cache_key(benchmark, counts, frequencies, spec, settings.backend)
    if use_cache:
        campaign = lookup_campaign(key, settings)
        if campaign is not None:
            return campaign
    execution = run_cells(
        key,
        benchmark,
        [(n, f) for n in key[2] for f in key[3]],
        spec,
        settings,
    )
    campaign = TimingCampaign(
        times=execution.times,
        base_frequency_hz=min(key[3]),
        energies=execution.energies,
        label=_label(key),
    )
    if use_cache and not execution.failures:
        store_campaign(key, campaign, settings)
    return campaign


def peek_campaign(
    benchmark: BenchmarkModel,
    counts: _t.Sequence[int] = PAPER_COUNTS,
    frequencies: _t.Sequence[float] = PAPER_FREQUENCIES,
    spec: ClusterSpec | None = None,
    *,
    disk_cache: bool | None = None,
    backend: str | None = None,
    platform: str | None = None,
) -> TimingCampaign | None:
    """Cache-only :func:`measure_campaign`: :func:`lookup_campaign` on
    the same key, ``None`` on a full miss."""
    settings = runtime.settings(
        disk_cache=disk_cache, backend=backend, platform=platform
    )
    spec = _resolve_spec(spec, platform, settings)
    key = _cache_key(benchmark, counts, frequencies, spec, settings.backend)
    return lookup_campaign(key, settings)


def cached_governed_run(
    key: tuple, simulate: _t.Callable[[], "GovernedRun"]
) -> "GovernedRun":
    """The governed run stored under ``key``; ``simulate()`` it (and
    store it) on a miss.

    ``key`` must name everything the run depends on except its seed.
    The stored run itself is returned, so callers hand out copies.
    Two threads that miss on one key at once may both simulate; both
    store the same run.
    """
    run = _GOVERNED_RUNS.get(key)
    if run is None:
        run = simulate()
        _GOVERNED_RUNS.put(key, run)
    return run


def clear_campaign_cache() -> None:
    """Drop all cached campaigns, memory *and* disk tiers, and every
    cached governed run.

    Tests use this for isolation, so it must leave no tier behind.
    The disk tier is only touched when it is enabled or its directory
    already exists — clearing the cache must not *create*
    ``.repro_cache/`` on a machine that has the disk cache switched
    off.
    """
    _CACHE.clear()
    _GOVERNED_RUNS.clear()
    settings = runtime.settings()
    if settings.disk_cache or settings.cache_dir.exists():
        runtime.disk_cache(settings).clear()


def campaign_cache_stats() -> dict[str, int]:
    """Size, bound and hit/miss/eviction counters of the memory tier."""
    return _CACHE.stats()


def governed_run_cache_stats() -> dict[str, int]:
    """Size, bound and hit/miss/eviction counters of the governed-run
    tier."""
    return _GOVERNED_RUNS.stats()
