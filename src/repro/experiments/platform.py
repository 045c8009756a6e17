"""The paper's measurement grid and campaign runner.

The experiments all share one measurement protocol: run a benchmark at
every (processor count, frequency) combination on the simulated
platform, recording execution time and energy.  This module provides
the paper's grid constants and a cached campaign runner — simulation
is deterministic, so re-measuring the same (benchmark, grid, platform)
is wasted work.

Execution is delegated to :mod:`repro.runtime`: cells fan out across a
process pool when it pays off, and results are cached in two tiers —
a per-process dict plus a content-addressed on-disk cache under
``.repro_cache/`` that survives process restarts.  Campaigns measured
on ``spec``-overridden platforms are cached too (the key includes a
digest of every spec field), so ablations only ever simulate once.

Three steps on a campaign's cache key are the only code that touches
the cache tiers or writes campaign records: :func:`lookup_campaign`
(memory, then disk), :func:`run_cells` (execute plus one record) and
:func:`store_campaign` (both tiers).  :func:`measure_campaign` is
lookup → run → store, :func:`peek_campaign` is lookup, and the
experiment planner (:mod:`repro.pipeline.planner`) composes the same
steps over whole plans.
"""

from __future__ import annotations

import time
import typing as _t

from repro import runtime
from repro.cluster.machine import ClusterSpec, paper_spec
from repro.errors import CampaignExecutionError, ConfigurationError
from repro.core.measurements import TimingCampaign
from repro.npb.base import BenchmarkModel
from repro.units import mhz

__all__ = [
    "PAPER_COUNTS",
    "PAPER_FREQUENCIES",
    "measure_campaign",
    "peek_campaign",
    "lookup_campaign",
    "run_cells",
    "store_campaign",
    "clear_campaign_cache",
]

#: The processor counts of the paper's tables (powers of two to 16).
PAPER_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16)

#: The five SpeedStep frequencies of Table 2, in hertz.
PAPER_FREQUENCIES: tuple[float, ...] = tuple(
    mhz(m) for m in (600, 800, 1000, 1200, 1400)
)

_CACHE: dict[tuple, TimingCampaign] = {}

_DEFAULT_SPEC_DIGEST: str | None = None


def _default_spec_digest() -> str:
    """Digest of the paper platform (memoized — it never changes)."""
    global _DEFAULT_SPEC_DIGEST
    if _DEFAULT_SPEC_DIGEST is None:
        _DEFAULT_SPEC_DIGEST = runtime.spec_digest(paper_spec())
    return _DEFAULT_SPEC_DIGEST


def _resolve_spec(
    spec: ClusterSpec | None, platform: str | None
) -> ClusterSpec | None:
    """Resolve the (spec, platform) pair every entry point accepts.

    An explicit ``spec`` wins (and excludes ``platform``); otherwise
    the named platform resolves through the runtime ladder (explicit →
    :func:`repro.runtime.configure` → ``REPRO_PLATFORM`` → paper).
    The paper platform resolves to ``None`` so its campaigns keep
    their pre-registry cache keys.
    """
    if spec is not None:
        if platform is not None:
            raise ConfigurationError(
                f"pass either spec= or platform={platform!r}, not both"
            )
        return spec
    from repro.platforms import DEFAULT_PLATFORM, get_platform

    name = runtime.resolve_platform(platform)
    if name == DEFAULT_PLATFORM:
        return None
    return get_platform(name)


def _cache_key(
    benchmark: BenchmarkModel,
    counts: _t.Sequence[int],
    frequencies: _t.Sequence[float],
    spec: ClusterSpec | None = None,
    backend: str | None = None,
) -> tuple:
    """Campaign identity, including platform and benchmark digests.

    ``spec=None`` (the paper platform) and an explicitly-passed
    ``paper_spec()`` hash identically, so they share cache entries.
    The benchmark digest covers configuration beyond (name, class) —
    e.g. FT's ``decomposition`` option.  The resolved backend is part
    of the identity: analytic and DES results agree only to documented
    tolerances, so their campaigns never share cache entries.
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
        runtime.resolve_backend(backend),
    )


def _label(key: tuple) -> str:
    """Campaign label (``ft.S``) of a cache key."""
    return f"{key[0]}.{key[1]}"


def lookup_campaign(
    key: tuple, *, disk_cache: bool | None = None
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
        if not runtime.disk_cache_enabled(disk_cache):
            return None
        campaign = runtime.disk_cache().get(runtime.campaign_digest(*key))
        if campaign is None:
            return None
        _CACHE[key] = campaign
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
    *,
    jobs: int | None = None,
    retries: int | None = None,
    cell_timeout: float | None = None,
    allow_partial: bool | None = None,
    fabric: bool | None = None,
) -> runtime.CampaignExecution:
    """Execute ``cells`` of the campaign under ``key``.

    Runs :func:`repro.runtime.execute_cells` on ``spec`` (``None`` is
    the paper cluster) with the key's backend, then writes one
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
            jobs=runtime.resolve_jobs(jobs, len(cells)),
            retries=runtime.resolve_retries(retries),
            cell_timeout=runtime.resolve_cell_timeout(cell_timeout),
            backoff_s=runtime.resolve_retry_backoff(),
            allow_partial=runtime.resolve_allow_partial(allow_partial),
            backend=key[6],
            fabric=fabric,
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
    key: tuple, campaign: TimingCampaign, *, disk_cache: bool | None = None
) -> None:
    """Write a complete campaign to both cache tiers under ``key``."""
    _CACHE[key] = campaign
    if runtime.disk_cache_enabled(disk_cache):
        runtime.disk_cache().put(runtime.campaign_digest(*key), campaign)


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
    :func:`repro.runtime.resolve_jobs`); parallel runs are
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
    as an alternative to ``spec``; ``None`` resolves the configured
    default (``REPRO_PLATFORM`` or the paper cluster).
    """
    spec = _resolve_spec(spec, platform)
    key = _cache_key(benchmark, counts, frequencies, spec, backend)
    if use_cache:
        campaign = lookup_campaign(key, disk_cache=disk_cache)
        if campaign is not None:
            return campaign
    execution = run_cells(
        key,
        benchmark,
        [(n, f) for n in key[2] for f in key[3]],
        spec,
        jobs=jobs,
        retries=retries,
        cell_timeout=cell_timeout,
        allow_partial=allow_partial,
        fabric=fabric,
    )
    campaign = TimingCampaign(
        times=execution.times,
        base_frequency_hz=min(key[3]),
        energies=execution.energies,
        label=_label(key),
    )
    if use_cache and not execution.failures:
        store_campaign(key, campaign, disk_cache=disk_cache)
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
    key = _cache_key(
        benchmark, counts, frequencies, _resolve_spec(spec, platform), backend
    )
    return lookup_campaign(key, disk_cache=disk_cache)


def clear_campaign_cache() -> None:
    """Drop all cached campaigns, memory *and* disk tiers.

    Tests use this for isolation, so it must leave no tier behind.
    The disk tier is only touched when it is enabled or its directory
    already exists — clearing the cache must not *create*
    ``.repro_cache/`` on a machine that has the disk cache switched
    off.
    """
    _CACHE.clear()
    if runtime.disk_cache_enabled(None) or runtime.cache_dir().exists():
        runtime.disk_cache().clear()
