"""Fault-tolerant parallel campaign cell execution.

Every (processor count, frequency) cell of a measurement campaign is an
independent deterministic simulation — embarrassingly parallel.  This
module fans cells out across a persistent :class:`~concurrent.futures.
ProcessPoolExecutor` and merges the results back in *grid order*, so a
parallel run is bit-identical to a serial one: same floats, same dict
insertion order.

On top of the fan-out sits a fault-tolerance layer:

* **Per-cell retries with exponential backoff.**  A cell whose worker
  raises gets re-submitted (with an incremented attempt number, which
  the fault-injection harness keys on) up to ``retries`` more times.
* **Per-cell timeouts.**  If no cell completes within ``cell_timeout``
  seconds, every still-running cell is declared hung; the pool is
  hard-reset (hung workers are *terminated*, not waited on) and the
  stuck cells retried.  Cells that never started are re-queued without
  consuming an attempt.
* **Crash recovery.**  A worker dying (segfault, ``os._exit``) breaks
  the whole pool, but futures that already completed keep their
  results — only the unfinished cells are re-submitted to a fresh
  pool.  Two fruitless crash rounds in a row drop the remainder to
  the serial path.
* **Graceful degradation.**  With ``allow_partial`` the surviving
  cells are returned together with per-cell
  :class:`~repro.errors.CellExecutionError` failure records; without
  it the campaign raises :class:`~repro.errors.CampaignExecutionError`
  carrying the same records.

Because simulation is deterministic, a cell that succeeds on retry
produces exactly the bytes it would have produced on a clean first
run, so a fault-ridden campaign that completes is bit-identical to an
undisturbed one.

The pool is created lazily, reused across campaigns (startup cost is
paid once per process, not per campaign) and torn down at interpreter
exit — with ``wait=True`` there, so no forked child outlives the
interpreter.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import dataclasses
import multiprocessing
import pickle
import time
import typing as _t

from repro.cluster.machine import Cluster, ClusterSpec
from repro.errors import (
    CampaignExecutionError,
    CellExecutionError,
    CellTimeoutError,
    ConfigurationError,
)
from repro.npb.base import BenchmarkModel
from repro.runtime import faults
from repro.settings import Settings, settings

__all__ = [
    "BACKENDS",
    "DEFAULT_RETRIES",
    "DEFAULT_RETRY_BACKOFF_S",
    "CellAttempt",
    "CampaignExecution",
    "check_backend",
    "execute_campaign",
    "execute_cells",
    "shutdown_executor",
]

Cell = tuple[int, float]

#: Campaign execution backends: ``"des"`` simulates every cell in the
#: discrete-event simulator, ``"analytic"`` evaluates the closed forms
#: (:mod:`repro.analytic`) without spawning any pool, and ``"auto"``
#: routes each cell analytically when the closed form models it and
#: falls back to the DES otherwise.
BACKENDS = ("des", "analytic", "auto")


def check_backend(backend: str) -> str:
    """Validate a backend name, returning it normalised.

    Raises :class:`~repro.errors.ConfigurationError` naming the valid
    choices for anything outside :data:`BACKENDS`.
    """
    name = str(backend).strip().lower()
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}: valid choices are "
            + ", ".join(repr(b) for b in BACKENDS)
        )
    return name

#: Extra attempts a cell gets after its first failure.
DEFAULT_RETRIES = Settings.retries

#: Base of the exponential backoff between retry rounds, in seconds.
DEFAULT_RETRY_BACKOFF_S = Settings.retry_backoff_s

#: After this many consecutive pool breaks that harvested zero new
#: results, the remaining cells run serially instead.
_MAX_FRUITLESS_CRASHES = 2

_EXECUTOR: concurrent.futures.ProcessPoolExecutor | None = None
_EXECUTOR_JOBS = 0


@dataclasses.dataclass(frozen=True)
class CellAttempt:
    """One try at one grid cell, as observed by the runner.

    Attributes
    ----------
    cell:
        The ``(n, frequency_hz)`` grid cell.
    attempt:
        0-based attempt number (0 = first try).
    outcome:
        ``"ok"``, ``"exception"``, ``"timeout"`` or ``"crash"`` from
        the local runner; fabric execution adds ``"lost"`` (the
        worker holding the cell's lease died or let it expire — not
        billed to the cell's retry budget, like a pool crash) and
        ``"corrupt"`` (the result payload failed its checksum and was
        quarantined — billed, like an exception).
    error:
        Error text for failed attempts (empty for ``"ok"``).
    wall_s:
        Wall-clock the attempt took where known (0.0 for crashes and
        cancelled waits).
    """

    cell: Cell
    attempt: int
    outcome: str
    error: str = ""
    wall_s: float = 0.0

    def as_dict(self) -> dict[str, _t.Any]:
        """JSON-ready form (what failure reports embed)."""
        return {
            "cell": [self.cell[0], self.cell[1]],
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error": self.error,
            "wall_s": self.wall_s,
        }


@dataclasses.dataclass
class CampaignExecution:
    """Everything one ``execute_campaign`` call produced and endured.

    Attributes
    ----------
    times, energies:
        Per-cell results in grid order; failed cells (only possible
        with ``allow_partial``) are absent.
    cell_wall_s:
        Simulation wall time of each *successful* cell, grid order.
    jobs:
        Worker processes actually used (the live pool size capped by
        the cell count — may exceed the requested jobs if an earlier
        campaign grew the pool).
    attempts:
        Complete :class:`CellAttempt` log across all retry rounds.
    failures:
        One :class:`~repro.errors.CellExecutionError` per permanently
        failed cell (empty unless ``allow_partial`` let them through).
    crash_recoveries:
        Pool-break events survived (completed results were kept and
        only unfinished cells re-submitted).
    analytic_cells:
        Cells evaluated by the closed-form analytic backend instead of
        the simulator (nonzero only for ``backend="analytic"`` or
        ``"auto"``).
    cell_engine_stats:
        Per successful cell (grid order), the simulation engine's
        throughput counters — ``events_processed``,
        ``processes_spawned``, ``peak_queue_len`` (see
        :meth:`Engine.stats <repro.sim.engine.Engine.stats>`).
    fabric_cells:
        Cells whose accepted result came from the worker fleet
        (:mod:`repro.fabric`) rather than the local pool.
    fabric_workers:
        Distinct fleet workers that contributed accepted results.
    fabric_reassignments:
        Cells requeued after a lost worker or expired lease — the
        fleet's analogue of ``crash_recoveries``.
    """

    times: dict[Cell, float]
    energies: dict[Cell, float]
    cell_wall_s: tuple[float, ...]
    jobs: int
    attempts: tuple[CellAttempt, ...] = ()
    failures: tuple[CellExecutionError, ...] = ()
    crash_recoveries: int = 0
    cell_engine_stats: tuple[dict[str, int], ...] = ()
    analytic_cells: int = 0
    fabric_cells: int = 0
    fabric_workers: int = 0
    fabric_reassignments: int = 0

    @property
    def events_processed(self) -> int:
        """Engine heap entries executed, summed over successful cells."""
        return sum(s["events_processed"] for s in self.cell_engine_stats)

    @property
    def processes_spawned(self) -> int:
        """Simulated processes started, summed over successful cells."""
        return sum(s["processes_spawned"] for s in self.cell_engine_stats)

    @property
    def peak_queue_len(self) -> int:
        """Largest event-heap high-water mark over all cells."""
        return max(
            (s["peak_queue_len"] for s in self.cell_engine_stats), default=0
        )

    @property
    def events_per_second(self) -> float:
        """Engine throughput: events processed per simulation-wall second.

        Wall time is the *sum* of per-cell simulation times (the work
        done), not elapsed campaign time, so the figure is comparable
        between serial and parallel runs.
        """
        wall = sum(self.cell_wall_s)
        return self.events_processed / wall if wall > 0 else 0.0

    @property
    def retry_count(self) -> int:
        """Attempts beyond each cell's first (the re-submissions)."""
        return len(self.attempts) - len(
            {a.cell for a in self.attempts}
        )

    @property
    def timeout_count(self) -> int:
        """Attempts that ended in a per-cell timeout."""
        return sum(1 for a in self.attempts if a.outcome == "timeout")

    def cell_attempts(self) -> dict[Cell, int]:
        """Attempts consumed per cell (1 everywhere on a clean run)."""
        counts: dict[Cell, int] = {}
        for a in self.attempts:
            counts[a.cell] = counts.get(a.cell, 0) + 1
        return counts

    def failure_report(self) -> list[dict[str, _t.Any]]:
        """Structured per-cell failure report (JSON-ready)."""
        return [
            {
                "cell": [err.cell[0], err.cell[1]],
                "error": str(err),
                "timeout": isinstance(err, CellTimeoutError),
                "attempts": [
                    a.as_dict()
                    for a in err.attempts
                    if isinstance(a, CellAttempt)
                ],
            }
            for err in self.failures
        ]


def _simulate_cell(
    benchmark: BenchmarkModel,
    n: int,
    f: float,
    spec: ClusterSpec,
    attempt: int = 0,
    plan: faults.FaultPlan | None = None,
) -> tuple[float, float, float, dict[str, int]]:
    """Run one grid cell.

    Returns ``(elapsed_s, energy_j, sim wall s, engine stats)`` where
    the stats dict is :meth:`Engine.stats <repro.sim.engine.Engine.stats>`
    for the cell's (fresh) engine — events processed, processes
    spawned, peak queue length.  ``plan`` ships the caller's fault plan
    into the worker explicitly, so injection works even in pool
    processes forked before the plan was installed.
    """
    start = time.perf_counter()
    faults.maybe_inject(n, f, attempt, plan)
    cluster = Cluster(spec.with_nodes(n), frequency_hz=f)
    result = benchmark.run(cluster)
    return (
        result.elapsed_s,
        result.energy_j,
        time.perf_counter() - start,
        cluster.engine.stats(),
    )


def _get_executor(jobs: int) -> concurrent.futures.ProcessPoolExecutor:
    global _EXECUTOR, _EXECUTOR_JOBS
    if _EXECUTOR is None or _EXECUTOR_JOBS < jobs:
        if _EXECUTOR is not None:
            _EXECUTOR.shutdown(wait=False, cancel_futures=True)
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        _EXECUTOR = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=context
        )
        _EXECUTOR_JOBS = jobs
    return _EXECUTOR


def shutdown_executor(wait: bool = False) -> None:
    """Tear down the worker pool (idempotent; pool restarts on demand).

    Mid-run resets use ``wait=False`` so a broken pool never blocks
    recovery; the interpreter-exit hook passes ``wait=True`` so forked
    children are reaped rather than orphaned past exit.
    """
    global _EXECUTOR, _EXECUTOR_JOBS
    if _EXECUTOR is not None:
        _EXECUTOR.shutdown(wait=wait, cancel_futures=True)
        _EXECUTOR = None
        _EXECUTOR_JOBS = 0


def _shutdown_at_exit() -> None:
    shutdown_executor(wait=True)


atexit.register(_shutdown_at_exit)


def _hard_reset_executor() -> None:
    """Terminate every worker outright and discard the pool.

    The only way to clear a *hung* worker: ``shutdown`` (with or
    without ``wait``) never interrupts a task that is already
    running.  Terminated children are then reaped by ``wait=True``.
    """
    global _EXECUTOR, _EXECUTOR_JOBS
    executor = _EXECUTOR
    _EXECUTOR = None
    _EXECUTOR_JOBS = 0
    if executor is None:
        return
    for process in list(getattr(executor, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - racing process death
            pass
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except Exception:  # pragma: no cover - pool already broken
        pass


def _own_fault_attempts(log: list[CellAttempt], cell: Cell) -> int:
    """Failed attempts attributable to the cell itself.

    Crash outcomes are excluded: when a pool breaks, every unfinished
    future reports :class:`BrokenProcessPool` and the runner cannot
    tell the guilty cell from innocent bystanders, so crashes are
    bounded by the round limit instead of the per-cell budget.
    """
    return sum(
        1
        for a in log
        if a.cell == cell and a.outcome in ("exception", "timeout")
    )


def _run_serial_attempts(
    benchmark: BenchmarkModel,
    cells: _t.Sequence[Cell],
    spec: ClusterSpec,
    *,
    retries: int,
    backoff_s: float,
    attempt_index: dict[Cell, int],
    log: list[CellAttempt],
    results: dict[Cell, tuple[float, float, float, dict]],
    plan: faults.FaultPlan | None = None,
) -> None:
    """Serial execution with the same retry accounting as parallel.

    Timeouts are not enforceable in-process (a hang blocks the caller)
    — that protection requires ``jobs > 1``.  Injected crashes degrade
    to exceptions in the main process, so they retry like any error.
    """
    for cell in cells:
        if cell in results:
            continue
        n, f = cell
        while True:
            attempt = attempt_index[cell]
            attempt_index[cell] = attempt + 1
            start = time.perf_counter()
            try:
                results[cell] = _simulate_cell(
                    benchmark, n, f, spec, attempt, plan
                )
            except Exception as exc:
                log.append(
                    CellAttempt(
                        cell,
                        attempt,
                        "exception",
                        error=repr(exc),
                        wall_s=time.perf_counter() - start,
                    )
                )
                if _own_fault_attempts(log, cell) > retries:
                    break
                if backoff_s > 0:
                    time.sleep(backoff_s * 2**attempt)
            else:
                log.append(
                    CellAttempt(
                        cell, attempt, "ok", wall_s=results[cell][2]
                    )
                )
                break


def _run_analytic_cells(
    benchmark: BenchmarkModel,
    cells: _t.Sequence[Cell],
    spec: ClusterSpec,
    *,
    attempt_index: dict[Cell, int],
    log: list[CellAttempt],
    results: dict[Cell, tuple[float, float, float, dict]],
) -> None:
    """Evaluate cells through the closed-form analytic backend.

    One vectorized numpy pass over the whole cell list — no process
    pool, no retries (the evaluation is pure arithmetic; any failure is
    a configuration error and raises immediately).  Per-cell wall time
    is the pass's elapsed time split evenly, and engine stats are zero:
    no simulation events happen on this path.
    """
    from repro.analytic import AnalyticCampaignModel

    start = time.perf_counter()
    evaluation = AnalyticCampaignModel(benchmark, spec).evaluate_cells(
        cells
    )
    wall_share = (time.perf_counter() - start) / max(len(cells), 1)
    times = evaluation.times_by_cell()
    energies = evaluation.energies_by_cell()
    for cell in cells:
        attempt = attempt_index[cell]
        attempt_index[cell] = attempt + 1
        results[cell] = (
            times[cell],
            energies[cell],
            wall_share,
            {
                "events_processed": 0,
                "processes_spawned": 0,
                "peak_queue_len": 0,
            },
        )
        log.append(CellAttempt(cell, attempt, "ok", wall_s=wall_share))


def _harvest_round(
    futures: dict[concurrent.futures.Future, Cell],
    *,
    cell_timeout: float | None,
    attempt_of: dict[concurrent.futures.Future, int],
    log: list[CellAttempt],
    results: dict[Cell, tuple[float, float, float, dict]],
) -> tuple[bool, bool]:
    """Collect one round of futures; returns (pool_broken, hung).

    Waits for completions one ``FIRST_COMPLETED`` step at a time.  If
    *no* future completes within ``cell_timeout`` the still-running
    cells are recorded as timed out (queued-but-unstarted futures are
    cancelled without consuming an attempt) and the round ends with
    ``hung=True`` so the caller can hard-reset the pool.
    """
    outstanding = dict(futures)
    pool_broken = False
    while outstanding:
        done, _ = concurrent.futures.wait(
            outstanding,
            timeout=cell_timeout,
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        if not done:
            for future, cell in outstanding.items():
                if future.cancel():
                    continue  # never started: retry costs no attempt
                log.append(
                    CellAttempt(
                        cell,
                        attempt_of[future],
                        "timeout",
                        error=(
                            f"no completion within {cell_timeout}s; "
                            "worker terminated"
                        ),
                    )
                )
            return pool_broken, True
        for future in done:
            cell = outstanding.pop(future)
            try:
                results[cell] = future.result()
            except concurrent.futures.process.BrokenProcessPool:
                pool_broken = True
                log.append(
                    CellAttempt(
                        cell,
                        attempt_of[future],
                        "crash",
                        error="worker process died (pool broken)",
                    )
                )
            except concurrent.futures.CancelledError:
                pass  # re-queued by the caller, no attempt consumed
            except Exception as exc:
                log.append(
                    CellAttempt(
                        cell,
                        attempt_of[future],
                        "exception",
                        error=repr(exc),
                    )
                )
            else:
                log.append(
                    CellAttempt(
                        cell,
                        attempt_of[future],
                        "ok",
                        wall_s=results[cell][2],
                    )
                )
    return pool_broken, False


def _run_parallel_resilient(
    benchmark: BenchmarkModel,
    cells: _t.Sequence[Cell],
    spec: ClusterSpec,
    jobs: int,
    *,
    retries: int,
    cell_timeout: float | None,
    backoff_s: float,
    attempt_index: dict[Cell, int],
    log: list[CellAttempt],
    results: dict[Cell, tuple[float, float, float, dict]],
) -> tuple[int, int]:
    """Retry loop over the process pool; returns (jobs_used, crashes)."""
    plan = faults.active_fault_plan()
    crash_recoveries = 0
    fruitless_crashes = 0
    jobs_used = jobs
    max_rounds = retries + 1 + _MAX_FRUITLESS_CRASHES
    for round_no in range(max_rounds):
        pending = [
            cell
            for cell in cells
            if cell not in results
            and _own_fault_attempts(log, cell) <= retries
        ]
        if not pending:
            break
        if round_no > 0 and backoff_s > 0:
            time.sleep(backoff_s * 2 ** (round_no - 1))
        if fruitless_crashes >= _MAX_FRUITLESS_CRASHES:
            _run_serial_attempts(
                benchmark,
                pending,
                spec,
                retries=retries,
                backoff_s=backoff_s,
                attempt_index=attempt_index,
                log=log,
                results=results,
                plan=plan,
            )
            break
        executor = _get_executor(jobs)
        jobs_used = max(jobs_used, min(_EXECUTOR_JOBS, len(cells)))
        futures: dict[concurrent.futures.Future, Cell] = {}
        attempt_of: dict[concurrent.futures.Future, int] = {}
        broken_on_submit = False
        for cell in pending:
            n, f = cell
            attempt = attempt_index[cell]
            try:
                future = executor.submit(
                    _simulate_cell, benchmark, n, f, spec, attempt, plan
                )
            except concurrent.futures.process.BrokenProcessPool:
                # A worker died before the round was fully submitted;
                # the cells not yet submitted used no attempt.
                broken_on_submit = True
                break
            attempt_index[cell] = attempt + 1
            futures[future] = cell
            attempt_of[future] = attempt
        harvested_before = len(results)
        pool_broken, hung = _harvest_round(
            futures,
            cell_timeout=cell_timeout,
            attempt_of=attempt_of,
            log=log,
            results=results,
        )
        pool_broken = pool_broken or broken_on_submit
        # Cancelled/never-started cells did not consume their attempt.
        for future, cell in futures.items():
            if future.cancelled():
                attempt_index[cell] -= 1
        if hung:
            _hard_reset_executor()
        elif pool_broken:
            shutdown_executor(wait=False)
        if pool_broken:
            crash_recoveries += 1
            if len(results) == harvested_before:
                fruitless_crashes += 1
            else:
                fruitless_crashes = 0
    return jobs_used, crash_recoveries


def execute_campaign(
    benchmark: BenchmarkModel,
    counts: _t.Sequence[int],
    frequencies: _t.Sequence[float],
    spec: ClusterSpec,
    jobs: int = 1,
    *,
    retries: int = DEFAULT_RETRIES,
    cell_timeout: float | None = None,
    backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    allow_partial: bool = False,
    backend: str | None = None,
    fabric: bool | None = None,
) -> CampaignExecution:
    """Simulate every grid cell with retries, timeouts and recovery.

    Returns a :class:`CampaignExecution`.  The result dicts are always
    populated in grid order (outer loop counts, inner loop
    frequencies) regardless of worker completion order or how many
    retry rounds a cell needed, so parallel, serial and fault-recovered
    runs are all bit-identical.

    ``retries`` is the extra attempts a cell gets after a failure of
    its own (exception or timeout); pool-wide crashes don't bill
    innocent cells but are bounded by a round limit.  ``cell_timeout``
    (seconds; ``None`` disables) bounds the *stall* time — it fires
    when no cell at all completes for that long — and requires
    ``jobs > 1`` since an in-process hang cannot be interrupted.  On
    exhausted budgets the campaign raises
    :class:`~repro.errors.CampaignExecutionError` unless
    ``allow_partial``, in which case surviving cells are returned
    alongside per-cell failure records.

    ``backend`` picks the execution path per :data:`BACKENDS` and
    ``fabric`` offers the cells to the distributed worker fleet first
    (``None`` resolves either through :func:`repro.settings.settings`).
    """
    cells = [(int(n), float(f)) for n in counts for f in frequencies]
    return execute_cells(
        benchmark,
        cells,
        spec,
        jobs,
        retries=retries,
        cell_timeout=cell_timeout,
        backoff_s=backoff_s,
        allow_partial=allow_partial,
        backend=backend,
        fabric=fabric,
    )


def execute_cells(
    benchmark: BenchmarkModel,
    cells: _t.Sequence[Cell],
    spec: ClusterSpec,
    jobs: int = 1,
    *,
    retries: int = DEFAULT_RETRIES,
    cell_timeout: float | None = None,
    backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    allow_partial: bool = False,
    backend: str | None = None,
    fabric: bool | None = None,
) -> CampaignExecution:
    """Simulate an explicit cell list (not necessarily a full grid).

    The batch entry point behind :func:`execute_campaign` and the
    experiment planner (:mod:`repro.pipeline`): callers that already
    know exactly which ``(n, frequency_hz)`` cells they are missing —
    e.g. the union of several experiments' grids minus the cached
    cells — submit just those.  Results come back in the order the
    cells were given, with the same retry/timeout/crash-recovery
    behaviour and the same bit-identical determinism as a full
    campaign.

    ``backend="analytic"`` evaluates every cell through the vectorized
    closed forms (raising :class:`~repro.errors.ModelError` if any
    cell falls outside the analytic model); ``"auto"`` evaluates the
    modelable cells analytically and simulates the rest; ``"des"``
    simulates everything.  ``None`` resolves the process default via
    :func:`repro.settings.settings`, as it does for ``fabric``.

    ``fabric`` offers the cells to the
    distributed worker fleet first — the analytic and DES slices are
    submitted as separate backend-tagged batches *before* either is
    waited on, so the coordinator pipelines them across the fleet
    (adaptively-sized leases: huge for analytic cells, small for
    DES).  The fleet is an *accelerator*,
    never a point of failure: with no installed coordinator, no live
    workers, or an unpicklable payload the cells run locally, and any
    cells the fleet strands (every worker died mid-batch, or a cell
    was lost too many times) are finished on the local pool — results
    stay bit-identical either way, because every path runs the same
    deterministic per-cell simulation.
    """
    resolved = settings(backend=backend, fabric=fabric)
    backend, fabric = resolved.backend, resolved.fabric
    cells = [(int(n), float(f)) for n, f in cells]
    if backend == "analytic":
        analytic_cells: list[Cell] = list(cells)
        des_cells: list[Cell] = []
    elif backend == "auto":
        from repro.analytic import partition_cells

        analytic_cells, des_cells, _ = partition_cells(
            benchmark, cells, spec
        )
    else:
        analytic_cells, des_cells = [], list(cells)

    jobs = max(1, min(int(jobs), len(des_cells))) if des_cells else 1
    retries = max(0, int(retries))
    if jobs > 1 or fabric:
        try:
            pickle.dumps((benchmark, spec))
        except Exception:
            jobs = 1  # e.g. locally-defined benchmark classes
            fabric = False  # the fleet ships the same pickle

    attempt_index: dict[Cell, int] = {cell: 0 for cell in cells}
    log: list[CellAttempt] = []
    results: dict[Cell, tuple[float, float, float, dict]] = {}
    crash_recoveries = 0
    fabric_cells = fabric_workers = fabric_reassignments = 0
    analytic_local = list(analytic_cells)
    if (analytic_cells or des_cells) and fabric:
        # Local import: repro.fabric itself imports this module.
        from repro.fabric.dispatch import (
            collect_fabric_batch,
            submit_fabric_cells,
        )

        label = f"{getattr(benchmark, 'name', benchmark)!s}"
        # Pipelined dispatch: both backends' batches are queued on
        # the coordinator before either is waited on, so the fleet
        # streams the cheap analytic wave while DES cells simulate.
        pending = [
            (
                kind,
                submit_fabric_cells(
                    benchmark,
                    kind_cells,
                    spec,
                    retries=retries,
                    backoff_s=backoff_s,
                    label=label,
                    backend=kind,
                ),
            )
            for kind, kind_cells in (
                ("analytic", analytic_cells),
                ("des", des_cells),
            )
            if kind_cells
        ]
        fleet_worker_ids: set[str] = set()
        for kind, batch in pending:
            if batch is None:
                continue  # no usable fleet — this slice runs locally
            outcome = collect_fabric_batch(batch)
            results.update(outcome.results)
            log.extend(outcome.attempts)
            fabric_cells += len(outcome.results)
            fleet_worker_ids |= set(outcome.worker_ids)
            fabric_reassignments += outcome.reassignments
            # Local attempt numbering continues after the fleet's.
            for a in outcome.attempts:
                attempt_index[a.cell] = max(
                    attempt_index.get(a.cell, 0), a.attempt + 1
                )
            # Stranded cells (fleet died / loss bound hit) finish
            # locally; fleet-failed cells exhausted their own retry
            # budget and are accounted as failures below.
            if kind == "analytic":
                analytic_local = list(outcome.stranded)
            else:
                des_cells = list(outcome.stranded)
        fabric_workers = len(fleet_worker_ids)
    if analytic_local:
        _run_analytic_cells(
            benchmark,
            analytic_local,
            spec,
            attempt_index=attempt_index,
            log=log,
            results=results,
        )
    if des_cells and jobs > 1:
        jobs, crash_recoveries = _run_parallel_resilient(
            benchmark,
            des_cells,
            spec,
            jobs,
            retries=retries,
            cell_timeout=cell_timeout,
            backoff_s=backoff_s,
            attempt_index=attempt_index,
            log=log,
            results=results,
        )
    elif des_cells:
        _run_serial_attempts(
            benchmark,
            des_cells,
            spec,
            retries=retries,
            backoff_s=backoff_s,
            attempt_index=attempt_index,
            log=log,
            results=results,
        )

    failures = []
    for cell in cells:
        if cell in results:
            continue
        history = tuple(a for a in log if a.cell == cell)
        timed_out = any(a.outcome == "timeout" for a in history)
        error_cls = CellTimeoutError if timed_out else CellExecutionError
        failures.append(error_cls(cell, history))
    if failures and not allow_partial:
        raise CampaignExecutionError(failures, completed=len(results))

    ok_cells = [cell for cell in cells if cell in results]
    return CampaignExecution(
        times={cell: results[cell][0] for cell in ok_cells},
        energies={cell: results[cell][1] for cell in ok_cells},
        cell_wall_s=tuple(results[cell][2] for cell in ok_cells),
        jobs=jobs,
        attempts=tuple(log),
        failures=tuple(failures),
        crash_recoveries=crash_recoveries,
        cell_engine_stats=tuple(results[cell][3] for cell in ok_cells),
        analytic_cells=len(set(analytic_cells)),
        fabric_cells=fabric_cells,
        fabric_workers=fabric_workers,
        fabric_reassignments=fabric_reassignments,
    )
