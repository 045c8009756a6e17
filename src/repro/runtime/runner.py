"""Fault-tolerant parallel campaign cell execution.

Every (processor count, frequency) cell of a measurement campaign is an
independent deterministic simulation — embarrassingly parallel.  This
module fans cells out across a fork process pool (:class:`CellPool`)
and merges the results back in *grid order*, so a parallel run is
bit-identical to a serial one: same floats, same dict insertion order.

One streaming executor, :func:`stream_cells`, runs cells for both the
local runner and the fabric worker (:mod:`repro.fabric.worker`).  It
runs each ``(cell, attempt)`` item to one outcome and yields the
outcomes wave by wave, recovering from the pool's own failures:

* **Stalls.**  If no cell completes within the stall timeout, every
  still-running cell is billed a ``timeout``, the pool is reset (its
  workers are *terminated* and reaped — a plain shutdown never
  interrupts a running task) and the cells that never started re-run
  at the same attempt.
* **Pool breaks.**  A worker dying (segfault, ``os._exit``) breaks the
  whole pool, but futures that already completed keep their results —
  only the unfinished cells re-run, at ``attempt + 1``, on a rebuilt
  pool.  Two breaks in a row that yield no new result send the
  remaining cells to run in-process.  Stalls never count toward that.

:func:`execute_cells` adds what is the cell's own business:

* **Per-cell retries with exponential backoff.**  A cell that raised
  or timed out re-runs (with an incremented attempt number, which the
  fault-injection harness keys on) up to ``retries`` more times.
  Pool breaks never bill a cell's budget.
* **Graceful degradation.**  With ``allow_partial`` the surviving
  cells are returned together with per-cell
  :class:`~repro.errors.CellExecutionError` failure records; without
  it the campaign raises :class:`~repro.errors.CampaignExecutionError`
  carrying the same records.

Because simulation is deterministic, a cell that succeeds on retry
produces exactly the bytes it would have produced on a clean first
run, so a fault-ridden campaign that completes is bit-identical to an
undisturbed one.

The runner's pool is created lazily, reused across campaigns (startup
cost is paid once per process, not per campaign), takes the width each
campaign asks for (it is re-forked only when that width changes) and is
torn down at interpreter exit — with ``wait=True`` there, so no forked
child outlives the interpreter.
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
    "CellPool",
    "analytic_tries",
    "check_backend",
    "execute_campaign",
    "execute_cells",
    "shutdown_executor",
    "stream_cells",
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
#: results, the remaining cells run in-process instead.
_MAX_FRUITLESS_CRASHES = 2


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
        Worker processes actually used (the requested jobs capped by
        the cell count).
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


class CellPool:
    """A fork process pool that is created lazily and can be reset.

    ``procs`` is the pool's width.  :meth:`executor` forks the pool on
    first use and again after a :meth:`reset` or :meth:`shutdown`.
    :meth:`reset` terminates the workers outright — the only way to
    clear a hung task, since ``shutdown`` never interrupts a running
    one — then reaps them, and counts one rebuild in ``rebuilds``.
    """

    def __init__(self, procs: int = 0) -> None:
        self.procs = procs
        self.rebuilds = 0
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None

    def resize(self, procs: int) -> None:
        """Set the width; a live pool of another width is shut down."""
        if procs != self.procs:
            self.shutdown()
            self.procs = procs

    def executor(self) -> concurrent.futures.ProcessPoolExecutor:
        """The live executor, forked on first use."""
        if self._executor is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.procs, mp_context=context
            )
        return self._executor

    def reset(self) -> None:
        """Terminate every worker, reap them, and count a rebuild."""
        executor, self._executor = self._executor, None
        self.rebuilds += 1
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

    def shutdown(self, wait: bool = False) -> None:
        """Discard the executor; ``wait=True`` also reaps its workers."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


#: The local runner's pool, shared by every campaign in the process.
_POOL = CellPool()


def shutdown_executor(wait: bool = False) -> None:
    """Tear down the runner's pool (idempotent; it restarts on demand).

    The interpreter-exit hook passes ``wait=True`` so forked children
    are reaped rather than orphaned past exit.
    """
    _POOL.shutdown(wait=wait)


def _shutdown_at_exit() -> None:
    shutdown_executor(wait=True)


atexit.register(_shutdown_at_exit)


def _own_fault_attempts(log: list[CellAttempt], cell: Cell) -> int:
    """Failed attempts attributable to the cell itself.

    Crash outcomes are excluded: when a pool breaks, every unfinished
    future reports :class:`BrokenProcessPool` and the runner cannot
    tell the guilty cell from innocent bystanders, so crashes are
    bounded by :func:`stream_cells`' in-process fallback instead of
    the per-cell budget.
    """
    return sum(
        1
        for a in log
        if a.cell == cell and a.outcome in ("exception", "timeout")
    )


#: One finished try: its record, plus the :func:`_simulate_cell` result
#: for ``"ok"`` or the raised exception for ``"exception"`` (else None).
Try = tuple[CellAttempt, _t.Any]


def stream_cells(
    benchmark: BenchmarkModel,
    spec: ClusterSpec,
    items: _t.Sequence[tuple[Cell, int]],
    pool: CellPool | None,
    *,
    stall_s: float | None = None,
    plan: faults.FaultPlan | None = None,
) -> _t.Iterator[tuple[list[Try], bool]]:
    """Run ``(cell, attempt)`` items to one outcome each, wave by wave.

    Yields ``(tries, pool_broke)`` per completion wave.  ``tries`` are
    the ``"ok"``, ``"exception"``, ``"timeout"`` and ``"crash"`` tries
    that just finished; ``pool_broke`` is true on the one empty wave
    that closes a round in which the pool broke.  Every item ends in
    one ``"ok"``, ``"exception"`` or ``"timeout"`` try; each
    ``"crash"`` try is followed by a re-run at ``attempt + 1``.

    Items are submitted to ``pool`` in the given order.  With
    ``pool=None`` every cell runs in-process, one wave per cell; an
    in-process hang cannot be interrupted, so ``stall_s`` does not
    apply there.  ``plan`` is shipped into the pool's workers, so
    injection works even in workers forked before it was installed.
    """
    order = {cell: index for index, (cell, _) in enumerate(items)}
    todo = list(items)
    fruitless = 0
    while todo:
        if pool is None or fruitless >= _MAX_FRUITLESS_CRASHES:
            for cell, attempt in todo:
                start = time.perf_counter()
                try:
                    result = _simulate_cell(
                        benchmark, *cell, spec, attempt, plan
                    )
                except Exception as exc:
                    record = CellAttempt(
                        cell,
                        attempt,
                        "exception",
                        error=repr(exc),
                        wall_s=time.perf_counter() - start,
                    )
                    yield [(record, exc)], False
                else:
                    record = CellAttempt(
                        cell, attempt, "ok", wall_s=result[2]
                    )
                    yield [(record, result)], False
            return
        executor = pool.executor()
        running: dict[concurrent.futures.Future, tuple[Cell, int]] = {}
        rerun: list[tuple[Cell, int]] = []
        broke = stalled = False
        for index, (cell, attempt) in enumerate(todo):
            try:
                future = executor.submit(
                    _simulate_cell, benchmark, *cell, spec, attempt, plan
                )
            except concurrent.futures.process.BrokenProcessPool:
                # The pool broke before the round was fully submitted;
                # the cells not yet submitted never ran.
                broke = True
                rerun.extend(todo[index:])
                break
            running[future] = (cell, attempt)
        finished = 0
        while running:
            done, _ = concurrent.futures.wait(
                running,
                timeout=stall_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            tries: list[Try] = []
            if not done:
                # Unstarted futures are left for the reset to fail:
                # cancelling them here would make the pool's manager
                # thread raise InvalidStateError when it does.  The
                # executor marks the items it pre-loads into its call
                # queue as running before any worker takes them, and
                # workers take them in submission order, so only the
                # first ``pool.procs`` running futures have started.
                stalled = True
                billed = 0
                for future, (cell, attempt) in running.items():
                    if not future.running() or billed == pool.procs:
                        rerun.append((cell, attempt))
                        continue
                    billed += 1
                    error = (
                        f"no completion within {stall_s}s; "
                        "worker terminated"
                    )
                    tries.append(
                        (CellAttempt(cell, attempt, "timeout", error), None)
                    )
                running.clear()
            for future in done:
                cell, attempt = running.pop(future)
                try:
                    result = future.result()
                except concurrent.futures.process.BrokenProcessPool:
                    broke = True
                    rerun.append((cell, attempt + 1))
                    error = "worker process died (pool broken)"
                    tries.append(
                        (CellAttempt(cell, attempt, "crash", error), None)
                    )
                except concurrent.futures.CancelledError:
                    rerun.append((cell, attempt))
                except Exception as exc:
                    record = CellAttempt(cell, attempt, "exception", repr(exc))
                    tries.append((record, exc))
                else:
                    finished += 1
                    record = CellAttempt(
                        cell, attempt, "ok", wall_s=result[2]
                    )
                    tries.append((record, result))
            yield tries, False
        if stalled or broke:
            pool.reset()
        if broke:
            fruitless = 0 if finished else fruitless + 1
            yield [], True
        todo = sorted(rerun, key=lambda item: order[item[0]])


def analytic_tries(
    benchmark: BenchmarkModel,
    spec: ClusterSpec,
    items: _t.Sequence[tuple[Cell, int]],
) -> list[Try]:
    """Evaluate ``(cell, attempt)`` items through the analytic backend.

    One vectorized numpy pass over the whole list — no process pool,
    no retries (the evaluation is pure arithmetic; any failure is a
    configuration error and raises).  Returns one ``"ok"`` try per
    item, in :func:`stream_cells`' form: each result's wall time is
    the pass's elapsed time split evenly, and its engine stats are
    zero, since no simulation events happen on this path.  The kernels
    are elementwise, so any subset of a grid evaluates bit-identical
    to the whole grid.
    """
    from repro.analytic import AnalyticCampaignModel

    start = time.perf_counter()
    evaluation = AnalyticCampaignModel(benchmark, spec).evaluate_cells(
        [cell for cell, _ in items]
    )
    wall_share = (time.perf_counter() - start) / max(len(items), 1)
    times = evaluation.times_by_cell()
    energies = evaluation.energies_by_cell()
    stats = dict.fromkeys(
        ("events_processed", "processes_spawned", "peak_queue_len"), 0
    )
    return [
        (
            CellAttempt(cell, attempt, "ok", wall_s=wall_share),
            (times[cell], energies[cell], wall_share, dict(stats)),
        )
        for cell, attempt in items
    ]


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
    innocent cells (see :func:`stream_cells`).  ``cell_timeout``
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

    def collect(tries: list[Try]) -> None:
        for record, value in tries:
            log.append(record)
            attempt_index[record.cell] = record.attempt + 1
            if record.outcome == "ok":
                results[record.cell] = value

    if analytic_local:
        collect(
            analytic_tries(
                benchmark,
                spec,
                [(cell, attempt_index[cell]) for cell in analytic_local],
            )
        )
    pool = None
    if des_cells and jobs > 1:
        _POOL.resize(jobs)
        pool = _POOL
    plan = faults.active_fault_plan()
    for round_no in range(retries + 1):
        # Each round bills every pending cell at most one failure of
        # its own, so retries + 1 rounds exhaust every budget.
        todo = [
            (cell, attempt_index[cell])
            for cell in des_cells
            if cell not in results
            and _own_fault_attempts(log, cell) <= retries
        ]
        if not todo:
            break
        if round_no and backoff_s > 0:
            time.sleep(backoff_s * 2 ** (round_no - 1))
        for tries, pool_broke in stream_cells(
            benchmark, spec, todo, pool, stall_s=cell_timeout, plan=plan
        ):
            crash_recoveries += pool_broke
            collect(tries)

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
