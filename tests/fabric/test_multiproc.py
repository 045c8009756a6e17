"""Multi-process workers: pool fan-out, streaming, crash recovery.

The worker-side scale path: one lease fanned across a local process
pool must merge bit-identical to clean serial execution — through
distributed chaos (worker kills, heartbeat stalls) and through
in-cell faults that crash pool children (the pid-scoped fault plan is
passed into subprocesses explicitly, so seeded ``crash`` faults fire
*inside* a worker's pool exactly as they do in the local runner's).
"""

from repro import runtime
from repro.cluster import paper_spec
from repro.npb import EPBenchmark, ProblemClass
from repro.runtime.faults import FaultPlan
from repro.service.server import ServiceThread

from tests.fabric.fleet import WorkerFleet, fast_config, wait_for_workers

COUNTS = (1, 2, 4)
FREQUENCIES = (600e6, 800e6)
GRID = [(n, f) for n in COUNTS for f in FREQUENCIES]


def _bench():
    return EPBenchmark(ProblemClass.S)


def test_pooled_worker_clean_run_bit_identical():
    spec = paper_spec()
    serial = runtime.execute_campaign(
        _bench(), COUNTS, FREQUENCIES, spec, jobs=1
    )
    with ServiceThread(fast_config()) as service:
        with WorkerFleet(service.port, 1, procs=2) as fleet:
            wait_for_workers(service, 1)
            execution = runtime.execute_campaign(
                _bench(), COUNTS, FREQUENCIES, spec, jobs=1, fabric=True
            )
            worker = fleet.workers[0]
    assert execution.times == serial.times
    assert execution.energies == serial.energies
    assert execution.cell_engine_stats == serial.cell_engine_stats
    assert execution.fabric_cells == len(GRID)
    assert worker.procs == 2
    assert worker.cells_done == len(GRID)


def test_pooled_worker_chaos_bit_identical():
    """worker_kill / heartbeat_stall with ``procs`` pools still merge
    bit-identical: the coordinator reassigns the abandoned leases and
    the survivors' pools finish the grid."""
    spec = paper_spec()
    serial = runtime.execute_campaign(
        _bench(), COUNTS, FREQUENCIES, spec, jobs=1
    )
    for seed in range(1000):
        plan = FaultPlan(
            seed=seed, worker_kill=0.25, heartbeat_stall=0.25
        )
        kinds = [plan.worker_fault_for(n, f, 0) for n, f in GRID]
        down = kinds.count("worker_kill") + kinds.count(
            "heartbeat_stall"
        )
        if (
            {"worker_kill", "heartbeat_stall"} <= set(kinds)
            and down <= 3
        ):
            break
    else:
        raise AssertionError("no chaos seed found in 1000 tries")
    config = fast_config(fabric_max_lease_cells=1)
    with ServiceThread(config) as service:
        with WorkerFleet(service.port, 4, procs=4, plan=plan):
            wait_for_workers(service, 4)
            execution = runtime.execute_campaign(
                _bench(), COUNTS, FREQUENCIES, spec, jobs=1, fabric=True
            )
    assert execution.times == serial.times
    assert execution.energies == serial.energies
    assert execution.cell_engine_stats == serial.cell_engine_stats
    assert execution.failures == ()
    assert execution.fabric_cells == len(GRID)
    assert execution.fabric_reassignments >= 2  # kill + stall
    outcomes = [a.outcome for a in execution.attempts]
    assert "lost" in outcomes
    assert outcomes.count("ok") == len(GRID)


def test_pool_child_crash_recovered_in_worker():
    """A seeded in-cell ``crash`` fires inside a pool subprocess
    (``os._exit`` → BrokenProcessPool); the worker rebuilds its pool,
    re-runs the cell at a bumped attempt, and the merge is clean."""
    spec = paper_spec()
    serial = runtime.execute_campaign(
        _bench(), COUNTS, FREQUENCIES, spec, jobs=1
    )
    for seed in range(1000):
        plan = FaultPlan(seed=seed, crash=0.2)
        fired = [
            plan.fault_for(n, f, 0) == "crash" for n, f in GRID
        ]
        if 1 <= sum(fired) <= 2:
            break
    else:
        raise AssertionError("no crash seed found in 1000 tries")
    # Multi-cell leases so the crashed pool has lease-mates to
    # resubmit; generous TTLs so recovery happens inside the lease.
    config = fast_config(
        fabric_lease_ttl_s=5.0, fabric_heartbeat_s=0.5
    )
    with ServiceThread(config) as service:
        with WorkerFleet(service.port, 1, procs=2, plan=plan) as fleet:
            wait_for_workers(service, 1)
            execution = runtime.execute_campaign(
                _bench(), COUNTS, FREQUENCIES, spec, jobs=1, fabric=True
            )
            worker = fleet.workers[0]
    assert execution.times == serial.times
    assert execution.energies == serial.energies
    assert execution.failures == ()
    assert execution.fabric_cells == len(GRID)
    assert worker.pool_rebuilds >= 1


def test_streamed_completions_arrive_before_lease_end(monkeypatch):
    """Completions stream per wave: with one multi-cell lease in
    flight, the batch's results grow before the lease finishes.

    A seeded ``hang`` straggler (it sleeps, then completes) holds one
    cell back, so the lease finishes in at least two waves however
    fast the other cells run.  The batch size is read after every
    ``FabricCoordinator.complete`` call rather than sampled by a
    watcher thread, so no short window can be missed.
    """
    spec = paper_spec()
    config = fast_config(
        fabric_lease_ttl_s=10.0,
        fabric_heartbeat_s=0.5,
        # One giant lease: the whole grid in a single round trip.
        fabric_target_lease_s=0,
    )
    straggler = FaultPlan(hang=1.0, hang_s=0.3, cells=(GRID[0],))
    with ServiceThread(config) as service:
        with WorkerFleet(service.port, 1, procs=2, plan=straggler):
            wait_for_workers(service, 1)
            coordinator = service.service.coordinator
            complete = coordinator.complete
            sizes_after_complete = []

            def recording_complete(worker_id, lease_id, batch_id, *rest):
                batch = coordinator._batches.get(batch_id)
                reply = complete(worker_id, lease_id, batch_id, *rest)
                if batch is not None:
                    sizes_after_complete.append(len(batch.results))
                return reply

            monkeypatch.setattr(coordinator, "complete", recording_complete)

            from repro.fabric.dispatch import (
                collect_fabric_batch,
                submit_fabric_cells,
            )

            pending = submit_fabric_cells(
                _bench(),
                GRID,
                spec,
                retries=2,
                backoff_s=0.0,
                coordinator=coordinator,
            )
            assert pending is not None
            outcome = collect_fabric_batch(pending)
    assert len(outcome.results) == len(GRID)
    # Streaming: results landed incrementally, not all at lease end.
    assert any(
        0 < size < len(GRID) for size in sizes_after_complete
    ), f"no partial results observed mid-lease: {sizes_after_complete}"


def test_stalled_lease_leaves_no_pool_child_alive(monkeypatch):
    """A stall resets the pool: its hung child must be terminated,
    not left running beside the rebuilt pool.

    One cell hangs far past ``stall_timeout_s``; the worker bills it
    as stalled, rebuilds its pool and the coordinator's retry
    completes the grid.  Every child of the pool that was reset must
    be gone once the worker has stopped.
    """
    spec = paper_spec()
    serial = runtime.execute_campaign(
        _bench(), COUNTS, FREQUENCIES, spec, jobs=1
    )
    plan = FaultPlan(hang=1.0, hang_s=6.0, cells=((4, 800e6),))
    config = fast_config(fabric_lease_ttl_s=5.0, fabric_heartbeat_s=0.5)
    with ServiceThread(config) as service:
        fleet = WorkerFleet(
            service.port, 1, procs=2, stall_timeout_s=0.5, plan=plan
        )
        worker = fleet.workers[0]
        reset = worker._reset_pool
        children = []

        def recording_reset():
            if worker._pool is not None:
                children.extend(worker._pool._processes.values())
            reset()

        monkeypatch.setattr(worker, "_reset_pool", recording_reset)
        with fleet:
            wait_for_workers(service, 1)
            execution = runtime.execute_campaign(
                _bench(), COUNTS, FREQUENCIES, spec, jobs=1, fabric=True
            )
    assert execution.times == serial.times
    assert execution.failures == ()
    assert worker.pool_rebuilds == 1
    assert children
    assert [p.pid for p in children if p.is_alive()] == []
