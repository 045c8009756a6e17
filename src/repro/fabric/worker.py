"""The fabric worker loop (``repro-worker``).

A worker registers with the coordinator, leases a slice of cells,
simulates them, and **streams completions back as each cell finishes**
— per-cell for serial DES work, per-completed-wave when fanning cells
across its local process pool — so the coordinator's straggler and
requeue logic always sees fresh progress, not a silent worker that
dumps everything at lease end.

Scale comes from two places:

* **A per-worker process pool** (``--procs`` / ``REPRO_WORKER_PROCS``,
  default ``os.cpu_count()``): DES cells of a lease run through the
  local runner's executor (:func:`repro.runtime.runner.stream_cells`)
  on the worker's own pool, so a lease recovers from pool breaks and
  stalls as a local campaign does.  Each completion wave becomes one
  ``/fabric/complete`` post; crashed cells are re-run, not shipped.
  The worker registers ``procs`` as its *capacity* so the coordinator
  sizes leases to keep the pool fed.
* **Backend-aware leases**: a lease tagged ``backend="analytic"`` is
  evaluated in one vectorized numpy pass in the worker parent —
  hundreds of closed-form cells per HTTP round trip.

The worker is also the injection point for the distributed failure
modes (:data:`repro.runtime.faults.WORKER_FAULT_KINDS`): when a fault
plan is armed (``REPRO_FAULTS`` in the worker's environment, or a plan
passed explicitly in tests) and a leased cell draws a distributed
fault, the worker misbehaves *on purpose* — dies mid-lease, stops
heartbeating, completes after its lease expired, corrupts a payload
after checksumming it, or sends the same completion twice.  Draws are
keyed on the cell, so a chaos fleet is reproducible no matter which
worker wins each lease.  The resolved plan is also passed *into* pool
children explicitly (plans are pid-scoped), so in-cell fault kinds
(``crash``/``hang``/``exception``/``corrupt``) fire inside worker
subprocesses exactly as they do in the local runner's pool.

``kill_mode`` selects how ``worker_kill`` dies: ``"exit"`` calls
``os._exit`` (subprocess fleets, the real failure), ``"stop"`` ends
the loop abruptly without completing (in-thread test workers, where
``os._exit`` would take the test process down with it).
"""

from __future__ import annotations

import argparse
import base64
import os
import pickle
import sys
import threading
import time
import typing as _t

from repro.errors import ConfigurationError
from repro.fabric.coordinator import result_checksum
from repro.runtime import faults
from repro.runtime.runner import (
    CellAttempt,
    CellPool,
    Try,
    analytic_tries,
    stream_cells,
)
from repro.service.client import ServiceClient, ServiceError
from repro.settings import settings

__all__ = [
    "FabricWorker",
    "add_worker_arguments",
    "main",
    "worker_from_args",
]

#: What a worker ships for a cell billed ``timeout`` by a stalled pool.
_STALL_ERROR = "cell stalled past worker timeout; pool reset"


class _WorkerKilled(Exception):
    """Internal unwind for ``worker_kill`` in ``kill_mode="stop"``."""


class FabricWorker:
    """One fleet member: lease → simulate → stream completions → repeat."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        *,
        name: str = "",
        kill_mode: str = "exit",
        max_idle_s: float | None = None,
        plan: faults.FaultPlan | None = None,
        timeout_s: float = 30.0,
        procs: int | None = None,
        stall_timeout_s: float | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.name = name or f"pid-{os.getpid()}"
        if kill_mode not in ("exit", "stop"):
            raise ValueError(
                f"kill_mode must be 'exit' or 'stop', not {kill_mode!r}"
            )
        self.kill_mode = kill_mode
        self.max_idle_s = max_idle_s
        self._plan = plan
        # procs defaults to 1 here (in-thread test fleets stay
        # serial); the CLI resolves --procs, REPRO_WORKER_PROCS or
        # the CPU count before constructing.
        self.procs = max(1, int(procs or 1))
        self.stall_timeout_s = (
            float(stall_timeout_s)
            if stall_timeout_s and stall_timeout_s > 0
            else None
        )
        self.worker_id: str | None = None
        self.heartbeat_s = 1.0
        self.lease_ttl_s = 5.0
        self.worker_timeout_s = 5.0
        self.cells_done = 0
        self.leases_taken = 0
        self._client = ServiceClient(
            host, port, timeout_s=timeout_s, retries=4
        )
        self._hb_client: ServiceClient | None = None
        self._pool = CellPool(self.procs)
        self._stop = threading.Event()
        self._hb_suppressed = threading.Event()
        self._hb_lease: str | None = None
        self._hb_thread: threading.Thread | None = None

    # -- plumbing -----------------------------------------------------------

    @property
    def reconnects(self) -> int:
        """Keep-alive connections re-established across both HTTP
        clients (lease loop + heartbeat thread)."""
        count = self._client.reconnects
        if self._hb_client is not None:
            count += self._hb_client.reconnects
        return count

    def _post(self, path: str, body: dict[str, _t.Any]) -> _t.Any:
        # Fabric POSTs are all safe to retry: completions deduplicate
        # by cell, a duplicate registration is a harmless extra worker
        # record, and an orphaned lease simply expires.
        return self._client.request("POST", path, body, retry=True)

    def _register(self) -> None:
        doc = self._post(
            "/fabric/register",
            {"name": self.name, "capacity": self.procs},
        )
        self.worker_id = doc["worker_id"]
        self.heartbeat_s = float(doc.get("heartbeat_s", 1.0))
        self.lease_ttl_s = float(doc.get("lease_ttl_s", 5.0))
        self.worker_timeout_s = float(
            doc.get("worker_timeout_s", self.lease_ttl_s)
        )

    def _stall_s(self) -> float:
        """Sleep long enough that the coordinator must act: past both
        the lease TTL and the worker death window, with margin."""
        return 1.5 * max(self.lease_ttl_s, self.worker_timeout_s)

    def _heartbeat_loop(self) -> None:
        # Own client: ServiceClient is not thread-safe.
        self._hb_client = ServiceClient(
            self.host, self.port, timeout_s=10.0, retries=2
        )
        with self._hb_client as client:
            while not self._stop.is_set():
                if self._stop.wait(self.heartbeat_s):
                    return
                if self._hb_suppressed.is_set():
                    continue
                if self.worker_id is None:
                    continue
                try:
                    client.request(
                        "POST",
                        "/fabric/heartbeat",
                        {
                            "worker_id": self.worker_id,
                            "lease_id": self._hb_lease,
                        },
                        retry=True,
                    )
                except (ServiceError, OSError):
                    continue  # the lease loop handles re-registration

    def stop(self) -> None:
        """Ask the worker loop to exit (in-thread fleets)."""
        self._stop.set()

    @property
    def pool_rebuilds(self) -> int:
        """Times the local pool was reset after a stall or a break."""
        return self._pool.rebuilds

    # -- the loop -----------------------------------------------------------

    def run(self) -> int:
        """Work until drained, stopped, or idle past ``max_idle_s``.

        Returns the number of cells completed (handy for tests and
        for the console script's log line).
        """
        idle_since: float | None = None
        outage_since: float | None = None
        try:
            self._register()
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"fabric-hb-{self.name}",
                daemon=True,
            )
            self._hb_thread.start()
            while not self._stop.is_set():
                try:
                    doc = self._post(
                        "/fabric/lease", {"worker_id": self.worker_id}
                    )
                except ServiceError as error:
                    if error.error_type == "unknown_worker":
                        # Declared dead while we stalled; rejoin.
                        try:
                            self._register()
                        except OSError:
                            pass  # charged as an outage below
                        continue
                    raise
                except OSError:
                    # Coordinator unreachable past the client's retry
                    # budget.  Wait for it to come back — a restart
                    # must not shed the fleet — but charge the outage
                    # against max_idle_s so an orphaned worker still
                    # terminates instead of dying with a traceback.
                    now = time.monotonic()
                    if outage_since is None:
                        outage_since = now
                    if (
                        self.max_idle_s is not None
                        and now - outage_since >= self.max_idle_s
                    ):
                        return self.cells_done
                    self._stop.wait(self.heartbeat_s)
                    continue
                outage_since = None
                if doc.get("drain"):
                    return self.cells_done
                if doc.get("idle"):
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if (
                        self.max_idle_s is not None
                        and now - idle_since >= self.max_idle_s
                    ):
                        return self.cells_done
                    self._stop.wait(
                        min(
                            float(
                                doc.get("backoff_s", self.heartbeat_s)
                            ),
                            self.heartbeat_s,
                        )
                    )
                    continue
                idle_since = None
                self.leases_taken += 1
                self._process_lease(doc)
        except _WorkerKilled:
            pass
        finally:
            self._stop.set()
            self._pool.shutdown()
            self._client.close()
        return self.cells_done

    def _die(self) -> None:
        if self.kill_mode == "exit":
            os._exit(86)
        raise _WorkerKilled()

    # -- lease processing ---------------------------------------------------

    def _ship(
        self,
        lease_id: str,
        batch_id: str,
        results: list[dict[str, _t.Any]],
        failures: list[dict[str, _t.Any]],
    ) -> None:
        """Stream one completion wave back to the coordinator."""
        if not results and not failures:
            return
        response = self._post(
            "/fabric/complete",
            {
                "worker_id": self.worker_id,
                "lease_id": lease_id,
                "batch_id": batch_id,
                "results": results,
                "failures": failures,
            },
        )
        self.cells_done += len(results)
        if response.get("reregister"):
            self._register()

    @staticmethod
    def _completion(
        cell: tuple[int, float], attempt: int, result: tuple
    ) -> dict[str, _t.Any]:
        (n, f), (time_s, energy_j, wall_s, stats) = cell, result
        return {
            "cell": [n, f],
            "attempt": attempt,
            "time_s": time_s,
            "energy_j": energy_j,
            "wall_s": wall_s,
            "engine_stats": stats,
            "checksum": result_checksum(n, f, time_s, energy_j),
        }

    @staticmethod
    def _failure(
        cell: tuple[int, float], attempt: int, error: BaseException | str
    ) -> dict[str, _t.Any]:
        message = (
            error
            if isinstance(error, str)
            else f"{type(error).__name__}: {error}"
        )
        return {"cell": list(cell), "attempt": attempt, "error": message}

    def _apply_worker_fault(
        self,
        kind: str | None,
        completion: dict[str, _t.Any],
        duplicates: list[dict[str, _t.Any]],
        deferred: list[dict[str, _t.Any]],
    ) -> bool:
        """Mutate a completion per its distributed fault draw.

        Returns True when the completion must be *deferred* (the
        lease_race straggler: delivered only after the lease expired)
        instead of streamed now.
        """
        if kind == "corrupt_result":
            # Checksummed first, corrupted second: exactly the
            # bit-flip-in-flight the quarantine exists for.
            completion["energy_j"] = completion["energy_j"] + 1.0
        elif kind == "dup_complete":
            duplicates.append(dict(completion))
        elif kind == "lease_race":
            deferred.append(completion)
            return True
        return False

    def _process_lease(self, doc: dict[str, _t.Any]) -> None:
        benchmark, spec = pickle.loads(base64.b64decode(doc["payload"]))
        lease_id = doc["lease_id"]
        batch_id = doc["batch_id"]
        backend = str(doc.get("backend", "des"))
        self._hb_lease = lease_id
        plan = self._plan or faults.active_fault_plan()
        items = [
            (
                (int(item["cell"][0]), float(item["cell"][1])),
                int(item.get("attempt", 0)),
            )
            for item in doc.get("cells", ())
        ]
        try:
            # Distributed fault kinds are evaluated in the parent, in
            # lease order, before any simulation: worker_kill and
            # heartbeat_stall abandon the remainder of the lease (the
            # coordinator reassigns it), the payload faults mutate
            # individual completions below.
            kinds: dict[tuple[int, float], str | None] = {}
            for cell, attempt in items:
                kind = plan and plan.worker_fault_for(*cell, attempt)
                if kind == "worker_kill":
                    self._die()
                if kind == "heartbeat_stall":
                    # Go silent mid-lease and abandon it: the
                    # coordinator must declare us dead and reassign
                    # every unfinished cell of this lease.
                    self._hb_suppressed.set()
                    self._stop.wait(self._stall_s())
                    return
                kinds[cell] = kind
            duplicates: list[dict[str, _t.Any]] = []
            deferred: list[dict[str, _t.Any]] = []
            for tries in self._lease_waves(
                benchmark, spec, items, backend, plan
            ):
                wave, failures = [], []
                for record, value in tries:
                    cell, attempt = record.cell, record.attempt
                    if record.outcome == "ok":
                        completion = self._completion(cell, attempt, value)
                        if not self._apply_worker_fault(
                            kinds[cell], completion, duplicates, deferred
                        ):
                            wave.append(completion)
                    elif record.outcome == "exception":
                        failures.append(self._failure(cell, attempt, value))
                    elif record.outcome == "timeout":
                        failures.append(
                            self._failure(cell, attempt, _STALL_ERROR)
                        )
                self._ship(lease_id, batch_id, wave, failures)
            if duplicates:
                self._post(
                    "/fabric/complete",
                    {
                        "worker_id": self.worker_id,
                        "lease_id": lease_id,
                        "batch_id": batch_id,
                        "results": duplicates,
                        "failures": [],
                    },
                )
            if deferred:
                # Finish the work but deliver it only after the lease
                # has expired: the straggler double-assignment race.
                self._hb_suppressed.set()
                self._stop.wait(self._stall_s())
                self._ship(lease_id, batch_id, deferred, [])
        finally:
            self._hb_lease = None
            self._hb_suppressed.clear()

    def _lease_waves(
        self,
        benchmark: _t.Any,
        spec: _t.Any,
        items: list[tuple[tuple[int, float], int]],
        backend: str,
        plan: faults.FaultPlan | None,
    ) -> _t.Iterator[list[Try]]:
        """Run a lease's cells, yielding each completion wave's tries.

        An analytic lease is one wave.  A DES lease streams the waves
        of :func:`~repro.runtime.runner.stream_cells`, on the local
        pool when the lease has at least 2 cells and the worker at
        least 2 processes.
        """
        if backend == "analytic":
            try:
                tries = analytic_tries(benchmark, spec, items)
            except Exception as error:
                tries = [
                    (CellAttempt(cell, attempt, "exception"), error)
                    for cell, attempt in items
                ]
            yield tries
            return
        pool = self._pool if self.procs > 1 and len(items) > 1 else None
        waves = stream_cells(
            benchmark, spec, items, pool, stall_s=self.stall_timeout_s,
            plan=plan,
        )
        for tries, _ in waves:
            yield tries


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the worker flags on a parser (shared between the
    ``repro-worker`` script and ``repro-experiments worker``)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--name", default="", help="worker name shown in /metrics"
    )
    parser.add_argument(
        "--max-idle-s",
        type=float,
        default=None,
        help="exit after this long with no leasable work "
        "(default: run until drained)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=None,
        help="local simulation processes (default: "
        "REPRO_WORKER_PROCS or os.cpu_count())",
    )
    parser.add_argument(
        "--stall-timeout-s",
        type=float,
        default=None,
        help="declare a pool round hung after this long without a "
        "completion (default: disabled)",
    )


def worker_from_args(args: argparse.Namespace) -> int:
    """Run a worker from parsed CLI arguments until it drains, goes
    idle or gets Ctrl-C, then print its summary.  A bad setting is a
    usage error (exit 2)."""
    try:
        procs = settings(worker_procs=args.procs).worker_procs
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    worker = FabricWorker(
        args.host,
        args.port,
        name=args.name,
        max_idle_s=args.max_idle_s,
        procs=procs,
        stall_timeout_s=args.stall_timeout_s,
    )
    try:
        done = worker.run()
    except KeyboardInterrupt:
        worker.stop()
        done = worker.cells_done
    print(
        f"repro-worker {worker.name}: {done} cells completed "
        f"({worker.leases_taken} leases, {worker.procs} procs, "
        f"{worker.reconnects} reconnects)"
    )
    return 0


def main(argv: _t.Sequence[str] | None = None) -> int:
    """Console entry point: ``repro-worker`` / ``python -m repro worker``."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Join a repro-serve campaign fabric as a worker: lease "
            "grid cells, simulate them across a local process pool, "
            "stream results back."
        ),
    )
    add_worker_arguments(parser)
    return worker_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
