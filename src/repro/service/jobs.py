"""Background job management for campaign simulation.

Campaigns are minutes of CPU where predictions are microseconds, so
the service runs them as *jobs* on a small thread pool (each thread
drives the fault-tolerant :mod:`repro.runtime` process pool
underneath).  ``POST /campaign`` waits briefly on the job's
:meth:`JobManager.future` and answers with the finished job, or with
a job id to poll when it is still running.  The manager provides the
serving-side guarantees:

* **bounded admission** — at most ``max_queue`` jobs queued+running;
  beyond that submission raises :class:`JobQueueFullError` (HTTP 503)
  instead of accepting unbounded work;
* **deduplication** — submissions are keyed (by campaign digest); a
  key with an active job returns that job instead of a new one;
* **cancellation** — queued jobs are cancelled outright; running jobs
  get a cooperative ``cancel_requested`` flag;
* **bounded retention** — a finished job stays queryable for ``ttl_s``
  seconds or until :data:`FINISHED_PER_SLOT` × ``max_queue`` newer
  jobs have finished, whichever comes first, so a long-lived server
  holds a bounded number of results however fast jobs finish;
* **graceful drain** — :meth:`JobManager.drain` stops admission and
  waits for running jobs (the SIGTERM path).

Job state transitions: ``queued -> running -> done | failed``, or
``queued -> cancelled``.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import threading
import time
import typing as _t

__all__ = [
    "FINISHED_PER_SLOT",
    "Job",
    "JobManager",
    "JobQueueFullError",
    "UnknownJobError",
]

#: States a job can be observed in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

_ACTIVE = ("queued", "running")

#: Finished jobs retained per job-queue slot (``max_queue``).
FINISHED_PER_SLOT = 4


class JobQueueFullError(RuntimeError):
    """The bounded job queue rejected a submission (maps to 503)."""


class UnknownJobError(KeyError):
    """No job with that id exists (maps to 404; possibly TTL-purged)."""

    def __str__(self) -> str:
        return Exception.__str__(self)


@dataclasses.dataclass
class Job:
    """One submitted campaign, as observed by the manager."""

    id: str
    key: str
    label: str
    params: dict[str, _t.Any]
    status: str = "queued"
    submitted_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    result: dict[str, _t.Any] | None = None
    error: str = ""
    error_type: str = ""
    cancel_requested: bool = False
    #: Runtime accounting captured from the campaign's metrics record
    #: (source, attempts, retries, crash recoveries, per-cell attempt
    #: counts, failure reports) — the PR 2 fault-tolerance history.
    runtime: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    def as_dict(self, include_result: bool = True) -> dict[str, _t.Any]:
        """JSON-ready form (what ``/jobs/<id>`` returns)."""
        document: dict[str, _t.Any] = {
            "job_id": self.id,
            "key": self.key,
            "label": self.label,
            "params": self.params,
            "status": self.status,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "cancel_requested": self.cancel_requested,
            "runtime": self.runtime,
        }
        if self.error:
            document["error"] = self.error
            document["error_type"] = self.error_type
        if include_result and self.result is not None:
            document["result"] = self.result
        return document


class JobManager:
    """Bounded, deduplicating executor of campaign jobs.

    ``fn`` passed to :meth:`submit` runs on a worker thread and
    receives the :class:`Job`; its return value (a JSON-ready dict)
    becomes ``job.result``.
    """

    def __init__(
        self,
        *,
        max_workers: int = 2,
        max_queue: int = 64,
        ttl_s: float = 900.0,
    ) -> None:
        self.max_queue = max(1, int(max_queue))
        self.max_finished = FINISHED_PER_SLOT * self.max_queue
        self.ttl_s = max(0.0, float(ttl_s))
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}  # every retained job, oldest first
        # Finished jobs in finish order: the TTL and the count bound
        # both drop from the old end.
        self._finished: collections.deque[Job] = collections.deque()
        self._statuses: collections.Counter[str] = collections.Counter()
        self._by_key: dict[str, str] = {}  # key -> active job id
        self._futures: dict[str, concurrent.futures.Future] = {}
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, int(max_workers)),
            thread_name_prefix="repro-job",
        )
        self._counter = 0
        self._draining = False
        self.submitted = 0
        self.coalesced = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.expired = 0
        #: Submissions answered with their finished job (see :meth:`answer`).
        self.answered = 0
        #: Finished jobs dropped by the count bound before their TTL.
        self.evictions = 0

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        key: str,
        label: str,
        fn: _t.Callable[[Job], dict[str, _t.Any]],
        params: dict[str, _t.Any] | None = None,
    ) -> tuple[Job, bool]:
        """Submit (or join) a job; returns ``(job, created)``.

        ``created`` is False when an active job with the same key
        absorbed the submission.
        """
        with self._lock:
            self.purge_expired()
            active_id = self._by_key.get(key)
            if active_id is not None:
                self.coalesced += 1
                return self._jobs[active_id], False
            if self._draining:
                self.rejected += 1
                raise JobQueueFullError(
                    "service is draining; not accepting new jobs"
                )
            active = self._active()
            if active >= self.max_queue:
                self.rejected += 1
                raise JobQueueFullError(
                    f"job queue full ({active} active >= "
                    f"{self.max_queue} max)"
                )
            self._counter += 1
            job = Job(
                id=f"job-{self._counter:06d}",
                key=key,
                label=label,
                params=dict(params or {}),
                submitted_s=time.time(),
            )
            self._jobs[job.id] = job
            self._statuses[job.status] += 1
            self._by_key[key] = job.id
            self.submitted += 1
            future = self._executor.submit(self._run, job, fn)
            self._futures[job.id] = future
        return job, True

    def _run(self, job: Job, fn: _t.Callable[[Job], dict]) -> None:
        with self._lock:
            if job.status == "cancelled":
                return
            self._set_status(job, "running")
            job.started_s = time.time()
        try:
            result = fn(job)
        except Exception as exc:
            with self._lock:
                job.error = str(exc)
                job.error_type = type(exc).__name__
                self.failed += 1
                self._finish(job, "failed")
        else:
            with self._lock:
                job.result = result
                self.completed += 1
                self._finish(job, "done")

    def _set_status(self, job: Job, status: str) -> None:
        """Move ``job`` to ``status``, keeping the counts (lock held)."""
        self._statuses[job.status] -= 1
        self._statuses[status] += 1
        job.status = status

    def _finish(self, job: Job, status: str) -> None:
        """Give ``job`` its final ``status`` and retain it as the newest
        finished job, evicting the oldest past the bound (lock held)."""
        self._set_status(job, status)
        job.finished_s = time.time()
        if self._by_key.get(job.key) == job.id:
            del self._by_key[job.key]
        self._futures.pop(job.id, None)
        self._finished.append(job)
        while len(self._finished) > self.max_finished:
            self._drop(self._finished.popleft())
            self.evictions += 1

    def _drop(self, job: Job) -> None:
        """Forget a finished job (lock held)."""
        del self._jobs[job.id]
        self._statuses[job.status] -= 1

    def _active(self) -> int:
        """Jobs queued or running (lock held)."""
        return sum(self._statuses[status] for status in _ACTIVE)

    # -- queries ---------------------------------------------------------------

    def job(self, job_id: str) -> Job:
        """Look up one job; raises :class:`UnknownJobError`."""
        with self._lock:
            self.purge_expired()
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(
                    f"unknown job {job_id!r} (never submitted, or "
                    "dropped past the result TTL or retention bound)"
                )
            return job

    def jobs(self) -> list[Job]:
        """Every retained job, oldest first."""
        with self._lock:
            self.purge_expired()
            return list(self._jobs.values())

    def active_count(self) -> int:
        """Jobs currently queued or running."""
        with self._lock:
            return self._active()

    def future(self, job_id: str) -> concurrent.futures.Future | None:
        """The future a job's thread completes, while the job is active.

        ``None`` once the job has finished: its document is then final.
        """
        with self._lock:
            return self._futures.get(job_id)

    def answer(self, job_id: str) -> Job | None:
        """The job behind a submission if it has finished, counted as
        ``answered``; ``None`` while it is active or once dropped."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status in _ACTIVE:
                return None
            self.answered += 1
            return job

    # -- lifecycle ---------------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job; flag a running one.

        A queued job (its thread has not started) transitions to
        ``cancelled``.  A running campaign cannot be interrupted
        mid-simulation, so it only gets ``cancel_requested`` — the
        caller sees the flag in the job document.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(f"unknown job {job_id!r}")
            job.cancel_requested = True
            future = self._futures.get(job_id)
            if (
                job.status == "queued"
                and future is not None
                and future.cancel()
            ):
                self.cancelled += 1
                self._finish(job, "cancelled")
            return job

    def purge(self, now: float | None = None) -> int:
        """Locked :meth:`purge_expired` for periodic housekeeping.

        The query methods purge opportunistically, but a service that
        stops being queried would retain expired results until the
        next request — the server's housekeeping task calls this on a
        timer so retention is bounded by the TTL, not by traffic.
        """
        with self._lock:
            return self.purge_expired(now)

    def purge_expired(self, now: float | None = None) -> int:
        """Drop finished jobs older than the TTL (lock held by caller
        when invoked internally; use :meth:`purge` standalone).

        Finished jobs are held in finish order, so the expired ones
        are the oldest and the purge stops at the first live one.
        """
        if self.ttl_s <= 0:
            return 0
        now = time.time() if now is None else now
        removed = 0
        while (
            self._finished
            and now - self._finished[0].finished_s > self.ttl_s
        ):
            self._drop(self._finished.popleft())
            removed += 1
        self.expired += removed
        return removed

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Stop admission and wait for active jobs to finish.

        Returns True when everything finished inside ``timeout_s``.
        Queued-but-unstarted jobs are cancelled rather than waited on.
        """
        import asyncio

        with self._lock:
            self._draining = True
            for job_id, future in list(self._futures.items()):
                job = self._jobs[job_id]
                if job.status == "queued" and future.cancel():
                    self.cancelled += 1
                    self._finish(job, "cancelled")
        deadline = time.monotonic() + max(0.0, timeout_s)
        while self.active_count() > 0:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    def shutdown(self) -> None:
        """Tear down the worker threads (after :meth:`drain`)."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    @property
    def draining(self) -> bool:
        """Whether admission has been stopped for shutdown."""
        return self._draining

    def stats(self) -> dict[str, _t.Any]:
        """JSON-ready counters for the ``/metrics`` endpoint.

        ``finished`` reports the retention bound in the shape of
        :meth:`repro.runtime.memcache.LRUCache.stats`: finished jobs
        held, the most that are held, and how many the bound dropped
        before their TTL (``expired`` counts the TTL's drops).
        """
        with self._lock:
            return {
                "submitted": self.submitted,
                "coalesced": self.coalesced,
                "rejected": self.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "expired": self.expired,
                "answered": self.answered,
                "retained": len(self._jobs),
                "by_status": {
                    status: count
                    for status, count in self._statuses.items()
                    if count
                },
                "finished": {
                    "entries": len(self._finished),
                    "max_entries": self.max_finished,
                    "evictions": self.evictions,
                },
                "max_queue": self.max_queue,
                "result_ttl_s": self.ttl_s,
                "draining": self._draining,
            }
