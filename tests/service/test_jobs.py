"""Job-manager tests: bounded admission, dedup, cancellation, TTL,
drain."""

import asyncio
import sys
import threading
import time

import pytest

from repro.service.jobs import (
    FINISHED_PER_SLOT,
    Job,
    JobManager,
    JobQueueFullError,
    UnknownJobError,
)


def wait_status(manager, job_id, statuses, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = manager.job(job_id)
        if job.status in statuses:
            return job
        time.sleep(0.005)
    raise AssertionError(
        f"job {job_id} stuck in {manager.job(job_id).status!r}"
    )


@pytest.fixture
def manager():
    m = JobManager(max_workers=2, max_queue=8, ttl_s=900.0)
    yield m
    m.shutdown()


class TestSubmission:
    def test_job_runs_and_stores_result(self, manager):
        job, created = manager.submit(
            "k1", "ep.A", lambda job: {"answer": 42}
        )
        assert created
        done = wait_status(manager, job.id, ("done",))
        assert done.result == {"answer": 42}
        assert done.started_s is not None
        assert done.finished_s >= done.started_s
        document = done.as_dict()
        assert document["status"] == "done"
        assert document["result"] == {"answer": 42}
        assert "error" not in document

    def test_failure_captured(self, manager):
        def boom(job):
            raise ValueError("broken campaign")

        job, _ = manager.submit("k1", "ep.A", boom)
        failed = wait_status(manager, job.id, ("failed",))
        assert failed.error == "broken campaign"
        assert failed.error_type == "ValueError"
        assert failed.as_dict()["error_type"] == "ValueError"

    def test_identical_keys_coalesce_while_active(self, manager):
        release = threading.Event()

        def blocked(job):
            release.wait(10)
            return {}

        first, created1 = manager.submit("same", "ep.A", blocked)
        second, created2 = manager.submit("same", "ep.A", blocked)
        assert created1 and not created2
        assert second.id == first.id
        assert manager.coalesced == 1
        release.set()
        wait_status(manager, first.id, ("done",))
        # A finished key no longer absorbs submissions.
        third, created3 = manager.submit(
            "same", "ep.A", lambda job: {}
        )
        assert created3 and third.id != first.id

    def test_distinct_keys_run_separately(self, manager):
        a, _ = manager.submit("ka", "ep.A", lambda job: {})
        b, _ = manager.submit("kb", "ep.A", lambda job: {})
        assert a.id != b.id

    def test_queue_bound_rejects(self):
        manager = JobManager(max_workers=1, max_queue=2, ttl_s=900.0)
        release = threading.Event()
        try:
            manager.submit("k1", "l", lambda job: release.wait(10))
            manager.submit("k2", "l", lambda job: None)
            with pytest.raises(JobQueueFullError):
                manager.submit("k3", "l", lambda job: None)
            assert manager.rejected == 1
        finally:
            release.set()
            manager.shutdown()


class TestCancellation:
    def test_queued_job_cancels(self):
        manager = JobManager(max_workers=1, max_queue=8, ttl_s=900.0)
        release = threading.Event()
        try:
            running, _ = manager.submit(
                "k1", "l", lambda job: release.wait(10)
            )
            queued, _ = manager.submit("k2", "l", lambda job: {})
            cancelled = manager.cancel(queued.id)
            assert cancelled.status == "cancelled"
            assert manager.cancelled == 1
            # A cancelled key is released for resubmission.
            again, created = manager.submit(
                "k2", "l", lambda job: {}
            )
            assert created
        finally:
            release.set()
            manager.shutdown()

    def test_running_job_only_flagged(self, manager):
        release = threading.Event()
        job, _ = manager.submit(
            "k1", "l", lambda job: release.wait(10) and {} or {}
        )
        wait_status(manager, job.id, ("running",))
        flagged = manager.cancel(job.id)
        assert flagged.status == "running"
        assert flagged.cancel_requested
        release.set()
        wait_status(manager, job.id, ("done",))

    def test_unknown_job_raises(self, manager):
        with pytest.raises(UnknownJobError):
            manager.job("job-999999")
        with pytest.raises(UnknownJobError):
            manager.cancel("job-999999")


class TestRetention:
    def test_finished_jobs_expire_past_ttl(self):
        manager = JobManager(max_workers=1, max_queue=8, ttl_s=0.05)
        try:
            job, _ = manager.submit("k1", "l", lambda job: {})
            wait_status(manager, job.id, ("done",))
            time.sleep(0.1)
            assert manager.jobs() == []
            with pytest.raises(UnknownJobError):
                manager.job(job.id)
            assert manager.expired == 1
        finally:
            manager.shutdown()

    def test_zero_ttl_disables_expiry(self):
        manager = JobManager(max_workers=1, max_queue=8, ttl_s=0.0)
        try:
            job, _ = manager.submit("k1", "l", lambda job: {})
            wait_status(manager, job.id, ("done",))
            time.sleep(0.05)
            assert [j.id for j in manager.jobs()] == [job.id]
        finally:
            manager.shutdown()

    @pytest.mark.parametrize("ttl_s", [900.0, 0.0])
    def test_finished_jobs_bounded_by_queue_size(self, ttl_s):
        manager = JobManager(max_workers=2, max_queue=2, ttl_s=ttl_s)
        bound = FINISHED_PER_SLOT * 2
        release = threading.Event()
        try:
            slow, _ = manager.submit(
                "slow", "l", lambda job: release.wait(10) and {}
            )
            done = []
            for index in range(bound + 3):
                job, _ = manager.submit(f"k{index}", "l", lambda job: {})
                wait_status(manager, job.id, ("done",))
                done.append(job.id)
            # The active job is never evicted; the oldest finished are.
            assert [j.id for j in manager.jobs()] == [slow.id, *done[3:]]
            with pytest.raises(UnknownJobError):
                manager.job(done[0])
            release.set()
            wait_status(manager, slow.id, ("done",))
            # Finishing makes it the newest finished job: still oldest
            # in the listing, and it pushes one more out.
            assert [j.id for j in manager.jobs()] == [slow.id, *done[4:]]
            stats = manager.stats()
            assert stats["finished"] == {
                "entries": bound,
                "max_entries": bound,
                "evictions": 4,
            }
            assert stats["retained"] == bound
            assert stats["by_status"] == {"done": bound}
            assert stats["expired"] == 0
        finally:
            release.set()
            manager.shutdown()

    def test_active_jobs_never_expire(self):
        manager = JobManager(max_workers=1, max_queue=8, ttl_s=0.01)
        release = threading.Event()
        try:
            job, _ = manager.submit(
                "k1", "l", lambda job: release.wait(10)
            )
            time.sleep(0.05)
            assert manager.job(job.id).status in (
                "queued",
                "running",
            )
        finally:
            release.set()
            manager.shutdown()


class TestDrain:
    def test_drain_waits_for_running_and_cancels_queued(self):
        manager = JobManager(max_workers=1, max_queue=8, ttl_s=900.0)
        release = threading.Event()
        try:
            running, _ = manager.submit(
                "k1", "l", lambda job: release.wait(10)
            )
            queued, _ = manager.submit("k2", "l", lambda job: {})
            wait_status(manager, running.id, ("running",))

            async def drain():
                release.set()
                return await manager.drain(timeout_s=10.0)

            assert asyncio.run(drain())
            assert manager.job(running.id).status == "done"
            assert manager.job(queued.id).status == "cancelled"
            with pytest.raises(JobQueueFullError):
                manager.submit("k3", "l", lambda job: {})
            assert manager.draining
        finally:
            manager.shutdown()

    def test_drain_times_out_on_stuck_job(self):
        manager = JobManager(max_workers=1, max_queue=8, ttl_s=900.0)
        release = threading.Event()
        try:
            manager.submit("k1", "l", lambda job: release.wait(30))

            async def drain():
                return await manager.drain(timeout_s=0.1)

            assert not asyncio.run(drain())
        finally:
            release.set()
            manager.shutdown()


class TestStats:
    def test_stats_shape(self, manager):
        job, _ = manager.submit("k1", "l", lambda job: {})
        wait_status(manager, job.id, ("done",))
        stats = manager.stats()
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["by_status"] == {"done": 1}
        assert stats["max_queue"] == 8
        assert stats["draining"] is False

    def test_counts_stay_exact_under_thread_churn(self):
        """Many job threads and submitters finishing, failing and being
        evicted at once leave every count consistent."""
        manager = JobManager(max_workers=8, max_queue=4, ttl_s=900.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def fn(job):
            if job.key.endswith("7"):
                raise ValueError("boom")
            return {}

        def submitter(offset):
            for index in range(200):
                key = f"k{offset}-{index}"
                while True:
                    try:
                        manager.submit(key, "l", fn)
                        break
                    except JobQueueFullError:
                        time.sleep(0.0005)

        try:
            threads = [
                threading.Thread(target=submitter, args=(offset,))
                for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            deadline = time.monotonic() + 30
            while manager.active_count():
                assert time.monotonic() < deadline
                time.sleep(0.005)
        finally:
            sys.setswitchinterval(interval)
            manager.shutdown()
        stats = manager.stats()
        assert stats["submitted"] == 800
        assert stats["completed"] + stats["failed"] == 800
        assert stats["failed"] == 80
        assert stats["retained"] == stats["finished"]["entries"] == 16
        assert sum(stats["by_status"].values()) == 16
        assert stats["finished"]["evictions"] == 800 - 16

    def test_job_runtime_field_round_trips(self, manager):
        def fn(job: Job):
            job.runtime = {"source": "simulated", "retries": 2}
            return {}

        job, _ = manager.submit("k1", "l", fn)
        done = wait_status(manager, job.id, ("done",))
        assert done.as_dict()["runtime"]["retries"] == 2
