"""A job's ``runtime`` is the campaign record its own thread wrote.

Two campaign jobs on the same benchmark and class share a label, so
matching records by label alone lets one job take the other's record
— and a partial campaign then looks clean and its document is cached
for the next identical submission.
"""

import threading
import time

from repro.runtime import METRICS, CampaignRecord
from repro.service.server import ReproService, ServiceConfig


def wait_done(service, job_id, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = service.jobs.job(job_id)
        if job.status not in ("queued", "running"):
            return job
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} never finished")


def test_same_label_jobs_keep_their_own_records():
    service = ReproService(ServiceConfig(port=0, job_workers=2))
    partial_written = threading.Event()
    clean_written = threading.Event()

    def partial():
        # This job's grid lost a cell (allow_partial).
        METRICS.record(
            CampaignRecord(
                label="ep.A",
                source="simulated",
                cells=4,
                wall_s=0.0,
                failed_cells=1,
            )
        )
        partial_written.set()
        assert clean_written.wait(10)
        return {"grid": "partial"}

    def clean():
        METRICS.record(
            CampaignRecord(label="ep.A", source="simulated", cells=2, wall_s=0.0)
        )
        clean_written.set()
        return {"grid": "clean"}

    try:
        # Crossing order: the partial job writes, the clean job writes,
        # then the partial job finishes.
        _, first = service._submit_job("key-partial", "ep.A", {}, partial)
        assert partial_written.wait(10)
        _, second = service._submit_job("key-clean", "ep.A", {}, clean)
        partial_job = wait_done(service, first["job_id"])
        clean_job = wait_done(service, second["job_id"])
    finally:
        partial_written.set()
        clean_written.set()
        service.jobs.shutdown()
    assert partial_job.status == clean_job.status == "done"
    assert (partial_job.runtime["cells"], partial_job.runtime["failed_cells"]) == (4, 1)
    assert (clean_job.runtime["cells"], clean_job.runtime["failed_cells"]) == (2, 0)
    assert ("job", "key-partial") not in service.responses
    assert ("job", "key-clean") in service.responses
