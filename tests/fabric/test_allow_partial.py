"""``allow_partial`` end to end: planner campaigns and service jobs.

A cell that exhausts its retry budget under ``allow_partial`` must
surface as *metadata* — a failed-cell count and a structured failure
report — at every level that re-exposes campaign results: the runtime
metrics record, the planner's assembled artifact, and the service's
job document.  And a partial document must never be served from any
cache: the failed cell gets a fresh chance on every submission.
"""

import pytest

from repro import runtime
from repro.errors import CampaignExecutionError
from repro.experiments.platform import measure_campaign
from repro.npb import EPBenchmark, ProblemClass
from repro.pipeline import ArtifactStore, CampaignRequest, execute_plan
from repro.runtime.faults import FaultPlan
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread
from repro.units import mhz

from tests.fabric.fleet import fast_config

COUNTS = (1, 2)
FREQUENCIES = (mhz(600),)
DOOMED = (2, mhz(600))

#: Every attempt at the doomed cell raises; all other cells clean.
PLAN = FaultPlan(exception=1.0, cells=(DOOMED,), times=99)


def _bench():
    return EPBenchmark(ProblemClass.S)


def _last_record(label="ep.S", source=None):
    records = [
        r
        for r in runtime.campaign_metrics()["records"]
        if r["label"] == label
        and (source is None or r["source"] == source)
    ]
    assert records, f"no {label} record with source {source}"
    return records[-1]


class TestPlatformPartial:
    def test_partial_campaign_reports_failed_cell_metadata(self):
        runtime.install_fault_plan(PLAN)
        campaign = measure_campaign(
            _bench(), COUNTS, FREQUENCIES, allow_partial=True
        )
        assert DOOMED not in campaign.times
        assert (1, mhz(600)) in campaign.times
        record = _last_record(source="simulated")
        assert record["failed_cells"] == 1
        (failure,) = record["failures"]
        assert failure["cell"] == [DOOMED[0], DOOMED[1]]
        history = failure["attempts"]
        assert len(history) == 1 + runtime.settings().retries
        assert all(a["outcome"] == "exception" for a in history)
        assert "injected exception" in failure["error"]

    def test_partial_campaign_is_never_cached(self):
        runtime.install_fault_plan(PLAN)
        measure_campaign(_bench(), COUNTS, FREQUENCIES, allow_partial=True)
        # Heal the cell: a cached partial would keep serving the hole.
        runtime.install_fault_plan(None)
        healed = measure_campaign(
            _bench(), COUNTS, FREQUENCIES, allow_partial=True
        )
        assert _last_record()["source"] == "simulated"
        assert DOOMED in healed.times

    def test_without_allow_partial_the_campaign_raises(self):
        runtime.install_fault_plan(PLAN)
        with pytest.raises(CampaignExecutionError):
            measure_campaign(_bench(), COUNTS, FREQUENCIES)
        assert _last_record(source="failed")["failed_cells"] == 1


class TestPlannerPartial:
    def test_plan_assembles_partial_artifact_with_metadata(self):
        runtime.configure(allow_partial=True)
        runtime.install_fault_plan(PLAN)
        store = ArtifactStore()
        request = CampaignRequest("ep", "S", COUNTS, FREQUENCIES)
        report = execute_plan([request], store)
        # The surviving cell was executed; the doomed one is a hole.
        assert report.executed_cells == 1
        artifact = store.campaign(request)
        assert artifact.source == "planned"
        assert DOOMED not in artifact.value.times
        assert (1, mhz(600)) in artifact.value.times
        # Metadata at both layers: the batch record carries the
        # structured failure report, the planned record the hole count.
        batch = _last_record(source="simulated")
        assert batch["failed_cells"] == 1
        assert batch["failures"][0]["cell"] == [DOOMED[0], DOOMED[1]]
        assert _last_record(source="planned")["failed_cells"] == 1

    def test_healed_replan_fills_the_hole(self):
        runtime.configure(allow_partial=True)
        runtime.install_fault_plan(PLAN)
        request = CampaignRequest("ep", "S", COUNTS, FREQUENCIES)
        execute_plan([request], ArtifactStore())
        runtime.install_fault_plan(None)
        store = ArtifactStore()
        report = execute_plan([request], store)
        # Only the previously failed cell re-executes; the survivor
        # is served from the cell index.
        assert report.executed_cells == 1
        assert DOOMED in store.campaign(request).value.times


class TestServicePartial:
    def test_job_document_carries_failed_cell_metadata(self):
        with ServiceThread(fast_config()) as served:
            runtime.install_fault_plan(PLAN)
            with ServiceClient(port=served.port) as client:
                ticket = client.submit_campaign(
                    "ep",
                    "S",
                    counts=list(COUNTS),
                    frequencies_mhz=[600],
                    allow_partial=True,
                )
                job = client.wait_for_job(ticket["job_id"])
                assert job["status"] == "done"
                assert job["params"]["allow_partial"] is True
                assert job["runtime"]["failed_cells"] == 1
                failure = job["runtime"]["failures"][0]
                assert failure["cell"] == [DOOMED[0], DOOMED[1]]
                assert len(job["result"]["data"]["times"]) == 1

                # A partial document is never response-cached: the
                # resubmission simulates again (and the doomed cell
                # gets a fresh chance).
                again = client.submit_campaign(
                    "ep",
                    "S",
                    counts=list(COUNTS),
                    frequencies_mhz=[600],
                    allow_partial=True,
                )
                assert again["created"] is True
                rejob = client.wait_for_job(again["job_id"])
                assert rejob["runtime"]["source"] == "simulated"

    def test_partial_key_never_collides_with_full_campaign(self):
        with ServiceThread(fast_config()) as served:
            with ServiceClient(port=served.port) as client:
                full = client.submit_campaign(
                    "ep", "S", counts=[1], frequencies_mhz=[600]
                )
                partial = client.submit_campaign(
                    "ep",
                    "S",
                    counts=[1],
                    frequencies_mhz=[600],
                    allow_partial=True,
                )
                # Same campaign digest, distinct job keys: the partial
                # submission is a new job, not a coalesce.
                assert full["key"] == partial["key"]
                assert partial["job_id"] != full["job_id"]
                assert partial["created"] is True
                assert (
                    client.wait_for_job(full["job_id"])["status"]
                    == "done"
                )
                assert (
                    client.wait_for_job(partial["job_id"])["status"]
                    == "done"
                )

    def test_without_allow_partial_the_job_fails(self):
        with ServiceThread(fast_config()) as served:
            runtime.install_fault_plan(PLAN)
            with ServiceClient(port=served.port) as client:
                ticket = client.submit_campaign(
                    "ep", "S", counts=list(COUNTS), frequencies_mhz=[600]
                )
                job = client.wait_for_job(ticket["job_id"])
                assert job["status"] == "failed"
                assert job["error_type"] == "CampaignExecutionError"
