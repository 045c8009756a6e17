"""The fabric's HTTP surface: endpoints, readiness, metrics, jobs.

Wire-level coverage of what the protocol unit tests exercise
in-process: workers joining over ``/fabric/*``, fleet state in
``/metrics``, the liveness/readiness split, and a fabric-executed
campaign flowing through the job manager with its fleet accounting
visible in the job document.
"""

import pytest

from repro.service.client import ServiceClient, ServiceError

from tests.fabric.fleet import WorkerFleet, wait_for_workers


@pytest.fixture
def client(served):
    with ServiceClient(port=served.port) as client:
        yield client


class TestFabricEndpoints:
    def test_register_lease_heartbeat_wire_shapes(self, served, client):
        doc = client.request(
            "POST", "/fabric/register", {"name": "wire-test"}
        )
        assert doc["worker_id"].startswith("w-")
        assert doc["lease_ttl_s"] == served.config.fabric_lease_ttl_s
        # No batches yet: leases report idle with a backoff hint.
        lease = client.request(
            "POST", "/fabric/lease", {"worker_id": doc["worker_id"]}
        )
        assert lease["idle"] is True
        assert lease["backoff_s"] > 0
        beat = client.request(
            "POST", "/fabric/heartbeat", {"worker_id": doc["worker_id"]}
        )
        assert beat == {"ok": True, "lease_extended": False}

    def test_unknown_worker_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request(
                "POST", "/fabric/lease", {"worker_id": "w-9999"}
            )
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "unknown_worker"

    def test_fabric_routes_reject_get_and_unknown(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/fabric/lease")
        assert excinfo.value.status == 405
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/fabric/nope", {})
        assert excinfo.value.status == 404

    def test_metrics_reports_fleet_state(self, served, client):
        with WorkerFleet(served.port, 2):
            wait_for_workers(served, 2)
            fleet = client.metrics()["service"]["fabric"]
        assert fleet["workers"]["live"] == 2
        assert fleet["draining"] is False
        names = {w["name"] for w in fleet["workers"]["fleet"]}
        assert names == {"fleet-0", "fleet-1"}


class TestReadiness:
    def test_healthz_and_readyz_split(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        ready = client.readyz()
        assert ready["status"] == "ready"
        assert ready["queue_capacity"] >= 1

    def test_readyz_503_while_draining(self, served, client):
        served.service.jobs._draining = True
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.readyz()
            assert excinfo.value.status == 503
            assert "draining" in excinfo.value.message
            # Liveness is unaffected: the supervisor must not restart
            # a process that is merely refusing new work.
            assert client.healthz()["status"] == "ok"
        finally:
            served.service.jobs._draining = False
        assert client.readyz()["status"] == "ready"


class TestFabricCampaignJobs:
    def test_fabric_campaign_job_carries_fleet_accounting(
        self, served, client
    ):
        with WorkerFleet(served.port, 2):
            wait_for_workers(served, 2)
            ticket = client.submit_campaign(
                "ep",
                "S",
                counts=[1, 2],
                frequencies_mhz=[600, 800],
                fabric=True,
            )
            job = client.wait_for_job(ticket["job_id"])
        assert job["status"] == "done"
        assert job["params"]["fabric"] is True
        assert job["runtime"]["source"] == "simulated"
        assert job["runtime"]["fabric_cells"] == 4
        assert job["runtime"]["fabric_workers"] >= 1
        data = job["result"]["data"]
        assert len(data["times"]) == 4

    def test_fabric_job_with_no_workers_falls_back_locally(
        self, served, client
    ):
        ticket = client.submit_campaign(
            "ep",
            "S",
            counts=[1, 2],
            frequencies_mhz=[600],
            fabric=True,
        )
        job = client.wait_for_job(ticket["job_id"])
        assert job["status"] == "done"
        assert job["runtime"]["fabric_cells"] == 0
        assert len(job["result"]["data"]["times"]) == 2


class TestWorkerLifecycle:
    def test_drained_worker_closes_its_client(self, served):
        fleet = WorkerFleet(served.port, 1).start()
        wait_for_workers(served, 1)
        served.service.coordinator.drain()
        (thread,) = fleet.threads
        thread.join(timeout=10)
        assert not thread.is_alive()
        # The lease loop's keep-alive connection is closed, not leaked.
        assert fleet.workers[0]._client._connection is None
