"""Tests for the experiment endpoints: GET /experiments and
POST /experiments/<id> (pipeline runs as jobs)."""

import pytest

from repro.service.client import ServiceClient, ServiceError


@pytest.fixture
def client(served):
    with ServiceClient(port=served.port) as client:
        yield client


class TestListExperiments:
    def test_lists_registry_specs(self, client):
        listing = client.experiments()
        by_id = {e["id"]: e for e in listing["experiments"]}
        assert "table3" in by_id
        assert by_id["table3"]["title"]
        assert "render" in by_id["table3"]["stages"]

    def test_method_not_allowed(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/experiments", {})
        assert err.value.status == 405


class TestRunExperiment:
    def test_runs_pipeline_as_job(self, client):
        ticket = client.submit_experiment(
            "table5", {"problem_class": "S"}
        )
        # Answered with the finished job, or its ticket while active.
        assert ticket["status"] in ("queued", "running", "done")
        assert ticket["poll"] == f"/jobs/{ticket['job_id']}"
        document = client.wait_for_job(ticket["job_id"])
        assert document["status"] == "done"
        result = document["result"]
        assert result["experiment"] == "table5"
        assert "Table 5" in result["text"]
        assert result["data"]
        provenance = result["provenance"]
        assert any(
            a["name"] == "table5/render"
            for a in provenance["artifacts"]
        )

    def test_resubmission_hits_response_cache(self, client):
        ticket = client.submit_experiment(
            "table5", {"problem_class": "S"}
        )
        client.wait_for_job(ticket["job_id"])
        again = client.submit_experiment(
            "table5", {"problem_class": "S"}
        )
        document = client.wait_for_job(again["job_id"])
        assert document["status"] == "done"
        assert document["runtime"] == {"source": "service-cache"}

    def test_unknown_parameter_is_400_and_queues_nothing(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_experiment("table5", {"bogus": 1})
        assert err.value.status == 400
        assert "'bogus'" in err.value.message
        assert "problem_class" in err.value.message
        assert client.jobs()["stats"]["submitted"] == 0

    def test_unknown_experiment_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_experiment("zz_nope")
        assert err.value.status == 404
        assert err.value.error_type == "unknown_experiment"

    def test_get_on_experiment_id_is_405(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/experiments/table5")
        assert err.value.status == 405
