"""Tests for POST /govern: governed runs through the job API."""

import pytest

from repro.service.client import ServiceClient, ServiceError


@pytest.fixture
def client(served):
    with ServiceClient(port=served.port) as client:
        yield client


class TestGovernEndpoint:
    def test_governed_run_returns_full_trace(self, client):
        ticket = client.submit_govern(
            "ft",
            ranks=4,
            policy="model_predictive",
            scenario="cluster_cap",
            seed=3,
        )
        # Answered with the finished job, or its ticket while active.
        assert ticket["status"] in ("queued", "running", "done")
        assert ticket["poll"] == f"/jobs/{ticket['job_id']}"
        document = client.wait_for_job(ticket["job_id"])
        assert document["status"] == "done"
        result = document["result"]
        assert result["params"]["policy"] == "model_predictive"
        trace = result["trace"]
        assert trace["benchmark"] == "ft"
        assert trace["seed"] == 3
        assert trace["cap"]["label"] == "cluster_cap"
        assert trace["decisions"]
        assert trace["observations"]
        assert trace["result"]["finalized"] is True
        assert result["governed"]["edp_j_s"] == pytest.approx(
            trace["result"]["edp_j_s"]
        )
        # Governing FT under the cluster cap beats the static baseline.
        assert result["edp_ratio_vs_static"] < 1.0

    def test_resubmission_hits_response_cache(self, client):
        kwargs = dict(ranks=2, policy="reactive", scenario="node_cap")
        first = client.submit_govern("ep", **kwargs)
        client.wait_for_job(first["job_id"])
        again = client.submit_govern("ep", **kwargs)
        document = client.wait_for_job(again["job_id"])
        assert document["status"] == "done"
        assert document["runtime"] == {"source": "service-cache"}

    def test_identical_submissions_share_a_job(self, client):
        kwargs = dict(ranks=2, policy="static", scenario="uncapped")
        first = client.submit_govern("ep", **kwargs)
        second = client.submit_govern("ep", **kwargs)
        assert first["key"] == second["key"]

    def test_custom_watt_budget(self, client):
        ticket = client.submit_govern(
            "ep", ranks=2, policy="static", node_cap_w=26.0
        )
        document = client.wait_for_job(ticket["job_id"])
        assert document["status"] == "done"
        trace = document["result"]["trace"]
        assert trace["cap"] == {
            "label": "custom",
            "cluster_w": None,
            "node_w": 26.0,
        }
        # 26 W forces the node below the two highest operating points.
        for decision in trace["decisions"]:
            assert max(decision["frequencies_mhz"]) <= 1000.0

    def test_bad_policy_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_govern("ep", policy="warp_speed")
        assert err.value.status == 400

    def test_bad_scenario_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_govern("ep", scenario="brownout")
        assert err.value.status == 400

    def test_infeasible_cap_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_govern("ep", ranks=2, node_cap_w=0.5)
        assert err.value.status == 400

    def test_bad_ranks_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_govern("ep", ranks=0)
        assert err.value.status == 400

    def test_get_method_not_allowed(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/govern")
        assert err.value.status == 405
