"""Platform awareness across the service surface.

``GET /platforms`` exposes the registry; ``/predict``, ``/campaign``
and ``/govern`` accept a ``platform`` field (unknown names are clean
400s naming the choices); ``POST /optimize`` runs the configuration
search as a job.
"""

import pytest

from repro.platforms import DEFAULT_PLATFORM, platform_names
from repro.service.client import ServiceClient, ServiceError


@pytest.fixture
def client(served):
    with ServiceClient(port=served.port) as client:
        yield client


class TestPlatformsEndpoint:
    def test_lists_registered_platforms(self, client):
        document = client.platforms()
        assert document["default"] == DEFAULT_PLATFORM
        names = [p["name"] for p in document["platforms"]]
        assert names == sorted(platform_names())
        by_name = {p["name"]: p for p in document["platforms"]}
        assert by_name["hetero-2gen"]["heterogeneous"] is True
        assert by_name["paper"]["heterogeneous"] is False
        assert all(p["spec_digest"] for p in document["platforms"])

    def test_post_is_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/platforms", {})
        assert err.value.status == 405


class TestUnknownPlatformIs400:
    @pytest.mark.parametrize(
        "submit",
        [
            lambda c: c.predict("ep", platform="bogus"),
            lambda c: c.submit_campaign("ep", platform="bogus"),
            lambda c: c.submit_govern("ep", ranks=2, platform="bogus"),
            lambda c: c.submit_optimize("ep", platforms=["bogus"]),
        ],
        ids=["predict", "campaign", "govern", "optimize"],
    )
    def test_unknown_platform(self, client, submit):
        with pytest.raises(ServiceError) as err:
            submit(client)
        assert err.value.status == 400
        assert "unknown platform 'bogus'" in err.value.message
        assert "valid choices are" in err.value.message


class TestPlatformFieldOnJobs:
    def test_campaign_on_hetero_platform(self, client):
        ticket = client.submit_campaign(
            "ep",
            counts=[1, 16],
            frequencies_mhz=[1400],
            platform="hetero-2gen",
        )
        document = client.wait_for_job(ticket["job_id"])
        assert document["status"] == "done"
        result = document["result"]
        assert result["platform"] == "hetero-2gen"
        assert result["data"]["times"]

    def test_govern_on_hetero_platform(self, client):
        ticket = client.submit_govern(
            "ep",
            ranks=4,
            policy="static",
            scenario="cluster_cap",
            platform="hetero-2gen",
        )
        document = client.wait_for_job(ticket["job_id"])
        assert document["status"] == "done"
        result = document["result"]
        assert result["params"]["platform"] == "hetero-2gen"
        assert result["governed"]["energy_j"] > 0

    def test_predict_fits_per_platform_model(self, client):
        default = client.predict("ep", cells=["1@1400MHz"])
        memwall = client.predict(
            "ep", cells=["1@1400MHz"], platform="paper-memwall"
        )
        assert default["platform"] == DEFAULT_PLATFORM
        assert memwall["platform"] == "paper-memwall"
        loaded = client.metrics()["service"]["models"]["loaded"]
        assert "ep:A" in loaded
        assert "ep:A@paper-memwall" in loaded


class TestOptimizeEndpoint:
    def test_optimize_job_returns_search_result(self, client):
        ticket = client.submit_optimize(
            "ep",
            objective="energy",
            scenario="cluster_cap",
            confirm=False,
        )
        # Answered with the finished job, or its ticket while active.
        assert ticket["status"] in ("queued", "running", "done")
        document = client.wait_for_job(ticket["job_id"])
        assert document["status"] == "done"
        result = document["result"]
        assert result["objective"] == "energy"
        assert result["cap"]["label"] == "cluster_cap"
        winner = result["winner"]
        assert winner["feasible"] is True
        assert winner["platform"] in platform_names()
        feasible = [c for c in result["candidates"] if c["feasible"]]
        assert feasible[0] == winner
        scores = [c["energy_j"] for c in feasible]
        assert scores == sorted(scores)

    def test_optimize_confirmation(self, client):
        ticket = client.submit_optimize(
            "ep",
            platforms=["paper"],
            counts=[1, 2],
            confirm=True,
        )
        document = client.wait_for_job(ticket["job_id"])
        assert document["status"] == "done"
        confirmation = document["result"]["confirmation"]
        assert confirmation["des_energy_j"] > 0
        assert confirmation["energy_rel_err"] < 2e-2

    def test_resubmission_hits_response_cache(self, client):
        kwargs = dict(
            platforms=["paper"], counts=[1], confirm=False
        )
        first = client.submit_optimize("ep", **kwargs)
        client.wait_for_job(first["job_id"])
        again = client.submit_optimize("ep", **kwargs)
        document = client.wait_for_job(again["job_id"])
        assert document["status"] == "done"
        assert document["runtime"] == {"source": "service-cache"}

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ({"benchmark": "ep", "objective": "joules"}, "objective"),
            ({"benchmark": "nope"}, "unknown benchmark"),
            (
                {"benchmark": "ep", "counts": [0]},
                "counts",
            ),
            (
                {"benchmark": "ep", "scenario": "warp"},
                "scenario",
            ),
        ],
    )
    def test_bad_requests_are_400(self, client, body, fragment):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/optimize", body)
        assert err.value.status == 400
        assert fragment in err.value.message
