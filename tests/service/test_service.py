"""End-to-end service tests over real HTTP (in-process server)."""

import pytest

from repro.cluster.machine import paper_spec
from repro.core.energy import EnergyModel
from repro.core.params_sp import SimplifiedParameterization
from repro.experiments.platform import measure_campaign
from repro.npb import EPBenchmark, ProblemClass
from repro.service import ServiceClient, ServiceError
from repro.service.protocol import parse_grid_key
from repro.service.server import ServiceConfig, parse_warmup


@pytest.fixture
def client(served):
    with ServiceClient(port=served.port) as c:
        yield c


def grid_items(document):
    """Parse a ``{"N@fMHz": value}`` JSON grid back to tuple keys."""
    return {parse_grid_key(k): v for k, v in document.items()}


class TestHealthAndErrors:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs_active"] == 0
        assert health["uptime_s"] >= 0

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_unknown_benchmark_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.predict("nope", "A")
        assert excinfo.value.status == 400

    def test_missing_benchmark_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/predict", {})
        assert excinfo.value.status == 400

    def test_bad_grid_key_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.predict("ep", "S", cells=["600MHz"])
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_unfitted_cell_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.predict("ep", "S", cells=["2@123MHz"])
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "MeasurementError"


class TestPredict:
    def test_full_grid_bit_identical_to_direct_model(self, client):
        response = client.predict("ep", "S")
        campaign = measure_campaign(EPBenchmark(ProblemClass.S))
        sp = SimplifiedParameterization(campaign)
        spec = paper_spec()
        em = EnergyModel(spec.power, spec.cpu.operating_points)
        predictions = grid_items(response["predictions"])
        assert set(predictions) == set(campaign.times)
        for (n, f), values in predictions.items():
            time_s = sp.predict_time(n, f)
            overhead = max(sp.overhead(n), 0.0) if n > 1 else 0.0
            energy = em.predict(n, f, time_s, overhead)
            assert values["time_s"] == time_s
            assert values["speedup"] == sp.predict_speedup(n, f)
            assert values["energy_j"] == energy.energy_j
            assert values["edp"] == energy.edp

    def test_cells_and_cross_product_agree(self, client):
        by_cells = client.predict(
            "ep", "S", cells=["2@600MHz", "2@1400MHz"]
        )
        by_product = client.predict(
            "ep", "S", counts=[2], frequencies_mhz=[600, 1400]
        )
        assert by_cells["predictions"] == by_product["predictions"]

    def test_repeat_served_from_cache(self, client):
        first = client.predict("ep", "S", cells=["4@800MHz"])
        second = client.predict("ep", "S", cells=["4@800MHz"])
        assert first["served_from"] == "computed"
        assert second["served_from"] == "cache"
        assert first["predictions"] == second["predictions"]
        metrics = client.metrics()["service"]["predict"]
        assert metrics["cache_hits"] == 1
        assert metrics["coalesce_ratio"] > 0

    def test_response_carries_model_inputs(self, client):
        response = client.predict("ep", "S", cells=["2@600MHz"])
        assert response["model"]["runs_required"] == 9
        assert response["base_frequency_hz"] == 600e6


class TestCampaignJobs:
    def test_job_lifecycle_and_bit_identical_payload(self, client):
        ticket = client.submit_campaign(
            "ep", "S", counts=[1, 2, 4], frequencies_mhz=[600, 800]
        )
        assert ticket["created"]
        # Answered with the finished job, or its ticket while active.
        assert ticket["status"] in ("queued", "running", "done")
        done = client.wait_for_job(ticket["job_id"])
        assert done["status"] == "done"
        assert done["runtime"]["source"] == "simulated"
        campaign = measure_campaign(
            EPBenchmark(ProblemClass.S), (1, 2, 4), (600e6, 800e6)
        )
        data = done["result"]["data"]
        assert grid_items(data["times"]) == campaign.times
        assert grid_items(data["energies"]) == campaign.energies
        assert grid_items(data["speedups"]) == campaign.speedups()

    def test_resubmission_after_completion_hits_cache(self, client):
        grid = dict(counts=[1, 2], frequencies_mhz=[600])
        first = client.submit_campaign("ep", "S", **grid)
        client.wait_for_job(first["job_id"])
        second = client.submit_campaign("ep", "S", **grid)
        assert second["created"]
        assert second["job_id"] != first["job_id"]
        done = client.wait_for_job(second["job_id"])
        assert done["runtime"]["source"] == "service-cache"

    def test_jobs_listing(self, client):
        ticket = client.submit_campaign(
            "ep", "S", counts=[1], frequencies_mhz=[600]
        )
        client.wait_for_job(ticket["job_id"])
        listing = client.jobs()
        ids = [job["job_id"] for job in listing["jobs"]]
        assert ticket["job_id"] in ids
        assert listing["stats"]["submitted"] == 1
        # The listing omits bulky results; the job endpoint has them.
        assert "result" not in listing["jobs"][0]
        assert "result" in client.job(ticket["job_id"])

    def test_empty_grid_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign("ep", "S", counts=[])
        assert excinfo.value.status == 400

    def test_bad_count_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign("ep", "S", counts=[0])
        assert excinfo.value.status == 400


class TestMetricsEndpoint:
    def test_schema(self, client):
        client.predict("ep", "S", cells=["1@600MHz"])
        metrics = client.metrics()
        service = metrics["service"]
        assert service["context"] == "repro-serve"
        assert service["requests"]["total"] >= 1
        assert "POST /predict" in service["requests"]["by_endpoint"]
        assert service["predict"]["batcher"]["batches"] >= 1
        assert service["models"]["loaded"] == ["ep:S"]
        assert "entries" in service["response_cache"]
        assert "max_queue" in service["jobs"]
        runtime = metrics["campaign_runtime"]
        assert "disk_cache" in runtime
        assert runtime["simulated_campaigns"] >= 1

    def test_by_endpoint_keys_are_route_templates(self, client):
        ticket = client.submit_campaign(
            "ep", "S", counts=[1], frequencies_mhz=[600]
        )
        client.wait_for_job(ticket["job_id"])
        keys = None
        for index in range(5):
            client.job(ticket["job_id"])
            for method, path in (
                ("GET", f"/nope-{index}"),
                ("GET", f"/jobs/job-{index}/nope"),
                ("GET", f"/jobs/job-9{index}"),
                ("PUT", "/healthz"),
            ):
                with pytest.raises(ServiceError):
                    client.request(method, path)
            by_endpoint = client.metrics()["service"]["requests"][
                "by_endpoint"
            ]
            keys = keys or set(by_endpoint)
            assert set(by_endpoint) == keys
        assert keys == {
            "POST /campaign",
            "GET /jobs/<id>",
            "GET /metrics",
            "unmatched",
        }
        assert by_endpoint["unmatched"] == 15


class TestConfig:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_SERVE_PORT", "1234")
        monkeypatch.setenv("REPRO_SERVE_WARMUP", "ep:A, ft")
        monkeypatch.setenv("REPRO_SERVE_JOB_WORKERS", "7")
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "3")
        monkeypatch.setenv("REPRO_SERVE_RESULT_TTL", "12.5")
        monkeypatch.setenv("REPRO_SERVE_CACHE_ENTRIES", "99")
        monkeypatch.setenv("REPRO_SERVE_ALLOW_FAULTS", "1")
        config = ServiceConfig.from_env()
        assert config.host == "0.0.0.0"
        assert config.port == 1234
        assert config.warmup == (("ep", "A"), ("ft", "A"))
        assert config.job_workers == 7
        assert config.max_queue == 3
        assert config.result_ttl_s == 12.5
        assert config.cache_entries == 99
        assert config.allow_faults

    def test_defaults(self, monkeypatch):
        for name in (
            "REPRO_SERVE_HOST",
            "REPRO_SERVE_PORT",
            "REPRO_SERVE_WARMUP",
            "REPRO_SERVE_ALLOW_FAULTS",
        ):
            monkeypatch.delenv(name, raising=False)
        config = ServiceConfig.from_env()
        assert config.host == "127.0.0.1"
        assert config.port == 8642
        assert config.warmup == ()
        assert not config.allow_faults

    def test_parse_warmup(self):
        assert parse_warmup("") == ()
        assert parse_warmup("EP:a") == (("ep", "A"),)
        assert parse_warmup("ep:A,lu:B,") == (
            ("ep", "A"),
            ("lu", "B"),
        )


class TestWarmup:
    def test_warmed_model_serves_without_fit(self):
        from repro.service import ServiceThread

        config = ServiceConfig(port=0, warmup=(("ep", "S"),))
        with ServiceThread(config) as served:
            with ServiceClient(port=served.port) as client:
                assert client.healthz()["models_loaded"] == ["ep:S"]
                response = client.predict(
                    "ep", "S", cells=["2@600MHz"]
                )
                assert response["served_from"] == "computed"
