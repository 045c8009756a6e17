"""Concurrent-load behaviour: single-flight coalescing, campaign
dedup across clients, graceful drain, and fault-tolerance surfacing
through the job API."""

import concurrent.futures
import threading

import pytest

from repro.experiments.platform import measure_campaign
from repro.npb import EPBenchmark, ProblemClass
from repro.service import ServiceClient, ServiceThread
from repro.service.protocol import parse_grid_key
from repro.service.server import ServiceConfig


def fanout(worker, n):
    """Run ``worker(index)`` on ``n`` threads; return results in
    submission order, re-raising the first failure."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
        return [
            future.result()
            for future in [pool.submit(worker, i) for i in range(n)]
        ]


class TestPredictCoalescing:
    def test_identical_concurrent_predicts_share_one_fit(
        self, served
    ):
        n_clients = 8
        barrier = threading.Barrier(n_clients)

        def worker(_index):
            with ServiceClient(port=served.port) as client:
                barrier.wait(timeout=30)
                return client.predict("ep", "S")

        responses = fanout(worker, n_clients)
        # Bit-identical payloads for every caller.
        first = responses[0]["predictions"]
        for response in responses[1:]:
            assert response["predictions"] == first
        with ServiceClient(port=served.port) as client:
            metrics = client.metrics()["service"]
        predict = metrics["predict"]
        assert predict["requests"] == n_clients
        # One computation; everyone else joined it or hit the cache.
        assert predict["computed"] == 1
        assert (
            predict["coalesced"] + predict["cache_hits"]
            == n_clients - 1
        )
        assert predict["coalesce_ratio"] > 0
        # The model was fitted exactly once.
        assert metrics["models"]["fits_started"] == 1


class TestPredictStorm:
    #: The bodies each client cycles through: four single cells and
    #: the full paper grid, so concurrent clients share keys.
    POINTS = (["2@600MHz"], ["4@800MHz"], ["8@1000MHz"], ["16@1400MHz"], None)

    def test_barrier_released_storm_answers_every_request(self):
        n_clients, per_client = 128, 4
        barrier = threading.Barrier(n_clients)
        config = ServiceConfig(port=0, warmup=(("ep", "S"),))
        with ServiceThread(config) as served:

            def worker(index):
                answered = 0
                with ServiceClient(port=served.port, timeout_s=120) as client:
                    barrier.wait(timeout=120)
                    for i in range(per_client):
                        cells = self.POINTS[(index + i) % len(self.POINTS)]
                        response = client.predict("ep", "S", cells=cells)
                        answered += bool(response["predictions"])
                return answered

            answered = fanout(worker, n_clients)
            with ServiceClient(port=served.port) as client:
                predict = client.metrics()["service"]["predict"]
        assert sum(answered) == n_clients * per_client
        assert predict["requests"] == n_clients * per_client
        assert predict["coalesce_ratio"] > 0


class TestCampaignDedup:
    def test_identical_concurrent_campaigns_simulate_once(
        self, served, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "1")
        n_clients = 4
        barrier = threading.Barrier(n_clients)
        grid = dict(
            counts=[1, 2, 4, 8, 16],
            frequencies_mhz=[600, 800, 1000, 1200, 1400],
        )

        def worker(_index):
            with ServiceClient(port=served.port) as client:
                barrier.wait(timeout=30)
                ticket = client.submit_campaign("ep", "S", **grid)
                done = client.wait_for_job(ticket["job_id"])
                return ticket, done

        results = fanout(worker, n_clients)
        tickets = [ticket for ticket, _ in results]
        # Every submission resolved to the same job.
        assert len({t["job_id"] for t in tickets}) == 1
        assert sorted(t["created"] for t in tickets) == [
            False,
            False,
            False,
            True,
        ]
        # One simulation total, and every payload is bit-identical
        # to the direct measure_campaign call.
        campaign = measure_campaign(EPBenchmark(ProblemClass.S))
        for _, done in results:
            assert done["status"] == "done"
            data = done["result"]["data"]
            assert {
                parse_grid_key(k): v
                for k, v in data["times"].items()
            } == campaign.times
            assert {
                parse_grid_key(k): v
                for k, v in data["energies"].items()
            } == campaign.energies
        with ServiceClient(port=served.port) as client:
            metrics = client.metrics()
        runtime = metrics["campaign_runtime"]
        assert runtime["simulated_campaigns"] == 1
        assert metrics["service"]["jobs"]["submitted"] == 1
        assert metrics["service"]["jobs"]["coalesced"] == 3


class TestFaultHistorySurfaced:
    def test_killed_worker_mid_job_surfaces_attempt_history(
        self, monkeypatch
    ):
        # Deterministically crash the pool worker simulating cell
        # (4, 600 MHz) on its first attempt; PR 2's runtime must
        # retry it and the service must surface that history.
        monkeypatch.setenv(
            "REPRO_FAULTS", "crash=1,cells=4@600,times=1"
        )
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0.01")
        config = ServiceConfig(port=0, allow_faults=True)
        with ServiceThread(config) as served:
            with ServiceClient(port=served.port) as client:
                ticket = client.submit_campaign(
                    "ep",
                    "S",
                    counts=[1, 2, 4, 8, 16],
                    frequencies_mhz=[600, 800],
                )
                done = client.wait_for_job(
                    ticket["job_id"], timeout_s=180.0
                )
        assert done["status"] == "done"
        runtime = done["runtime"]
        assert runtime["source"] == "simulated"
        # The campaign survived the crash: all 10 cells present.
        assert len(done["result"]["data"]["times"]) == 10
        # ... and the attempt history shows the injected failure.
        assert runtime["retries"] >= 1
        assert runtime["attempts"] >= 11
        attempts = {
            (n, f): count
            for n, f, count in runtime["cell_attempts"]
        }
        assert attempts[(4, 600e6)] >= 2

    def test_server_refuses_to_start_with_faults_armed(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash=1")
        with pytest.raises(RuntimeError, match="fault injection"):
            ServiceThread(ServiceConfig(port=0)).start()


class TestGracefulDrain:
    def test_draining_server_rejects_new_jobs(self, served):
        import asyncio

        service = served.service
        with ServiceClient(port=served.port) as client:
            ticket = client.submit_campaign(
                "ep", "S", counts=[1, 2], frequencies_mhz=[600]
            )
            client.wait_for_job(ticket["job_id"])
            # Drain the job manager from the service's loop.
            future = asyncio.run_coroutine_threadsafe(
                service.jobs.drain(10.0), served._loop
            )
            assert future.result(timeout=30)
            from repro.service import ServiceError

            with pytest.raises(ServiceError) as excinfo:
                client.submit_campaign(
                    "ep", "S", counts=[1], frequencies_mhz=[800]
                )
            assert excinfo.value.status == 503
