"""Soak: daemon state stays bounded under a long mixed load.

Thousands of requests — ``/predict`` reads, ``/campaign`` jobs over
distinct grids, ``/govern`` and ``/optimize`` jobs, job polls — must
leave every piece of state that grows with traffic at its bound:
finished jobs, the campaign-record ring, the campaign memory tier and
the governed-run tier.
The bounds are patched small so the run passes them within seconds;
after warm-up the ``/metrics`` document must stop growing.
"""

import json
import time

import pytest

from repro import runtime
from repro.experiments import platform
from repro.runtime import metrics
from repro.runtime.memcache import LRUCache
from repro.service import ServiceClient, ServiceThread
from repro.service.server import ServiceConfig

REQUESTS = 2400
#: Every JOB_EVERY-th request submits a job (cycling through the kinds)
#: and polls it to completion.
JOB_EVERY = 8
SAMPLE_EVERY = 100
WARMUP_REQUESTS = 800
TIME_LIMIT_S = 240.0
QUEUE = 2
RING = 16
CAMPAIGN_TIER = 8
#: One entry, so the two govern policies' runs evict each other.
GOVERNED_TIER = 1
PREDICT_CELLS = [
    [f"{n}@{mhz}MHz"] for n in (1, 2, 4, 8) for mhz in (600, 1000, 1400)
]


@pytest.fixture
def small_bounds(monkeypatch):
    monkeypatch.setattr(metrics, "MAX_RECORDS", RING)
    monkeypatch.setattr(platform, "_CACHE", LRUCache(CAMPAIGN_TIER))
    monkeypatch.setattr(
        platform, "_GOVERNED_RUNS", LRUCache(GOVERNED_TIER)
    )
    runtime.configure(backend="analytic")
    runtime.reset_campaign_metrics()
    yield
    monkeypatch.undo()
    runtime.configure(backend=None)
    runtime.reset_campaign_metrics()


def submit(client, index):
    """Submit the ``index``-th job: distinct grids, varied policies."""
    kind = index % 3
    if kind == 0:
        grid = index // 3
        return client.submit_campaign(
            ("ep", "ft")[grid % 2],
            "S",
            counts=[1, 2 + grid // 2 % 15],
            frequencies_mhz=[600, 800 + 200 * (grid // 30 % 4)],
        )
    if kind == 1:
        return client.submit_govern(
            "ep",
            "S",
            ranks=2,
            policy=("static", "reactive")[index % 2],
            seed=index % 5,
        )
    return client.submit_optimize(
        "ep",
        "S",
        objective=("energy", "edp", "time")[index % 3],
        counts=[1, 2, 4],
        confirm=False,
    )


def check_bounds(document):
    """Every traffic-driven structure is within its bound."""
    jobs = document["service"]["jobs"]
    assert jobs["finished"]["max_entries"] == 4 * QUEUE
    assert jobs["finished"]["entries"] <= 4 * QUEUE
    assert jobs["retained"] <= 4 * QUEUE + QUEUE
    ring = document["campaign_runtime"]["record_ring"]
    assert ring["max_entries"] == RING
    assert len(document["campaign_runtime"]["records"]) <= RING
    tier = document["campaign_runtime"]["memory_cache"]
    assert tier["max_entries"] == CAMPAIGN_TIER
    assert tier["entries"] <= CAMPAIGN_TIER
    runs = document["campaign_runtime"]["governed_runs"]
    assert runs["max_entries"] == GOVERNED_TIER
    assert runs["entries"] <= runs["max_entries"]


def test_mixed_load_leaves_state_bounded(small_bounds):
    config = ServiceConfig(port=0, max_queue=QUEUE)
    deadline = time.monotonic() + TIME_LIMIT_S
    sizes = []
    with ServiceThread(config) as served:
        with ServiceClient(port=served.port) as client:
            for index in range(REQUESTS):
                assert time.monotonic() < deadline, (
                    f"soak exceeded {TIME_LIMIT_S:.0f}s at request {index}"
                )
                if index % JOB_EVERY == 0:
                    ticket = submit(client, index // JOB_EVERY)
                    done = client.wait_for_job(ticket["job_id"], poll_s=0.002)
                    assert done["status"] == "done", done
                else:
                    cells = PREDICT_CELLS[index % len(PREDICT_CELLS)]
                    client.predict("ep", "S", cells=cells)
                if index % SAMPLE_EVERY == SAMPLE_EVERY - 1:
                    document = client.metrics()
                    check_bounds(document)
                    if index >= WARMUP_REQUESTS:
                        sizes.append(len(json.dumps(document)))
            final = client.metrics()
    check_bounds(final)
    assert final["service"]["jobs"]["finished"]["evictions"] > 0
    assert final["campaign_runtime"]["record_ring"]["evictions"] > 0
    assert final["campaign_runtime"]["memory_cache"]["evictions"] > 0
    assert final["campaign_runtime"]["governed_runs"]["evictions"] > 0
    half = len(sizes) // 2
    first = sum(sizes[:half]) / half
    second = sum(sizes[half:]) / (len(sizes) - half)
    assert abs(second - first) <= 0.03 * first, (first, second, sizes)
