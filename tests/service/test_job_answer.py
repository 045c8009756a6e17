"""A job request is answered with its finished job.

Each job route waits up to ``ANSWER_WAIT_S`` for its job.  A job
finished by then is answered 200 with the document ``GET /jobs/<id>``
serves, under the ticket's ``key``, ``created`` and ``poll``; a job
still active gets the 202 ticket.  Jobs that must stay active are held
by an injected hang that lasts until the test releases it, and tests
that must see an answer raise the bound, so no test races the clock.
"""

import contextlib
import http.client
import json
import threading
import time
import types

import pytest

from repro import runtime
from repro.runtime import FaultPlan, faults
from repro.service import ServiceClient, ServiceThread, server
from repro.service.server import ServiceConfig
from tests.service.test_job_wire import CASES

TICKET = ["created", "job_id", "key", "poll", "status"]
#: A small DES grid; :func:`holding` hangs its job in its (1, 600 MHz) cell.
GRID = {"benchmark": "ep", "class": "S", "counts": [1, 2], "frequencies_mhz": [600]}
HOLD = FaultPlan(hang=1.0, hang_s=60.0, cells=((1, 600e6),))


def post(port, path, body):
    """One POST on a fresh connection: ``(HTTP status, document)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(
            "POST", path, json.dumps(body), {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def answered(job, ticket):
    """``job`` as a POST answers it: the ticket's fields laid over."""
    return {**job, **{field: ticket[field] for field in ("key", "created", "poll")}}


@pytest.fixture
def wait_long(monkeypatch):
    """A bound no job in these tests reaches: every POST is answered."""
    monkeypatch.setattr(server, "ANSWER_WAIT_S", 60.0)


def wait_until(condition, timeout_s=30.0):
    """Poll ``condition`` until it holds (the timeout only ends a hung test)."""
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


@contextlib.contextmanager
def holding(monkeypatch, **config):
    """``(service, release)``: a service whose ``GRID`` job hangs in its
    (1, 600 MHz) cell until ``release`` is set.

    The cell runs in-process, on the job's thread, so its injected hang
    waits on ``release`` instead of sleeping; leaving the block
    releases it before the service drains.
    """
    release = threading.Event()
    monkeypatch.setattr(faults, "time", types.SimpleNamespace(sleep=release.wait))
    with ServiceThread(ServiceConfig(port=0, allow_faults=True, **config)) as served:
        runtime.install_fault_plan(HOLD)
        try:
            yield served, release
        finally:
            release.set()


@pytest.mark.parametrize("path,body,key,job_key,label,params", CASES)
def test_each_route_answers_its_finished_job(
    served, wait_long, monkeypatch, path, body, key, job_key, label, params
):
    for name in (
        "REPRO_BACKEND",
        "REPRO_PLATFORM",
        "REPRO_GOVERNOR_POLICY",
        "REPRO_GOVERNOR_EPOCH",
        "REPRO_GOVERNOR_SAFETY",
    ):
        monkeypatch.delenv(name, raising=False)
    status, answer = post(served.port, path, body)
    with ServiceClient(port=served.port) as client:
        job = client.job(answer["job_id"])
        jobs = client.metrics()["service"]["jobs"]
    assert status == 200
    assert answer["status"] == "done"
    # The ticket's key wins: a partial campaign keeps its content address.
    assert answer["key"] == key
    assert job["key"] == (job_key or key)
    assert answer == answered(
        job, {"key": key, "created": True, "poll": f"/jobs/{job['job_id']}"}
    )
    assert (jobs["submitted"], jobs["answered"]) == (1, 1)


def test_job_held_past_the_bound_gets_its_ticket(monkeypatch):
    with holding(monkeypatch) as (served, release):
        status, ticket = post(served.port, "/campaign", GRID)
        release.set()
        with ServiceClient(port=served.port) as client:
            done = client.wait_for_job(ticket["job_id"])
            jobs = client.metrics()["service"]["jobs"]
    assert status == 202
    assert sorted(ticket) == TICKET
    assert ticket["status"] in ("queued", "running")
    assert done["status"] == "done"
    assert len(done["result"]["data"]["times"]) == 2
    assert (jobs["submitted"], jobs["answered"]) == (1, 0)


def test_post_joining_an_active_job_is_answered_when_it_finishes(monkeypatch):
    with holding(monkeypatch) as (served, release):
        status, ticket = post(served.port, "/campaign", GRID)
        assert (status, ticket["created"]) == (202, True)
        monkeypatch.setattr(server, "ANSWER_WAIT_S", 60.0)
        replies = []
        joiner = threading.Thread(
            target=lambda: replies.append(post(served.port, "/campaign", GRID))
        )
        joiner.start()
        with ServiceClient(port=served.port) as client:
            # The join is counted on the event loop, in the same step
            # as the POST takes the job's future to wait on.
            wait_until(lambda: client.metrics()["service"]["jobs"]["coalesced"])
            release.set()
            joiner.join(timeout=30)
            assert not joiner.is_alive()
            job = client.job(ticket["job_id"])
            jobs = client.metrics()["service"]["jobs"]
    ((status, answer),) = replies
    assert status == 200
    assert answer["job_id"] == ticket["job_id"]
    assert answer["status"] == "done"
    assert answer == answered(job, {**ticket, "created": False})
    assert (jobs["submitted"], jobs["coalesced"], jobs["answered"]) == (1, 1, 1)


def test_failed_job_is_answered_with_its_error(served, wait_long):
    status, answer = post(
        served.port, "/experiments/table5", {"problem_class": "Z"}
    )
    with ServiceClient(port=served.port) as client:
        job = client.job(answer["job_id"])
    assert status == 200
    assert answer["status"] == "failed"
    assert answer["error_type"] == "ConfigurationError"
    assert "unknown problem class 'Z'" in answer["error"]
    assert answer == answered(job, {**answer, "created": True})


def test_job_cancelled_while_its_post_waits_is_answered(monkeypatch):
    with holding(monkeypatch, job_workers=1) as (served, _release):
        status, _ = post(served.port, "/campaign", GRID)
        assert status == 202  # holds the only job thread
        monkeypatch.setattr(server, "ANSWER_WAIT_S", 60.0)
        replies = []
        waiter = threading.Thread(
            target=lambda: replies.append(
                post(served.port, "/campaign", {**GRID, "counts": [1]})
            )
        )
        waiter.start()
        with ServiceClient(port=served.port) as client:
            wait_until(lambda: len(client.jobs()["jobs"]) == 2)
            queued = client.jobs()["jobs"][1]
            assert queued["status"] == "queued"
            client.cancel_job(queued["job_id"])
            waiter.join(timeout=30)
            assert not waiter.is_alive()
            job = client.job(queued["job_id"])
    ((status, answer),) = replies
    assert status == 200
    assert answer["status"] == "cancelled"
    assert answer == answered(job, {**answer, "created": True})
