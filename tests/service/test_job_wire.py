"""The job wire format: one fixed body per job kind, pinned.

Each case pins the answer's ``key`` (a 202 ticket's, or the finished
job's as its POST answers it) and the job's ``label`` and ``params``
to recorded values, so a change to request parsing, defaults, key
hashing or parameter rendering shows up here.
"""

import json

import pytest

from repro.service.client import ServiceClient

CAMPAIGN_DIGEST = (
    "8aa9e8f6c3843205542577011900c663bec40158ac51963b3369dda1db761371"
)
CAMPAIGN_BODY = {
    "benchmark": "ep",
    "class": "S",
    "counts": [1, 2],
    "frequencies_mhz": [600, 800],
}
CAMPAIGN_PARAMS = {
    "benchmark": "ep",
    "class": "S",
    "platform": "paper",
    "counts": [1, 2],
    "frequencies_mhz": [600.0, 800.0],
    "backend": "des",
    "fabric": False,
    "allow_partial": False,
}

CASES = [
    pytest.param(
        "/campaign",
        CAMPAIGN_BODY,
        CAMPAIGN_DIGEST,
        CAMPAIGN_DIGEST,
        "ep.S",
        CAMPAIGN_PARAMS,
        id="campaign",
    ),
    pytest.param(
        "/campaign",
        {**CAMPAIGN_BODY, "allow_partial": True},
        CAMPAIGN_DIGEST,
        CAMPAIGN_DIGEST + "+partial",
        "ep.S",
        {**CAMPAIGN_PARAMS, "allow_partial": True},
        id="campaign-partial",
    ),
    pytest.param(
        "/govern",
        {
            "benchmark": "ft",
            "class": "S",
            "ranks": 4,
            "policy": "model_predictive",
            "scenario": "cluster_cap",
            "seed": 3,
        },
        "govern-cc537cd3e03ed38a867a3959543c1bd511277e00c226f9305baf1f1db0c55d1a",
        None,
        "govern.ft.S.model_predictive",
        {
            "benchmark": "ft",
            "class": "S",
            "platform": "paper",
            "ranks": 4,
            "policy": "model_predictive",
            "cap": {
                "label": "cluster_cap",
                "cluster_w": 121.64932007178092,
                "node_w": None,
            },
            "epoch_phases": 4,
            "safety": 0.9,
            "seed": 3,
        },
        id="govern",
    ),
    pytest.param(
        "/optimize",
        {
            "benchmark": "ep",
            "class": "S",
            "objective": "edp",
            "platforms": ["paper", "hetero-2gen"],
            "counts": [1, 2, 4],
            "scenario": "node_cap",
            "confirm": False,
        },
        "optimize-82cf3f36cd34781d22a09397779ebb902c1b56419358f0278b19f818fd80ff40",
        None,
        "optimize.ep.S.edp",
        {
            "benchmark": "ep",
            "class": "S",
            "objective": "edp",
            "platforms": ["paper", "hetero-2gen"],
            "counts": [1, 2, 4],
            "cap": {
                "label": "node_cap",
                "cluster_w": None,
                "node_w": 25.77686763391722,
            },
            "confirm": False,
        },
        id="optimize",
    ),
    pytest.param(
        "/experiments/table5",
        {"problem_class": "S"},
        "exp-ea96842759f604d4",
        None,
        "experiment:table5",
        {"experiment": "table5", "params": {"problem_class": "S"}},
        id="experiment",
    ),
]


@pytest.fixture
def client(served, monkeypatch):
    for name in (
        "REPRO_BACKEND",
        "REPRO_PLATFORM",
        "REPRO_GOVERNOR_POLICY",
        "REPRO_GOVERNOR_EPOCH",
        "REPRO_GOVERNOR_SAFETY",
    ):
        monkeypatch.delenv(name, raising=False)
    with ServiceClient(port=served.port) as client:
        yield client


@pytest.mark.parametrize(
    "path,body,key,job_key,label,params", CASES
)
def test_ticket_key_label_and_params(
    client, path, body, key, job_key, label, params
):
    ticket = client.request("POST", path, body)
    job = client.wait_for_job(ticket["job_id"])
    if ticket["status"] in ("queued", "running"):
        assert sorted(ticket) == ["created", "job_id", "key", "poll", "status"]
    else:
        assert sorted(ticket) == sorted([*job, "created", "poll"])
    assert ticket["key"] == key
    assert ticket["poll"] == f"/jobs/{ticket['job_id']}"
    assert job["status"] == "done"
    assert job["key"] == (job_key or key)
    assert job["label"] == label
    # Compared as JSON text so that 600 and 600.0 differ.
    assert json.dumps(job["params"]) == json.dumps(params)
