"""Malformed job bodies are rejected at submit with a 400.

Neither a 500 nor a job that fails later: the 400 names the offending
field, and nothing is queued.
"""

import pytest

from repro.service.client import ServiceClient, ServiceError


@pytest.fixture
def client(served):
    with ServiceClient(port=served.port) as client:
        yield client


@pytest.mark.parametrize(
    "path,body,field",
    [
        ("/govern", {"benchmark": "ep", "seed": "x"}, "seed"),
        ("/campaign", {"benchmark": "ep", "counts": ["x"]}, "counts"),
        ("/campaign", {"benchmark": "ep", "counts": 5}, "counts"),
        (
            "/campaign",
            {"benchmark": "ep", "frequencies_mhz": ["abc"]},
            "frequencies_mhz",
        ),
        ("/optimize", {"benchmark": "ep", "class": "Z"}, "class"),
    ],
    ids=[
        "govern-seed",
        "campaign-count-item",
        "campaign-counts-scalar",
        "campaign-frequency-item",
        "optimize-class",
    ],
)
def test_malformed_body_is_400_naming_the_field(client, path, body, field):
    with pytest.raises(ServiceError) as err:
        client.request("POST", path, body)
    assert err.value.status == 400
    assert field in err.value.message
    # Nothing was queued for a rejected body.
    assert client.jobs()["stats"]["submitted"] == 0
