"""Malformed job and ``/predict`` bodies are rejected at submit with a 400.

Neither a 500 nor a job that fails later: the 400 names the offending
field, and nothing is queued or fitted.  A key the route does not
declare is malformed too, so a misspelt field never silently takes its
default.
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
        ("/predict", {"benchmark": "ep", "cels": ["2@600MHz"]}, "cels"),
        (
            "/predict",
            {"benchmark": "ep", "class": "S", "frequency_mhz": [600]},
            "frequency_mhz",
        ),
        ("/campaign", {"benchmark": "ep", "grid": [1, 2]}, "grid"),
        ("/govern", {"benchmark": "ep", "polcy": "reactive"}, "polcy"),
        ("/optimize", {"benchmark": "ep", "objectve": "edp"}, "objectve"),
    ],
    ids=[
        "govern-seed",
        "campaign-count-item",
        "campaign-counts-scalar",
        "campaign-frequency-item",
        "optimize-class",
        "predict-unknown-key",
        "predict-frequency-mhz",
        "campaign-unknown-key",
        "govern-unknown-key",
        "optimize-unknown-key",
    ],
)
def test_malformed_body_is_400_naming_the_field(client, path, body, field):
    with pytest.raises(ServiceError) as err:
        client.request("POST", path, body)
    assert err.value.status == 400
    assert field in err.value.message
    # Nothing was queued for a rejected body.
    assert client.jobs()["stats"]["submitted"] == 0


def test_predict_checks_class_before_fitting(client):
    with pytest.raises(ServiceError) as err:
        client.request("POST", "/predict", {"benchmark": "ep", "class": "Z"})
    assert err.value.status == 400
    assert "'Z'" in err.value.message
    assert client.metrics()["service"]["models"]["fits_started"] == 0
