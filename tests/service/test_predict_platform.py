"""``/predict`` fits each platform's model on that platform's data.

A daemon configured for another platform (``REPRO_PLATFORM``) must still
fit a request for the paper platform on paper campaigns.
"""

import pytest

from repro.core.params_sp import SimplifiedParameterization
from repro.experiments.platform import measure_campaign
from repro.npb import FTBenchmark, ProblemClass
from repro.service import ServiceClient, ServiceThread
from repro.units import mhz


@pytest.fixture
def memwall_client(monkeypatch):
    monkeypatch.setenv("REPRO_PLATFORM", "paper-memwall")
    with ServiceThread() as service:
        with ServiceClient(port=service.port) as client:
            yield client


def _predicted_time(platform_name):
    campaign = measure_campaign(
        FTBenchmark(ProblemClass.S), use_cache=False, platform=platform_name
    )
    return SimplifiedParameterization(campaign).predict_time(16, mhz(1400))


def test_paper_model_fits_paper_data_under_memwall_default(memwall_client):
    response = memwall_client.predict(
        "ft", "S", cells=["16@1400MHz"], platform="paper"
    )
    assert response["platform"] == "paper"
    (values,) = response["predictions"].values()
    paper = _predicted_time("paper")
    assert paper != _predicted_time("paper-memwall")
    assert values["time_s"] == paper
