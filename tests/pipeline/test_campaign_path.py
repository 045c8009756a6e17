"""One campaign path: a request's identity is its key, whatever the
runtime's configured platform.

A :class:`CampaignRequest` without a ``spec`` names the paper platform.
The planner must look it up, run it and store it under that key even
when the runtime is configured for another platform, and a stage's
fallback must measure it on paper too.  Otherwise a paper campaign
lands under the configured platform's key and a direct
``measure_campaign`` on that platform reads it back.
"""

import pytest

from repro import runtime
from repro.experiments import platform
from repro.experiments.platform import measure_campaign
from repro.npb import FTBenchmark, ProblemClass
from repro.pipeline import (
    ArtifactStore,
    CampaignRequest,
    ExperimentSpec,
    StageContext,
    execute_plan,
)
from repro.units import mhz

COUNTS = (1, 2)
FREQUENCIES = (mhz(600), mhz(1400))


@pytest.fixture
def memwall_runtime():
    """The runtime configured for paper-memwall, disk tier on."""
    runtime.configure(platform="paper-memwall", disk_cache=True)
    yield
    runtime.configure(platform=None)


def _uncached(platform_name, counts=COUNTS, frequencies=FREQUENCIES):
    return measure_campaign(
        FTBenchmark(ProblemClass.S),
        counts,
        frequencies,
        use_cache=False,
        platform=platform_name,
    )


def _assert_same(campaign, expected):
    assert campaign.times == expected.times
    assert campaign.energies == expected.energies


def test_plan_keeps_paper_campaign_under_paper_key(memwall_runtime):
    paper = _uncached("paper")
    memwall = _uncached("paper-memwall")
    assert all(paper.times[c] != memwall.times[c] for c in paper.times)

    request = CampaignRequest("ft", "S", COUNTS, FREQUENCIES)
    store = ArtifactStore()
    execute_plan([request], store)
    _assert_same(store.campaign(request).value, paper)

    # The configured platform's campaign is measured, not read back
    # from the plan: first in this process, then from the disk tier.
    direct = measure_campaign(FTBenchmark(ProblemClass.S), COUNTS, FREQUENCIES)
    _assert_same(direct, memwall)
    platform._CACHE.clear()
    runtime.reset_campaign_metrics()
    from_disk = measure_campaign(
        FTBenchmark(ProblemClass.S), COUNTS, FREQUENCIES
    )
    _assert_same(from_disk, memwall)
    assert runtime.campaign_metrics()["disk_hits"] == 1


def test_stage_fallback_measures_spec_less_request_on_paper(
    memwall_runtime,
):
    request = CampaignRequest("ft", "S", (2,), (mhz(1400),))
    spec = ExperimentSpec("toy", "Toy", stages=(), requires=(request,))
    context = StageContext(spec, {}, ArtifactStore(), (request,))
    _assert_same(
        context.campaign(0), _uncached("paper", (2,), (mhz(1400),))
    )
