"""The governed-run memory tier behind :meth:`GovernRequest.run`.

A governed run's seed only stamps its trace, so the request path keeps
each run under a seedless identity and re-stamps the seed on a hit.
These tests pin that a warm document is byte-identical to an uncached
one, that a hit simulates nothing, that every input the run reads
except the seed separates entries, and that the tier stays bounded.
"""

import json

import pytest

import repro.governor
from repro.experiments import platform
from repro.governor import govern_run, power_cap_scenarios
from repro.npb import BENCHMARKS
from repro.pipeline import GovernRequest
from repro.platforms import get_platform
from repro.runtime.memcache import LRUCache

POLICIES = ("static", "static_optimal", "reactive", "model_predictive")
SCENARIOS = ("uncapped", "node_cap", "cluster_cap")
SEEDS = (0, 3)


@pytest.fixture
def tier(monkeypatch):
    """A fresh, empty governed-run tier at the module's bound."""
    fresh = LRUCache(platform.GOVERNED_RUN_ENTRIES)
    monkeypatch.setattr(platform, "_GOVERNED_RUNS", fresh)
    return fresh


@pytest.fixture
def simulations(monkeypatch):
    """Counts the ``govern_run`` calls the request path makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return govern_run(*args, **kwargs)

    monkeypatch.setattr(repro.governor, "govern_run", counting)
    return calls


def canonical(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def direct_digest(request):
    """The trace digest of an uncached run under the request's seed."""
    return govern_run(
        BENCHMARKS[request.benchmark](request.problem_class),
        request.ranks,
        request.policy,
        request.cap,
        spec=request.spec,
        epoch_phases=request.epoch_phases,
        safety=request.safety,
        seed=request.seed,
    ).trace.digest()


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", ("ep", "ft"))
def test_warm_document_equals_uncached(tier, name, policy, scenario):
    def request(seed):
        return GovernRequest(
            name, ranks=4, policy=policy, scenario=scenario, seed=seed
        )

    cold = {}
    for seed in SEEDS:
        tier.clear()
        cold[seed] = canonical(request(seed).document())
    for seed in SEEDS:
        hits = tier.hits
        warm = request(seed).document()
        assert tier.hits == hits + 2
        assert canonical(warm) == cold[seed]
        assert warm["trace"]["seed"] == seed
        assert warm["governed"]["trace_digest"] == direct_digest(
            request(seed)
        )


def test_warm_hit_runs_no_simulation(tier, simulations):
    kwargs = dict(ranks=4, policy="reactive", scenario="node_cap")
    GovernRequest("ep", seed=0, **kwargs).document()
    assert simulations == [0, 0]
    document = GovernRequest("ep", seed=3, **kwargs).document()
    assert simulations == [0, 0]
    assert document["trace"]["seed"] == 3
    assert tier.stats()["hits"] == 2


def test_handed_out_runs_are_copies(tier):
    request = GovernRequest("ep", ranks=4, policy="reactive", seed=1)
    governed, _ = request.run()
    governed.trace.seed = 99
    again, _ = request.run()
    assert again.trace is not governed.trace
    assert again.trace.seed == 1
    assert again.trace.digest() == direct_digest(request)


def _node_cap_w():
    return power_cap_scenarios(4, get_platform("paper"))["node_cap"].node_w


NODE_CAP = dict(scenario="node_cap")


@pytest.mark.parametrize(
    "variant",
    [
        pytest.param(lambda: dict(node_cap_w=_node_cap_w()), id="custom-cap"),
        pytest.param(lambda: dict(NODE_CAP, safety=0.7), id="safety"),
        pytest.param(lambda: dict(NODE_CAP, epoch_phases=2), id="epoch"),
        pytest.param(
            lambda: dict(NODE_CAP, platform="hetero-2gen"), id="platform"
        ),
    ],
)
def test_each_input_but_the_seed_is_its_own_entry(tier, simulations, variant):
    kwargs = dict(ranks=4, policy="reactive", seed=2)
    GovernRequest("ep", **kwargs, **NODE_CAP).document()
    assert tier.stats()["entries"] == 2
    request = GovernRequest("ep", **kwargs, **variant())
    document = request.document()
    assert len(simulations) == 4
    assert tier.stats()["entries"] == 4
    assert document["governed"]["trace_digest"] == direct_digest(request)


def test_custom_cap_with_scenario_watts_keeps_its_label(tier):
    custom = GovernRequest(
        "ep", ranks=4, policy="reactive", node_cap_w=_node_cap_w()
    )
    named = GovernRequest(
        "ep", ranks=4, policy="reactive", scenario="node_cap"
    )
    assert custom.cap.node_w == named.cap.node_w
    named_digest = named.document()["governed"]["trace_digest"]
    document = custom.document()
    assert document["trace"]["cap"]["label"] == "custom"
    assert document["governed"]["trace_digest"] != named_digest


def test_bound_evicts_and_counts(monkeypatch, simulations):
    small = LRUCache(1)
    monkeypatch.setattr(platform, "_GOVERNED_RUNS", small)
    kwargs = dict(ranks=4, policy="reactive", scenario="node_cap")
    for seed in SEEDS:
        GovernRequest("ep", seed=seed, **kwargs).document()
        stats = platform.governed_run_cache_stats()
        assert stats["entries"] <= stats["max_entries"] == 1
    # The policy run and the baseline evict each other every time.
    assert len(simulations) == 4
    assert platform.governed_run_cache_stats()["evictions"] == 3


def test_clear_campaign_cache_empties_the_tier(tier):
    GovernRequest("ep", ranks=4, policy="static", seed=0).document()
    assert len(tier) == 1
    platform.clear_campaign_cache()
    assert len(tier) == 0
