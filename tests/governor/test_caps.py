"""Power-cap semantics: legal sets, clamping, derived scenarios."""

import pytest

from repro.cluster.machine import paper_spec
from repro.cluster.power import PowerState
from repro.errors import ConfigurationError
from repro.governor import PowerCap, power_cap_scenarios, resolve_cap
from repro.units import mhz


@pytest.fixture
def spec():
    return paper_spec(n_nodes=4)


class TestPowerCap:
    def test_uncapped_allows_every_point(self, spec):
        cap = PowerCap()
        allowed = cap.allowed_frequencies(
            spec.cpu.operating_points, spec.power, 4
        )
        assert allowed == spec.cpu.operating_points.frequencies

    def test_node_cap_removes_top_points(self, spec):
        points = spec.cpu.operating_points
        budget = spec.power.node_power_w(
            points.lookup(mhz(1000)), PowerState.COMPUTE
        )
        cap = PowerCap(label="node", node_w=budget * 1.001)
        allowed = cap.allowed_frequencies(points, spec.power, 4)
        assert max(allowed) == mhz(1000)
        assert min(allowed) == mhz(600)

    def test_cluster_cap_scales_with_rank_count(self, spec):
        points = spec.cpu.operating_points
        budget = 4 * spec.power.node_power_w(
            points.lookup(mhz(1200)), PowerState.COMPUTE
        )
        cap = PowerCap(label="cluster", cluster_w=budget * 1.001)
        assert max(cap.allowed_frequencies(points, spec.power, 4)) == mhz(
            1200
        )
        # More ranks under the same budget: the legal set shrinks.
        assert max(cap.allowed_frequencies(points, spec.power, 5)) < mhz(
            1200
        )

    def test_infeasible_cap_raises(self, spec):
        cap = PowerCap(label="tiny", node_w=1.0)
        with pytest.raises(ConfigurationError):
            cap.allowed_frequencies(
                spec.cpu.operating_points, spec.power, 4
            )

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerCap(node_w=0.0)
        with pytest.raises(ConfigurationError):
            PowerCap(cluster_w=-5.0)

    def test_clamp_picks_highest_legal_below(self, spec):
        cap = PowerCap()
        allowed = (mhz(600), mhz(800), mhz(1000))
        assert cap.clamp(mhz(1400), allowed) == mhz(1000)
        assert cap.clamp(mhz(800), allowed) == mhz(800)
        assert cap.clamp(mhz(100), allowed) == mhz(600)


class TestScenarios:
    def test_scenario_set(self):
        scenarios = power_cap_scenarios(4)
        assert set(scenarios) == {"uncapped", "cluster_cap", "node_cap"}
        assert scenarios["uncapped"].cluster_w is None
        assert scenarios["uncapped"].node_w is None

    def test_cluster_cap_forces_one_notch_down(self, spec):
        cap = power_cap_scenarios(4)["cluster_cap"]
        allowed = cap.allowed_frequencies(
            spec.cpu.operating_points, spec.power, 4
        )
        assert max(allowed) == mhz(1200)

    def test_node_cap_forces_two_notches_down(self, spec):
        cap = power_cap_scenarios(4)["node_cap"]
        allowed = cap.allowed_frequencies(
            spec.cpu.operating_points, spec.power, 4
        )
        assert max(allowed) == mhz(1000)


class TestResolveCap:
    def test_scenario_wins_over_watts(self, spec):
        cap = resolve_cap(4, spec, "node_cap", cluster_w=500.0)
        assert cap == power_cap_scenarios(4, spec)["node_cap"]

    def test_watts_build_a_custom_cap(self, spec):
        cap = resolve_cap(4, spec, node_w=26.0)
        assert cap == PowerCap(label="custom", node_w=26.0)

    def test_zero_watts_count_as_not_given(self, spec):
        assert resolve_cap(4, spec, cluster_w=0.0, node_w=0.0) == PowerCap()

    def test_unknown_scenario_names_the_choices(self, spec):
        with pytest.raises(ConfigurationError, match="choose from"):
            resolve_cap(4, spec, "brownout")
