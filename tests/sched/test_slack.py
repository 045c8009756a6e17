"""Tests for slack-reclamation DVFS (the Chen/Kappiah related work)."""

import pytest

from repro.cluster import paper_spec
from repro.errors import ConfigurationError
from repro.experiments.slack_savings import (
    ImbalancedStencil,
    measure_idle_fractions,
)
from repro.governor import SlackPolicy
from repro.sched import evaluate_policy
from repro.units import mhz

OPS = paper_spec().cpu.operating_points


class TestSlackPolicy:
    def test_per_rank_lookup(self):
        policy = SlackPolicy({0: mhz(600), 1: mhz(800)}, default_hz=mhz(1400))
        assert policy.frequency_for(0, "any") == mhz(600)
        assert policy.frequency_for(1, "any") == mhz(800)
        assert policy.frequency_for(7, "any") == mhz(1400)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlackPolicy({}, default_hz=0.0)
        with pytest.raises(ConfigurationError):
            SlackPolicy({0: -1.0}, default_hz=mhz(600))

    def test_from_idle_fractions_zero_slack_gets_peak(self):
        policy = SlackPolicy.from_idle_fractions({0: 0.0}, OPS)
        assert policy.frequency_for(0, "") == OPS.peak.frequency_hz

    def test_from_idle_fractions_large_slack_gets_lower_point(self):
        policy = SlackPolicy.from_idle_fractions({0: 0.6}, OPS, safety=1.0)
        # required f >= 1400 * (1 - 0.6) = 560 MHz -> 600 MHz point.
        assert policy.frequency_for(0, "") == mhz(600)

    def test_from_idle_fractions_formula(self):
        policy = SlackPolicy.from_idle_fractions({0: 0.3}, OPS, safety=1.0)
        # required f >= 1400 * 0.7 = 980 MHz -> 1000 MHz point.
        assert policy.frequency_for(0, "") == mhz(1000)

    def test_safety_raises_assignment(self):
        loose = SlackPolicy.from_idle_fractions({0: 0.3}, OPS, safety=1.0)
        tight = SlackPolicy.from_idle_fractions({0: 0.3}, OPS, safety=0.5)
        assert tight.frequency_for(0, "") >= loose.frequency_for(
            0, ""
        )

    def test_idle_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            SlackPolicy.from_idle_fractions({0: 1.5}, OPS)
        with pytest.raises(ConfigurationError):
            SlackPolicy.from_idle_fractions({0: 0.5}, OPS, safety=0.0)


class TestImbalancedStencil:
    def test_rank_factors(self):
        bench = ImbalancedStencil(imbalance=0.6)
        assert bench._rank_factor(0, 8) == 1.0
        assert bench._rank_factor(7, 8) == pytest.approx(1.6)
        assert bench._rank_factor(0, 1) == 1.0

    def test_idle_fractions_decrease_with_rank(self):
        """Rank 0 (least work) has the most slack; the last rank none."""
        bench = ImbalancedStencil(imbalance=0.6)
        idle = measure_idle_fractions(bench, 4, mhz(1400))
        assert idle[0] > idle[1] > idle[2] > idle[3]
        assert idle[3] < 0.02

    def test_runs_on_simulator(self):
        from repro.cluster import paper_cluster

        result = ImbalancedStencil().run(paper_cluster(4))
        assert result.elapsed_s > 0


class TestSlackReclamation:
    def test_saves_energy_without_slowdown(self):
        """The headline related-work result: energy down, time flat."""
        bench = ImbalancedStencil(imbalance=0.6)
        idle = measure_idle_fractions(bench, 4, OPS.peak.frequency_hz)
        policy = SlackPolicy.from_idle_fractions(idle, OPS, safety=0.9)
        evaluation = evaluate_policy(bench, 4, policy)
        assert evaluation.energy_savings > 0.03
        assert evaluation.slowdown < 0.01

    def test_balanced_load_yields_nothing(self):
        """With no imbalance there is no slack to reclaim."""
        bench = ImbalancedStencil(imbalance=0.0)
        idle = measure_idle_fractions(bench, 4, OPS.peak.frequency_hz)
        policy = SlackPolicy.from_idle_fractions(idle, OPS, safety=0.9)
        assert all(
            policy.frequency_for(r, "") == OPS.peak.frequency_hz
            for r in range(4)
        )

    def test_experiment_driver(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("slack_savings", n_ranks=4)
        assert result.data["energy_savings"] > 0.03
        assert abs(result.data["slowdown"]) < 0.01
        assert result.data["assigned_mhz"][3] == 1400.0
