"""Tests for the open-loop DVS policies, their governed runs and
schedule evaluation."""

import pytest

from repro.cluster import paper_cluster, paper_spec
from repro.errors import ConfigurationError
from repro.governor import CommBoundPolicy, PhaseTablePolicy, govern_run
from repro.npb import EPBenchmark, FTBenchmark, ProblemClass
from repro.proftools import profile_benchmark
from repro.sched import evaluate_policy
from repro.units import mhz

OPS = paper_spec().cpu.operating_points


class TestPolicies:
    def test_static(self):
        policy = PhaseTablePolicy({}, mhz(800))
        assert policy.frequency_for(0, "anything") == mhz(800)

    def test_static_validation(self):
        with pytest.raises(ConfigurationError):
            PhaseTablePolicy({}, 0.0)

    def test_phase_table_lookup_and_default(self):
        policy = PhaseTablePolicy({"transpose": mhz(600)}, default_hz=mhz(1400))
        assert policy.frequency_for(0, "transpose") == mhz(600)
        assert policy.frequency_for(0, "compute1") == mhz(1400)

    def test_phase_table_normalizes_labels(self):
        policy = PhaseTablePolicy({"transpose": mhz(600)}, default_hz=mhz(1400))
        assert policy.frequency_for(0, "transpose[3]") == mhz(600)

    def test_phase_table_validation(self):
        with pytest.raises(ConfigurationError):
            PhaseTablePolicy({"x": -1.0}, default_hz=mhz(600))

    def test_comm_bound_policy_targets_comm_phases(self):
        profile = profile_benchmark(
            FTBenchmark(ProblemClass.S), 4, frequency_hz=mhz(1400)
        )
        policy = CommBoundPolicy(profile, OPS)
        assert "transpose" in policy.throttled_phases
        assert policy.frequency_for(0, "transpose") == OPS.base.frequency_hz
        assert policy.frequency_for(0, "compute1") == OPS.peak.frequency_hz

    def test_comm_bound_threshold_validation(self):
        profile = profile_benchmark(FTBenchmark(ProblemClass.S), 2)
        with pytest.raises(ConfigurationError):
            CommBoundPolicy(profile, OPS, threshold=0.0)

    def test_comm_bound_custom_frequencies_validated(self):
        profile = profile_benchmark(FTBenchmark(ProblemClass.S), 2)
        with pytest.raises(ConfigurationError):
            CommBoundPolicy(profile, OPS, low_hz=mhz(700))


class TestScheduledProgram:
    def test_static_policy_equals_plain_run(self):
        """An open-loop static policy at the base point, where the nodes
        boot, must reproduce the ungoverned run exactly."""
        ft = FTBenchmark(ProblemClass.S)
        plain = ft.run(paper_cluster(4))

        base = PhaseTablePolicy({}, OPS.base.frequency_hz)
        result = govern_run(ft, 4, base, spec=paper_spec())
        assert result.elapsed_s == plain.elapsed_s
        assert result.energy_j == plain.energy_j

    def test_transitions_cost_time(self):
        """A policy that bounces between frequencies pays transition
        latency."""
        ep = EPBenchmark(ProblemClass.S)
        policy = PhaseTablePolicy(
            {"gaussian-pairs": mhz(1400)}, default_hz=mhz(600)
        )
        result = govern_run(ep, 2, policy, spec=paper_spec())
        plain_fast = EPBenchmark(ProblemClass.S).run(
            paper_cluster(2, frequency_hz=mhz(1400))
        )
        # Scheduled run does the main loop at 1400 but pays transitions
        # and runs setup/reduce at 600: slightly slower than pure 1400.
        assert result.elapsed_s > plain_fast.elapsed_s


class TestEvaluation:
    @pytest.fixture(scope="class")
    def ft_eval(self):
        ft = FTBenchmark(ProblemClass.S)
        profile = profile_benchmark(ft, 4, frequency_hz=mhz(1400))
        policy = CommBoundPolicy(profile, OPS)
        return evaluate_policy(ft, 4, policy)

    def test_saves_energy_on_comm_bound_code(self, ft_eval):
        """The headline mechanism: throttling communication phases of a
        comm-bound code saves real energy."""
        assert ft_eval.energy_savings > 0.10

    def test_small_slowdown(self, ft_eval):
        assert ft_eval.slowdown < 0.10

    def test_edp_improves(self, ft_eval):
        assert ft_eval.edp_improvement > 0.0

    def test_metrics_consistent(self, ft_eval):
        assert ft_eval.baseline_edp == pytest.approx(
            ft_eval.baseline_energy_j * ft_eval.baseline_time_s
        )
        assert ft_eval.scheduled_edp == pytest.approx(
            ft_eval.scheduled_energy_j * ft_eval.scheduled_time_s
        )

    def test_ep_gains_little(self):
        """EP has no comm-bound phases worth throttling: the policy
        degenerates to (nearly) the baseline."""
        ep = EPBenchmark(ProblemClass.S)
        profile = profile_benchmark(ep, 4, frequency_hz=mhz(1400))
        policy = CommBoundPolicy(profile, OPS)
        evaluation = evaluate_policy(ep, 4, policy)
        # Tiny reductions only (the closing reduces are a micro-phase).
        assert abs(evaluation.energy_savings) < 0.05
        assert abs(evaluation.slowdown) < 0.05

    def test_pinned_to_the_paper_platform(self, monkeypatch):
        """Without a spec, both runs stay on the paper platform whatever
        ``REPRO_PLATFORM`` names."""
        ft = FTBenchmark(ProblemClass.S)
        policy = PhaseTablePolicy({"transpose": mhz(600)}, mhz(1400))
        paper = evaluate_policy(ft, 4, policy)
        monkeypatch.setenv("REPRO_PLATFORM", "paper-memwall")
        assert evaluate_policy(ft, 4, policy) == paper
        # The variable is live: an unpinned governed run does move.
        assert govern_run(ft, 4, policy).elapsed_s != paper.scheduled_time_s

    def test_custom_baseline(self):
        """Evaluating a policy against itself is a wash."""
        ft = FTBenchmark(ProblemClass.S)
        policy = PhaseTablePolicy({}, mhz(1000))
        evaluation = evaluate_policy(ft, 2, policy, baseline=policy)
        assert evaluation.energy_savings == pytest.approx(0.0)
        assert evaluation.slowdown == pytest.approx(0.0)
