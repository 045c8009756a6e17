"""Closed-loop governed runs: determinism, telemetry, and the
acceptance inequalities (model-predictive vs reactive vs oracle)."""

import pytest

from repro.cluster.machine import paper_spec
from repro.cluster.power import PowerState
from repro.errors import ConfigurationError
from repro.experiments.governor_comparison import count_cap_violations
from repro.governor import (
    PowerCap,
    StaticGovernorPolicy,
    build_policy,
    govern_run,
    power_cap_scenarios,
)
from repro.npb import BENCHMARKS, ProblemClass
from repro.units import mhz


def _bench(name):
    return BENCHMARKS[name](ProblemClass.A)


class TestHarness:
    def test_static_governed_run_matches_plain_run(self):
        bench = _bench("ep")
        governed = govern_run(bench, 4, "static", PowerCap())
        assert governed.policy == "static"
        assert governed.elapsed_s > 0
        assert governed.energy_j > 0
        assert governed.edp == pytest.approx(
            governed.elapsed_s * governed.energy_j
        )
        # Static peak never needs a transition: epoch 0 is pre-run
        # configuration and later epochs keep the same point.
        assert governed.trace.transitions == 0

    def test_epochs_cover_all_phases(self):
        bench = _bench("ft")
        governed = govern_run(bench, 4, "static", PowerCap(), epoch_phases=4)
        n_phases = len(bench.phases(4))
        expected_epochs = -(-n_phases // 4)
        assert governed.trace.n_epochs == expected_epochs
        # One observation per rank per epoch.
        assert len(governed.trace.observations) == expected_epochs * 4

    def test_observations_account_the_whole_run(self):
        governed = govern_run(_bench("ft"), 4, "static", PowerCap())
        by_rank = {}
        for obs in governed.trace.observations:
            by_rank.setdefault(obs.rank, 0.0)
            by_rank[obs.rank] += obs.elapsed_s
            assert obs.compute_s >= 0
            assert obs.comm_s >= 0
            assert obs.idle_s >= 0
            assert obs.mix.total >= 0
        # Epoch deltas tile each rank's timeline up to the final
        # barrier (the engine tops up stragglers afterwards).
        for rank_total in by_rank.values():
            assert rank_total == pytest.approx(governed.elapsed_s, rel=0.05)

    def test_energy_telemetry_sums_to_run_energy(self):
        governed = govern_run(_bench("ft"), 4, "static", PowerCap())
        observed = sum(o.joules for o in governed.trace.observations)
        assert observed == pytest.approx(governed.energy_j, rel=0.05)

    def test_policy_instance_and_name_agree(self):
        bench = _bench("ep")
        by_name = govern_run(bench, 4, "static", PowerCap())
        by_instance = govern_run(bench, 4, StaticGovernorPolicy(), PowerCap())
        assert (
            by_name.trace.canonical_json()
            == by_instance.trace.canonical_json()
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            govern_run(_bench("ep"), 4, "zeal", PowerCap())

    def test_bad_epoch_phases_rejected(self):
        with pytest.raises(ConfigurationError):
            govern_run(_bench("ep"), 4, "static", PowerCap(), epoch_phases=0)


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["reactive", "model_predictive"])
    def test_same_seed_bit_identical_trace(self, policy):
        bench = _bench("ft")
        cap = power_cap_scenarios(4)["cluster_cap"]
        first = govern_run(bench, 4, policy, cap, seed=11)
        second = govern_run(bench, 4, policy, cap, seed=11)
        assert first.trace.canonical_json() == second.trace.canonical_json()
        assert first.trace.digest() == second.trace.digest()

    def test_seed_is_recorded_in_trace(self):
        governed = govern_run(_bench("ep"), 2, "static", PowerCap(), seed=9)
        assert governed.trace.to_document()["seed"] == 9


class TestEnvConfig:
    def test_epoch_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GOVERNOR_EPOCH", "2")
        governed = govern_run(_bench("ep"), 2, "static", PowerCap())
        assert governed.trace.epoch_phases == 2

    def test_policy_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GOVERNOR_POLICY", "reactive")
        governed = govern_run(_bench("ep"), 2, None, PowerCap())
        assert governed.policy == "reactive"

    def test_bad_safety_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_GOVERNOR_SAFETY", "1.5")
        with pytest.raises(ConfigurationError):
            govern_run(_bench("ep"), 2, "reactive", PowerCap())


class TestAcceptance:
    """The PR's headline inequalities, asserted per benchmark/cap."""

    @pytest.mark.parametrize("name", ["ep", "ft", "lu"])
    @pytest.mark.parametrize("scenario", ["cluster_cap", "node_cap"])
    def test_model_predictive_beats_reactive_within_oracle(
        self, name, scenario
    ):
        bench = _bench(name)
        cap = power_cap_scenarios(4)[scenario]
        runs = {
            policy: govern_run(bench, 4, policy, cap)
            for policy in (
                "static",
                "static_optimal",
                "reactive",
                "model_predictive",
            )
        }
        mp = runs["model_predictive"].edp
        assert mp <= runs["reactive"].edp * (1 + 1e-12)
        assert mp <= runs["static_optimal"].edp * 1.10
        for governed in runs.values():
            assert count_cap_violations(governed.trace) == 0

    def test_governed_frequencies_stay_cap_legal(self):
        spec = paper_spec(n_nodes=4)
        cap = power_cap_scenarios(4)["node_cap"]
        governed = govern_run(_bench("ft"), 4, "model_predictive", cap)
        allowed = set(
            cap.allowed_frequencies(
                spec.cpu.operating_points, spec.power, 4
            )
        )
        for decision in governed.trace.decisions:
            assert set(decision.frequencies) <= allowed
        assert mhz(1200) not in allowed


class TestPolicies:
    def test_build_policy_forwards_safety(self):
        policy = build_policy("reactive", safety=0.5)
        assert policy.safety == 0.5

    def test_static_optimal_holds_one_frequency(self):
        governed = govern_run(_bench("ft"), 4, "static_optimal", PowerCap())
        chosen = {f for d in governed.trace.decisions for f in d.frequencies}
        assert len(chosen) == 1
        assert governed.trace.transitions == 0

    def test_reactive_reclaims_ft_slack(self):
        governed = govern_run(_bench("ft"), 4, "reactive", PowerCap())
        static = govern_run(_bench("ft"), 4, "static", PowerCap())
        assert governed.energy_j < static.energy_j
        assert governed.edp < static.edp

    def test_worst_case_power_monotone_in_frequency(self):
        # The cap-safety argument rests on COMPUTE being the
        # worst-case state and power rising with the point.
        spec = paper_spec()
        points = spec.cpu.operating_points
        powers = [
            spec.power.node_power_w(p, PowerState.COMPUTE)
            for p in points.points
        ]
        assert powers == sorted(powers)
        for point in points.points:
            compute = spec.power.node_power_w(point, PowerState.COMPUTE)
            for state in (PowerState.COMM, PowerState.IDLE):
                assert spec.power.node_power_w(point, state) <= compute
