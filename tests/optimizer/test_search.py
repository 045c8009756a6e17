"""Tests for the energy-optimal configuration search."""

import json

import pytest

from repro.analytic import AnalyticCampaignModel
from repro.errors import ConfigurationError
from repro.experiments.platform import PAPER_COUNTS
from repro.governor.caps import PowerCap, power_cap_scenarios
from repro.npb import BENCHMARKS
from repro.optimizer import (
    OBJECTIVES,
    Candidate,
    OptimizeResult,
    check_objective,
    optimize,
)
from repro.platforms import get_platform, platform_names


def exhaustive_argmin(benchmark, objective, cap):
    """Independent re-enumeration of the full search space, kept
    deliberately naive so a bug in :func:`optimize` can't hide in
    shared code."""
    best = None
    for platform in platform_names():
        spec = get_platform(platform)
        model = AnalyticCampaignModel(BENCHMARKS[benchmark](), spec)
        for n in PAPER_COUNTS:
            if n > spec.n_nodes:
                continue
            for f in spec.common_frequencies():
                if model.unsupported_reason((n, f)) is not None:
                    continue
                if not cap.admits_spec(f, spec, n):
                    continue
                evaluation = model.evaluate_cells([(n, f)])
                time_s = evaluation.times_by_cell()[(n, f)]
                energy_j = evaluation.energies_by_cell()[(n, f)]
                score = {
                    "energy": energy_j,
                    "edp": energy_j * time_s,
                    "time": time_s,
                }[objective]
                key = (score, time_s, n, f, platform)
                if best is None or key < best[0]:
                    best = (key, platform, n, f)
    assert best is not None
    return best[1:]


class TestCheckObjective:
    def test_valid_objectives(self):
        assert OBJECTIVES == ("energy", "edp", "time")
        for name in OBJECTIVES:
            assert check_objective(name.upper()) == name

    def test_unknown_objective_names_choices(self):
        with pytest.raises(ConfigurationError) as err:
            check_objective("joules")
        assert "valid choices are" in str(err.value)
        assert "'energy'" in str(err.value)


class TestOptimize:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_winner_matches_independent_enumeration(self, objective):
        scenarios = power_cap_scenarios(max(PAPER_COUNTS))
        for benchmark in ("ep", "ft"):
            for label in ("uncapped", "cluster_cap", "node_cap"):
                cap = scenarios[label]
                result = optimize(
                    benchmark, "A", objective=objective, cap=cap, confirm=False
                )
                winner = result.winner
                expected = exhaustive_argmin(benchmark, objective, cap)
                assert (
                    winner.platform,
                    winner.n,
                    winner.frequency_hz,
                ) == expected, (benchmark, label)

    def test_candidates_sorted_and_winner_first_feasible(self):
        cap = power_cap_scenarios(max(PAPER_COUNTS))["cluster_cap"]
        result = optimize("ep", cap=cap, confirm=False)
        feasible = result.feasible_candidates()
        assert feasible[0] == result.winner
        scores = [c.objective_value(result.objective) for c in feasible]
        assert scores == sorted(scores)
        # Infeasible candidates stay in the ranking, with reasons.
        over = [c for c in result.candidates if not c.feasible]
        assert over and all("over power cap" in c.reason for c in over)

    def test_uncapped_search_admits_everything(self):
        result = optimize("ep", confirm=False)
        assert all(c.feasible for c in result.candidates)
        # 3 builtin platforms x 25-cell paper grid.
        assert len(result.candidates) == 25 * len(platform_names())
        assert not result.skipped

    def test_count_overflow_is_skipped_with_reason(self):
        result = optimize(
            "ep",
            platforms=["hetero-2gen"],
            counts=[16, 32],
            confirm=False,
        )
        assert {c.n for c in result.candidates} == {16}
        assert any(
            entry["n"] == 32 and "16 nodes" in entry["reason"]
            for entry in result.skipped
        )

    def test_unknown_platform_names_choices(self):
        with pytest.raises(ConfigurationError, match="valid choices are"):
            optimize("ep", platforms=["bogus"], confirm=False)

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            optimize("nope", confirm=False)

    def test_impossible_cap_raises(self):
        with pytest.raises(ConfigurationError, match="admits no"):
            optimize("ep", cap=PowerCap(node_w=0.5), confirm=False)

    def test_confirmation_attaches_des_errors(self):
        cap = power_cap_scenarios(max(PAPER_COUNTS))["cluster_cap"]
        result = optimize("ep", cap=cap, confirm=True)
        confirmation = result.confirmation
        assert confirmation is not None
        assert confirmation["des_time_s"] > 0
        assert confirmation["des_energy_j"] > 0
        assert confirmation["time_rel_err"] < 1e-2
        assert confirmation["energy_rel_err"] < 2e-2

    def test_deterministic(self):
        first = optimize("ep", confirm=False)
        second = optimize("ep", confirm=False)
        assert first.winner == second.winner
        assert first.candidates == second.candidates


class TestSerialization:
    def test_result_as_dict_is_json_ready(self):
        result = optimize(
            "ep",
            platforms=["paper"],
            counts=[1, 2],
            confirm=False,
        )
        document = result.as_dict()
        assert json.loads(json.dumps(document)) == document
        assert document["winner"]["platform"] == "paper"
        assert len(document["candidates"]) == 2 * 5

    def test_candidate_derived_metrics(self):
        candidate = Candidate(
            platform="paper",
            n=2,
            frequency_hz=1.4e9,
            time_s=10.0,
            energy_j=500.0,
            feasible=True,
        )
        assert candidate.edp_j_s == pytest.approx(5000.0)
        assert candidate.mean_power_w == pytest.approx(50.0)
        assert candidate.objective_value("edp") == candidate.edp_j_s
        assert candidate.as_dict()["frequency_mhz"] == pytest.approx(
            1400.0
        )

    def test_result_shape(self):
        result = optimize("ep", platforms=["paper"], confirm=False)
        assert isinstance(result, OptimizeResult)
        assert result.platforms == ("paper",)
        assert result.counts == tuple(PAPER_COUNTS)
        assert result.benchmark == "ep"
        assert result.problem_class == "A"
