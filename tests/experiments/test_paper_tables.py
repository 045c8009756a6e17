"""Integration tests: every experiment reproduces its paper artifact's
*shape* (the acceptance criteria of DESIGN.md §4).

Class-A campaigns are shared through the platform cache, so the suite
pays for each campaign once per process.
"""

import pytest

from repro.experiments.registry import run_experiment
from repro.units import mhz

F600, F1400 = mhz(600), mhz(1400)


@pytest.fixture(scope="module")
def table1():
    return run_experiment("table1")


@pytest.fixture(scope="module")
def table3():
    return run_experiment("table3")


@pytest.fixture(scope="module")
def table7():
    return run_experiment("table7")


@pytest.fixture(scope="module")
def edp():
    return run_experiment("edp")


class TestTable1:
    """Generalized Amdahl must fail the way the paper shows."""

    def test_base_column_is_exact(self, table1):
        for n in (2, 4, 8, 16):
            assert table1.data["errors"][(n, F600)] == pytest.approx(0.0)

    def test_errors_grow_with_frequency(self, table1):
        errors = table1.data["errors"]
        for n in (2, 4, 8, 16):
            row = [errors[(n, mhz(m))] for m in (600, 800, 1000, 1200, 1400)]
            assert row == sorted(row)

    def test_errors_reach_tens_of_percent(self, table1):
        """Paper: up to 78 %, 45 % average off the base column."""
        assert table1.data["max_error"] > 0.40
        assert table1.data["mean_error_off_base"] > 0.20

    def test_overprediction(self, table1):
        """Eq. 3 over-predicts: predicted > measured at high (N, f)."""
        predicted = table1.data["predicted_speedups"]
        measured = table1.data["measured_speedups"]
        assert predicted[(16, F1400)] > measured[(16, F1400)]


class TestTable3:
    """The SP power-aware speedup model must fix Table 1's errors."""

    def test_max_error_within_paper_bound(self, table3):
        """Paper: errors reduced to a maximum of 3 % (we allow 5 %)."""
        assert table3.data["max_error"] < 0.05

    def test_base_column_zero(self, table3):
        for n in (2, 4, 8, 16):
            assert table3.data["errors"][(n, F600)] == pytest.approx(
                0.0, abs=1e-9
            )

    def test_errors_grow_with_frequency(self, table3):
        errors = table3.data["errors"]
        for n in (2, 16):
            assert errors[(n, F1400)] >= errors[(n, mhz(800))]
        assert errors[(16, F1400)] > errors[(16, mhz(800))]

    def test_vastly_better_than_amdahl(self, table1, table3):
        assert table3.data["max_error"] < table1.data["max_error"] / 5

    def test_overhead_significant_for_ft(self, table3):
        """FT's derived overhead is a large share of parallel time —
        the paper's 'communication-bound' characterization."""
        overheads = table3.data["derived_overheads"]
        assert overheads[16] > 5.0  # seconds

    def test_sp_needs_few_runs(self, table3):
        assert table3.data["runs_required"] == 9  # 5 counts + 5 freqs - 1


class TestFigure1:
    def test_eq12_accuracy(self):
        """Paper: EP predictions within 2.3 %."""
        result = run_experiment("figure1")
        assert result.data["eq12_max_error"] < 0.025

    def test_speedup_linear_in_both_axes(self):
        result = run_experiment("figure1")
        s = result.data["speedups"]
        assert s[(16, F600)] == pytest.approx(15.9, rel=0.02)
        assert s[(1, F1400)] == pytest.approx(2.33, rel=0.02)
        assert s[(16, F1400)] == pytest.approx(37.0, rel=0.03)


class TestFigure2:
    def test_all_paper_observations_hold(self):
        result = run_experiment("figure2")
        assert all(result.data["observations"].values()), result.data[
            "observations"
        ]

    def test_speedup_anchors(self):
        """A dip at 2 nodes, recovery to ~2.9 by 16 nodes, and a
        sub-linear sequential frequency gain (1400/600 would be 2.33)."""
        s = run_experiment("figure2").data["speedups"]
        assert s[(2, F600)] < 1.0
        assert s[(16, F600)] == pytest.approx(2.9, rel=0.15)
        assert s[(1, F1400)] == pytest.approx(1.9, rel=0.05)


class TestTable5:
    def test_matches_paper_decomposition(self):
        result = run_experiment("table5")
        mix = result.data["mix"]
        assert mix["cpu"] == pytest.approx(145e9, rel=1e-6)
        assert mix["l1"] == pytest.approx(175e9, rel=1e-6)
        assert mix["l2"] == pytest.approx(4.71e9, rel=1e-6)
        assert mix["mem"] == pytest.approx(3.97e9, rel=1e-6)
        assert result.data["on_chip_fraction"] == pytest.approx(
            0.988, abs=0.001
        )

    def test_on_chip_weights_match_paper(self):
        weights = run_experiment("table5").data["on_chip_weights"]
        assert weights["cpu"] == pytest.approx(0.4466, abs=0.001)
        assert weights["l1"] == pytest.approx(0.5389, abs=0.001)
        assert weights["l2"] == pytest.approx(0.0145, abs=0.001)


class TestTable6:
    @pytest.fixture(scope="class")
    def table6(self):
        return run_experiment("table6", repetitions=5)

    def test_cpi_on_matches_paper(self, table6):
        assert table6.data["cpi_on"] == pytest.approx(2.19, rel=0.03)

    def test_off_chip_latency_quirk(self, table6):
        lat = table6.data["level_latencies"]
        assert lat[F600]["mem"] == pytest.approx(140e-9, rel=1e-6)
        assert lat[F1400]["mem"] == pytest.approx(110e-9, rel=1e-6)

    def test_large_message_frequency_sensitivity(self, table6):
        msgs = table6.data["message_times"]
        big = 310 * 8.0
        assert msgs[F600][big] > msgs[F1400][big]


class TestTable7:
    def test_both_methods_within_paper_bound(self, table7):
        """Paper: errors up to ~13 %; ours must stay below that."""
        assert table7.data["fp_max_error"] < 0.13
        assert table7.data["sp_max_error"] < 0.13

    def test_sp_errors_grow_with_frequency_at_scale(self, table7):
        sp = table7.data["sp_errors"]
        assert sp[(8, F1400)] > sp[(8, mhz(800))]

    def test_fp_errors_grow_with_n(self, table7):
        fp = table7.data["fp_errors"]
        assert fp[(8, F600)] > fp[(2, F600)]

    def test_fp_errors_level_off_with_frequency(self, table7):
        """Paper: FP errors 'appear to be leveling off with frequency'
        — at N=8 they must not keep rising the way SP's do."""
        fp = table7.data["fp_errors"]
        sp = table7.data["sp_errors"]
        fp_growth = fp[(8, F1400)] - fp[(8, mhz(800))]
        sp_growth = sp[(8, F1400)] - sp[(8, mhz(800))]
        assert fp_growth < sp_growth


class TestEdp:
    def test_ep_ft_within_seven_percent(self, edp):
        """The abstract's claim, on the benchmarks it demonstrably
        covers (EP and FT)."""
        per = edp.data["per_benchmark"]
        assert per["ep"]["edp_max_error"] < 0.07
        assert per["ft"]["edp_max_error"] < 0.07

    def test_lu_mean_edp_small(self, edp):
        """LU's worst cell exceeds 7 % (documented in EXPERIMENTS.md);
        the mean stays small."""
        assert edp.data["per_benchmark"]["lu"]["edp_mean_error"] < 0.05

    def test_time_predictions_good(self, edp):
        for name in ("ep", "ft"):
            assert edp.data["per_benchmark"][name]["time_max_error"] < 0.05


class TestDvfsSavings:
    def test_savings_and_slowdown(self):
        result = run_experiment("dvfs_savings")
        best = result.data["best_savings"]
        assert best > 0.30  # the literature's >30 %
        for n, ev in result.data["evaluations"].items():
            assert ev["slowdown"] < 0.05
            assert ev["edp_improvement"] > 0.0


class TestAblations:
    def test_onoff_split_matters(self):
        result = run_experiment("ablation_onoff")
        assert (
            result.data["without_split_max"]
            > 3 * result.data["with_split_max"]
        )

    def test_assumption2_violation_hurts_sp(self):
        result = run_experiment("ablation_overhead")
        assert result.data["heavy_max"] > 2 * result.data["normal_max"]

    def test_dop_variants_within_paper_error_band(self):
        """Flat and DOP-decomposed FP both stay under the paper's ~13 %."""
        result = run_experiment("ablation_dop")
        assert max(result.data["flat_errors"].values()) < 0.13
        assert max(result.data["dop_errors"].values()) < 0.13


class TestExtrapolation:
    """The footnote-3 experiment: prediction beyond the measured grid."""

    @pytest.fixture(scope="class")
    def extrapolation(self):
        return run_experiment("extrapolation")

    def test_dop_awareness_improves_scaling_predictions(self, extrapolation):
        assert (
            extrapolation.data["lu_dop_max_error"]
            < extrapolation.data["lu_max_error"]
        )

    def test_dop_extrapolation_within_paper_error_band(self, extrapolation):
        assert extrapolation.data["lu_dop_max_error"] < 0.13

    def test_flat_fp_degrades_at_scale(self, extrapolation):
        """Assumption 1's error grows with N — visible only beyond the
        paper's grid."""
        errors = extrapolation.data["lu_errors"]
        assert errors[(32, F600)] > errors[(16, F600)]

    def test_ft_scaling_sublinear_beyond_16(self, extrapolation):
        assert 0.0 < extrapolation.data["ft_relative_change"] < 0.60


class TestSlackSavings:
    def test_slack_reclamation_nearly_free(self):
        result = run_experiment("slack_savings", n_ranks=4)
        assert result.data["energy_savings"] > 0.03
        assert abs(result.data["slowdown"]) < 0.01

    def test_default_run_keeps_the_critical_rank_at_peak(self):
        """At the default 8 ranks the savings pass 5 %, and the most
        loaded rank (the critical path) keeps 1400 MHz."""
        result = run_experiment("slack_savings")
        assert result.data["energy_savings"] > 0.05
        assert abs(result.data["slowdown"]) < 0.01
        assigned = result.data["assigned_mhz"]
        assert assigned[max(assigned)] == 1400.0


class TestPredictiveScheduling:
    """The motivating use case: prediction replaces profiling."""

    @pytest.fixture(scope="class")
    def predictive(self):
        return run_experiment("predictive_scheduling")

    def test_prediction_close_to_achieved(self, predictive):
        assert predictive.data["absolute_error"] < 0.05

    def test_predicted_savings_grow_with_n_for_ft(self, predictive):
        preds = predictive.data["predictions"]
        shares = [preds[n]["overhead_share"] for n in sorted(preds)]
        assert shares == sorted(shares)

    def test_pick_achieves_real_savings(self, predictive):
        assert predictive.data["achieved_savings"] > 0.30
        assert predictive.data["achieved_slowdown"] < 0.05


class TestSuiteOverview:
    @pytest.fixture(scope="class")
    def suite(self):
        return run_experiment("suite_overview").data["suite"]

    def test_frequency_leverage_at_scale(self, suite):
        """EP keeps essentially all its frequency leverage at 16 nodes;
        the communication-bound codes keep the least."""
        assert suite["ep"]["leverage_retained"] > 0.98
        for comm_bound in ("ft", "cg", "is"):
            assert suite[comm_bound]["leverage_retained"] < 0.8

    def test_ranking(self, suite):
        """EP is the best combined scaler; FT or IS the worst parallel
        scaler."""
        best = max(suite, key=lambda k: suite[k]["combined_speedup"])
        assert best == "ep"
        worst = min(suite, key=lambda k: suite[k]["parallel_speedup"])
        assert worst in ("ft", "is")


class TestGovernorComparison:
    """The governed-run comparison's own verdict flags."""

    def test_model_predictive_beats_reactive_within_oracle(self):
        data = run_experiment("governor_comparison").data
        assert data["mp_le_reactive_everywhere"] is True
        assert data["worst_mp_vs_oracle"] <= 1.10
        assert data["cap_violations"] == 0
