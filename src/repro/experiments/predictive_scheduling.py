"""Model-guided DVS decisions — closing the paper's motivating loop.

The paper's pitch (§1): energy savings were being achieved "using a
priori knowledge of application performance" (profiling); an accurate
prediction model would let a scheduler make those decisions *without*
profiling every configuration.

This experiment plays that scenario out end to end:

1. fit the SP model from its cheap measurement subset
   (base-frequency column + sequential row: 9 runs instead of 25);
2. for every (N, f-pair) configuration, *predict* the energy saved by
   throttling the overhead portion of the run to the base frequency:
   the model supplies the overhead share ``T_PO/T`` and the energy
   model prices both alternatives;
3. let the predictions pick the configuration where scheduling pays
   most;
4. validate: run the actual profile-driven scheduler there and compare
   predicted vs achieved savings.

The experiment reports the decision table and the prediction error on
the chosen cell — the "identification of sweet spots in system
configurations" the abstract promises, applied to scheduling.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.machine import paper_spec
from repro.core.energy import EnergyModel
from repro.core.params_sp import SimplifiedParameterization
from repro.experiments.platform import PAPER_COUNTS, PAPER_FREQUENCIES
from repro.experiments.registry import ExperimentResult, register_spec
from repro.governor import CommBoundPolicy
from repro.npb import BENCHMARKS, ProblemClass
from repro.pipeline import CampaignRequest, ExperimentSpec, Stage, StageContext
from repro.proftools.profiler import profile_benchmark
from repro.reporting.tables import format_rows
from repro.sched import evaluate_policy

__all__ = ["SPEC", "predict_schedule_savings"]

TITLE = "Motivation closed: the model decides where DVS scheduling pays"


def predict_schedule_savings(
    sp: SimplifiedParameterization,
    energy_model: EnergyModel,
    n: int,
    high_hz: float,
    low_hz: float,
) -> dict[str, float]:
    """Model-predicted effect of throttling overhead to ``low_hz``.

    Baseline: the whole run at ``high_hz``; busy share at COMPUTE
    power, overhead share at the overhead blend.  Scheduled: the same
    time split, with the overhead share priced at ``low_hz`` (the
    overhead itself is frequency-insensitive under Assumption 2, so
    its *duration* is unchanged — only its power drops).
    """
    total = sp.predict_time(n, high_hz)
    overhead = min(max(sp.overhead(n), 0.0), total)
    busy = total - overhead
    base_energy = n * (
        energy_model.busy_power_w(high_hz) * busy
        + energy_model.overhead_power_w(high_hz) * overhead
    )
    sched_energy = n * (
        energy_model.busy_power_w(high_hz) * busy
        + energy_model.overhead_power_w(low_hz) * overhead
    )
    return {
        "predicted_time_s": total,
        "overhead_share": overhead / total if total > 0 else 0.0,
        "predicted_savings": 1.0 - sched_energy / base_energy,
    }


def _requires(params: dict) -> tuple[CampaignRequest, ...]:
    return (
        CampaignRequest(
            params.get("benchmark") or "ft",
            params.get("problem_class") or "A",
            PAPER_COUNTS,
            PAPER_FREQUENCIES,
        ),
    )


def _fit(ctx: StageContext) -> dict[str, _t.Any]:
    spec = paper_spec()
    ops = spec.cpu.operating_points
    sp = SimplifiedParameterization(ctx.campaign(0))
    return {
        "ops": ops,
        "sp": sp,
        "energy_model": EnergyModel(spec.power, ops),
    }


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    fit = ctx.state["fit"]
    ops = fit["ops"]
    high, low = ops.peak.frequency_hz, ops.base.frequency_hz
    benchmark = ctx.param("benchmark", "ft")
    counts = tuple(ctx.param("counts", (2, 4, 8, 16)))
    bench = BENCHMARKS[benchmark](
        ProblemClass.parse(ctx.param("problem_class", "A"))
    )

    predictions = {
        n: predict_schedule_savings(
            fit["sp"], fit["energy_model"], n, high, low
        )
        for n in counts
    }

    # The model's pick: largest predicted savings.
    best_n = max(counts, key=lambda n: predictions[n]["predicted_savings"])

    # Validate with a real scheduled run at the picked configuration.
    profile = profile_benchmark(bench, best_n, frequency_hz=high)
    policy = CommBoundPolicy(profile, ops)
    actual = evaluate_policy(bench, best_n, policy)
    predicted = predictions[best_n]["predicted_savings"]
    return {
        "benchmark": benchmark,
        "low": low,
        "predictions": predictions,
        "best_n": best_n,
        "predicted": predicted,
        "actual": actual,
        "error": abs(predicted - actual.energy_savings),
    }


def _render(ctx: StageContext) -> ExperimentResult:
    analysis = ctx.state["analyze"]
    predictions = analysis["predictions"]
    actual = analysis["actual"]
    predicted = analysis["predicted"]
    rows = [
        [
            n,
            f"{p['overhead_share']:.0%}",
            f"{p['predicted_savings']:.1%}",
        ]
        for n, p in predictions.items()
    ]
    text = "\n\n".join(
        [
            format_rows(
                ["N", "predicted overhead share", "predicted energy savings"],
                rows,
                title=(
                    f"Model-predicted benefit of throttling "
                    f"{analysis['benchmark'].upper()}'s overhead to "
                    f"{analysis['low'] / 1e6:.0f} MHz (no profiling runs used)"
                ),
            ),
            f"model's pick: N={analysis['best_n']} "
            f"(predicted {predicted:.1%} savings)\n"
            f"validation run: achieved {actual.energy_savings:.1%} savings "
            f"at {actual.slowdown:.2%} slowdown\n"
            f"prediction error on savings: {analysis['error']:.1%} absolute",
        ]
    )
    data = {
        "predictions": predictions,
        "best_n": analysis["best_n"],
        "predicted_savings": predicted,
        "achieved_savings": actual.energy_savings,
        "achieved_slowdown": actual.slowdown,
        "absolute_error": analysis["error"],
    }
    return ExperimentResult("predictive_scheduling", TITLE, text, data)


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="predictive_scheduling",
        title=TITLE,
        description="SP-predicted throttling benefit per config, validated by real runs",
        requires=_requires,
        params=("problem_class", "benchmark", "counts"),
        stages=(
            Stage("fit", _fit),
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
