"""DVS-scheduling energy savings — the abstract's context claim.

"Recent work has shown power-aware clusters can conserve significant
energy (>30%) with minimal performance loss (<1%) running parallel
scientific workloads … using a priori knowledge of application
performance."

This experiment reproduces that prior-work result on the simulated
platform: profile a communication-bound benchmark, build the
profile-driven open-loop
:class:`~repro.governor.policies.CommBoundPolicy` (throttle
communication-bound phases to the base frequency), run it through
:func:`~repro.governor.loop.govern_run` and evaluate it against the
static-peak baseline.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.machine import paper_spec
from repro.experiments.registry import ExperimentResult, register_spec
from repro.governor import CommBoundPolicy
from repro.npb import BENCHMARKS, ProblemClass
from repro.pipeline import ExperimentSpec, Stage, StageContext
from repro.proftools.profiler import profile_benchmark
from repro.reporting.tables import format_rows
from repro.sched import evaluate_policy

__all__ = ["SPEC"]

TITLE = "Context claim: DVS scheduling saves >30% energy at small slowdown"


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    spec = paper_spec()
    ops = spec.cpu.operating_points
    benchmark = ctx.param("benchmark", "ft")
    threshold = float(ctx.param("threshold", 0.5))
    bench = BENCHMARKS[benchmark](
        ProblemClass.parse(ctx.param("problem_class", "A"))
    )

    rows = []
    evaluations = {}
    for n in tuple(ctx.param("counts", (4, 8, 16))):
        profile = profile_benchmark(
            bench, n, frequency_hz=ops.peak.frequency_hz
        )
        policy = CommBoundPolicy(profile, ops, threshold=threshold)
        evaluation = evaluate_policy(bench, n, policy)
        evaluations[n] = {
            "energy_savings": evaluation.energy_savings,
            "slowdown": evaluation.slowdown,
            "edp_improvement": evaluation.edp_improvement,
            "throttled_phases": list(policy.throttled_phases),
        }
        rows.append(
            [
                n,
                ", ".join(policy.throttled_phases),
                f"{evaluation.energy_savings:.1%}",
                f"{evaluation.slowdown:.2%}",
                f"{evaluation.edp_improvement:.1%}",
            ]
        )
    best = max(v["energy_savings"] for v in evaluations.values())
    return {
        "ops": ops,
        "benchmark": benchmark,
        "rows": rows,
        "evaluations": evaluations,
        "best": best,
    }


def _render(ctx: StageContext) -> ExperimentResult:
    analysis = ctx.state["analyze"]
    ops = analysis["ops"]
    benchmark = analysis["benchmark"]
    best = analysis["best"]
    text = "\n\n".join(
        [
            format_rows(
                ["N", "throttled phases", "energy saved", "slowdown", "EDP gain"],
                analysis["rows"],
                title=(
                    f"Profile-driven DVS scheduling of {benchmark.upper()} "
                    f"(low={ops.base.frequency_mhz:.0f} MHz on comm-bound "
                    f"phases, else {ops.peak.frequency_mhz:.0f} MHz)"
                ),
            ),
            f"best energy savings: {best:.1%}"
            f"  (literature/abstract: >30% with <1% slowdown)",
        ]
    )
    return ExperimentResult(
        "dvfs_savings",
        TITLE,
        text,
        {"evaluations": analysis["evaluations"], "best_savings": best},
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="dvfs_savings",
        title=TITLE,
        description="Profile-driven per-phase DVFS on comm-bound codes vs static peak",
        params=("problem_class", "benchmark", "threshold", "counts"),
        stages=(
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
