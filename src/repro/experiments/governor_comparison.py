"""Closed-loop governor shoot-out: online policies under power caps.

ROADMAP item 2 asks for the generalization the paper only gestures at
(§6): use power-aware speedup not as an offline predictor but as an
*online controller*.  This experiment runs EP/FT/LU through the
governed harness (:func:`repro.governor.govern_run`) under two
operator power budgets — a cluster-wide watt cap and a per-node cap —
and compares four policies on energy-delay product:

* ``static`` — hold the cap-legal peak (the fair baseline);
* ``static_optimal`` — the offline oracle from an analytic grid sweep;
* ``reactive`` — per-rank slack reclamation from last epoch's idle;
* ``model_predictive`` — refit the SP model from telemetry each epoch
  and actuate its argmin-EDP frequency.

Beyond the comparison table, the analyze stage audits every decision
trace against its cap (worst-case compute power per actuation) and
records each trace's SHA-256 digest — the digests are pinned by the
golden-result suite, so any nondeterminism in the governor shows up as
a test failure, not a silent drift.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.machine import paper_spec
from repro.cluster.power import PowerState
from repro.experiments.registry import ExperimentResult, register_spec
from repro.governor import govern_run, power_cap_scenarios
from repro.governor.trace import DecisionTrace
from repro.npb import BENCHMARKS, ProblemClass
from repro.pipeline import ExperimentSpec, Stage, StageContext
from repro.reporting.tables import format_rows

__all__ = ["SPEC", "DEFAULT_BENCHMARKS", "DEFAULT_SCENARIOS", "POLICY_ORDER"]

TITLE = "Closed-loop DVFS governor: online policies vs static under power caps"

#: Benchmarks governed by default (the analytically validated trio).
DEFAULT_BENCHMARKS = ("ep", "ft", "lu")

#: Cap scenarios exercised by default (both budget axes).
DEFAULT_SCENARIOS = ("cluster_cap", "node_cap")

#: Column order of the comparison table.
POLICY_ORDER = ("static", "static_optimal", "reactive", "model_predictive")


def count_cap_violations(trace: DecisionTrace, spec=None) -> int:
    """Decisions whose worst-case power would exceed the trace's cap.

    Audits the *trace*, not the run: every actuated frequency is
    priced at flat-out COMPUTE power and checked against the per-node
    and cluster budgets.  A correct governor always returns 0.
    """
    spec = spec or paper_spec(n_nodes=trace.n_ranks)
    points = spec.cpu.operating_points
    cap = trace.cap
    violations = 0
    for decision in trace.decisions:
        worst = [
            spec.power.node_power_w(points.lookup(f), PowerState.COMPUTE)
            for f in decision.frequencies
        ]
        if cap.node_w is not None and max(worst) > cap.node_w:
            violations += 1
        elif cap.cluster_w is not None and sum(worst) > cap.cluster_w:
            violations += 1
    return violations


def _fit(ctx: StageContext) -> dict[str, _t.Any]:
    n_ranks = int(ctx.param("n_ranks", 4))
    scenarios = power_cap_scenarios(n_ranks)
    wanted = tuple(ctx.param("scenarios", DEFAULT_SCENARIOS))
    return {
        "n_ranks": n_ranks,
        "problem_class": str(ctx.param("problem_class", "A")),
        "benchmarks": tuple(ctx.param("benchmarks", DEFAULT_BENCHMARKS)),
        "epoch_phases": int(ctx.param("epoch_phases", 4)),
        "safety": float(ctx.param("safety", 0.9)),
        "seed": int(ctx.param("seed", 0)),
        "caps": {label: scenarios[label] for label in wanted},
    }


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    fit = ctx.state["fit"]
    n_ranks = fit["n_ranks"]
    problem_class = ProblemClass.parse(fit["problem_class"])
    results: dict[str, dict[str, dict[str, _t.Any]]] = {}
    traces: dict[str, dict[str, _t.Any]] = {}
    total_violations = 0
    for name in fit["benchmarks"]:
        bench = BENCHMARKS[name](problem_class)
        results[name] = {}
        for label, cap in fit["caps"].items():
            per_policy: dict[str, _t.Any] = {}
            for policy in POLICY_ORDER:
                governed = govern_run(
                    bench,
                    n_ranks,
                    policy,
                    cap,
                    epoch_phases=fit["epoch_phases"],
                    safety=fit["safety"],
                    seed=fit["seed"],
                )
                violations = count_cap_violations(governed.trace)
                total_violations += violations
                per_policy[policy] = {
                    "elapsed_s": governed.elapsed_s,
                    "energy_j": governed.energy_j,
                    "edp_j_s": governed.edp,
                    "transitions": governed.trace.transitions,
                    "epochs": governed.trace.n_epochs,
                    "cap_violations": violations,
                    "trace_digest": governed.trace.digest(),
                }
                traces.setdefault(name, {})[
                    f"{label}/{policy}"
                ] = governed.trace.to_document()
            results[name][label] = per_policy
    checks = []
    for name, by_scenario in results.items():
        for label, per_policy in by_scenario.items():
            mp = per_policy["model_predictive"]["edp_j_s"]
            checks.append(
                {
                    "benchmark": name,
                    "scenario": label,
                    "mp_le_reactive": mp
                    <= per_policy["reactive"]["edp_j_s"] * (1 + 1e-12),
                    "mp_vs_oracle": mp
                    / per_policy["static_optimal"]["edp_j_s"],
                }
            )
    return {
        "results": results,
        "checks": checks,
        "cap_violations": total_violations,
        "traces": traces,
        "caps": {
            label: cap.as_dict() for label, cap in fit["caps"].items()
        },
    }


def _render(ctx: StageContext) -> ExperimentResult:
    fit = ctx.state["fit"]
    analysis = ctx.state["analyze"]
    results = analysis["results"]
    rows = []
    for name, by_scenario in results.items():
        for label, per_policy in by_scenario.items():
            static_edp = per_policy["static"]["edp_j_s"]
            for policy in POLICY_ORDER:
                row = per_policy[policy]
                rows.append(
                    [
                        name.upper(),
                        label,
                        policy,
                        f"{row['elapsed_s']:.2f}",
                        f"{row['energy_j']:.0f}",
                        f"{row['edp_j_s']:.0f}",
                        f"{row['edp_j_s'] / static_edp:.3f}",
                        row["transitions"],
                    ]
                )
    worst_oracle = max(c["mp_vs_oracle"] for c in analysis["checks"])
    all_le = all(c["mp_le_reactive"] for c in analysis["checks"])
    text = "\n\n".join(
        [
            format_rows(
                [
                    "bench",
                    "scenario",
                    "policy",
                    "time [s]",
                    "energy [J]",
                    "EDP [J*s]",
                    "vs static",
                    "transitions",
                ],
                rows,
                title=(
                    f"Governed runs at N={fit['n_ranks']} "
                    f"(class {fit['problem_class']}, "
                    f"{fit['epoch_phases']} phases/epoch)"
                ),
            ),
            f"model-predictive <= reactive on every scenario: {all_le}\n"
            f"worst model-predictive/oracle EDP ratio: {worst_oracle:.3f}\n"
            f"cap violations across all decision traces: "
            f"{analysis['cap_violations']}",
        ]
    )
    data = {
        "n_ranks": fit["n_ranks"],
        "problem_class": fit["problem_class"],
        "epoch_phases": fit["epoch_phases"],
        "caps": analysis["caps"],
        "results": results,
        "checks": analysis["checks"],
        "cap_violations": analysis["cap_violations"],
        "mp_le_reactive_everywhere": all_le,
        "worst_mp_vs_oracle": worst_oracle,
    }
    return ExperimentResult("governor_comparison", TITLE, text, data)


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="governor_comparison",
        title=TITLE,
        description=(
            "Closed-loop governed runs: static, oracle, reactive and "
            "model-predictive policies compared on EDP under power caps"
        ),
        params=(
            "problem_class",
            "benchmarks",
            "n_ranks",
            "scenarios",
            "epoch_phases",
            "safety",
            "seed",
        ),
        stages=(
            Stage("fit", _fit),
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
