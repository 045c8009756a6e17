"""Energy-delay prediction — the abstract's "within 7 %" claim.

The paper: power-aware speedup "predicts (within 7%) the power-aware
performance and energy-delay products for various system
configurations (i.e. processor counts and frequencies) on NAS Parallel
benchmark codes."

This experiment closes that loop on the simulator: fit the SP
parameterization to a benchmark's campaign, couple it with the
:class:`~repro.core.energy.EnergyModel`, and compare predicted
execution times, energies and EDPs against the measured (simulated)
values over the whole grid.
"""

from __future__ import annotations

import typing as _t

from repro.core.energy import EnergyModel
from repro.core.params_sp import SimplifiedParameterization
from repro.core.prediction import Predictor
from repro.cluster.machine import paper_spec
from repro.experiments.platform import PAPER_COUNTS, PAPER_FREQUENCIES
from repro.experiments.registry import ExperimentResult, register_spec
from repro.pipeline import CampaignRequest, ExperimentSpec, Stage, StageContext
from repro.reporting.tables import format_rows

__all__ = ["SPEC", "DEFAULT_BENCHMARKS"]

TITLE = "Abstract claim: performance and energy-delay predicted within 7%"

#: Benchmarks the claim is evaluated on (the paper's three).
DEFAULT_BENCHMARKS = ("ep", "ft", "lu")

#: Grids per benchmark (LU follows the paper's N <= 8).
_COUNTS = {"lu": (1, 2, 4, 8)}


def _benchmarks(params: dict) -> tuple[str, ...]:
    return tuple(params.get("benchmarks") or DEFAULT_BENCHMARKS)


def _requires(params: dict) -> tuple[CampaignRequest, ...]:
    problem_class = params.get("problem_class") or "A"
    return tuple(
        CampaignRequest(
            name,
            problem_class,
            _COUNTS.get(name, PAPER_COUNTS),
            PAPER_FREQUENCIES,
        )
        for name in _benchmarks(params)
    )


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    spec = paper_spec()
    energy_model = EnergyModel(spec.power, spec.cpu.operating_points)

    rows = []
    per_benchmark: dict[str, dict[str, float]] = {}
    for index, name in enumerate(_benchmarks(ctx.params)):
        campaign = ctx.campaign(index)
        sp = SimplifiedParameterization(campaign)
        predictor = Predictor(
            campaign,
            sp,
            energy_model=energy_model,
            overhead_for=lambda n, f, _sp=sp: (
                max(_sp.overhead(n), 0.0) if n > 1 else 0.0
            ),
        )
        time_errors = predictor.time_error_table(label=f"{name} time")
        energy_errors = predictor.energy_error_table(label=f"{name} energy")
        edp_errors = predictor.edp_error_table(label=f"{name} EDP")
        per_benchmark[name] = {
            "time_max_error": time_errors.max_error,
            "time_mean_error": time_errors.mean_error,
            "energy_max_error": energy_errors.max_error,
            "edp_max_error": edp_errors.max_error,
            "edp_mean_error": edp_errors.mean_error,
        }
        rows.append(
            [
                name.upper(),
                f"{time_errors.max_error:.1%}",
                f"{energy_errors.max_error:.1%}",
                f"{edp_errors.max_error:.1%}",
                f"{edp_errors.mean_error:.1%}",
            ]
        )
    worst_edp = max(v["edp_max_error"] for v in per_benchmark.values())
    return {
        "rows": rows,
        "per_benchmark": per_benchmark,
        "worst_edp": worst_edp,
    }


def _render(ctx: StageContext) -> ExperimentResult:
    analysis = ctx.state["analyze"]
    worst_edp = analysis["worst_edp"]
    text = "\n\n".join(
        [
            format_rows(
                [
                    "benchmark",
                    "time max err",
                    "energy max err",
                    "EDP max err",
                    "EDP mean err",
                ],
                analysis["rows"],
                title="Power-aware performance and energy-delay prediction",
            ),
            f"worst EDP error across benchmarks: {worst_edp:.1%}"
            f"  (paper abstract: within 7%)",
        ]
    )
    return ExperimentResult(
        "edp",
        TITLE,
        text,
        {
            "per_benchmark": analysis["per_benchmark"],
            "worst_edp_error": worst_edp,
        },
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="edp",
        title=TITLE,
        description="SP + energy model vs simulated times/energies/EDPs per benchmark",
        requires=_requires,
        params=("problem_class", "benchmarks"),
        stages=(
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
