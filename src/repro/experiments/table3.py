"""Table 3 — power-aware speedup prediction errors for FT (SP method).

The paper fits the simplified parameterization (§5.1) to FT — one
base-frequency column of parallel runs plus one sequential frequency
row — and predicts the full grid with Eq. 18.  Published errors: 0 % in
the base column (by construction), at most ~3 % elsewhere, growing
with N and f.
"""

from __future__ import annotations

import typing as _t

from repro.core.params_sp import SimplifiedParameterization
from repro.core.prediction import Predictor
from repro.experiments.platform import PAPER_COUNTS, PAPER_FREQUENCIES
from repro.experiments.registry import ExperimentResult, register_spec
from repro.pipeline import CampaignRequest, ExperimentSpec, Stage, StageContext
from repro.reporting.tables import format_error_table, format_grid

__all__ = ["SPEC"]

TITLE = "Table 3: power-aware speedup (SP) prediction errors for FT"


def _requires(params: dict) -> tuple[CampaignRequest, ...]:
    return (
        CampaignRequest(
            "ft",
            params.get("problem_class") or "A",
            tuple(params.get("counts") or PAPER_COUNTS),
            tuple(params.get("frequencies") or PAPER_FREQUENCIES),
        ),
    )


def _fit(ctx: StageContext) -> dict[str, _t.Any]:
    campaign = ctx.campaign(0)
    sp = SimplifiedParameterization(campaign)
    return {"sp": sp, "predictor": Predictor(campaign, sp)}


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    campaign = ctx.campaign(0)
    sp = ctx.state["fit"]["sp"]
    predictor = ctx.state["fit"]["predictor"]
    table = predictor.speedup_error_table(label="Table 3 (SP errors, FT)")
    overheads = {n: sp.overhead(n) for n in campaign.counts if n > 1}
    data = {
        "errors": table.cells(),
        "max_error": table.max_error,
        "predicted_speedups": predictor.predicted_speedups(),
        "measured_speedups": predictor.measured_speedups(),
        "derived_overheads": overheads,
        "runs_required": sp.inputs_used()["runs_required"],
    }
    return {"table": table, "overheads": overheads, "data": data}


def _render(ctx: StageContext) -> ExperimentResult:
    campaign = ctx.campaign(0)
    predictor = ctx.state["fit"]["predictor"]
    table = ctx.state["analyze"]["table"]
    overheads = ctx.state["analyze"]["overheads"]
    text = "\n\n".join(
        [
            format_error_table(table),
            format_grid(
                predictor.predicted_speedups(),
                title="Predicted power-aware speedups",
                value_style="speedup",
            ),
            "Derived parallel overhead T(w_PO, f_OFF) per N (Eq. 17):\n"
            + "\n".join(
                f"  N={n:2d}: {t:.2f}s" for n, t in sorted(overheads.items())
            ),
            f"max error off the base column: "
            f"{table.max_excluding_base(campaign.base_frequency_hz):.1%}"
            f"  (paper: <= 3%)",
        ]
    )
    return ExperimentResult("table3", TITLE, text, ctx.state["analyze"]["data"])


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="table3",
        title=TITLE,
        description=(
            "Simplified parameterization fitted to FT, errors over the grid"
        ),
        requires=_requires,
        params=("problem_class", "counts", "frequencies"),
        stages=(
            Stage("fit", _fit),
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
