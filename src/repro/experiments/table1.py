"""Table 1 — generalized Amdahl's law mispredicts FT.

The paper's motivating example: predict FT's combined (N, f) speedup
as the product of the two measured single-enhancement speedups
(Eq. 3 with e = 2) and tabulate the relative error against the
measured speedup.  The published table shows 0 % in the 600 MHz base
column and errors growing into the tens of percent with frequency —
up to 78 %, 45 % on average over the non-base cells — because the two
enhancements are interdependent through parallel overhead.
"""

from __future__ import annotations

import typing as _t

from repro.core.amdahl import product_of_speedups_prediction
from repro.core.analysis import ErrorTable
from repro.core.speedup import measured_speedup_table
from repro.experiments.platform import PAPER_COUNTS, PAPER_FREQUENCIES
from repro.experiments.registry import ExperimentResult, register_spec
from repro.pipeline import CampaignRequest, ExperimentSpec, Stage, StageContext
from repro.reporting.tables import format_error_table

__all__ = ["SPEC"]

TITLE = "Table 1: generalized-Amdahl speedup prediction errors for FT"


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
    measured = measured_speedup_table(
        campaign.times, campaign.base_frequency_hz
    )
    predicted = product_of_speedups_prediction(
        campaign.times, campaign.base_frequency_hz
    )
    return {"measured": measured, "predicted": predicted}


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    campaign = ctx.campaign(0)
    measured = ctx.state["fit"]["measured"]
    predicted = ctx.state["fit"]["predicted"]
    # The paper tabulates N >= 2 only (N = 1 is the baseline row).
    keys = [k for k in predicted if k[0] > 1]
    table = ErrorTable(
        {k: abs(predicted[k] - measured[k]) / measured[k] for k in keys},
        label="Table 1 (Eq. 3 errors, FT)",
    )
    off_base = [
        e
        for (n, f), e in table.cells().items()
        if f != campaign.base_frequency_hz
    ]
    data = {
        "errors": table.cells(),
        "measured_speedups": measured,
        "predicted_speedups": predicted,
        "max_error": table.max_error,
        "mean_error_off_base": sum(off_base) / len(off_base),
    }
    return {"table": table, "data": data}


def _render(ctx: StageContext) -> ExperimentResult:
    table = ctx.state["analyze"]["table"]
    data = ctx.state["analyze"]["data"]
    text = format_error_table(table) + (
        f"\nmean off-base-column error: {data['mean_error_off_base']:.1%}"
        f"  (paper: up to 78%, 45% average)"
    )
    return ExperimentResult("table1", TITLE, text, data)


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="table1",
        title=TITLE,
        description=(
            "Product-of-speedups (Eq. 3) predictions vs measured FT "
            "speedups"
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
