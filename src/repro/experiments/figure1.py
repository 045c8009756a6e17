"""Figure 1 — EP execution times and the 2-D power-aware speedup surface.

Figure 1a plots EP's measured execution time against processor count,
one series per frequency; Figure 1b the speedup surface over (N, f).
The paper's observations this experiment regenerates:

1. time falls with N at fixed f;  2. time falls with f at fixed N;
3. speedup is linear in N at the base frequency (15.9 at 16);
4. linear in f at N = 1 (2.34 at 1400 MHz);
5. the combined speedup ≈ the product (36.5 ≈ 15.9 × 2.34), and the
   analytical Eq. 12 prediction ``S = N·f/f0`` lands within ~2 %.
"""

from __future__ import annotations

import typing as _t

from repro.core.analysis import ErrorTable
from repro.core.speedup import measured_speedup_table
from repro.experiments.platform import PAPER_COUNTS, PAPER_FREQUENCIES
from repro.experiments.registry import ExperimentResult, register_spec
from repro.pipeline import CampaignRequest, ExperimentSpec, Stage, StageContext
from repro.reporting.tables import format_grid

__all__ = ["SPEC"]

TITLE = "Figure 1: EP execution time and two-dimensional speedup"


def _requires(params: dict) -> tuple[CampaignRequest, ...]:
    return (
        CampaignRequest(
            "ep",
            params.get("problem_class") or "A",
            tuple(params.get("counts") or PAPER_COUNTS),
            tuple(params.get("frequencies") or PAPER_FREQUENCIES),
        ),
    )


def _fit(ctx: StageContext) -> dict[str, _t.Any]:
    campaign = ctx.campaign(0)
    speedups = measured_speedup_table(
        campaign.times, campaign.base_frequency_hz
    )
    # Eq. 12: S = N · f / f0 (the EP analytical prediction).
    f0 = campaign.base_frequency_hz
    eq12 = {(n, f): n * f / f0 for (n, f) in speedups}
    return {"speedups": speedups, "eq12": eq12}


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    campaign = ctx.campaign(0)
    speedups = ctx.state["fit"]["speedups"]
    eq12 = ctx.state["fit"]["eq12"]
    eq12_errors = ErrorTable.compare(
        eq12, speedups, label="Eq. 12 vs measured"
    )
    data = {
        "times": dict(campaign.times),
        "energies": dict(campaign.energies),
        "speedups": speedups,
        "eq12_predictions": eq12,
        "eq12_max_error": eq12_errors.max_error,
    }
    return {"eq12_errors": eq12_errors, "data": data}


def _render(ctx: StageContext) -> ExperimentResult:
    campaign = ctx.campaign(0)
    speedups = ctx.state["fit"]["speedups"]
    eq12_errors = ctx.state["analyze"]["eq12_errors"]
    text = "\n\n".join(
        [
            format_grid(
                campaign.times,
                title="Figure 1a: EP execution time (seconds)",
                value_style="time",
            ),
            format_grid(
                speedups,
                title="Figure 1b: EP power-aware speedup surface",
                value_style="speedup",
            ),
            f"Eq. 12 (S = N·f/f0) max error: {eq12_errors.max_error:.1%}"
            f"  (paper: 2.3% max)",
        ]
    )
    return ExperimentResult(
        "figure1", TITLE, text, ctx.state["analyze"]["data"]
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="figure1",
        title=TITLE,
        description=(
            "EP time series per frequency + (N, f) speedup surface + "
            "Eq. 12 check"
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
