"""Figure 2 — FT execution times and the 2-D power-aware speedup surface.

The communication-bound counterpart to Figure 1.  Observations the
reproduction must show (paper §4.3):

1. time falls with N for N >= 2, sub-linearly;
2. sequential time falls sub-linearly with f (≈1.9 at 1400 MHz);
3. speedup *dips* from 1 to 2 processors, then recovers (≈2.9 at 16);
4. the N = 1 speedup row is sub-linear in f;
5. frequency scaling's effect diminishes as nodes are added.
"""

from __future__ import annotations

import typing as _t

from repro.core.speedup import measured_speedup_table
from repro.experiments.platform import PAPER_COUNTS, PAPER_FREQUENCIES
from repro.experiments.registry import ExperimentResult, register_spec
from repro.pipeline import CampaignRequest, ExperimentSpec, Stage, StageContext
from repro.reporting.tables import format_grid

__all__ = ["SPEC"]

TITLE = "Figure 2: FT execution time and two-dimensional speedup"


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
    return {
        "speedups": measured_speedup_table(
            campaign.times, campaign.base_frequency_hz
        )
    }


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    campaign = ctx.campaign(0)
    speedups = ctx.state["fit"]["speedups"]
    f0 = campaign.base_frequency_hz
    f_peak = max(campaign.frequencies)
    n_max = max(campaign.counts)
    observations = [
        (
            "speedup dips from 1 to 2 processors",
            speedups[(2, f0)] < speedups[(1, f0)],
        ),
        (
            "speedup recovers by the largest count",
            speedups[(n_max, f0)] > 2.0,
        ),
        (
            "sequential frequency speedup is sub-linear",
            speedups[(1, f_peak)] < f_peak / f0,
        ),
        (
            "frequency effect diminishes with nodes",
            speedups[(n_max, f_peak)] / speedups[(n_max, f0)]
            < speedups[(1, f_peak)] / speedups[(1, f0)],
        ),
    ]
    data = {
        "times": dict(campaign.times),
        "energies": dict(campaign.energies),
        "speedups": speedups,
        "observations": {label: ok for label, ok in observations},
    }
    return {"observations": observations, "data": data}


def _render(ctx: StageContext) -> ExperimentResult:
    campaign = ctx.campaign(0)
    speedups = ctx.state["fit"]["speedups"]
    observations = ctx.state["analyze"]["observations"]
    obs_lines = [
        f"[{'ok' if ok else 'FAIL'}] {label}" for label, ok in observations
    ]
    text = "\n\n".join(
        [
            format_grid(
                campaign.times,
                title="Figure 2a: FT execution time (seconds)",
                value_style="time",
            ),
            format_grid(
                speedups,
                title="Figure 2b: FT power-aware speedup surface",
                value_style="speedup",
            ),
            "\n".join(obs_lines),
        ]
    )
    return ExperimentResult(
        "figure2", TITLE, text, ctx.state["analyze"]["data"]
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="figure2",
        title=TITLE,
        description="FT time series per frequency + (N, f) speedup surface",
        requires=_requires,
        params=("problem_class", "counts", "frequencies"),
        stages=(
            Stage("fit", _fit),
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
