"""Suite overview — every modelled NPB code through the power-aware lens.

A capstone sweep across all eight benchmark models at class A: the
corner configurations of the (N, f) grid, the two speedup axes, and
how much frequency leverage survives at scale.  This is the table a
cluster operator would consult to decide, per application, whether to
buy nodes or megahertz — the decision the paper's model exists to
inform.
"""

from __future__ import annotations

import typing as _t

from repro.experiments.registry import ExperimentResult, register_spec
from repro.pipeline import CampaignRequest, ExperimentSpec, Stage, StageContext
from repro.reporting.tables import format_rows
from repro.units import mhz

__all__ = ["SPEC", "DEFAULT_SUITE"]

TITLE = "Suite overview: all eight codes through the power-aware lens"

DEFAULT_SUITE = ("ep", "bt", "sp", "lu", "mg", "cg", "ft", "is")


def _suite(params: dict) -> tuple[str, ...]:
    return tuple(params.get("benchmarks") or DEFAULT_SUITE)


def _requires(params: dict) -> tuple[CampaignRequest, ...]:
    problem_class = params.get("problem_class") or "A"
    n_max = int(params.get("n_max") or 16)
    return tuple(
        CampaignRequest(
            name, problem_class, (1, n_max), (mhz(600), mhz(1400))
        )
        for name in _suite(params)
    )


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    f0, f1 = mhz(600), mhz(1400)
    n_max = int(ctx.param("n_max", 16))
    rows = []
    data: dict[str, dict[str, float]] = {}
    for index, name in enumerate(_suite(ctx.params)):
        campaign = ctx.campaign(index)
        t = campaign.times
        s_parallel = t[(1, f0)] / t[(n_max, f0)]
        s_combined = t[(1, f0)] / t[(n_max, f1)]
        gain_1 = t[(1, f0)] / t[(1, f1)]
        gain_n = t[(n_max, f0)] / t[(n_max, f1)]
        data[name] = {
            "t1_600_s": t[(1, f0)],
            "parallel_speedup": s_parallel,
            "combined_speedup": s_combined,
            "frequency_gain_seq": gain_1,
            "frequency_gain_at_scale": gain_n,
            "leverage_retained": gain_n / gain_1,
        }
        rows.append(
            [
                name.upper(),
                f"{t[(1, f0)]:.0f}s",
                f"{s_parallel:.2f}",
                f"{s_combined:.2f}",
                f"{gain_1:.2f}",
                f"{gain_n:.2f}",
                f"{gain_n / gain_1:.0%}",
            ]
        )
    rows.sort(key=lambda r: -float(r[3]))
    return {"rows": rows, "data": data}


def _render(ctx: StageContext) -> ExperimentResult:
    n_max = int(ctx.param("n_max", 16))
    problem_class = ctx.param("problem_class", "A")
    text = "\n\n".join(
        [
            format_rows(
                [
                    "code",
                    "T(1,600)",
                    f"S({n_max},600)",
                    f"S({n_max},1400)",
                    "f-gain @1",
                    f"f-gain @{n_max}",
                    "leverage kept",
                ],
                ctx.state["analyze"]["rows"],
                title=(
                    f"NPB suite, class {problem_class}, on the "
                    f"{n_max}-node power-aware cluster"
                ),
            ),
            "Reading guide: 'leverage kept' is the fraction of the "
            "sequential frequency gain still available at scale — the "
            "paper's interdependence in one number.  EP keeps ~100%; "
            "the communication-bound codes keep the least, which is "
            "exactly where communication-phase DVFS pays instead.",
        ]
    )
    return ExperimentResult(
        "suite_overview",
        TITLE,
        text,
        {"suite": ctx.state["analyze"]["data"]},
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="suite_overview",
        title=TITLE,
        description="Corner-grid sweep of every benchmark model at class A",
        requires=_requires,
        params=("problem_class", "benchmarks", "n_max"),
        stages=(
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
