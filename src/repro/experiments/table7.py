"""Table 7 — LU prediction errors: fine-grain vs simplified.

The paper's closing validation: fit *both* parameterizations to LU and
tabulate speedup-prediction errors side by side over (N, f).

Published signatures this reproduction must show:

* SP errors are zero in the base column and "increase steadily with
  both number of nodes and frequency" — Assumption 2 treats the
  derived overhead (which for LU is mostly pipeline imbalance, i.e.
  *compute*) as frequency-insensitive.
* FP errors "increase with number of nodes but appear to be leveling
  off with frequency" — FP models the frequency dependence but
  Assumption 1 misses the pipeline's limited DOP.
* Both stay within ~13 %.

The FP pipeline here is measurement-driven end to end: counters →
mix (Table 5), LMBENCH/MPPTEST probes → rates and message times
(Table 6), application profile → message counts.
"""

from __future__ import annotations

import typing as _t

from repro.core.cpi import WorkloadRates
from repro.core.params_fp import FineGrainParameterization
from repro.core.params_sp import SimplifiedParameterization
from repro.core.prediction import Predictor
from repro.cluster.counters import HardwareCounters
from repro.experiments.platform import PAPER_FREQUENCIES
from repro.experiments.registry import ExperimentResult, register_spec
from repro.npb import LUBenchmark, ProblemClass
from repro.pipeline import CampaignRequest, ExperimentSpec, Stage, StageContext
from repro.proftools.lmbench import LevelLatencyProbe
from repro.proftools.mpptest import MppTest
from repro.proftools.papi import counter_campaign
from repro.reporting.tables import format_rows
from repro.units import doubles

__all__ = ["SPEC", "fit_lu_fp", "TABLE7_COUNTS"]

TITLE = "Table 7: LU prediction errors, fine-grain (FP) vs simplified (SP)"

#: The paper's Table 7 uses N = 1..8.
TABLE7_COUNTS: tuple[int, ...] = (1, 2, 4, 8)


def fit_lu_fp(
    lu: LUBenchmark, repetitions: int = 10, workload=None
) -> FineGrainParameterization:
    """The full measurement-driven FP pipeline for LU (§5.2 steps 1–2)."""
    # Step 1: workload distribution from hardware counters.
    counters = counter_campaign(lu)
    hc = HardwareCounters()
    for event, value in counters.items():
        hc._events[event] = value
    mix = hc.derive_mix()

    # Step 2a: per-level latencies (LMBENCH-style) -> rates.
    level_table = LevelLatencyProbe().measure(PAPER_FREQUENCIES)
    rates = WorkloadRates.from_level_latencies(mix, level_table)

    # Step 2b: per-message times (MPPTEST-style) over LU's sizes.
    sizes = sorted(
        {lu.exchange_bytes(n) for n in (2, 4, 8, 16)} | {doubles(310)}
    )
    message_table = MppTest().measure(
        sizes, PAPER_FREQUENCIES, repetitions=repetitions
    )

    # Step 3 inputs: message profile from the application model.
    return FineGrainParameterization(
        mix=mix,
        rates=rates,
        message_time=message_table.time,
        message_profile_for=lu.message_profile,
        workload=workload,
    )


def _counts(params: dict) -> tuple[int, ...]:
    return tuple(params.get("counts") or TABLE7_COUNTS)


def _requires(params: dict) -> tuple[CampaignRequest, ...]:
    return (
        CampaignRequest(
            "lu",
            params.get("problem_class") or "A",
            _counts(params),
            PAPER_FREQUENCIES,
        ),
    )


def _fit(ctx: StageContext) -> dict[str, _t.Any]:
    campaign = ctx.campaign(0)
    lu = LUBenchmark(ProblemClass.parse(ctx.param("problem_class", "A")))
    sp = SimplifiedParameterization(campaign)
    fp = fit_lu_fp(lu)
    return {
        "fp": fp,
        "sp_table": Predictor(campaign, sp).speedup_error_table(label="SP"),
        "fp_table": Predictor(campaign, fp).speedup_error_table(label="FP"),
    }


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    fit = ctx.state["fit"]
    fp_table, sp_table = fit["fp_table"], fit["sp_table"]
    counts = _counts(ctx.params)
    # Interleave like the paper's Table 7: per (N, f), FP and SP cells.
    headers = ["N"] + [
        f"{f / 1e6:.0f} {m}"
        for f in PAPER_FREQUENCIES
        for m in ("FP", "SP")
    ]
    rows = []
    for n in counts:
        row: list[str] = [str(n)]
        for f in PAPER_FREQUENCIES:
            row.append(f"{fp_table.error(n, f):.1%}")
            row.append(f"{sp_table.error(n, f):.1%}")
        rows.append(row)
    data = {
        "fp_errors": fp_table.cells(),
        "sp_errors": sp_table.cells(),
        "fp_max_error": fp_table.max_error,
        "sp_max_error": sp_table.max_error,
        "fp_parameters": fit["fp"].parameter_summary(),
    }
    return {"headers": headers, "rows": rows, "data": data}


def _render(ctx: StageContext) -> ExperimentResult:
    fit = ctx.state["fit"]
    analysis = ctx.state["analyze"]
    fp_table, sp_table = fit["fp_table"], fit["sp_table"]
    text = "\n\n".join(
        [
            format_rows(
                analysis["headers"],
                analysis["rows"],
                title="Table 7: LU power-aware speedup errors",
            ),
            f"FP max {fp_table.max_error:.1%} / mean {fp_table.mean_error:.1%}"
            f"   SP max {sp_table.max_error:.1%} / mean "
            f"{sp_table.mean_error:.1%}   (paper: both <= ~13%)",
        ]
    )
    return ExperimentResult("table7", TITLE, text, analysis["data"])


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="table7",
        title=TITLE,
        description="Both parameterizations fitted to LU, error tables side by side",
        requires=_requires,
        params=("problem_class", "counts"),
        stages=(
            Stage("fit", _fit),
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
