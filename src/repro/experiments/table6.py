"""Table 6 — seconds per instruction and per message.

The fine-grain parameterization's step 2, both halves:

* LMBENCH-style probes give seconds/instruction per memory level per
  frequency.  Expected shape: ON-chip rows fall as 1/f (constant
  ``CPI_ON``); the memory row is flat except for the bus-downshift
  rise at the two lowest frequencies (140 ns vs 110 ns).
* MPPTEST-style probes give per-message times for LU's two message
  sizes (310 doubles at 2 nodes, 155 at 4).  Expected shape: the small
  message is frequency-insensitive; the large one is slower at
  600 MHz.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.workmix import InstructionMix
from repro.core.cpi import WorkloadRates
from repro.experiments.platform import PAPER_FREQUENCIES
from repro.experiments.registry import ExperimentResult, register_spec
from repro.npb import LUBenchmark, ProblemClass
from repro.pipeline import ExperimentSpec, Stage, StageContext
from repro.proftools.lmbench import LevelLatencyProbe
from repro.proftools.mpptest import MppTest
from repro.reporting.tables import format_rows
from repro.units import doubles

__all__ = ["SPEC"]

TITLE = "Table 6: seconds per instruction (CPI/f) and per message"

_SIZES = {
    "155 doubles": doubles(155),
    "310 doubles": doubles(310),
}


def _fit(ctx: StageContext) -> dict[str, _t.Any]:
    freqs = list(PAPER_FREQUENCIES)
    # -- upper half: per-level latencies and the weighted CPI_ON ---------
    probe = LevelLatencyProbe()
    level_table = probe.measure(freqs)
    lu = LUBenchmark(ProblemClass.parse(ctx.param("problem_class", "A")))
    mix: InstructionMix = lu.total_mix()
    rates = WorkloadRates.from_level_latencies(mix, level_table)
    # -- lower half: per-message times for LU's two sizes -----------------
    mpp = MppTest()
    message_table = mpp.measure(
        list(_SIZES.values()),
        freqs,
        repetitions=int(ctx.param("repetitions", 10)),
    )
    return {
        "freqs": freqs,
        "level_table": level_table,
        "rates": rates,
        "message_table": message_table,
    }


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    fit = ctx.state["fit"]
    freqs, rates = fit["freqs"], fit["rates"]
    on_chip_row = [
        f"{rates.on_chip_seconds_per_instruction(f) * 1e9:.2f}"
        for f in freqs
    ]
    off_chip_row = [
        f"{rates.off_chip_seconds_per_instruction(f) * 1e9:.0f}"
        for f in freqs
    ]
    message_rows = [
        [label]
        + [
            f"{fit['message_table'].time(nbytes, f) * 1e6:.0f}"
            for f in freqs
        ]
        for label, nbytes in _SIZES.items()
    ]
    data = {
        "cpi_on": rates.cpi_on,
        "level_latencies": {
            f: dict(levels) for f, levels in fit["level_table"].items()
        },
        "message_times": fit["message_table"].as_dict(),
    }
    return {
        "on_chip_row": on_chip_row,
        "off_chip_row": off_chip_row,
        "message_rows": message_rows,
        "data": data,
    }


def _render(ctx: StageContext) -> ExperimentResult:
    fit = ctx.state["fit"]
    analysis = ctx.state["analyze"]
    freqs, rates = fit["freqs"], fit["rates"]
    mhz_labels = [f"{f / 1e6:.0f}MHz" for f in freqs]
    text = "\n\n".join(
        [
            format_rows(
                ["quantity"] + mhz_labels,
                [
                    [f"CPI_ON (cycles, weighted)"]
                    + [f"{rates.cpi_on:.2f}"] * len(freqs),
                    ["CPI_ON/f_ON (ns/ins)"] + analysis["on_chip_row"],
                    ["CPI_OFF/f_OFF (ns/ins)"] + analysis["off_chip_row"],
                ],
                title="Table 6 (upper): seconds per instruction",
            ),
            format_rows(
                ["message"] + mhz_labels,
                analysis["message_rows"],
                title="Table 6 (lower): per-message time (microseconds)",
            ),
            f"weighted CPI_ON = {rates.cpi_on:.2f}  (paper: 2.19)",
        ]
    )
    return ExperimentResult("table6", TITLE, text, analysis["data"])


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="table6",
        title=TITLE,
        description="LMBENCH-style level latencies + MPPTEST-style message times",
        params=("problem_class", "repetitions"),
        stages=(
            Stage("fit", _fit),
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
