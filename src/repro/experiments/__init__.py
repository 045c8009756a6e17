"""Experiment drivers: one per table/figure of the paper.

Each module reproduces one published artifact on the simulated
platform:

==============  ============================================================
Module          Paper artifact
==============  ============================================================
``table1``      Table 1 — generalized-Amdahl (Eq. 3) prediction errors, FT
``figure1``     Figure 1a/1b — EP execution times and 2-D speedup surface
``figure2``     Figure 2a/2b — FT execution times and 2-D speedup surface
``table3``      Table 3 — power-aware speedup (SP) prediction errors, FT
``table5``      Table 5 — LU workload decomposition via hardware counters
``table6``      Table 6 — per-level CPI/f and per-message times
``table7``      Table 7 — LU prediction errors, FP vs SP
``edp``         Abstract — performance & energy-delay predicted within 7 %
``dvfs_savings``Abstract context — energy savings via DVS scheduling
``ablations``   Design-choice ablations (ON/OFF split, Assumption 2, ...)
==============  ============================================================

All experiments return an :class:`~repro.experiments.registry.
ExperimentResult`; the registry (:mod:`repro.experiments.registry`)
lists them for the CLI (``repro-experiments``) and the paper-shape
tests (``tests/experiments/test_paper_tables.py``).
"""

from repro.experiments.platform import (
    PAPER_COUNTS,
    PAPER_FREQUENCIES,
    measure_campaign,
)
from repro.experiments.registry import (
    ExperimentResult,
    get_experiment,
    list_experiments,
    run_experiment,
)

__all__ = [
    "PAPER_COUNTS",
    "PAPER_FREQUENCIES",
    "measure_campaign",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]
