"""Energy-vs-time evaluation of DVS schedules.

The headline trade the power-aware literature reports (and the paper's
abstract cites: ">30 % energy saved, <1 % performance loss") is a pair
of ratios against a static-peak-frequency baseline.
:func:`evaluate_policy` runs both configurations through
:func:`~repro.governor.loop.govern_run` on fresh clusters and returns a
:class:`ScheduleEvaluation` with the savings, slowdown and
energy-delay comparison.
"""

from __future__ import annotations

import dataclasses

from repro.cluster.machine import ClusterSpec, paper_spec
from repro.governor import (
    GovernorPolicy,
    PhaseTablePolicy,
    SlackPolicy,
    govern_run,
)
from repro.npb.base import BenchmarkModel

_Policy = GovernorPolicy | PhaseTablePolicy | SlackPolicy

__all__ = ["ScheduleEvaluation", "evaluate_policy"]


@dataclasses.dataclass(frozen=True)
class ScheduleEvaluation:
    """Scheduled-vs-baseline comparison for one benchmark and rank
    count."""

    benchmark: str
    n_ranks: int
    baseline_time_s: float
    baseline_energy_j: float
    scheduled_time_s: float
    scheduled_energy_j: float

    @property
    def energy_savings(self) -> float:
        """Fraction of baseline energy saved (positive is good)."""
        return 1.0 - self.scheduled_energy_j / self.baseline_energy_j

    @property
    def slowdown(self) -> float:
        """Fractional time increase over baseline (positive = slower)."""
        return self.scheduled_time_s / self.baseline_time_s - 1.0

    @property
    def baseline_edp(self) -> float:
        """Baseline energy-delay product."""
        return self.baseline_energy_j * self.baseline_time_s

    @property
    def scheduled_edp(self) -> float:
        """Scheduled energy-delay product."""
        return self.scheduled_energy_j * self.scheduled_time_s

    @property
    def edp_improvement(self) -> float:
        """Fractional EDP reduction (positive is good)."""
        return 1.0 - self.scheduled_edp / self.baseline_edp

    @property
    def edp(self) -> float:
        """The schedule's energy-delay product (J*s).

        Alias of :attr:`scheduled_edp`, matching the metric name the
        governor subsystem reports (``GovernedRun.edp``) so offline
        schedules and governed runs compare on the same axis.
        """
        return self.scheduled_edp

    @property
    def edp_ratio(self) -> float:
        """Scheduled EDP over baseline EDP (< 1 is an improvement)."""
        return self.scheduled_edp / self.baseline_edp


def evaluate_policy(
    benchmark: BenchmarkModel,
    n_ranks: int,
    policy: _Policy,
    spec: ClusterSpec | None = None,
    baseline: _Policy | None = None,
) -> ScheduleEvaluation:
    """Run ``benchmark`` under ``policy`` and under a static baseline.

    The baseline defaults to static peak frequency,
    ``PhaseTablePolicy({}, peak)`` (the "performance first"
    configuration every DVS study compares against).  Both runs go
    through :func:`~repro.governor.loop.govern_run` on ``spec``
    (default: the paper platform, whatever ``REPRO_PLATFORM`` says),
    uncapped, each on a fresh cluster so meters start from zero.
    """
    spec = spec or paper_spec()
    if baseline is None:
        baseline = PhaseTablePolicy(
            {}, spec.cpu.operating_points.peak.frequency_hz
        )
    base = govern_run(benchmark, n_ranks, baseline, spec=spec)
    scheduled = govern_run(benchmark, n_ranks, policy, spec=spec)
    return ScheduleEvaluation(
        benchmark=f"{benchmark.name}.{benchmark.problem_class.value}",
        n_ranks=n_ranks,
        baseline_time_s=base.elapsed_s,
        baseline_energy_j=base.energy_j,
        scheduled_time_s=scheduled.elapsed_s,
        scheduled_energy_j=scheduled.energy_j,
    )
