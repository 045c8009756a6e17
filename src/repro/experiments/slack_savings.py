"""Slack-reclamation DVFS — the other related-work scheduling family.

The paper's §6 cites Chen et al. and Kappiah et al.: "scaling down the
CPU speed on nodes that are not in the critical path to save energy
without performance penalty".  This experiment reproduces that result
on a statically load-imbalanced iterative workload:

1. run once at peak frequency and measure each rank's idle fraction
   (its slack at the per-iteration synchronization);
2. assign each rank the lowest operating point whose compute inflation
   fits inside its own slack (:meth:`~repro.governor.policies.
   SlackPolicy.from_idle_fractions`, an open-loop policy);
3. run it through :func:`~repro.governor.loop.govern_run` and compare
   energy and time against the static-peak baseline.

Unlike the comm-bound policy (which trades a little time for energy),
slack reclamation should be nearly free: the critical-path rank never
slows down.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.machine import Cluster, paper_spec
from repro.cluster.power import PowerState
from repro.cluster.workmix import InstructionMix
from repro.core.workload import DopComponent
from repro.experiments.registry import ExperimentResult, register_spec
from repro.governor import SlackPolicy
from repro.npb.base import BenchmarkModel
from repro.npb.phases import AllreducePhase, ComputePhase, Phase
from repro.pipeline import ExperimentSpec, Stage, StageContext
from repro.reporting.tables import format_rows
from repro.sched import evaluate_policy

__all__ = ["ImbalancedStencil", "SPEC"]

TITLE = "Related work: slack reclamation on imbalanced loads (Chen/Kappiah)"


class ImbalancedStencil(BenchmarkModel):
    """An iterative workload with static per-rank load imbalance.

    Rank ``r`` of ``N`` computes ``1 + imbalance · r/(N−1)`` units per
    iteration, then all ranks synchronize on an 8-byte allreduce — the
    archetypal pattern slack reclamation exploits.  (Rank N−1 is the
    critical path; rank 0 has the most slack.)
    """

    name = "imbalanced-stencil"

    ITERATIONS = 40
    BASE_INSTRUCTIONS_PER_RANK_ITER = 2.5e8
    MIX_FRACTIONS = dict(cpu=0.45, l1=0.45, l2=0.08, mem=0.02)

    def __init__(self, problem_class="A", imbalance: float = 0.6) -> None:
        super().__init__(problem_class)
        if imbalance < 0:
            raise ValueError(f"imbalance must be >= 0: {imbalance}")
        self.imbalance = float(imbalance)

    def _unit_mix(self) -> InstructionMix:
        return InstructionMix.from_fractions(
            self.BASE_INSTRUCTIONS_PER_RANK_ITER, **self.MIX_FRACTIONS
        )

    def _rank_factor(self, rank: int, size: int) -> float:
        if size == 1:
            return 1.0
        return 1.0 + self.imbalance * rank / (size - 1)

    def total_mix(self) -> InstructionMix:
        # Averaged over a nominal 16-rank layout for the model side.
        n = 16
        total_units = sum(self._rank_factor(r, n) for r in range(n))
        return self._unit_mix().scaled(self.ITERATIONS * total_units / n)

    def dop_components(self, max_dop: int) -> tuple[DopComponent, ...]:
        return (DopComponent(max_dop, self.total_mix()),)

    def phases(self, n_ranks: int) -> list[Phase]:
        n = self.check_ranks(n_ranks)
        unit = self._unit_mix()
        phase_list: list[Phase] = []
        for it in range(self.ITERATIONS):
            phase_list.append(
                ComputePhase(
                    f"stencil[{it}]",
                    lambda rank, size, _u=unit: _u.scaled(
                        self._rank_factor(rank, size)
                    ),
                )
            )
            phase_list.append(AllreducePhase(f"sync[{it}]", 8.0))
        return phase_list


def measure_idle_fractions(
    benchmark: BenchmarkModel, n_ranks: int, frequency_hz: float
) -> dict[int, float]:
    """Per-rank idle fraction from one baseline run."""
    cluster = Cluster(paper_spec(n_ranks), frequency_hz=frequency_hz)
    result = benchmark.run(cluster)
    fractions = {}
    for rank in range(n_ranks):
        seconds = cluster.node(rank).energy.seconds_by_state()
        fractions[rank] = (
            seconds[PowerState.IDLE] / result.elapsed_s
            if result.elapsed_s > 0
            else 0.0
        )
    return fractions


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    spec = paper_spec()
    ops = spec.cpu.operating_points
    n_ranks = int(ctx.param("n_ranks", 8))
    imbalance = float(ctx.param("imbalance", 0.6))
    bench = ImbalancedStencil(
        ctx.param("problem_class", "A"), imbalance=imbalance
    )

    idle = measure_idle_fractions(bench, n_ranks, ops.peak.frequency_hz)
    policy = SlackPolicy.from_idle_fractions(
        idle, ops, safety=float(ctx.param("safety", 0.9))
    )
    evaluation = evaluate_policy(bench, n_ranks, policy)
    return {
        "n_ranks": n_ranks,
        "imbalance": imbalance,
        "idle": idle,
        "policy": policy,
        "evaluation": evaluation,
    }


def _render(ctx: StageContext) -> ExperimentResult:
    analysis = ctx.state["analyze"]
    n_ranks = analysis["n_ranks"]
    idle = analysis["idle"]
    policy = analysis["policy"]
    evaluation = analysis["evaluation"]
    rows = [
        [
            rank,
            f"{idle[rank]:.0%}",
            f"{policy.frequency_for(rank, '') / 1e6:.0f}",
        ]
        for rank in range(n_ranks)
    ]
    text = "\n\n".join(
        [
            format_rows(
                ["rank", "idle fraction", "assigned MHz"],
                rows,
                title=(
                    f"Slack reclamation on a {analysis['imbalance']:.0%}"
                    f"-imbalanced "
                    f"{n_ranks}-rank stencil"
                ),
            ),
            f"energy saved: {evaluation.energy_savings:.1%}   "
            f"slowdown: {evaluation.slowdown:.2%}   "
            f"EDP gain: {evaluation.edp_improvement:.1%}",
        ]
    )
    data = {
        "idle_fractions": idle,
        "assigned_mhz": {
            r: policy.frequency_for(r, "") / 1e6 for r in range(n_ranks)
        },
        "energy_savings": evaluation.energy_savings,
        "slowdown": evaluation.slowdown,
        "edp_improvement": evaluation.edp_improvement,
    }
    return ExperimentResult("slack_savings", TITLE, text, data)


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="slack_savings",
        title=TITLE,
        description="Per-rank DVFS sized to measured slack vs static peak",
        params=("problem_class", "n_ranks", "imbalance", "safety"),
        stages=(
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
