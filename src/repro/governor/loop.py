"""The governed-run harness: sensors in, decisions out, actuations back.

:func:`govern_run` executes a benchmark under a DVFS policy and picks
its path from the policy's protocol.  A closed-loop
:class:`~repro.governor.policies.GovernorPolicy` (``decide``) runs
under epoch control: the phase list is chunked into epochs; at every
epoch boundary the ranks synchronize on a barrier, the governor folds
the previous epoch's :class:`~repro.governor.telemetry.PhaseObservation`
stream into a policy decision (computed exactly once per epoch — the
first rank through the barrier triggers it), and each rank actuates
its assigned frequency through the real
:class:`~repro.cluster.dvfs.DvfsController` (paying the transition
latency).  Re-timing of remaining work is automatic: node compute
durations are memoized per (mix, frequency), so a frequency change
simply selects a different memoized duration for everything that
follows.

The epoch-0 decision is applied as *pre-run configuration* (no
simulated time has passed, so no transition is charged), which also
means a static policy generates zero DVFS transitions.

An open-loop policy (``frequency_for``, e.g.
:class:`~repro.governor.policies.PhaseTablePolicy`) is fixed before the
run: before every phase each rank asks it, clamps the answer to the
cap-legal set and transitions only on a change.  There is no barrier,
no sensing and no pre-run configuration (nodes boot at the base point),
and the trace records no observations or decisions; its header
records ``epoch_phases`` and ``safety`` as ``None``, as the run reads
neither.

Every run yields a :class:`GovernedRun` wrapping the raw
:class:`~repro.mpi.program.RunResult` and the sealed, deterministic
:class:`~repro.governor.trace.DecisionTrace`.

Policy, epoch length, safety factor and platform left unset per call
resolve once per run through :func:`repro.settings.settings`.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.machine import Cluster
from repro.errors import ConfigurationError
from repro.governor.caps import PowerCap
from repro.governor.policies import (
    GovernorContext,
    GovernorDecision,
    GovernorPolicy,
    PhaseTablePolicy,
    SlackPolicy,
    build_policy,
)
from repro.governor.telemetry import EpochSensor, PhaseObservation
from repro.governor.trace import DecisionTrace, EpochDecision
from repro.mpi.program import RunResult, run_program
from repro.proftools.profiler import normalize_label
from repro.settings import Settings, settings

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.machine import ClusterSpec
    from repro.npb.base import BenchmarkModel

__all__ = [
    "GovernedRun",
    "govern_run",
    "DEFAULT_EPOCH_PHASES",
    "DEFAULT_POLICY",
]

#: Phases folded into one governor epoch by default (aligned with the
#: four-phase iteration structure of the FT and LU models).
DEFAULT_EPOCH_PHASES = Settings.governor_epoch

#: Policy used when neither the call nor the environment names one.
DEFAULT_POLICY = Settings.governor_policy


@dataclasses.dataclass(frozen=True)
class GovernedRun:
    """Outcome of one governed execution."""

    benchmark: str
    problem_class: str
    n_ranks: int
    policy: str
    cap: PowerCap
    run: RunResult
    trace: DecisionTrace

    @property
    def elapsed_s(self) -> float:
        """Simulated wall time of the governed run."""
        return self.run.elapsed_s

    @property
    def energy_j(self) -> float:
        """Total cluster energy of the governed run."""
        return self.run.energy_j

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s) — the governor's objective."""
        return self.run.elapsed_s * self.run.energy_j

    @property
    def mean_power_w(self) -> float:
        """Average cluster power over the run."""
        if self.run.elapsed_s <= 0:
            return 0.0
        return self.run.energy_j / self.run.elapsed_s


class _Governor:
    """Run-scoped coordinator shared by all rank programs.

    Memoizes one decision per epoch (the first rank consulting it
    after the boundary barrier computes it from the completed history;
    engine scheduling is deterministic, so "first" is too), enforces
    the power cap on every actuation, and feeds the trace.
    """

    def __init__(
        self,
        policy: GovernorPolicy,
        context: GovernorContext,
        trace: DecisionTrace,
    ) -> None:
        self.policy = policy
        self.context = context
        self.trace = trace
        self._decisions: dict[int, tuple[float, ...]] = {}
        self._history: list[tuple[PhaseObservation, ...]] = []
        self._pending: dict[int, dict[int, PhaseObservation]] = {}
        self.sensors: dict[int, EpochSensor] = {}

    def decide(self, epoch: int, now: float) -> tuple[float, ...]:
        if epoch in self._decisions:
            return self._decisions[epoch]
        decision: GovernorDecision = self.policy.decide(
            epoch, tuple(self._history), self.context
        )
        clamped = tuple(
            self.context.cap.clamp(f, self.context.allowed)
            for f in decision.frequencies
        )
        if len(clamped) != self.context.n_ranks:
            raise ConfigurationError(
                f"policy {self.policy.name!r} returned "
                f"{len(clamped)} frequencies for {self.context.n_ranks} ranks"
            )
        self._decisions[epoch] = clamped
        self.trace.record_decision(
            EpochDecision(
                epoch=epoch,
                time_s=now,
                policy=self.policy.name,
                frequencies=clamped,
                reason=decision.reason,
            )
        )
        return clamped

    def observe(self, epoch: int, rank: int, ctx: _t.Any, span: str) -> None:
        observation = self.sensors[rank].observe(
            epoch, rank, ctx.now, ctx.frequency_hz, phase_span=span
        )
        self.trace.record_observation(observation)
        bucket = self._pending.setdefault(epoch, {})
        bucket[rank] = observation
        if len(bucket) == self.context.n_ranks:
            self._history.append(
                tuple(bucket[r] for r in range(self.context.n_ranks))
            )
            del self._pending[epoch]


def govern_run(
    benchmark: "BenchmarkModel",
    n_ranks: int,
    policy: (
        GovernorPolicy | PhaseTablePolicy | SlackPolicy | str | None
    ) = None,
    cap: PowerCap | None = None,
    *,
    spec: "ClusterSpec | None" = None,
    platform: str | None = None,
    epoch_phases: int | None = None,
    safety: float | None = None,
    seed: int = 0,
) -> GovernedRun:
    """Execute ``benchmark`` on ``n_ranks`` under a DVFS policy.

    ``policy`` may be a registry name (see
    :data:`repro.governor.policies.POLICIES`), a closed-loop or
    open-loop policy instance, or ``None`` for the configured default.
    ``cap`` defaults to uncapped.  ``platform`` names a registered
    platform as an alternative to ``spec``; settings left at ``None``
    resolve once through :func:`repro.settings.settings`; the
    governor's legal frequency set is then the cap-filtered
    *cluster-wide common* frequencies of the platform's node groups.
    The run is fully deterministic for a given argument tuple;
    ``seed`` is recorded in the trace as provenance.
    """
    benchmark.check_ranks(n_ranks)
    cap = cap or PowerCap()
    resolved = settings(
        governor_policy=policy if isinstance(policy, str) else None,
        governor_epoch=epoch_phases,
        governor_safety=safety,
        platform=platform,
    )
    safety = resolved.governor_safety
    epoch_phases = resolved.governor_epoch
    if isinstance(policy, str) or policy is None:
        policy = build_policy(resolved.governor_policy, safety=safety)

    if spec is None:
        from repro.platforms import get_platform

        spec = get_platform(resolved.platform)
    elif platform is not None:
        raise ConfigurationError(
            f"pass either spec= or platform={platform!r}, not both"
        )
    spec = spec.with_nodes(int(n_ranks))
    allowed = cap.allowed_frequencies_for(spec, int(n_ranks))
    open_loop = hasattr(policy, "frequency_for")
    # An open-loop run reads neither setting, so its header records
    # neither: equal runs digest equal whatever the settings say.
    trace = DecisionTrace(
        benchmark=benchmark.name,
        problem_class=benchmark.problem_class.value,
        n_ranks=int(n_ranks),
        policy=policy.name,
        cap=cap,
        epoch_phases=None if open_loop else epoch_phases,
        seed=seed,
        safety=None if open_loop else safety,
    )
    phases = list(benchmark.phases(int(n_ranks)))
    # The run's DVFS controller is reachable only from a rank context.
    controllers = set()
    if open_loop:
        labels = [normalize_label(phase.label) for phase in phases]
        cluster = Cluster(spec)

        def program(ctx: _t.Any) -> _t.Generator:
            controllers.add(ctx.dvfs)
            for phase, label in zip(phases, labels):
                target = cap.clamp(
                    policy.frequency_for(ctx.rank, label), allowed
                )
                if target != ctx.frequency_hz:
                    yield from ctx.set_frequency(target)
                yield from phase.execute(ctx)
    else:
        context = GovernorContext(
            benchmark=benchmark,
            n_ranks=int(n_ranks),
            spec=spec,
            cap=cap,
            allowed=allowed,
            safety=safety,
        )
        governor = _Governor(policy, context, trace)
        groups = [
            phases[i : i + epoch_phases]
            for i in range(0, len(phases), epoch_phases)
        ]
        spans = [
            "+".join(
                dict.fromkeys(normalize_label(phase.label) for phase in group)
            )
            for group in groups
        ]

        cluster = Cluster(spec)
        # Epoch 0 is pre-run configuration: no simulated time has passed,
        # so the initial operating point costs no transition.
        initial = governor.decide(0, now=0.0)
        for rank in range(int(n_ranks)):
            cluster.node(rank).set_frequency(initial[rank])
            governor.sensors[rank] = EpochSensor(cluster.node(rank))

        def program(ctx: _t.Any) -> _t.Generator:
            controllers.add(ctx.dvfs)
            for index, group in enumerate(groups):
                if index:
                    yield from ctx.barrier()
                    target = governor.decide(index, now=ctx.now)[ctx.rank]
                    if target != ctx.frequency_hz:
                        yield from ctx.set_frequency(target)
                for phase in group:
                    yield from phase.execute(ctx)
                governor.observe(index, ctx.rank, ctx, spans[index])

    result = run_program(cluster, program)
    transitions = sum(dvfs.total_transitions() for dvfs in controllers)
    trace.finalize(
        elapsed_s=result.elapsed_s,
        energy_j=result.energy_j,
        transitions=transitions,
    )
    return GovernedRun(
        benchmark=benchmark.name,
        problem_class=benchmark.problem_class.value,
        n_ranks=int(n_ranks),
        policy=policy.name,
        cap=cap,
        run=result,
        trace=trace,
    )
