"""Governor policies: closed loop per epoch, open loop per phase.

A closed-loop :class:`GovernorPolicy` is consulted once per epoch with
the full observation history and returns per-rank frequencies for the
next epoch.  Four are provided:

* :class:`StaticGovernorPolicy` — hold one frequency for the whole run
  (the cap-legal peak by default); this is the fair static baseline
  every governed policy is compared against.
* :class:`StaticOptimalPolicy` — the offline oracle: sweep the
  cap-legal frequency grid through the analytic backend's vectorized
  evaluator before the run starts and hold the argmin-EDP point.  An
  online policy cannot beat it by much, so "within x% of the oracle"
  is the headline acceptance metric.
* :class:`ReactiveSlackPolicy` — the online generalization of
  :class:`SlackPolicy`: each rank reclaims the slack it *observed
  last epoch*, scaling down until its stretched busy time would
  consume a ``safety`` fraction of that slack.
* :class:`ModelPredictivePolicy` — fits the power-aware speedup model
  online: from last epoch's reconstructed instruction mix and
  comm/idle split it predicts every candidate frequency's epoch time
  and energy with the platform's own Eq. 6 timing and power curves,
  picks the argmin-EDP uniform frequency (with hysteresis against
  churn), then slack-fills non-critical ranks below it.

These receive only cap-legal frequencies via :class:`GovernorContext`,
so cap safety is independent of policy quality.

The offline DVS schedules of the paper's prior work [15] are open-loop
policies, fixed before the run, with one query
``frequency_for(rank, phase_group)`` that
:func:`~repro.governor.loop.govern_run` asks before every phase and
clamps to the cap-legal set: :class:`PhaseTablePolicy` (a phase-group
table; ``PhaseTablePolicy({}, f)`` is static), :class:`CommBoundPolicy`
(the "a priori profiling" table that power-aware speedup aims to
replace with prediction) and :class:`SlackPolicy` (one frequency per
rank).  They are not in :data:`POLICIES`: each needs a table, a
profile or idle fractions, which a registry name cannot supply.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.cpu import CpuTimingModel
from repro.cluster.machine import ClusterSpec
from repro.cluster.memory import MemoryTimingModel
from repro.cluster.opoints import OperatingPointTable
from repro.cluster.power import PowerState
from repro.errors import ConfigurationError
from repro.governor.caps import PowerCap
from repro.governor.telemetry import PhaseObservation
from repro.proftools.profiler import PhaseProfile, normalize_label
from repro.settings import Settings

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.npb.base import BenchmarkModel

__all__ = [
    "GovernorContext",
    "GovernorDecision",
    "GovernorPolicy",
    "StaticGovernorPolicy",
    "StaticOptimalPolicy",
    "ReactiveSlackPolicy",
    "ModelPredictivePolicy",
    "PhaseTablePolicy",
    "CommBoundPolicy",
    "SlackPolicy",
    "POLICIES",
    "build_policy",
]

#: Default fraction of observed slack the online policies dare reclaim.
DEFAULT_SAFETY = Settings.governor_safety

#: Relative EDP improvement a frequency switch must promise before the
#: model-predictive policy abandons its current point.
DEFAULT_HYSTERESIS = 0.01


class GovernorContext:
    """Everything a policy may know about the platform and the run.

    Built once per governed run; policies receive it on every
    :meth:`GovernorPolicy.decide` call.  The ``allowed`` tuple is the
    cap-legal frequency set (ascending) — policies must choose from it.
    """

    def __init__(
        self,
        benchmark: "BenchmarkModel",
        n_ranks: int,
        spec: ClusterSpec,
        cap: PowerCap,
        allowed: tuple[float, ...],
        safety: float,
    ) -> None:
        self.benchmark = benchmark
        self.n_ranks = int(n_ranks)
        self.spec = spec
        self.cap = cap
        self.allowed = tuple(sorted(allowed))
        self.safety = float(safety)
        self.operating_points = spec.cpu.operating_points
        self.power_spec = spec.power
        self._cpu_model = CpuTimingModel(spec.cpu)
        self._memory_model = MemoryTimingModel(spec.memory)

    @property
    def allowed_peak(self) -> float:
        """The highest cap-legal frequency."""
        return self.allowed[-1]

    def compute_seconds(self, mix, frequency_hz: float) -> float:
        """Predicted compute time for ``mix`` at ``frequency_hz``.

        Uses the same Eq. 6 split the nodes themselves execute:
        ON-chip work at the core clock, OFF-chip work at the bus.
        """
        return self._cpu_model.on_chip_seconds(
            mix, frequency_hz
        ) + self._memory_model.off_chip_seconds(mix.off_chip, frequency_hz)

    def node_power_w(self, frequency_hz: float, state: PowerState) -> float:
        """Node power at a cap-legal frequency in the given state."""
        point = self.operating_points.lookup(frequency_hz)
        return self.power_spec.node_power_w(point, state)


@dataclasses.dataclass(frozen=True)
class GovernorDecision:
    """Per-rank frequencies for the next epoch, plus the policy's why."""

    frequencies: tuple[float, ...]
    reason: str


class GovernorPolicy(_t.Protocol):
    """Protocol every governor policy implements."""

    name: str

    def decide(
        self,
        epoch: int,
        history: _t.Sequence[tuple[PhaseObservation, ...]],
        context: GovernorContext,
    ) -> GovernorDecision:
        """Choose per-rank frequencies for ``epoch``.

        ``history[e][r]`` is rank ``r``'s observation of epoch ``e``;
        all epochs before ``epoch`` are present.
        """
        ...  # pragma: no cover - protocol


def _uniform(context: GovernorContext, frequency_hz: float) -> tuple[float, ...]:
    return (frequency_hz,) * context.n_ranks


def _slack_frequency(
    idle_fraction: float,
    safety: float,
    peak: float,
    allowed: _t.Iterable[float],
) -> float:
    """The lowest ``allowed`` f >= peak · (1 − safety · idle), else peak.

    A rank idle for fraction ``s`` of a span at ``peak`` is busy for
    ``1 − s`` of it; at ``f`` that busy time grows by ``peak/f`` and
    still fits the span iff ``f >= peak · (1 − s)``.  ``safety``
    shrinks the usable slack.
    """
    required = peak * (1.0 - idle_fraction * safety)
    candidates = [f for f in allowed if f >= required]
    return min(candidates) if candidates else peak


class StaticGovernorPolicy:
    """Hold one frequency for the whole run (cap-legal peak by default)."""

    def __init__(self, frequency_hz: float | None = None) -> None:
        self.name = "static"
        self.frequency_hz = frequency_hz

    def decide(
        self,
        epoch: int,
        history: _t.Sequence[tuple[PhaseObservation, ...]],
        context: GovernorContext,
    ) -> GovernorDecision:
        """Return the configured (or cap-peak) frequency for every rank."""
        target = (
            context.allowed_peak
            if self.frequency_hz is None
            else context.cap.clamp(self.frequency_hz, context.allowed)
        )
        return GovernorDecision(
            frequencies=_uniform(context, target),
            reason=f"static hold at {target / 1e6:.0f} MHz",
        )


class StaticOptimalPolicy:
    """Offline oracle: argmin-EDP frequency from an analytic grid sweep.

    Before the first epoch it evaluates every cap-legal frequency for
    the run's (benchmark, rank count) through
    :class:`repro.analytic.model.AnalyticCampaignModel` and holds the
    energy*time minimizer for the entire run.  Deterministic, and far
    cheaper than a DES sweep — this is the yardstick online policies
    are judged against.
    """

    def __init__(self) -> None:
        self.name = "static_optimal"
        self._choice: float | None = None
        self._why = ""

    def _solve(self, context: GovernorContext) -> float:
        from repro.analytic.model import AnalyticCampaignModel

        model = AnalyticCampaignModel(context.benchmark, spec=context.spec)
        evaluation = model.evaluate_cells(
            [(context.n_ranks, f) for f in context.allowed]
        )
        edp = [t * e for t, e in zip(evaluation.times, evaluation.energies)]
        best = min(range(len(edp)), key=lambda i: (edp[i], context.allowed[i]))
        self._why = (
            f"analytic sweep over {len(context.allowed)} cap-legal points: "
            f"argmin EDP {edp[best]:.4f} J*s at "
            f"{context.allowed[best] / 1e6:.0f} MHz"
        )
        return context.allowed[best]

    def decide(
        self,
        epoch: int,
        history: _t.Sequence[tuple[PhaseObservation, ...]],
        context: GovernorContext,
    ) -> GovernorDecision:
        """Hold the precomputed oracle frequency for every rank."""
        if self._choice is None:
            self._choice = self._solve(context)
        return GovernorDecision(
            frequencies=_uniform(context, self._choice),
            reason=self._why,
        )


class ReactiveSlackPolicy:
    """Per-rank slack reclamation from last epoch's idle fraction.

    The online generalization of
    :meth:`SlackPolicy.from_idle_fractions`, with the same slack rule: a
    rank that idled fraction ``i`` of the previous epoch assumes the
    next epoch looks the same and scales down to the slowest cap-legal
    frequency that keeps its stretched busy time within ``safety * i``
    of the epoch.  No model, no coordination — each rank reacts to its
    own slack alone.
    """

    def __init__(self, safety: float | None = None) -> None:
        self.name = "reactive"
        self.safety = DEFAULT_SAFETY if safety is None else float(safety)

    def decide(
        self,
        epoch: int,
        history: _t.Sequence[tuple[PhaseObservation, ...]],
        context: GovernorContext,
    ) -> GovernorDecision:
        """Pick each rank's frequency from its previous-epoch slack."""
        if epoch == 0 or not history:
            return GovernorDecision(
                frequencies=_uniform(context, context.allowed_peak),
                reason="bootstrap epoch at cap-legal peak",
            )
        peak = context.allowed_peak
        table = [
            _slack_frequency(
                observation.idle_fraction, self.safety, peak, context.allowed
            )
            for observation in history[-1]
        ]
        lowered = sum(1 for f in table if f < peak)
        return GovernorDecision(
            frequencies=tuple(table),
            reason=(
                f"slack reclamation: {lowered}/{context.n_ranks} ranks "
                f"below peak (safety {self.safety:g})"
            ),
        )


class ModelPredictivePolicy:
    """Fit the SP model online, pick argmin-EDP, slack-fill the rest.

    Per epoch it reconstructs each rank's executed instruction mix from
    the hardware-counter deltas in the previous observation, then for
    every cap-legal candidate frequency predicts the epoch under the
    platform's own models: compute time via Eq. 6 (ON-chip scales with
    the core clock, OFF-chip does not), messaging host overhead scaled
    as core cycles (conservative — the per-message constant does not
    actually stretch), wire/blocked time held frequency-invariant, and
    energy from the per-state power curve.  The uniform argmin-EDP
    frequency wins unless the improvement over the incumbent is below
    the hysteresis threshold; ranks with leftover predicted slack are
    then filled further down, reclaiming ``safety`` of it.
    """

    def __init__(
        self,
        safety: float | None = None,
        hysteresis: float = DEFAULT_HYSTERESIS,
    ) -> None:
        self.name = "model_predictive"
        self.safety = DEFAULT_SAFETY if safety is None else float(safety)
        self.hysteresis = float(hysteresis)

    def _predict(
        self,
        previous: tuple[PhaseObservation, ...],
        frequency_hz: float,
        context: GovernorContext,
    ) -> tuple[float, float, list[float]]:
        """Predicted (epoch time, energy, per-rank busy time) at ``f``."""
        busy = []
        for observation in previous:
            compute = context.compute_seconds(observation.mix, frequency_hz)
            comm = observation.comm_s * (
                observation.frequency_hz / frequency_hz
            )
            busy.append(compute + comm)
        wire = min(o.idle_s for o in previous)
        epoch_time = max(busy) + wire
        p_compute = context.node_power_w(frequency_hz, PowerState.COMPUTE)
        p_comm = context.node_power_w(frequency_hz, PowerState.COMM)
        p_idle = context.node_power_w(frequency_hz, PowerState.IDLE)
        energy = 0.0
        for observation, rank_busy in zip(previous, busy):
            compute = context.compute_seconds(observation.mix, frequency_hz)
            comm = rank_busy - compute
            idle = max(epoch_time - rank_busy, 0.0)
            energy += compute * p_compute + comm * p_comm + idle * p_idle
        return epoch_time, energy, busy

    def decide(
        self,
        epoch: int,
        history: _t.Sequence[tuple[PhaseObservation, ...]],
        context: GovernorContext,
    ) -> GovernorDecision:
        """Predict every candidate's EDP and actuate the minimizer."""
        if epoch == 0 or not history:
            return GovernorDecision(
                frequencies=_uniform(context, context.allowed_peak),
                reason="bootstrap epoch at cap-legal peak",
            )
        previous = history[-1]
        predictions = {
            f: self._predict(previous, f, context) for f in context.allowed
        }
        edp = {f: t * e for f, (t, e, _) in predictions.items()}
        best = min(context.allowed, key=lambda f: (edp[f], f))
        incumbent = max(o.frequency_hz for o in previous)
        if (
            incumbent in edp
            and edp[incumbent] <= edp[best] * (1.0 + self.hysteresis)
        ):
            best = incumbent
        epoch_time, _, busy = predictions[best]
        table = []
        filled = 0
        for observation, rank_busy in zip(previous, busy):
            slack = max(epoch_time - rank_busy, 0.0)
            budget = rank_busy + self.safety * slack
            target = best
            for candidate in context.allowed:
                if candidate >= best:
                    break
                stretched = context.compute_seconds(
                    observation.mix, candidate
                ) + observation.comm_s * (observation.frequency_hz / candidate)
                if stretched <= budget:
                    target = candidate
                    break
            if target < best:
                filled += 1
            table.append(target)
        return GovernorDecision(
            frequencies=tuple(table),
            reason=(
                f"SP-model argmin EDP at {best / 1e6:.0f} MHz "
                f"(predicted {edp[best]:.4f} J*s); "
                f"{filled}/{context.n_ranks} ranks slack-filled"
            ),
        )


def _positive(what: str, frequency_hz: float) -> float:
    value = float(frequency_hz)
    if not value > 0:
        raise ConfigurationError(f"{what} must be positive: {value}")
    return value


class PhaseTablePolicy:
    """Open-loop phase-group → frequency table with a default.

    Phase labels are normalized (iteration suffixes stripped) before
    lookup, so a table entry ``"transpose"`` covers ``transpose[0]``
    through ``transpose[5]``.  ``PhaseTablePolicy({}, f)`` holds ``f``.
    """

    name = "phase_table"

    def __init__(
        self, table: _t.Mapping[str, float], default_hz: float
    ) -> None:
        self.default_hz = _positive("default frequency", default_hz)
        self.table = {
            str(label): _positive(f"frequency for {str(label)!r}", f)
            for label, f in table.items()
        }

    def frequency_for(self, rank: int, phase_group: str) -> float:
        """The table entry for the (normalized) phase, or the default."""
        return self.table.get(normalize_label(phase_group), self.default_hz)


class CommBoundPolicy(PhaseTablePolicy):
    """Profile-driven open-loop policy: slow down comm-bound phases.

    Phase groups of ``profile`` whose communication fraction exceeds
    ``threshold`` run at ``low_hz`` (default: the base point), all
    others at ``high_hz`` (default: the peak point).
    """

    name = "comm_bound"

    def __init__(
        self,
        profile: PhaseProfile,
        operating_points: OperatingPointTable,
        threshold: float = 0.5,
        low_hz: float | None = None,
        high_hz: float | None = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1]: {threshold}"
            )
        low = float(low_hz or operating_points.base.frequency_hz)
        high = float(high_hz or operating_points.peak.frequency_hz)
        operating_points.lookup(low)
        operating_points.lookup(high)
        table = {
            label: low
            for label in profile.communication_bound_phases(threshold)
        }
        super().__init__(table, default_hz=high)
        self.threshold = float(threshold)
        self.low_hz = low
        self.high_hz = high

    @property
    def throttled_phases(self) -> tuple[str, ...]:
        """Phase groups this policy slows down."""
        return tuple(sorted(self.table))


class SlackPolicy:
    """Open-loop slack reclamation: slow down ranks off the critical path.

    The related-work idea the paper cites ([7, 24], Chen et al. /
    Kappiah et al.): in load-imbalanced codes some ranks spend much of
    every iteration *waiting* at synchronization points; running them
    slower stretches their compute into their own slack, saving energy
    with (ideally) no effect on the critical path.  Each rank in
    ``rank_frequencies`` holds its frequency for the whole run; the
    others (the critical path) hold ``default_hz``.
    """

    name = "slack"

    def __init__(
        self,
        rank_frequencies: _t.Mapping[int, float],
        default_hz: float,
    ) -> None:
        self.default_hz = _positive("default frequency", default_hz)
        self.rank_frequencies = {
            int(r): _positive(f"frequency for rank {int(r)}", f)
            for r, f in rank_frequencies.items()
        }

    def frequency_for(self, rank: int, phase_group: str) -> float:
        """The frequency assigned to ``rank`` (phase-independent)."""
        return self.rank_frequencies.get(int(rank), self.default_hz)

    @classmethod
    def from_idle_fractions(
        cls,
        idle_by_rank: _t.Mapping[int, float],
        operating_points: OperatingPointTable,
        safety: float = DEFAULT_SAFETY,
    ) -> "SlackPolicy":
        """Give each rank the lowest legal point its slack can absorb.

        ``idle_by_rank`` holds each rank's idle fraction in [0, 1] from
        a baseline run at peak; ``safety`` is the fraction of that
        slack the policy dares to consume.  The rule is the one
        :class:`ReactiveSlackPolicy` applies every epoch.
        """
        if not 0 < safety <= 1:
            raise ConfigurationError(f"safety must be in (0, 1]: {safety}")
        peak = operating_points.peak.frequency_hz
        legal = [point.frequency_hz for point in operating_points]
        table: dict[int, float] = {}
        for rank, idle in idle_by_rank.items():
            if not 0.0 <= idle <= 1.0:
                raise ConfigurationError(
                    f"idle fraction for rank {rank} must be in [0, 1]: {idle}"
                )
            table[int(rank)] = _slack_frequency(idle, safety, peak, legal)
        return cls(table, default_hz=peak)


#: Registry of policy names accepted by the CLI, service, and spec.
POLICIES: dict[str, _t.Callable[[], _t.Any]] = {
    "static": StaticGovernorPolicy,
    "static_optimal": StaticOptimalPolicy,
    "reactive": ReactiveSlackPolicy,
    "model_predictive": ModelPredictivePolicy,
}


def build_policy(name: str, safety: float | None = None) -> GovernorPolicy:
    """Instantiate a policy by registry name.

    ``safety`` is forwarded to the online policies that take it and
    ignored by the static ones.
    """
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown governor policy {name!r}; "
            f"choose from {sorted(POLICIES)}"
        ) from None
    if factory in (ReactiveSlackPolicy, ModelPredictivePolicy):
        return factory(safety=safety)
    return factory()
