"""Deterministic decision traces for governed runs.

Every governed run produces exactly one :class:`DecisionTrace`: the
run's configuration header, the full `PhaseObservation` stream the
sensors emitted, every :class:`EpochDecision` the policy issued, and
the run's closing totals (an open-loop run senses and decides nothing
in flight, so its two lists stay empty).  The discrete-event engine is deterministic
and the trace stores nothing wall-clock dependent, so the same seed,
policy, and cap always serialize to the *bit-identical* canonical JSON
— :meth:`DecisionTrace.digest` is therefore a stable fingerprint that
golden tests, the artifact store, and the ``/govern`` endpoint can all
pin without replaying the run.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import typing as _t

from repro.governor.caps import PowerCap
from repro.governor.telemetry import PhaseObservation

__all__ = ["EpochDecision", "DecisionTrace"]


@dataclasses.dataclass(frozen=True)
class EpochDecision:
    """One actuation the governor issued at an epoch boundary."""

    epoch: int
    time_s: float
    policy: str
    frequencies: tuple[float, ...]
    reason: str

    def as_dict(self) -> dict[str, _t.Any]:
        """A JSON-ready rendering of the decision."""
        return {
            "epoch": self.epoch,
            "time_s": self.time_s,
            "policy": self.policy,
            "frequencies_mhz": [f / 1e6 for f in self.frequencies],
            "reason": self.reason,
        }


class DecisionTrace:
    """The complete, replayable record of one governed run.

    Mutable while the run is in flight (the governor appends
    observations and decisions), then sealed with :meth:`finalize`.
    ``seed`` is provenance only: no observation, decision or total
    depends on it, so a sealed trace re-stamped with
    :meth:`with_seed` serializes exactly as a run under that seed.
    """

    def __init__(
        self,
        benchmark: str,
        problem_class: str,
        n_ranks: int,
        policy: str,
        cap: PowerCap,
        epoch_phases: int | None,
        seed: int,
        safety: float | None,
    ) -> None:
        self.benchmark = benchmark
        self.problem_class = problem_class
        self.n_ranks = int(n_ranks)
        self.policy = policy
        self.cap = cap
        self.epoch_phases = None if epoch_phases is None else int(epoch_phases)
        self.seed = int(seed)
        self.safety = None if safety is None else float(safety)
        self.observations: list[PhaseObservation] = []
        self.decisions: list[EpochDecision] = []
        self.elapsed_s: float = 0.0
        self.energy_j: float = 0.0
        self.transitions: int = 0
        self._finalized = False

    def record_observation(self, observation: PhaseObservation) -> None:
        """Append one sensor reading to the trace."""
        self.observations.append(observation)

    def record_decision(self, decision: EpochDecision) -> None:
        """Append one governor actuation to the trace."""
        self.decisions.append(decision)

    def finalize(
        self, elapsed_s: float, energy_j: float, transitions: int
    ) -> None:
        """Seal the trace with the run's closing totals."""
        self.elapsed_s = float(elapsed_s)
        self.energy_j = float(energy_j)
        self.transitions = int(transitions)
        self._finalized = True

    def with_seed(self, seed: int) -> "DecisionTrace":
        """A copy of this trace stamped with another ``seed``.

        The copy shares the (sealed) observation and decision lists.
        """
        twin = copy.copy(self)
        twin.seed = int(seed)
        return twin

    @property
    def edp(self) -> float:
        """Energy-delay product of the governed run (J*s)."""
        return self.energy_j * self.elapsed_s

    @property
    def n_epochs(self) -> int:
        """How many epoch decisions the governor issued."""
        return len(self.decisions)

    def to_document(self) -> dict[str, _t.Any]:
        """The full trace as a JSON-ready document."""
        return {
            "benchmark": self.benchmark,
            "problem_class": self.problem_class,
            "n_ranks": self.n_ranks,
            "policy": self.policy,
            "cap": self.cap.as_dict(),
            "epoch_phases": self.epoch_phases,
            "seed": self.seed,
            "safety": self.safety,
            "decisions": [d.as_dict() for d in self.decisions],
            "observations": [o.as_dict() for o in self.observations],
            "result": {
                "elapsed_s": self.elapsed_s,
                "energy_j": self.energy_j,
                "edp_j_s": self.edp,
                "transitions": self.transitions,
                "finalized": self._finalized,
            },
        }

    def canonical_json(self) -> str:
        """Key-sorted, whitespace-free serialization used for hashing."""
        return json.dumps(
            self.to_document(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 fingerprint of the canonical serialization."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
