"""DVFS governor: the one execution path for every frequency policy.

The paper's predictive-scheduling experiment picks frequencies *before*
a run; this subsystem also closes the loop.  A governed run chunks a
benchmark's phase list into epochs, observes each epoch through the
simulator's own meters (:mod:`repro.governor.telemetry`), consults a
pluggable policy (:mod:`repro.governor.policies` — static baseline,
offline static-optimal oracle, reactive slack reclamation, and an
online model-predictive controller that refits power-aware speedup
from observations), and actuates per-rank frequency changes through
the real DVFS controller mid-run (:mod:`repro.governor.loop`).  The
offline DVS schedules of the paper's prior work [15] run through the
same :func:`govern_run` as open-loop policies, queried per phase.

Operator power budgets are first-class (:mod:`repro.governor.caps`):
every actuation is clamped to the cap-legal operating-point set, so a
governed run cannot violate its cluster-wide or per-node watt budget
by construction.  Every run emits a deterministic
:class:`~repro.governor.trace.DecisionTrace` whose canonical JSON (and
hence SHA-256 digest) is bit-identical across repeats of the same
seeded configuration.
"""

from repro.governor.caps import PowerCap, power_cap_scenarios, resolve_cap
from repro.governor.loop import (
    DEFAULT_EPOCH_PHASES,
    DEFAULT_POLICY,
    GovernedRun,
    govern_run,
)
from repro.governor.policies import (
    DEFAULT_SAFETY,
    POLICIES,
    CommBoundPolicy,
    GovernorContext,
    GovernorDecision,
    GovernorPolicy,
    ModelPredictivePolicy,
    PhaseTablePolicy,
    ReactiveSlackPolicy,
    SlackPolicy,
    StaticGovernorPolicy,
    StaticOptimalPolicy,
    build_policy,
)
from repro.governor.telemetry import EpochSensor, PhaseObservation
from repro.governor.trace import DecisionTrace, EpochDecision

__all__ = [
    "PowerCap",
    "power_cap_scenarios",
    "resolve_cap",
    "PhaseObservation",
    "EpochSensor",
    "DecisionTrace",
    "EpochDecision",
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
    "GovernedRun",
    "govern_run",
    "DEFAULT_EPOCH_PHASES",
    "DEFAULT_POLICY",
    "DEFAULT_SAFETY",
]
