"""Power-cap scenarios and their enforcement semantics.

A :class:`PowerCap` models the budget an operator hands the governor:
an optional cluster-wide watt budget (rack breaker, facility
allocation) and an optional per-node watt ceiling (thermal or VRM
limit).  Enforcement is *worst-case and a priori*: a frequency is
legal only if a node running flat-out compute at that operating point
stays under the node cap, and all ``n`` nodes doing so simultaneously
stay under the cluster cap.  Because the platform's activity factors
make COMPUTE the most power-hungry state and node power is monotone in
the operating point, clamping every actuation to the legal set
guarantees that no instant of a governed run can exceed the cap — the
safety argument is by construction, not by monitoring.

:func:`power_cap_scenarios` derives the named scenarios used across
the experiment spec, service, CLI, and CI from the platform's own
power curve, so the budgets track the spec rather than hard-coded
watts.  :func:`resolve_cap` turns a job's cap fields (a scenario name
or explicit watts) into the one :class:`PowerCap` it runs under.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.machine import ClusterSpec, paper_spec
from repro.cluster.power import PowerState
from repro.errors import ConfigurationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.opoints import OperatingPointTable
    from repro.cluster.power import PowerSpec

__all__ = ["PowerCap", "power_cap_scenarios", "resolve_cap"]

# Headroom multiplier applied when a scenario budget is derived from an
# operating point's own draw, so the boundary point itself stays legal
# despite floating-point rounding.
_SCENARIO_HEADROOM = 1.001


@dataclasses.dataclass(frozen=True)
class PowerCap:
    """An operator-imposed power budget for a governed run.

    ``cluster_w`` bounds the sum of worst-case node powers across all
    participating ranks; ``node_w`` bounds any single node.  ``None``
    means unconstrained on that axis.
    """

    label: str = "uncapped"
    cluster_w: float | None = None
    node_w: float | None = None

    def __post_init__(self) -> None:
        for name in ("cluster_w", "node_w"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"power cap {name} must be positive, got {value!r}"
                )

    def admits(
        self,
        frequency_hz: float,
        operating_points: "OperatingPointTable",
        power_spec: "PowerSpec",
        n_ranks: int,
    ) -> bool:
        """True if running every node at ``frequency_hz`` obeys the cap."""
        point = operating_points.lookup(frequency_hz)
        worst = power_spec.node_power_w(point, PowerState.COMPUTE)
        if self.node_w is not None and worst > self.node_w:
            return False
        if self.cluster_w is not None and worst * n_ranks > self.cluster_w:
            return False
        return True

    def admits_spec(
        self,
        frequency_hz: float,
        spec: ClusterSpec,
        n_ranks: int,
    ) -> bool:
        """Per-node-group :meth:`admits` for arbitrary platforms.

        Sizes the spec to ``n_ranks`` nodes (group-major, the nodes a
        job would actually boot), checks every participating group's
        worst-case draw against the node cap, and their count-weighted
        sum against the cluster cap.  Homogeneous specs delegate to
        :meth:`admits` unchanged — same floats, same result.
        """
        sized = spec.with_nodes(max(int(n_ranks), 1))
        if not sized.is_heterogeneous:
            return self.admits(
                frequency_hz,
                sized.cpu.operating_points,
                sized.power,
                n_ranks,
            )
        total = 0.0
        for group in sized.node_groups():
            point = group.cpu.operating_points.lookup(frequency_hz)
            worst = group.power.node_power_w(point, PowerState.COMPUTE)
            if self.node_w is not None and worst > self.node_w:
                return False
            total += worst * group.count
        if self.cluster_w is not None and total > self.cluster_w:
            return False
        return True

    def allowed_frequencies_for(
        self, spec: ClusterSpec, n_ranks: int
    ) -> tuple[float, ...]:
        """The cap-legal *cluster-wide* frequencies for a platform.

        Draws candidates from ``spec.common_frequencies()`` (legal on
        every node group) and filters with :meth:`admits_spec`; on
        homogeneous specs this is exactly
        ``allowed_frequencies(spec.cpu.operating_points, spec.power,
        n_ranks)``.  Raises :class:`~repro.errors.ConfigurationError`
        when no operating point survives.
        """
        sized = spec.with_nodes(max(int(n_ranks), 1))
        legal = tuple(
            f
            for f in sized.common_frequencies()
            if self.admits_spec(f, sized, n_ranks)
        )
        if not legal:
            raise ConfigurationError(
                f"power cap {self.label!r} ({self.as_dict()}) is infeasible: "
                f"no operating point is legal for {n_ranks} ranks"
            )
        return legal

    def allowed_frequencies(
        self,
        operating_points: "OperatingPointTable",
        power_spec: "PowerSpec",
        n_ranks: int,
    ) -> tuple[float, ...]:
        """The cap-legal frequencies, ascending.

        Raises
        ------
        ConfigurationError
            If even the lowest operating point would violate the cap.
        """
        legal = tuple(
            f
            for f in operating_points.frequencies
            if self.admits(f, operating_points, power_spec, n_ranks)
        )
        if not legal:
            raise ConfigurationError(
                f"power cap {self.label!r} ({self.as_dict()}) is infeasible: "
                f"no operating point is legal for {n_ranks} ranks"
            )
        return legal

    def clamp(
        self,
        frequency_hz: float,
        allowed: _t.Sequence[float],
    ) -> float:
        """The highest legal frequency not above the request.

        Falls back to the lowest legal point when the request sits
        below the entire legal set.
        """
        below = [f for f in allowed if f <= frequency_hz]
        return max(below) if below else min(allowed)

    def as_dict(self) -> dict[str, _t.Any]:
        """A JSON-ready rendering of the cap."""
        return {
            "label": self.label,
            "cluster_w": self.cluster_w,
            "node_w": self.node_w,
        }


def power_cap_scenarios(
    n_ranks: int,
    spec: ClusterSpec | None = None,
) -> dict[str, PowerCap]:
    """Named cap scenarios derived from the platform power curve.

    * ``uncapped`` — no budget; every operating point is legal.
    * ``cluster_cap`` — a cluster-wide budget sized to the second-highest
      operating point's worst-case draw times ``n_ranks`` (the whole
      machine can run one notch below peak, but not at peak).
    * ``node_cap`` — a per-node ceiling sized to the middle operating
      point's worst-case draw (each node loses its top two notches).

    On heterogeneous platforms the candidate notches are the
    cluster-wide common frequencies, the node ceiling tracks the
    hungriest group's draw, and the cluster budget is the
    count-weighted sum of per-group draws over the first ``n_ranks``
    nodes.  On homogeneous platforms the arithmetic is unchanged from
    the pre-registry code (same floats).
    """
    spec = spec or paper_spec(n_nodes=max(int(n_ranks), 1))
    hetero = spec.is_heterogeneous
    sized = spec.with_nodes(max(int(n_ranks), 1)) if hetero else spec
    frequencies = sized.common_frequencies()
    if len(frequencies) < 3:
        raise ConfigurationError(
            "power cap scenarios need at least three operating points, "
            f"got {len(frequencies)}"
        )

    def group_worst_w(group, frequency_hz: float) -> float:
        point = group.cpu.operating_points.lookup(frequency_hz)
        return group.power.node_power_w(point, PowerState.COMPUTE)

    def worst_w(frequency_hz: float) -> float:
        point = spec.cpu.operating_points.lookup(frequency_hz)
        return spec.power.node_power_w(point, PowerState.COMPUTE)

    def node_worst_w(frequency_hz: float) -> float:
        if not hetero:
            return worst_w(frequency_hz)
        return max(
            group_worst_w(group, frequency_hz)
            for group in sized.node_groups()
        )

    def cluster_worst_w(frequency_hz: float) -> float:
        if not hetero:
            return worst_w(frequency_hz) * n_ranks
        return sum(
            group_worst_w(group, frequency_hz) * group.count
            for group in sized.node_groups()
        )

    second = frequencies[-2]
    middle = frequencies[len(frequencies) // 2]
    return {
        "uncapped": PowerCap(label="uncapped"),
        "cluster_cap": PowerCap(
            label="cluster_cap",
            cluster_w=cluster_worst_w(second) * _SCENARIO_HEADROOM,
        ),
        "node_cap": PowerCap(
            label="node_cap",
            node_w=node_worst_w(middle) * _SCENARIO_HEADROOM,
        ),
    }


def resolve_cap(
    n_ranks: int,
    spec: ClusterSpec | None = None,
    scenario: str | None = None,
    cluster_w: float | None = None,
    node_w: float | None = None,
) -> PowerCap:
    """The cap a job asks for: a named scenario, else explicit watts.

    ``scenario`` names one of :func:`power_cap_scenarios` for
    ``n_ranks`` on ``spec``; without one, a non-zero ``cluster_w`` or
    ``node_w`` builds a ``"custom"`` cap (a zero watt value counts as
    not given), and with neither the job runs uncapped.  Unknown
    scenarios raise :class:`~repro.errors.ConfigurationError` naming
    the choices.
    """
    if scenario is not None:
        scenarios = power_cap_scenarios(n_ranks, spec)
        if scenario not in scenarios:
            raise ConfigurationError(
                f"unknown cap scenario {scenario!r}; "
                f"choose from {sorted(scenarios)}"
            )
        return scenarios[scenario]
    if cluster_w or node_w:
        return PowerCap(
            label="custom", cluster_w=cluster_w or None, node_w=node_w or None
        )
    return PowerCap()
