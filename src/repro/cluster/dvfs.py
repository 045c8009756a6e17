"""DVFS control.

Two ways to change frequency:

* **Between runs** — experiments that measure one fixed (N, f) point
  simply call :meth:`DvfsController.set_cluster_frequency` before the
  program starts; the transition is configuration, not simulated time.
* **During a run** — DVFS policies run by
  :func:`~repro.governor.loop.govern_run` (open-loop schedules before
  every phase, closed-loop governors at epoch boundaries) change
  frequency while the application executes.
  In that case the transition costs simulated time
  (``CpuSpec.dvfs_transition_s``) and idle energy, charged through
  :meth:`DvfsController.transition`, which simulated programs ``yield``.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.machine import Cluster
from repro.errors import ConfigurationError

__all__ = ["DvfsController"]


class DvfsController:
    """Sets node frequencies, with or without simulated transition cost."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        #: Number of in-simulation transitions performed (per node id).
        self.transition_counts: dict[int, int] = {}

    # -- configuration-time control -----------------------------------------

    def set_cluster_frequency(self, frequency_hz: float) -> None:
        """Instantly set every node's frequency (pre-run configuration)."""
        self.cluster.set_all_frequencies(frequency_hz)

    def set_node_frequency(self, node_id: int, frequency_hz: float) -> None:
        """Instantly set one node's frequency (pre-run configuration)."""
        self.cluster.node(node_id).set_frequency(frequency_hz)

    # -- in-simulation control ------------------------------------------------

    def transition(self, node_id: int, frequency_hz: float) -> _t.Generator:
        """Simulated-process generator performing a DVFS switch.

        Costs ``dvfs_transition_s`` of simulated time on the node (spent
        idle — the core is stalled during a SpeedStep transition) unless
        the node is already at the target point, which is free.

        Usage inside a simulated program::

            yield from dvfs.transition(rank, new_frequency)
        """
        node = self.cluster.node(node_id)
        target = node.cpu_spec.operating_points.lookup(frequency_hz)
        if target == node.operating_point:
            return
        delay = node.cpu_spec.dvfs_transition_s
        if delay > 0:
            yield float(delay)
            node.account_idle(delay)
        node.set_frequency(frequency_hz)
        self.transition_counts[node_id] = (
            self.transition_counts.get(node_id, 0) + 1
        )

    def total_transitions(self) -> int:
        """Total in-simulation transitions across all nodes."""
        return sum(self.transition_counts.values())

    def validate(self, frequency_hz: float) -> float:
        """Check a frequency against the cluster's operating points."""
        try:
            return self.cluster.operating_points.lookup(
                frequency_hz
            ).frequency_hz
        except ConfigurationError:
            raise
