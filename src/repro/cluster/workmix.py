"""Instruction mixes decomposed by the memory level they touch.

The paper's fine-grain parameterization (§5.2, Table 5) splits a workload
into four instruction categories by where their data lives:

* ``cpu`` — CPU/register instructions (no data-cache access),
* ``l1``  — instructions served by the L1 data cache,
* ``l2``  — instructions served by the L2 cache,
* ``mem`` — instructions that go to main memory (OFF-chip).

The first three are *ON-chip* (their latency scales with the core clock
``f_ON``); ``mem`` is *OFF-chip* (clocked by the memory bus ``f_OFF`` and
insensitive to DVFS).  :class:`InstructionMix` is the common currency
between the workload models (:mod:`repro.npb`), the hardware counters
(:mod:`repro.cluster.counters`) and the analytical model
(:mod:`repro.core.workload`).
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError

__all__ = ["InstructionMix"]


@dataclasses.dataclass(frozen=True, slots=True)
class InstructionMix:
    """Instruction counts per memory level.

    Counts are floats so mixes can be scaled/partitioned exactly (e.g.
    split across ranks); they represent *numbers of instructions*.

    Examples
    --------
    >>> mix = InstructionMix(cpu=100.0, l1=50.0, l2=5.0, mem=2.0)
    >>> mix.total
    157.0
    >>> mix.on_chip
    155.0
    >>> mix.off_chip
    2.0
    """

    cpu: float = 0.0
    l1: float = 0.0
    l2: float = 0.0
    mem: float = 0.0

    #: Field names of the ON-chip categories, in hierarchy order.
    ON_CHIP_LEVELS = ("cpu", "l1", "l2")
    #: Field names of all categories, in hierarchy order.
    LEVELS = ("cpu", "l1", "l2", "mem")

    def __post_init__(self) -> None:
        for name in self.LEVELS:
            value = getattr(self, name)
            if not value >= 0:  # not ``< 0``: NaN must fail too
                raise ConfigurationError(
                    f"instruction count {name}={value} must be non-negative"
                )

    # -- aggregates -----------------------------------------------------

    @property
    def total(self) -> float:
        """Total instruction count ``w`` (all levels)."""
        return self.cpu + self.l1 + self.l2 + self.mem

    @property
    def on_chip(self) -> float:
        """ON-chip instruction count ``w_ON`` (cpu + l1 + l2)."""
        return self.cpu + self.l1 + self.l2

    @property
    def off_chip(self) -> float:
        """OFF-chip instruction count ``w_OFF`` (main-memory accesses)."""
        return self.mem

    @property
    def on_chip_fraction(self) -> float:
        """``w_ON / w`` — the paper reports 98.8 % for LU (Table 5)."""
        total = self.total
        return self.on_chip / total if total > 0 else 0.0

    def on_chip_weights(self) -> dict[str, float]:
        """Fraction of the ON-chip workload at each ON-chip level.

        These are the weights the fine-grain parameterization uses to
        average per-level latencies into a single ``CPI_ON`` (paper §5.2
        step 2: 44.66 % CPU/register, 53.89 % L1, 1.45 % L2 for LU).
        """
        on = self.on_chip
        if on <= 0:
            return {name: 0.0 for name in self.ON_CHIP_LEVELS}
        return {name: getattr(self, name) / on for name in self.ON_CHIP_LEVELS}

    def as_dict(self) -> dict[str, float]:
        """Counts per level, as a plain dict."""
        return {name: getattr(self, name) for name in self.LEVELS}

    # -- arithmetic -------------------------------------------------------

    def scaled(self, factor: float) -> "InstructionMix":
        """A mix with every count multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise ConfigurationError(f"scale factor must be >= 0: {factor}")
        return InstructionMix(
            cpu=self.cpu * factor,
            l1=self.l1 * factor,
            l2=self.l2 * factor,
            mem=self.mem * factor,
        )

    def __add__(self, other: "InstructionMix") -> "InstructionMix":
        if not isinstance(other, InstructionMix):
            return NotImplemented
        return InstructionMix(
            cpu=self.cpu + other.cpu,
            l1=self.l1 + other.l1,
            l2=self.l2 + other.l2,
            mem=self.mem + other.mem,
        )

    def __radd__(self, other: object) -> "InstructionMix":
        # Support sum([...]) which starts from 0.
        if other == 0:
            return self
        return NotImplemented  # type: ignore[return-value]

    @classmethod
    def zero(cls) -> "InstructionMix":
        """The empty mix."""
        return cls()

    @classmethod
    def from_fractions(
        cls,
        total: float,
        *,
        cpu: float,
        l1: float,
        l2: float,
        mem: float,
    ) -> "InstructionMix":
        """Build a mix from a total count and per-level fractions.

        The fractions must sum to 1 (within 1e-9).
        """
        s = cpu + l1 + l2 + mem
        if abs(s - 1.0) > 1e-9:
            raise ConfigurationError(f"fractions must sum to 1, got {s}")
        if total < 0:
            raise ConfigurationError(f"total must be >= 0: {total}")
        return cls(
            cpu=total * cpu, l1=total * l1, l2=total * l2, mem=total * mem
        )
