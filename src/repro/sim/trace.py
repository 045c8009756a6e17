"""Structured tracing of simulated activity.

The phase profiler (:mod:`repro.proftools.profiler`), whose profiles
drive the open-loop DVS policy
:class:`~repro.governor.policies.CommBoundPolicy`, needs a timeline of
*what each node was doing when*: computing, waiting in a collective,
moving bytes.  :class:`Tracer` collects :class:`TraceRecord` entries and
offers simple aggregation queries (total time per category, per node,
per phase).

Records are intervals ``[start, end)`` labelled with a ``category``
(e.g. ``"compute"``, ``"comm"``, ``"wait"``), the node/rank they belong
to, and the benchmark ``phase`` that was active.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

__all__ = ["TraceRecord", "Tracer"]


@dataclasses.dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced interval of simulated activity."""

    start: float
    end: float
    category: str
    rank: int
    phase: str = ""
    detail: _t.Any = None

    @property
    def duration(self) -> float:
        """Length of the interval in simulated seconds."""
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"trace interval ends before it starts: {self.start}..{self.end}"
            )


class Tracer:
    """Collects trace records and answers aggregate queries.

    Tracing is optional everywhere in the library: components accept an
    optional tracer and skip recording when it is ``None``.  A disabled
    tracer therefore costs one ``is None`` test per interval.
    """

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []

    def record(
        self,
        start: float,
        end: float,
        category: str,
        rank: int,
        phase: str = "",
        detail: _t.Any = None,
    ) -> None:
        """Append one interval record."""
        self._records.append(
            TraceRecord(start, end, category, rank, phase, detail)
        )

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """All records, in insertion order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop all records."""
        self._records.clear()

    # -- aggregation ----------------------------------------------------

    def total_time(
        self,
        category: str | None = None,
        rank: int | None = None,
        phase: str | None = None,
    ) -> float:
        """Sum of durations of records matching the given filters."""
        return sum(r.duration for r in self.iter(category, rank, phase))

    def iter(
        self,
        category: str | None = None,
        rank: int | None = None,
        phase: str | None = None,
    ) -> _t.Iterator[TraceRecord]:
        """Iterate over records matching the given filters."""
        for r in self._records:
            if category is not None and r.category != category:
                continue
            if rank is not None and r.rank != rank:
                continue
            if phase is not None and r.phase != phase:
                continue
            yield r

    def by_category(self, rank: int | None = None) -> dict[str, float]:
        """Total traced time per category (optionally for one rank)."""
        out: dict[str, float] = collections.defaultdict(float)
        for r in self.iter(rank=rank):
            out[r.category] += r.duration
        return dict(out)

    def by_phase(self, rank: int | None = None) -> dict[str, float]:
        """Total traced time per benchmark phase."""
        out: dict[str, float] = collections.defaultdict(float)
        for r in self.iter(rank=rank):
            out[r.phase] += r.duration
        return dict(out)

    def phases(self) -> tuple[str, ...]:
        """Distinct phase labels in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self._records:
            seen.setdefault(r.phase, None)
        return tuple(seen)

    def span(self) -> tuple[float, float]:
        """``(earliest start, latest end)`` over all records."""
        if not self._records:
            return (0.0, 0.0)
        return (
            min(r.start for r in self._records),
            max(r.end for r in self._records),
        )
