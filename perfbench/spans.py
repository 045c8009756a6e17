"""Span recording around the program's public calls, and per-layer metrics.

The benchmark does not edit the program: :func:`install` swaps each
traced public callable for a wrapper that records a span (name, start,
end, parent, op id) and a few counts read off the call's arguments and
result.  Spans are held in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
import typing as _t

__all__ = [
    "Recorder",
    "Span",
    "install",
    "layer_metrics",
    "load",
    "summarize",
]


class Span:
    """One timed call; ``attrs`` holds counts taken from the call."""

    __slots__ = ("id", "name", "parent", "op", "start_ns", "end_ns", "attrs")

    def __init__(self, span_id: int, name: str, parent: int | None, op: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start_ns = time.perf_counter_ns()
        self.end_ns = self.start_ns
        self.attrs: dict[str, _t.Any] = {}

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def as_dict(self) -> dict[str, _t.Any]:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            **self.attrs,
        }


class Recorder:
    """Collects spans from any thread; children nest under the open span.

    Spans of one top-level call share its id as their op id.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: _t.Callable,
        args: tuple,
        kwargs: dict,
        after: _t.Callable[[Span, tuple, _t.Any], None] | None,
    ) -> _t.Any:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            span_id,
            name,
            parent.id if parent else None,
            parent.op if parent else span_id,
        )
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)
        if after is not None:
            after(span, args, result)
        return result

    def write(self, path: _t.Any) -> None:
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def _wrap(recorder: Recorder, name: str, fn: _t.Callable, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, after)

    return traced


def _after_run_program(span: Span, args: tuple, result: _t.Any) -> None:
    stats = args[0].engine.stats()
    span.attrs.update(
        events=stats["events_processed"],
        processes=stats["processes_spawned"],
        peak_queue=stats["peak_queue_len"],
        messages=result.message_count,
        bytes=result.bytes_on_wire,
        sim_s=result.elapsed_s,
        joules=result.energy_j,
    )


def _after_execute_cells(span: Span, args: tuple, result: _t.Any) -> None:
    span.attrs.update(
        cells=len(result.times),
        busy_s=math.fsum(result.cell_wall_s),
        max_s=max(result.cell_wall_s, default=0.0),
        jobs=result.jobs,
        retries=result.retry_count,
    )


def _after_execute_plan(span: Span, args: tuple, result: _t.Any) -> None:
    span.attrs.update(
        planned=result.planned_cells,
        executed=result.executed_cells,
        deduped=result.deduped_cells,
    )


def _after_cache_get(span: Span, args: tuple, result: _t.Any) -> None:
    span.attrs["hit"] = result is not None


def _after_evaluate_cells(span: Span, args: tuple, result: _t.Any) -> None:
    span.attrs["cells"] = len(result.cells)


def _after_govern_run(span: Span, args: tuple, result: _t.Any) -> None:
    span.attrs["transitions"] = result.trace.transitions


def _after_optimize(span: Span, args: tuple, result: _t.Any) -> None:
    span.attrs["candidates"] = len(result.candidates)


def _replace_everywhere(original: _t.Callable, replacement: _t.Callable):
    """Rebind every ``repro`` module attribute that names ``original``."""
    sites = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites.append((module, attr, original))
    return sites


def install(recorder: Recorder) -> _t.Callable[[], None]:
    """Trace the program's public calls; returns a function that undoes it."""
    import repro.experiments.registry as registry
    import repro.governor
    import repro.mpi
    import repro.optimizer
    import repro.pipeline
    import repro.runtime
    import repro.sched.evaluation  # noqa: F401 - binds run_program
    import repro.service.server  # noqa: F401
    from repro.analytic import AnalyticCampaignModel
    from repro.cluster.machine import Cluster
    from repro.core.params_sp import SimplifiedParameterization
    from repro.npb.base import BenchmarkModel
    from repro.runtime.diskcache import DiskCache

    registry.list_experiments()  # import every experiment module first
    sites = []
    for cls, attr, name, after in (
        (Cluster, "__init__", "cluster.Cluster", None),
        (BenchmarkModel, "rank_program", "npb.rank_program", None),
        (DiskCache, "get", "diskcache.get", _after_cache_get),
        (DiskCache, "put", "diskcache.put", None),
        (
            AnalyticCampaignModel,
            "evaluate_cells",
            "analytic.evaluate_cells",
            _after_evaluate_cells,
        ),
        (
            SimplifiedParameterization,
            "__init__",
            "core.SimplifiedParameterization",
            None,
        ),
    ):
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(recorder, name, original, after))
        sites.append((cls, attr, original))
    for original, name, after in (
        (repro.mpi.run_program, "mpi.run_program", _after_run_program),
        (
            repro.runtime.execute_cells,
            "runtime.execute_cells",
            _after_execute_cells,
        ),
        (
            repro.pipeline.execute_plan,
            "pipeline.execute_plan",
            _after_execute_plan,
        ),
        (repro.governor.govern_run, "governor.govern_run", _after_govern_run),
        (repro.optimizer.optimize, "optimizer.optimize", _after_optimize),
    ):
        sites.extend(
            _replace_everywhere(
                original, _wrap(recorder, name, original, after)
            )
        )

    def restore() -> None:
        for owner, attr, original in reversed(sites):
            setattr(owner, attr, original)

    return restore


def _self_seconds(spans: _t.Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children run on their parent's thread, one after another, so the
    time they cover is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
    return {
        span.id: max(span.seconds - covered.get(span.id, 0.0), 0.0)
        for span in spans
    }


def summarize(spans: _t.Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds."""
    own = _self_seconds(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span.seconds
        row["self_s"] += own[span.id]
    return table


#: Per-layer metrics read from spans: name -> unit.
SPAN_METRICS = {
    "sim.events": "count",
    "sim.processes": "count",
    "sim.peak_queue": "count",
    "sim.events_per_s": "1/s",
    "mpi.messages": "count",
    "mpi.bytes": "B",
    "mpi.run_program_s": "s",
    "mpi.run_program_self_s": "s",
    "cluster.build_s": "s",
    "cluster.sim_seconds": "s",
    "cluster.sim_joules": "J",
    "npb.program_build_s": "s",
    "runner.cell_busy_s": "s",
    "runner.cell_max_s": "s",
    "runner.pool_efficiency": "ratio",
    "runner.retries": "count",
    "runner.execute_cells_self_s": "s",
    "diskcache.gets": "count",
    "diskcache.hits": "count",
    "diskcache.puts": "count",
    "diskcache.get_s": "s",
    "diskcache.put_s": "s",
    "analytic.cells": "count",
    "analytic.eval_s": "s",
    "pipeline.plan_s": "s",
    "pipeline.plan_self_s": "s",
    "pipeline.planned_cells": "count",
    "pipeline.executed_cells": "count",
    "pipeline.dedup_ratio": "ratio",
    "core.sp_fit_s": "s",
    "governor.runs": "count",
    "governor.run_s": "s",
    "governor.run_self_s": "s",
    "governor.transitions": "count",
    "optimizer.search_s": "s",
    "optimizer.candidates": "count",
}


def layer_metrics(spans: _t.Sequence[Span]) -> dict[str, float]:
    """Every :data:`SPAN_METRICS` value; 0 for a layer the run never entered.

    Simulated quantities (events, messages, bytes, simulated seconds and
    joules) are exact: integer sums, or ``math.fsum`` so that call order
    cannot change the last digit.
    """
    own = _self_seconds(spans)
    by: dict[str, list[Span]] = {}
    for span in spans:
        by.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return math.fsum(s.seconds for s in by.get(name, ()))

    def own_total(name: str) -> float:
        return math.fsum(own[s.id] for s in by.get(name, ()))

    def attr_sum(name: str, key: str) -> _t.Any:
        values = [s.attrs.get(key, 0) for s in by.get(name, ())]
        if all(isinstance(v, int) for v in values):
            return sum(values)
        return math.fsum(values)

    programs = by.get("mpi.run_program", ())
    events = attr_sum("mpi.run_program", "events")
    program_s = total("mpi.run_program")
    cells = [s for s in by.get("runtime.execute_cells", ()) if s.attrs["cells"]]
    busy = attr_sum("runtime.execute_cells", "busy_s")
    capacity = math.fsum(s.seconds * s.attrs["jobs"] for s in cells)
    planned = attr_sum("pipeline.execute_plan", "planned")
    return {
        "sim.events": events,
        "sim.processes": attr_sum("mpi.run_program", "processes"),
        "sim.peak_queue": max(
            (s.attrs["peak_queue"] for s in programs), default=0
        ),
        "sim.events_per_s": events / program_s if program_s else 0.0,
        "mpi.messages": attr_sum("mpi.run_program", "messages"),
        "mpi.bytes": attr_sum("mpi.run_program", "bytes"),
        "mpi.run_program_s": program_s,
        "mpi.run_program_self_s": own_total("mpi.run_program"),
        "cluster.build_s": total("cluster.Cluster"),
        "cluster.sim_seconds": attr_sum("mpi.run_program", "sim_s"),
        "cluster.sim_joules": attr_sum("mpi.run_program", "joules"),
        "npb.program_build_s": total("npb.rank_program"),
        "runner.cell_busy_s": busy,
        "runner.cell_max_s": max(
            (s.attrs["max_s"] for s in cells), default=0.0
        ),
        "runner.pool_efficiency": busy / capacity if capacity else 0.0,
        "runner.retries": attr_sum("runtime.execute_cells", "retries"),
        "runner.execute_cells_self_s": own_total("runtime.execute_cells"),
        "diskcache.gets": len(by.get("diskcache.get", ())),
        "diskcache.hits": sum(
            1 for s in by.get("diskcache.get", ()) if s.attrs["hit"]
        ),
        "diskcache.puts": len(by.get("diskcache.put", ())),
        "diskcache.get_s": total("diskcache.get"),
        "diskcache.put_s": total("diskcache.put"),
        "analytic.cells": attr_sum("analytic.evaluate_cells", "cells"),
        "analytic.eval_s": total("analytic.evaluate_cells"),
        "pipeline.plan_s": total("pipeline.execute_plan"),
        "pipeline.plan_self_s": own_total("pipeline.execute_plan"),
        "pipeline.planned_cells": planned,
        "pipeline.executed_cells": attr_sum("pipeline.execute_plan", "executed"),
        "pipeline.dedup_ratio": (
            attr_sum("pipeline.execute_plan", "deduped") / planned
            if planned
            else 0.0
        ),
        "core.sp_fit_s": total("core.SimplifiedParameterization"),
        "governor.runs": len(by.get("governor.govern_run", ())),
        "governor.run_s": total("governor.govern_run"),
        "governor.run_self_s": own_total("governor.govern_run"),
        "governor.transitions": attr_sum("governor.govern_run", "transitions"),
        "optimizer.search_s": total("optimizer.optimize"),
        "optimizer.candidates": attr_sum("optimizer.optimize", "candidates"),
    }


def load(path: _t.Any) -> list[Span]:
    """Spans written by :meth:`Recorder.write` (e.g. in another process)."""
    with open(path) as handle:
        rows = json.load(handle)
    spans = []
    for row in rows:
        span = Span(row.pop("id"), row.pop("name"), row.pop("parent"), row.pop("op"))
        span.start_ns = row.pop("start_ns")
        span.end_ns = row.pop("end_ns")
        span.attrs = row
        spans.append(span)
    return spans
