"""``suite``: every registered experiment as one analytic pipeline plan.

One pass runs all experiments through :func:`repro.pipeline.run_pipeline`
with ``backend="analytic"`` and ``jobs=1`` twice: cold, on a fresh
disk-cache directory it fills, then warm, after the memory tiers are
cleared, reading that disk tier back.  The planner, the analytic kernels,
the disk cache, the ``core`` fits and the governor/scheduler analyze
stages do the work; no grid is simulated.  The seed fixes the order the
experiments enter the plan, which must not change any result.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
import typing as _t

from perfbench import common

#: Reference outputs recorded by ``record_expected.py``.
EXPECTED = common.ROOT / "perfbench" / "expected.json"

#: Analyze stages of the experiments built on the ``sched`` package.
SCHED_EXPERIMENTS = ("dvfs_savings", "slack_savings", "predictive_scheduling")

#: A pass runs in one thread, so the host clock samples in that thread,
#: on a timer signal, instead of from a thread of its own.
SIGNAL_TIMER = True


def experiment_ids() -> list[str]:
    from repro.experiments.registry import list_experiments

    return [experiment_id for experiment_id, _title, _text in list_experiments()]


def inputs(seed: int, ids: _t.Sequence[str]) -> list[str]:
    """The seeded order the experiments enter the plan."""
    order = sorted(ids)
    random.Random(seed).shuffle(order)
    return order


def document_digest(result: _t.Any) -> str:
    """Digest of an experiment's JSON export (floats round-trip exactly)."""
    text = json.dumps(result.document(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _clear_memory_tiers() -> None:
    """Drop the in-process campaign and cell caches, keeping the disk tier.

    ``clear_campaign_cache`` also empties the configured disk tier, so it
    runs while the disk tier is switched off and points elsewhere.
    """
    from repro import runtime
    from repro.experiments.platform import clear_campaign_cache
    from repro.pipeline import clear_cell_index

    cache_dir = runtime.cache_dir()
    runtime.configure(disk_cache=False, cache_dir=common.WORK / "no-such-cache")
    try:
        clear_campaign_cache()
    finally:
        runtime.configure(disk_cache=True, cache_dir=cache_dir)
    clear_cell_index()


class Suite:
    """Runs and checks cold/warm passes over the whole experiment registry."""

    def __init__(self, order: _t.Sequence[str], clock: _t.Any) -> None:
        from repro import runtime
        from repro.experiments.registry import get_experiment

        self.order = list(order)
        self.clock = clock
        self.specs = [get_experiment(i) for i in self.order]
        with open(EXPECTED) as handle:
            self.expected = json.load(handle)["suite_digests"]
        self.errors: list[str] = []
        self.passes = 0
        runtime.configure(backend="analytic", jobs=1, fabric=False)

    def _run(self) -> dict[str, _t.Any]:
        from repro.pipeline import ArtifactStore, run_pipeline

        store = ArtifactStore()
        start = time.perf_counter()
        results, report = run_pipeline(self.specs, store=store, jobs=1)
        end = time.perf_counter()
        return {
            "wall_s": end - start - self.clock.paused_seconds(start, end),
            "scale": self.clock.reference(1.0, start, end),
            "results": results,
            "plan": report,
            "store": store,
        }

    def run_pass(self) -> dict[str, _t.Any]:
        """A cold pass into a fresh disk tier, then a warm pass reading it."""
        from repro import runtime

        cache = common.WORK / f"suite-cache-{os.getpid()}-{self.passes}"
        self.passes += 1
        shutil.rmtree(cache, ignore_errors=True)
        runtime.configure(disk_cache=True, cache_dir=cache)
        _clear_memory_tiers()
        try:
            cold = self._run()
            _clear_memory_tiers()
            warm = self._run()
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return {"cold": cold, "warm": warm}

    def check(self, suite_pass: dict[str, _t.Any]) -> tuple[int, int]:
        """(attempted, failed): each experiment result of each half-pass."""
        attempted = failed = 0
        for half in ("cold", "warm"):
            for experiment_id, result in suite_pass[half]["results"].items():
                attempted += 1
                if document_digest(result) != self.expected.get(experiment_id):
                    failed += 1
                    self.errors.append(f"{half} {experiment_id}: digest changed")
        if suite_pass["warm"]["plan"].executed_cells:
            failed += 1
            self.errors.append("warm pass executed cells instead of reading disk")
        return attempted, failed


def experiment_seconds(store: _t.Any, experiment_id: str) -> float:
    """Wall time of one experiment's own stages (fit, analyze, render)."""
    return sum(
        store.get(name).provenance.wall_s
        for name in store.names()
        if name.startswith(experiment_id + "/")
    )


def stage_seconds(store: _t.Any, stage: str, ids: _t.Iterable[str]) -> float:
    total = 0.0
    for experiment_id in ids:
        artifact = store.get(f"{experiment_id}/{stage}")
        if artifact is not None:
            total += artifact.provenance.wall_s
    return total


def run(seed: int, seconds: float, trace: bool, clock: _t.Any) -> dict[str, _t.Any]:
    suite = Suite(inputs(seed, experiment_ids()), clock)
    if trace:
        return _traced(suite)
    setup = common.setup_seconds("suite")
    # Only numbers are kept from each pass, so memory does not grow with
    # the number of passes that fit in the run.
    cold: list[float] = []
    warm: list[float] = []
    wall: list[float] = []
    op_ms: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    last_s = 0.0
    while not wall or time.perf_counter() - start + last_s <= seconds:
        began = time.perf_counter()
        suite_pass = suite.run_pass()
        last_s = time.perf_counter() - began
        a, f = suite.check(suite_pass)
        attempted += a
        failed += f
        cold.append(_reference(suite_pass["cold"]))
        warm.append(_reference(suite_pass["warm"]))
        wall.append(_pass_wall(suite_pass))
        op_ms += [
            1e3
            * experiment_seconds(suite_pass[half]["store"], experiment_id)
            * suite_pass[half]["scale"]
            for half in ("cold", "warm")
            for experiment_id in suite.order
        ]
        del suite_pass
    peak_rss = common.tree_peak_rss_mb(os.getpid())
    pass_s = [c + w for c, w in zip(cold, warm)]
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": suite.errors,
        "e2e": {
            "setup_s": common.median(setup),
            "peak_rss_mb": peak_rss,
            "pass_s": common.median(pass_s),
        },
        "report": {
            "setup_s": ("s", common.median(setup), len(setup)),
            "peak_rss_mb": ("MB", peak_rss, 1),
            "error_rate": ("ratio", failed / attempted, attempted),
            "suite_cold_s": ("s", common.median(cold), len(cold)),
            "suite_warm_s": ("s", common.median(warm), len(warm)),
            "suite_wall_s": ("s", common.median(wall), len(wall)),
            "experiment_p50_ms": ("ms", common.median(op_ms), len(op_ms)),
            "experiment_p90_ms": ("ms", common.percentile(op_ms, 90.0), len(op_ms)),
        },
    }


def _pass_wall(suite_pass: dict[str, _t.Any]) -> float:
    return suite_pass["cold"]["wall_s"] + suite_pass["warm"]["wall_s"]


def _reference(half: dict[str, _t.Any]) -> float:
    return half["wall_s"] * half["scale"]


def _reference_pass(suite_pass: dict[str, _t.Any]) -> float:
    return _reference(suite_pass["cold"]) + _reference(suite_pass["warm"])


def _traced(suite: Suite) -> dict[str, _t.Any]:
    from perfbench import spans

    reference = suite.run_pass()
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        traced = suite.run_pass()
    finally:
        restore()
    attempted = failed = 0
    for suite_pass in (reference, traced):
        a, f = suite.check(suite_pass)
        attempted += a
        failed += f
    layers = spans.layer_metrics(recorder.spans)
    stores = [traced["cold"]["store"], traced["warm"]["store"]]
    for stage in ("fit", "analyze", "render"):
        layers[f"pipeline.{stage}_s"] = sum(
            stage_seconds(store, stage, suite.order) for store in stores
        )
    layers["sched.analyze_s"] = sum(
        stage_seconds(store, "analyze", SCHED_EXPERIMENTS) for store in stores
    )
    untraced_s = _reference_pass(reference)
    overhead = _reference_pass(traced) - untraced_s
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": suite.errors,
        "layers": layers,
        "overhead_s": overhead,
        "overhead_pct": 100.0 * overhead / untraced_s,
        "recorder": recorder,
    }
