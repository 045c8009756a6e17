"""``des_grid``: cold EP, FT and LU class-A paper grids under the DES.

One pass runs the three 5 x 5 (processor count x frequency) paper grids
through :func:`repro.runtime.execute_campaign` with ``backend="des"``,
no cache tiers and one worker per CPU.  The simulator, MPI layer,
cluster model, NPB programs and the runner's pool do nearly all the
work; the pipeline, analytic backend and service do none.  The seed
only fixes the order the three grids run in: the paper grid is the
input, and every cell result must not depend on order.
"""

from __future__ import annotations

import importlib.util
import os
import random
import time
import typing as _t

from perfbench import common

BENCHMARKS = ("ep", "ft", "lu")


def inputs(seed: int) -> list[str]:
    """The seeded order the grids run in."""
    order = list(BENCHMARKS)
    random.Random(seed).shuffle(order)
    return order


def golden_cells() -> dict[tuple[str, int, float], tuple[float, float]]:
    """The pinned (elapsed_s, energy_j) cells of the repository's tests."""
    path = common.ROOT / "tests" / "runtime" / "test_golden_cells.py"
    spec = importlib.util.spec_from_file_location("_golden_cells", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.GOLDEN_CELLS)


class Grid:
    """Runs and checks passes over the paper grids."""

    def __init__(self, order: _t.Sequence[str], clock: _t.Any) -> None:
        from repro.analytic import (
            ENERGY_TOLERANCE,
            TIME_TOLERANCE,
            AnalyticCampaignModel,
        )
        from repro.cluster import paper_spec
        from repro.experiments.platform import PAPER_COUNTS, PAPER_FREQUENCIES
        from repro.npb import BENCHMARKS as MODELS

        self.order = list(order)
        self.clock = clock
        self.spec = paper_spec()
        self.counts = PAPER_COUNTS
        self.frequencies = PAPER_FREQUENCIES
        self.models = {name: MODELS[name]() for name in self.order}
        self.analytic = {
            name: AnalyticCampaignModel(self.models[name], self.spec)
            for name in self.order
        }
        self.time_tolerance = TIME_TOLERANCE
        self.energy_tolerance = ENERGY_TOLERANCE
        self.golden = golden_cells()
        self.errors: list[str] = []

    def run_pass(self, jobs: int) -> dict[str, _t.Any]:
        """One cold pass: wall time, each grid's execution and CPU steal."""
        from repro.errors import CampaignExecutionError
        from repro.runtime import execute_campaign

        executions = {}
        start = time.perf_counter()
        for name in self.order:
            try:
                executions[name] = execute_campaign(
                    self.models[name],
                    self.counts,
                    self.frequencies,
                    self.spec,
                    jobs=jobs,
                    backend="des",
                    fabric=False,
                )
            except CampaignExecutionError as error:
                executions[name] = None
                self.errors.append(f"{name}: {error}")
        end = time.perf_counter()
        return {
            "wall_s": end - start,
            "executions": executions,
            "scale": self.clock.reference(1.0, start, end),
        }

    def check(self, grid_pass: dict[str, _t.Any]) -> dict[str, _t.Any]:
        """Golden cells, analytic tolerances and SP accuracy of one pass."""
        from repro.core.measurements import TimingCampaign
        from repro.core.params_sp import SimplifiedParameterization

        cells = [(n, f) for n in self.counts for f in self.frequencies]
        failed: set[tuple[str, int, float]] = set()
        analytic_err = sp_err = 0.0
        sp_cells = 0
        for name in self.order:
            execution = grid_pass["executions"][name]
            if execution is None or len(execution.times) != len(cells):
                failed.update((name, n, f) for n, f in cells)
                continue
            times, energies = execution.times, execution.energies
            for (bench, n, f), (elapsed, energy) in self.golden.items():
                if bench == name and (times[(n, f)], energies[(n, f)]) != (
                    elapsed,
                    energy,
                ):
                    failed.add((name, n, f))
                    self.errors.append(f"golden cell {name} {n}@{f:.0f} moved")
            evaluation = self.analytic[name].evaluate_cells(cells)
            predicted_t = evaluation.times_by_cell()
            predicted_e = evaluation.energies_by_cell()
            for cell in cells:
                t_err = abs(predicted_t[cell] - times[cell]) / times[cell]
                e_err = abs(predicted_e[cell] - energies[cell]) / energies[cell]
                analytic_err = max(analytic_err, t_err)
                if (
                    t_err > self.time_tolerance[name]
                    or e_err > self.energy_tolerance[name]
                ):
                    failed.add((name, *cell))
                    self.errors.append(
                        f"analytic {name} {cell} outside tolerance"
                    )
            base_f = min(self.frequencies)
            sp = SimplifiedParameterization(
                TimingCampaign(
                    times=times,
                    base_frequency_hz=base_f,
                    energies=energies,
                    label=name,
                )
            )
            for n, f in cells:
                if n != 1 and f != base_f:
                    sp_cells += 1
                    predicted = sp.predict_time(n, f)
                    measured = times[(n, f)]
                    sp_err = max(sp_err, abs(predicted - measured) / measured)
        return {
            "attempted": len(cells) * len(self.order),
            "failed": len(failed),
            "analytic_err_pct": 100.0 * analytic_err,
            "sp_err_pct": 100.0 * sp_err,
            "sp_cells": sp_cells,
        }


def reference_seconds(grid_pass: dict[str, _t.Any]) -> float:
    """The pass's wall time in reference seconds."""
    return grid_pass["wall_s"] * grid_pass["scale"]


def _cell_seconds(grid_pass: dict[str, _t.Any]) -> list[float]:
    """Each cell's simulation time in reference seconds."""
    return [
        s * grid_pass["scale"]
        for execution in grid_pass["executions"].values()
        if execution is not None
        for s in execution.cell_wall_s
    ]


def run(seed: int, seconds: float, trace: bool, clock: _t.Any) -> dict[str, _t.Any]:
    from repro.runtime import shutdown_executor

    grid = Grid(inputs(seed), clock)
    if trace:
        return _traced(grid)
    setup = common.setup_seconds("des_grid")

    jobs = common.nproc()
    passes: list[dict[str, _t.Any]] = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + passes[-1]["wall_s"] <= seconds
    ):
        passes.append(grid.run_pass(jobs))
    peak_rss = common.tree_peak_rss_mb(os.getpid())
    shutdown_executor(wait=True)

    checks = [grid.check(p) for p in passes]
    pass_s = [reference_seconds(p) for p in passes]
    wall_s = [p["wall_s"] for p in passes]
    cell_ms = [1e3 * s for p in passes for s in _cell_seconds(p)]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": grid.errors,
        "e2e": {
            "setup_s": common.median(setup),
            "peak_rss_mb": peak_rss,
            "pass_s": common.median(pass_s),
        },
        "report": {
            "setup_s": ("s", common.median(setup), len(setup)),
            "peak_rss_mb": ("MB", peak_rss, 1),
            "error_rate": ("ratio", failed / attempted, attempted),
            "grid_s": ("s", common.median(pass_s), len(pass_s)),
            "grid_wall_s": ("s", common.median(wall_s), len(wall_s)),
            "analytic_err_pct": (
                "%",
                max(c["analytic_err_pct"] for c in checks),
                len(checks) * 75,
            ),
            "sp_err_pct": (
                "%",
                max(c["sp_err_pct"] for c in checks),
                sum(c["sp_cells"] for c in checks),
            ),
            "cell_p50_ms": ("ms", common.median(cell_ms), len(cell_ms)),
            "cell_p90_ms": ("ms", common.percentile(cell_ms, 90.0), len(cell_ms)),
        },
    }


def _traced(grid: Grid) -> dict[str, _t.Any]:
    """An untraced and a traced pass, both in-process so spans see every cell."""
    from perfbench import spans

    reference = grid.run_pass(jobs=1)
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        traced = grid.run_pass(jobs=1)
    finally:
        restore()
    checks = [grid.check(reference), grid.check(traced)]
    layers = spans.layer_metrics(recorder.spans)
    layers["analytic.des_err_pct"] = checks[1]["analytic_err_pct"]
    layers["core.sp_err_pct"] = checks[1]["sp_err_pct"]
    untraced_s = reference_seconds(reference)
    overhead = reference_seconds(traced) - untraced_s
    return {
        "attempted": sum(c["attempted"] for c in checks),
        "failed": sum(c["failed"] for c in checks),
        "errors": grid.errors,
        "layers": layers,
        "overhead_s": overhead,
        "overhead_pct": 100.0 * overhead / untraced_s,
        "recorder": recorder,
    }

