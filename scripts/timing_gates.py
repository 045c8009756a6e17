"""Wall-time gates for CI.

Times a few operations in this process and prints one line per gate:
its name, the measured value and the budget.  Exits 1 if any value
misses its budget.  Writes no file: every campaign here bypasses the
disk cache.

* ``analytic_grids_ms``: every validated paper grid evaluated cold by
  the analytic backend (model build plus ``evaluate_grid``, best of
  5 per benchmark, summed).
* ``speedup_vs_des[<benchmark>]``: the same grid simulated cold by
  the discrete-event simulator, divided by its analytic time.
* ``optimizer_sweep_s``: 18 configuration searches (EP and FT, three
  cap scenarios, three objectives), the EP energy winner under the
  cluster cap confirmed by the simulator.
* ``fleet_1x2_cells_per_s``: one in-thread fabric worker with a
  2-process pool runs the EP.S scaling grid (best of 3); it must beat
  the same worker with one process.  Hosts with a single CPU skip
  this gate, since a second process there only adds overhead.

Usage::

    PYTHONPATH=src python scripts/timing_gates.py
"""

from __future__ import annotations

import operator
import os
import sys
import threading
import time

from repro import runtime
from repro.analytic import AnalyticCampaignModel, validated_benchmarks
from repro.cluster import paper_spec
from repro.experiments.platform import (
    PAPER_COUNTS,
    PAPER_FREQUENCIES,
    measure_campaign,
)
from repro.fabric.worker import FabricWorker
from repro.governor import power_cap_scenarios
from repro.npb import BENCHMARKS, EPBenchmark, ProblemClass
from repro.optimizer import OBJECTIVES, optimize
from repro.service.server import ServiceConfig, ServiceThread
from repro.units import mhz

ANALYTIC_BUDGET_MS = 100.0
MIN_SPEEDUP_VS_DES = 100.0
OPTIMIZER_BUDGET_S = 5.0

#: The fleet gate's DES grid: node counts large enough that a cell
#: (tens of ms) outweighs the lease protocol.
FLEET_COUNTS = (4, 8, 16, 24, 32)
FLEET_FREQUENCIES = tuple(mhz(f) for f in (600, 800, 1000, 1200, 1400))

_COMPARE = {"<": operator.lt, ">=": operator.ge, ">": operator.gt}


def gate(name: str, value: float, op: str, budget: float) -> bool:
    """Print one gate's verdict; true when ``value op budget`` holds."""
    ok = _COMPARE[op](value, budget)
    print(
        f"[timing gate] {'ok' if ok else 'MISS'}: {name} = {value:.4g} "
        f"(budget {op} {budget:.4g})"
    )
    return ok


def analytic_cold_s(name: str) -> float:
    start = time.perf_counter()
    AnalyticCampaignModel(BENCHMARKS[name]()).evaluate_grid(
        PAPER_COUNTS, PAPER_FREQUENCIES
    )
    return time.perf_counter() - start


def des_cold_s(name: str) -> float:
    start = time.perf_counter()
    runtime.execute_campaign(
        BENCHMARKS[name](),
        PAPER_COUNTS,
        PAPER_FREQUENCIES,
        paper_spec(),
        backend="des",
    )
    return time.perf_counter() - start


def optimizer_sweep_s() -> float:
    scenarios = power_cap_scenarios(max(PAPER_COUNTS))
    start = time.perf_counter()
    for name in ("ep", "ft"):
        for label in ("uncapped", "cluster_cap", "node_cap"):
            for objective in OBJECTIVES:
                optimize(
                    name,
                    "A",
                    objective=objective,
                    cap=scenarios[label],
                    confirm=(name, label, objective)
                    == ("ep", "cluster_cap", "energy"),
                    use_cache=False,
                )
    return time.perf_counter() - start


def fleet_cells_per_s(procs: int) -> float:
    """One worker with a ``procs``-wide pool runs the scaling grid."""
    config = ServiceConfig(
        port=0,
        fabric_lease_ttl_s=2.0,
        fabric_heartbeat_s=0.2,
        housekeeping_s=0.2,
    )
    with ServiceThread(config) as served:
        worker = FabricWorker(
            port=served.port, name="gate", kill_mode="stop", procs=procs
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 15.0
            while served.service.coordinator.live_workers() < 1:
                if time.monotonic() > deadline:
                    raise RuntimeError("fleet worker not live within 15 s")
                time.sleep(0.01)
            start = time.perf_counter()
            measure_campaign(
                EPBenchmark(ProblemClass.S),
                FLEET_COUNTS,
                FLEET_FREQUENCIES,
                use_cache=False,
                jobs=1,
                fabric=True,
            )
            wall = time.perf_counter() - start
        finally:
            worker.stop()
            thread.join(timeout=10.0)
    return len(FLEET_COUNTS) * len(FLEET_FREQUENCIES) / wall


def main() -> int:
    oks = []
    analytic = {
        name: min(analytic_cold_s(name) for _ in range(5))
        for name in validated_benchmarks()
    }
    oks.append(
        gate(
            "analytic_grids_ms",
            1e3 * sum(analytic.values()),
            "<",
            ANALYTIC_BUDGET_MS,
        )
    )
    for name, analytic_s in analytic.items():
        oks.append(
            gate(
                f"speedup_vs_des[{name}]",
                des_cold_s(name) / analytic_s,
                ">=",
                MIN_SPEEDUP_VS_DES,
            )
        )
    oks.append(
        gate("optimizer_sweep_s", optimizer_sweep_s(), "<", OPTIMIZER_BUDGET_S)
    )
    if (os.cpu_count() or 1) >= 2:
        one, two = (
            max(fleet_cells_per_s(procs) for _ in range(3))
            for procs in (1, 2)
        )
        oks.append(gate("fleet_1x2_cells_per_s", two, ">", one))
    else:
        print("[timing gate] skip: fleet_1x2_cells_per_s (one CPU)")
    return 0 if all(oks) else 1


if __name__ == "__main__":
    sys.exit(main())
