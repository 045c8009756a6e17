"""Time one workload's in-process set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <des_grid|suite>``.  Prints the
seconds spent on imports and model construction as its last line.
"""

import time

_START = time.perf_counter()

import pathlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


def des_grid() -> None:
    from repro.analytic import AnalyticCampaignModel
    from repro.cluster import paper_spec
    from repro.npb import BENCHMARKS
    from repro.runtime import execute_campaign  # noqa: F401

    spec = paper_spec()
    for name in ("ep", "ft", "lu"):
        AnalyticCampaignModel(BENCHMARKS[name](), spec)


def suite() -> None:
    from repro.experiments.registry import get_experiment, list_experiments
    from repro.pipeline import run_pipeline  # noqa: F401

    for experiment_id, _title, _description in list_experiments():
        get_experiment(experiment_id)


if __name__ == "__main__":
    {"des_grid": des_grid, "suite": suite}[sys.argv[1]]()
    print(time.perf_counter() - _START)
