"""Record the reference outputs the benchmark checks runs against.

Usage, from the repository root: ``python3 perfbench/record_expected.py``.
Writes ``perfbench/expected.json``: the digest of every experiment's
analytic-backend result document, and the simulated totals (events,
messages, bytes, simulated seconds and joules) of one traced ``des_grid``
and ``suite`` pass.  Re-record only on purpose, when a change is meant
to alter results; a speed-only change must leave them identical.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import common, des_grid, spans, suite  # noqa: E402
from perfbench.hostclock import HostClock  # noqa: E402
from perfbench.run import SIMULATED  # noqa: E402


def traced_totals(run_pass) -> dict:
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        run_pass()
    finally:
        restore()
    layers = spans.layer_metrics(recorder.spans)
    return {key: layers[key] for key in SIMULATED}


def main() -> None:
    from repro import runtime
    from repro.experiments.registry import get_experiment
    from repro.pipeline import run_pipeline

    common.WORK.mkdir(exist_ok=True)
    order = sorted(suite.experiment_ids())
    runtime.configure(
        backend="analytic", jobs=1, fabric=False, disk_cache=False
    )
    results, _plan = run_pipeline([get_experiment(i) for i in order], jobs=1)
    expected = {
        "suite_digests": {
            i: suite.document_digest(results[i]) for i in order
        },
        "simulated": {},
    }
    suite.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    with HostClock() as clock:
        expected["simulated"]["suite"] = traced_totals(
            suite.Suite(order, clock).run_pass
        )
        grid = des_grid.Grid(des_grid.BENCHMARKS, clock)
        expected["simulated"]["des_grid"] = traced_totals(
            lambda: grid.run_pass(jobs=1)
        )
    suite.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
