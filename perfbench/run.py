"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload {des_grid,suite,service} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records
spans around the program's public calls and reports per-layer metrics
and the tracing overhead.  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report (environment, per-workload metrics with their units and
sample counts, failures, span summary), also written under
``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: End-to-end metrics every workload reports: name -> unit.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s"}

#: Simulated totals a speed-only change must leave bit-identical.
SIMULATED = (
    "sim.events",
    "mpi.messages",
    "mpi.bytes",
    "cluster.sim_seconds",
    "cluster.sim_joules",
)


def per_layer_units() -> dict[str, str]:
    from perfbench import service, spans

    return {
        **spans.SPAN_METRICS,
        "analytic.des_err_pct": "%",
        "core.sp_err_pct": "%",
        "pipeline.fit_s": "s",
        "pipeline.analyze_s": "s",
        "pipeline.render_s": "s",
        "sched.analyze_s": "s",
        **service.SERVICE_METRICS,
        "trace.overhead_s": "s",
        "trace.overhead_pct": "%",
        "trace.spans": "count",
    }


def _guard_simulated(workload: str, layers: dict[str, float]) -> tuple[dict, list[str]]:
    """Compare simulated totals with the ones recorded for this workload."""
    from perfbench.suite import EXPECTED

    with open(EXPECTED) as handle:
        expected = json.load(handle)["simulated"].get(workload)
    measured = {key: layers[key] for key in SIMULATED}
    if expected is None:
        return {"measured": measured}, []
    changed = [key for key in SIMULATED if measured[key] != expected[key]]
    return (
        {"measured": measured, "expected": expected, "changed": changed},
        [f"simulated statistic {key} changed" for key in changed],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("des_grid", "suite", "service")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench import common, spans
    from perfbench.hostclock import HostClock

    common.WORK.mkdir(exist_ok=True)
    env = common.environment()
    workload = importlib.import_module(f"perfbench.{args.workload}")
    with HostClock(getattr(workload, "SIGNAL_TIMER", False)) as clock:
        start = time.perf_counter()
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), clock)
        end = time.perf_counter()
        env["steal_fraction"] = clock.steal_fraction(start, end)
        env["kernel_factor"] = clock.kernel_factor(start, end)
    errors = list(outcome["errors"])
    failed = outcome["failed"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
    }
    if args.trace:
        units = per_layer_units()
        layers = {name: 0 for name in units}
        layers.update(outcome["layers"])
        recorder = outcome["recorder"]
        layers["trace.overhead_s"] = outcome["overhead_s"]
        layers["trace.overhead_pct"] = outcome["overhead_pct"]
        layers["trace.spans"] = len(recorder.spans)
        guard, changed = _guard_simulated(args.workload, layers)
        failed += len(changed)
        errors += changed
        trace_path = common.WORK / f"spans-{stem}.json"
        recorder.write(trace_path)
        report.update(
            simulated=guard,
            spans=spans.summarize(recorder.spans),
            spans_file=str(trace_path.relative_to(ROOT)),
        )
        metrics = {n: {"value": layers[n], "unit": u} for n, u in units.items()}
    else:
        report["metrics"] = {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (unit, value, samples) in outcome["report"].items()
        }
        metrics = {
            n: {"value": outcome["e2e"][n], "unit": u} for n, u in END_TO_END.items()
        }
    report["errors"] = errors[:50]
    result = {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    report["result"] = result
    (common.WORK / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
