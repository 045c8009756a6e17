#!/usr/bin/env python
"""DVS scheduling: save energy by slowing down communication phases.

The paper's opening context: power-aware clusters can conserve >30 %
energy with minimal performance loss by lowering processor frequency
during communication-bound phases identified by a-priori profiling.
This example reproduces that whole workflow:

1. run FT once with tracing and profile its phases,
2. build a profile-driven policy (comm-bound phases → 600 MHz,
   everything else → 1400 MHz),
3. run it and static peak through the governor (``govern_run``) and
   report energy/time/EDP.

It also demonstrates why the profile matters: the same policy applied
to compute-bound EP buys nothing.

Run:  python examples/dvfs_scheduling.py
"""

from repro import EPBenchmark, FTBenchmark, paper_spec
from repro.governor import CommBoundPolicy
from repro.proftools import profile_benchmark
from repro.reporting import format_rows
from repro.sched import evaluate_policy


def main() -> None:
    spec = paper_spec()
    ops = spec.cpu.operating_points

    rows = []
    for benchmark, n_ranks in [
        (FTBenchmark(), 8),
        (FTBenchmark(), 16),
        (EPBenchmark(), 16),
    ]:
        # 1. profile one traced run at peak frequency.
        profile = profile_benchmark(
            benchmark, n_ranks, frequency_hz=ops.peak.frequency_hz
        )
        comm_fraction = profile.total_comm_fraction()

        # 2. policy: throttle phases that are >50 % communication.
        policy = CommBoundPolicy(profile, ops, threshold=0.5)

        # 3. evaluate against the static-peak baseline.
        evaluation = evaluate_policy(benchmark, n_ranks, policy)
        rows.append(
            [
                f"{benchmark.name.upper()} x{n_ranks}",
                f"{comm_fraction:.0%}",
                ", ".join(policy.throttled_phases) or "(none)",
                f"{evaluation.energy_savings:+.1%}",
                f"{evaluation.slowdown:+.2%}",
                f"{evaluation.edp_improvement:+.1%}",
            ]
        )

    print(
        format_rows(
            [
                "job",
                "comm share",
                "throttled phases",
                "energy",
                "time",
                "EDP",
            ],
            rows,
            title=(
                "Profile-driven DVS scheduling vs static "
                f"{ops.peak.frequency_mhz:.0f} MHz "
                "(energy/EDP: % saved; time: % slower)"
            ),
        )
    )
    print(
        "\nFT's all-to-all transposes busy-wait the CPU; dropping to "
        f"{ops.base.frequency_mhz:.0f} MHz there trades ~2% time for "
        ">30% energy.  EP has nothing to throttle."
    )


if __name__ == "__main__":
    main()
