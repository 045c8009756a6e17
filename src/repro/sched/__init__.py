"""Evaluation of DVS schedules (the paper's prior-work substrate [15]).

The schedules themselves — lowering the frequency where the CPU is not
the bottleneck — are open-loop policies in :mod:`repro.governor` and
run through :func:`~repro.governor.loop.govern_run`; this package
compares one against a static-frequency baseline.
"""

from repro.sched.evaluation import ScheduleEvaluation, evaluate_policy

__all__ = ["ScheduleEvaluation", "evaluate_policy"]
