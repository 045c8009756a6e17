"""Measurement toolset substrate.

The paper's methodology leans on three measurement tools, each of which
is reproduced here against the simulated cluster:

* :mod:`~repro.proftools.papi` — PAPI-style hardware-counter sessions,
  including the real-world constraint that only a few events can be
  counted per run (so characterization takes multiple runs, as the
  paper notes).
* :mod:`~repro.proftools.lmbench` — LMBENCH-style memory-level latency
  probes isolating seconds-per-instruction for CPU/L1/L2/memory work at
  every frequency (Table 6's upper rows).
* :mod:`~repro.proftools.mpptest` — MPPTEST-style message timing across
  sizes and frequencies (Table 6's lower rows).
* :mod:`~repro.proftools.profiler` — per-phase time/energy profiling of
  full runs, the input to DVS scheduling
  (:class:`~repro.governor.policies.CommBoundPolicy`).
"""

from repro.proftools.lmbench import LevelLatencyProbe
from repro.proftools.mpptest import MessageTimeTable, MppTest
from repro.proftools.msgprofile import (
    MessageProfileReport,
    measure_message_profile,
)
from repro.proftools.papi import PapiSession, counter_campaign
from repro.proftools.profiler import PhaseProfile, profile_benchmark

__all__ = [
    "PapiSession",
    "counter_campaign",
    "LevelLatencyProbe",
    "MppTest",
    "MessageTimeTable",
    "PhaseProfile",
    "profile_benchmark",
    "MessageProfileReport",
    "measure_message_profile",
]
