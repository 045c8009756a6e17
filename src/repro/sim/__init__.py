"""Discrete-event simulation engine.

A compact, dependency-free process-based discrete-event kernel in the
style of SimPy.  The power-aware cluster (:mod:`repro.cluster`), the
simulated message-passing runtime (:mod:`repro.mpi`) and the NPB workload
models (:mod:`repro.npb`) are all built on this engine.

The central pieces:

* :class:`~repro.sim.engine.Engine` — the event loop and simulated clock.
* :class:`~repro.sim.events.Event` — one-shot triggerable events.
* :class:`~repro.sim.process.Process` — generator-based simulated
  processes which ``yield`` events to wait on them.
* :class:`~repro.sim.trace.Tracer` — structured event tracing used by the
  phase profiler.

Example
-------
>>> from repro.sim import Engine
>>> eng = Engine()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = eng.process(worker(eng, "a", 2.0))
>>> _ = eng.process(worker(eng, "b", 1.0))
>>> eng.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Tracer",
    "TraceRecord",
]
