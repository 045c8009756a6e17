"""Generator-based simulated processes.

A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.sim.events.Event` objects to wait for them; when a yielded
event triggers, the generator is resumed with the event's value (or the
event's exception is thrown into it, letting simulated code use ordinary
``try``/``except``).  When the generator returns, the process — itself an
event — succeeds with the generator's return value, so processes compose:
one process can ``yield`` another to join it.

A generator may also yield a non-negative ``float`` ``d``: "resume me
``d`` seconds from now".  It is ``yield Timeout(env, d)`` without the
event: the wake-up is one heap entry at the sequence number that
timeout would have taken, so both spellings produce the same schedule.
The simulator's own sleeps (compute, message overheads, DVFS
transitions) use it; :class:`~repro.sim.events.Timeout` stays the
public way to get an event that other code can also wait on.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.errors import ConfigurationError, SimulationError
from repro.sim.events import _RESUME_OK, Event

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

__all__ = ["Process"]


class Process(Event):
    """A running simulated process.

    Do not instantiate directly; use
    :meth:`Engine.process <repro.sim.engine.Engine.process>`.
    """

    __slots__ = ("_generator", "_send", "_throw")

    def __init__(self, env: "Engine", generator: _t.Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        # Inlined Event.__init__ (one Process per message makes this hot).
        self.env = env
        self.callbacks = []
        self._value = Event.PENDING
        self._ok = None
        self._scheduled = False
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        env._live_processes += 1
        env.processes_spawned += 1
        # Kick off the process via an immediately-scheduled resume so
        # that process start order is deterministic and start happens
        # "inside" the simulation rather than in user code.  The direct
        # call (env._schedule_call, inlined) takes the exact queue
        # position a start event would.
        env._seq += 1
        heapq.heappush(
            env._queue, (env._now, env._seq, self._resume, _RESUME_OK)
        )

    @property
    def is_alive(self) -> bool:
        """Whether the process generator has not yet finished."""
        return self._value is Event.PENDING

    def _resume(self, outcome: _t.Any) -> None:
        """Advance the generator with an outcome's ``_ok``/``_value``:
        a processed event's, or the shared start/wake-up outcome."""
        try:
            if outcome._ok:
                target = self._send(outcome._value)
            else:
                target = self._throw(outcome._value)
        except StopIteration as stop:
            self.env._live_processes -= 1
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.env._live_processes -= 1
            self.fail(exc)
            return

        if target.__class__ is float:
            delay = target
        elif isinstance(target, Event):
            if target.env is not self.env:
                self._abort(
                    SimulationError(
                        "process yielded an event from another engine"
                    )
                )
                return
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
                return
            # Already processed: schedule the bound resume directly with
            # the event itself as the outcome, preserving run-to-yield
            # semantics at the exact queue position a relay event would
            # have taken (env._schedule_call, inlined).
            env = self.env
            env._seq += 1
            heapq.heappush(
                env._queue, (env._now, env._seq, self._resume, target)
            )
            return
        elif isinstance(target, float):
            delay = float(target)  # a float subclass, e.g. numpy.float64
        else:
            self._abort(
                SimulationError(
                    f"process yielded {target!r}; processes must yield "
                    "Events or float delays"
                )
            )
            return
        # A bare delay: resume after ``delay`` seconds, pushed where
        # ``Timeout(env, delay)`` would have pushed itself.  Not
        # ``< 0``: NaN must fail too, or it corrupts the heap order.
        if not delay >= 0:
            self._abort(
                ConfigurationError(f"negative timeout delay: {delay!r}")
            )
            return
        env = self.env
        env._seq += 1
        heapq.heappush(
            env._queue, (env._now + delay, env._seq, self._resume, _RESUME_OK)
        )

    def _abort(self, exc: BaseException) -> None:
        """Fail the process over a bad yield, closing its generator."""
        self.env._live_processes -= 1
        try:
            self._generator.close()
        finally:
            self.fail(exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self._generator, "__name__", "process")
        state = "alive" if self.is_alive else "finished"
        return f"<Process {name} {state} at {id(self):#x}>"
