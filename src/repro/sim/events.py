"""Event primitives for the discrete-event engine.

An :class:`Event` is a one-shot occurrence that simulated processes can
wait on.  Events move through three states:

``pending`` → ``triggered`` (scheduled on the engine queue) → ``processed``
(callbacks executed).

Composite events (:class:`AllOf`, :class:`AnyOf`) build synchronization
barriers out of other events; they are what gives the MPI collectives in
:mod:`repro.mpi.collectives` their join semantics.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.errors import ConfigurationError, SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

__all__ = ["Event", "Timeout", "AllOf", "AnyOf"]


class _Outcome:
    """A fixed ``_ok`` / ``_value`` pair for heap entries that resume a
    process without an event: a start, or the end of a bare-delay
    sleep.  :meth:`Process._resume <repro.sim.process.Process._resume>`
    reads an outcome exactly as it reads a processed event."""

    __slots__ = ("_ok", "_value")

    def __init__(self, ok: bool, value: _t.Any) -> None:
        self._ok = ok
        self._value = value


#: The outcome every process start and bare-delay wake-up carries: a
#: success with value ``None``, what a start event or a ``Timeout``
#: built with no value would deliver.
_RESUME_OK = _Outcome(True, None)


def _fire(event: "Event") -> None:
    """Run a processed event's callbacks: the ``fn`` of every event's
    heap entry.  The engine's drain loop inlines this body; keep them
    in sync."""
    callbacks = event.callbacks
    event.callbacks = None
    if callbacks:
        for callback in callbacks:
            callback(event)


class Event:
    """A one-shot occurrence on an :class:`~repro.sim.engine.Engine`.

    Parameters
    ----------
    env:
        The engine this event belongs to.

    Attributes
    ----------
    callbacks:
        List of callables invoked (with the event) when the event is
        processed.  ``None`` after processing.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled")

    #: Sentinel for "no value yet".
    PENDING = object()

    def __init__(self, env: "Engine") -> None:
        self.env = env
        self.callbacks: list | None = []
        self._value: _t.Any = Event.PENDING
        self._ok: bool | None = None
        self._scheduled = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has a value and is (or was) on the queue."""
        return self._value is not Event.PENDING

    @property
    def processed(self) -> bool:
        """Whether callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> _t.Any:
        """The event's value (or exception if it failed)."""
        if self._value is Event.PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event itself to allow ``return ev.succeed()`` chains.
        """
        if self._value is not Event.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined env._schedule(self): triggering an event is one of the
        # two hottest heap pushes in the simulator (with Timeout).
        env = self.env
        if self._scheduled:
            raise SimulationError(f"{self!r} already scheduled")
        self._scheduled = True
        env._seq += 1
        heapq.heappush(env._queue, (env._now, env._seq, _fire, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        A failed event re-raises ``exception`` inside every process
        waiting on it.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not Event.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok is None:
            raise SimulationError(
                f"trigger() from an untriggered event: {event!r}"
            )
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    Created via :meth:`Engine.timeout <repro.sim.engine.Engine.timeout>`.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Engine", delay: float, value: _t.Any = None) -> None:
        # Not ``< 0``: NaN must fail too, or it corrupts the heap order.
        if not delay >= 0:
            raise ConfigurationError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__ and env._schedule: timeouts are the
        # hottest allocation in the simulator (one per compute/overhead
        # step), born triggered and scheduled.
        self.env = env
        self.callbacks = []
        self.delay = delay = float(delay)
        self._ok = True
        self._value = value
        self._scheduled = True
        env._seq += 1
        heapq.heappush(env._queue, (env._now + delay, env._seq, _fire, self))


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_num_done", "_first_done")

    def __init__(self, env: "Engine", events: _t.Iterable[Event]) -> None:
        super().__init__(env)
        self.events = tuple(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different engines")
        self._num_done = 0
        self._first_done: Event | None = None
        if not self.events:
            self.succeed(())
            return
        for ev in self.events:
            if ev.processed:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        if self._first_done is None:
            self._first_done = event
        self._num_done += 1
        self._evaluate()

    def _evaluate(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once *all* constituent events have succeeded.

    Its value is a tuple of the constituent values, in construction order.
    """

    __slots__ = ()

    def _evaluate(self) -> None:
        if self._num_done == len(self.events):
            self.succeed(tuple(ev._value for ev in self.events))


class AnyOf(_Condition):
    """Triggers once *any* constituent event has succeeded.

    Its value is the value of the first event to complete.
    """

    __slots__ = ()

    def _evaluate(self) -> None:
        if self._num_done >= 1:
            assert self._first_done is not None
            self.succeed(self._first_done._value)
