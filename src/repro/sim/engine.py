"""The discrete-event engine: simulated clock plus event queue.

The engine owns a priority queue of ``(time, seq, fn, arg)`` entries.
:meth:`Engine.run` pops entries in time order, advances the clock and
calls ``fn(arg)``: event callbacks, or a direct resumption of a
simulated process.

Determinism
-----------
The queue breaks time ties with a monotonically increasing sequence
number, so two runs of the same program produce identical schedules.
Nothing in the engine consults wall-clock time or unseeded randomness —
a property the test-suite checks (``tests/sim/test_determinism.py``).

Heap entries
------------
Every heap entry has one shape, ``(time, seq, fn, arg)``; the loop
pops it, advances the clock and calls ``fn(arg)``.  An event's entry
is ``(t, seq, _fire, event)``: its callbacks run inline in the loop.
Everything else is a direct call that allocates no event:

* a process start, ``(now, seq, process._resume, _RESUME_OK)``;
* a join of an already-processed event, ``(now, seq,
  process._resume, event)``;
* a bare-delay sleep — a process yielding a ``float`` ``d`` —
  ``(now + d, seq, process._resume, _RESUME_OK)``;
* a callback-chain step, pushed by :meth:`Engine._schedule_call`.

Each of them takes one sequence number at exactly the point where the
event it replaces (a start event, a relay event, a ``Timeout``) would
have taken its own, so the ``(time, seq)`` pop sequence, and with it
every result, is the one the event-based schedule produces.
``tests/sim/test_schedule_digest.py`` pins that sequence.

Callback chains
---------------
Work whose steps are fixed in advance needs no generator.  The
simulated network (:mod:`repro.cluster.network`) and the
point-to-point layer (:mod:`repro.mpi.p2p`) run every message transfer
as chains of call entries, each step pushing the next.  A chain
counts as one process in ``processes_spawned`` and, until its last
step, in ``_live_processes``, so :meth:`Engine.stats` counts it and
deadlock detection sees it.

Throughput counters
-------------------
The engine counts events processed, processes spawned (callback
chains included) and the peak heap size; see :meth:`stats`.
The campaign runtime divides ``events_processed`` by wall time to
report engine throughput per cell (the CLI's ``[campaign runtime]``
line).
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout, _fire
from repro.sim.process import Process

__all__ = ["Engine"]


class Engine:
    """Discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in seconds.  Defaults to 0.

    Examples
    --------
    >>> eng = Engine()
    >>> def prog(env):
    ...     yield env.timeout(1.5)
    ...     return "done"
    >>> p = eng.process(prog(eng))
    >>> eng.run()
    >>> eng.now
    1.5
    >>> p.value
    'done'
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, _t.Callable, _t.Any]] = []
        self._seq = 0
        #: Number of live (started, not yet finished) processes.  Used for
        #: deadlock detection when the queue drains.
        self._live_processes = 0
        #: Heap entries popped and executed so far (events + calls).
        self.events_processed = 0
        #: Processes started, callback chains included.
        self.processes_spawned = 0
        #: Largest queue length observed (memory high-water mark).
        self.peak_queue_len = 0

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`~repro.sim.events.Event`."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: _t.Generator) -> Process:
        """Start a new simulated process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        """An event that triggers when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: _t.Iterable[Event]) -> AnyOf:
        """An event that triggers when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Put a triggered event on the queue ``delay`` seconds from now.

        :meth:`Event.succeed <repro.sim.events.Event.succeed>` and the
        :class:`~repro.sim.events.Timeout` constructor inline this body
        — keep them in sync.
        """
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._seq += 1
        heapq.heappush(
            self._queue, (self._now + delay, self._seq, _fire, event)
        )

    def _schedule_call(
        self, fn: _t.Callable, delay: float = 0.0, arg: _t.Any = None
    ) -> None:
        """Push ``fn(arg)`` ``delay`` seconds from now, with no event.

        Consumes one sequence number, exactly like :meth:`_schedule`,
        so a call takes the queue position an event scheduled at the
        same point would have.  Callback chains push every step this
        way.
        """
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, fn, arg))

    # -- main loop -----------------------------------------------------------

    def step(self) -> None:
        """Process the next queued entry (advancing the clock to it)."""
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty event queue")
        # The queue only grows between pops, so sampling its length at
        # pop time observes every high-water mark — cheaper than a
        # check on each of the (equally many) pushes, which are spread
        # over four call sites.
        qlen = len(queue)
        if qlen > self.peak_queue_len:
            self.peak_queue_len = qlen
        when, _seq, fn, arg = heapq.heappop(queue)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError(
                f"time travel: queued t={when} < now={self._now}"
            )
        self._now = when
        self.events_processed += 1
        fn(arg)

    def _drain(self, finished: list | None) -> None:
        """Hot main loop: :meth:`step` inlined until ``finished`` is
        non-empty (or, when ``finished`` is None, until the queue
        empties).  Semantically ``while not finished and self._queue:
        self.step()`` — keep in sync with :meth:`step`."""
        queue = self._queue
        heappop = heapq.heappop
        fire = _fire
        steps = 0
        peak = self.peak_queue_len
        if finished is None:
            finished = []  # never appended to: drain until queue empties
        try:
            while not finished and queue:
                qlen = len(queue)
                if qlen > peak:
                    peak = qlen
                when, _seq, fn, arg = heappop(queue)
                if when < self._now:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"time travel: queued t={when} < now={self._now}"
                    )
                self._now = when
                steps += 1
                if fn is not fire:
                    fn(arg)
                    continue
                # _fire(arg), inlined: an event's callbacks.
                callbacks = arg.callbacks
                arg.callbacks = None
                if callbacks:
                    for callback in callbacks:
                        callback(arg)
        finally:
            self.events_processed += steps
            if peak > self.peak_queue_len:
                self.peak_queue_len = peak

    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def stats(self) -> dict[str, int]:
        """Engine throughput counters (JSON-ready).

        ``events_processed``
            heap entries executed (events plus direct calls);
        ``processes_spawned``
            processes started, callback chains included (a simulated
            message starts two: its courier and its transfer);
        ``peak_queue_len``
            high-water mark of the event heap.
        """
        return {
            "events_processed": self.events_processed,
            "processes_spawned": self.processes_spawned,
            "peak_queue_len": self.peak_queue_len,
        }

    def run(
        self,
        until: float | Event | None = None,
        *,
        detect_deadlock: bool = True,
    ) -> _t.Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the event queue drains.
            a float
                run until the clock reaches that time (the clock is
                advanced to exactly ``until`` even if no event lands
                there).
            an :class:`~repro.sim.events.Event`
                run until that event has been processed; its value is
                returned (its exception re-raised if it failed).
        detect_deadlock:
            When true (default) and the queue drains while simulated
            processes are still alive, raise
            :class:`~repro.errors.DeadlockError` — the simulated analogue
            of a hung MPI job.
        """
        if isinstance(until, Event):
            stop_event = until
            finished = []
            stop_event_done = lambda ev: finished.append(ev)  # noqa: E731
            if stop_event.processed:
                finished.append(stop_event)
            else:
                stop_event.callbacks.append(stop_event_done)
            self._drain(finished)
            if not finished:
                if detect_deadlock and self._live_processes > 0:
                    raise DeadlockError(
                        f"queue drained with {self._live_processes} live "
                        f"process(es) blocked at t={self._now}"
                    )
                raise SimulationError(
                    "run(until=event): queue drained before event triggered"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value

        if until is None:
            self._drain(None)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self._now})"
                )
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
            self._now = horizon

        if detect_deadlock and until is None and self._live_processes > 0:
            raise DeadlockError(
                f"queue drained with {self._live_processes} live "
                f"process(es) blocked at t={self._now}"
            )
        return None
