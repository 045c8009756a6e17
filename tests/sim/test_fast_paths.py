"""Regression tests for the engine's fast-path guarantees.

Every heap entry is ``(time, seq, fn, arg)``.  Process starts, joins
of processed events and bare-delay sleeps are direct ``_resume``
calls instead of relay events, and ``Timeout`` / ``Event.succeed``
push themselves onto the queue directly.  These tests pin down the
observable contract of those optimizations: no extra allocations on
the wait path, exact heap-entry counts, the same schedule for a bare
delay as for a ``Timeout``, and the error behaviour of the edge cases
the rewrite touched.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import Engine
from repro.sim.events import _RESUME_OK, Event, Timeout, _fire


class TestTriggerEdgeCases:
    def test_trigger_from_untriggered_event_raises(self):
        eng = Engine()
        target = Event(eng)
        source = Event(eng)  # never triggered
        with pytest.raises(SimulationError, match="untriggered"):
            target.trigger(source)
        # The target must be untouched by the failed relay.
        assert not target.triggered

    def test_trigger_copies_after_source_triggers(self):
        eng = Engine()
        target = Event(eng)
        source = Event(eng).succeed("payload")
        target.trigger(source)
        assert target.value == "payload"


class TestNegativeTimeout:
    def test_negative_delay_is_configuration_error(self):
        eng = Engine()
        with pytest.raises(ConfigurationError, match="negative timeout"):
            Timeout(eng, -0.5)

    def test_nan_delay_is_configuration_error(self):
        # NaN passes a ``< 0`` check and would corrupt the heap order.
        eng = Engine()
        with pytest.raises(ConfigurationError, match="negative timeout"):
            Timeout(eng, math.nan)
        assert eng.peek() == float("inf")

    def test_rejected_timeout_leaves_queue_untouched(self):
        eng = Engine()
        with pytest.raises(ConfigurationError):
            eng.timeout(-1.0)
        assert eng.peek() == float("inf")
        eng.run()  # empty queue, no deadlock, no stray entries
        assert eng.stats()["events_processed"] == 0


class TestTimeoutFastPath:
    def test_waiting_on_timeouts_allocates_no_relay_events(self):
        """A process iterating over timeouts puts exactly one heap
        entry per timeout (plus its start call) on the queue — no
        relay/start Events anywhere."""
        eng = Engine()

        def prog(env):
            for _ in range(10):
                yield Timeout(env, 1.0)

        proc = eng.process(prog(eng))
        # Before the first step the queue holds only the start call.
        assert [(fn, arg) for _, _, fn, arg in eng._queue] == [
            (proc._resume, _RESUME_OK)
        ]
        eng.run()
        # 1 start call + 10 timeouts + 1 process-finish event;
        # nothing else was ever scheduled.
        assert eng.stats()["events_processed"] == 12
        assert eng.stats()["processes_spawned"] == 1
        assert eng.now == 10.0

    def test_pending_timeout_wait_installs_bound_resume(self):
        """Waiting on an unprocessed timeout appends the process's
        bound ``_resume`` — no wrapper callable, no relay event."""
        eng = Engine()

        def prog(env):
            yield Timeout(env, 1.0)

        proc = eng.process(prog(eng))
        eng.step()  # run the start call; the process now waits
        ((_, _, fn, entry),) = eng._queue
        assert fn is _fire
        assert isinstance(entry, Timeout)
        assert entry.callbacks == [proc._resume]

    def test_joining_processed_event_schedules_a_call(self):
        """Yielding an already-processed event resumes via a direct
        ``_resume`` entry whose argument is the event (carrying its
        outcome), not via a relay event."""
        eng = Engine()
        done = Event(eng).succeed("early")
        eng.run()  # process `done`
        assert done.processed

        def prog(env):
            value = yield done
            return value

        proc = eng.process(prog(eng))
        eng.step()  # start call; now the resume call is queued
        ((_, _, fn, arg),) = eng._queue
        assert fn == proc._resume
        assert arg is done
        assert arg._ok is True and arg._value == "early"
        eng.run()
        assert proc.value == "early"


def _pop_sequence(eng):
    """Step ``eng`` to the end, returning every popped ``(time, seq)``."""
    popped = []
    while eng._queue:
        popped.append(eng._queue[0][:2])
        eng.step()
    return popped


class TestBareDelay:
    @staticmethod
    def _run(bare):
        """Two processes that sleep and signal each other; ``bare``
        spells every other sleep as a bare ``float`` delay."""
        eng = Engine()
        signal = eng.event()

        def sleep(env, delay, i):
            return delay if bare and i % 2 else Timeout(env, delay)

        def waiter(env):
            for i in range(4):
                yield sleep(env, 0.5, i)
            value = yield signal
            yield sleep(env, 0.25, 1)
            return value

        def signaller(env):
            for i in range(3):
                yield sleep(env, 1.0, i)
            signal.succeed("go")
            yield sleep(env, 0.0, 1)

        procs = [eng.process(waiter(eng)), eng.process(signaller(eng))]
        popped = _pop_sequence(eng)
        return eng.stats(), popped, eng.now, [p.value for p in procs]

    def test_bare_delay_keeps_the_timeout_schedule(self):
        mixed = self._run(bare=True)
        timeouts = self._run(bare=False)
        assert mixed == timeouts
        assert mixed[2] == 3.25
        assert mixed[3] == ["go", None]

    def test_bare_delay_allocates_no_event(self):
        eng = Engine()

        def prog(env):
            yield 1.5

        proc = eng.process(prog(eng))
        eng.step()  # start call; now the wake-up call is queued
        assert [(t, fn, arg) for t, _, fn, arg in eng._queue] == [
            (1.5, proc._resume, _RESUME_OK)
        ]

    def test_float_subclass_sleeps_as_a_plain_float(self):
        eng = Engine()

        def prog(env):
            yield np.float64(0.5)

        eng.process(prog(eng))
        eng.run()
        assert eng.now == 0.5
        assert type(eng.now) is float

    @pytest.mark.parametrize("delay", [-1.0, math.nan])
    def test_negative_or_nan_delay_fails_the_process(self, delay):
        eng = Engine()
        closed = []

        def prog(env):
            try:
                yield delay
            finally:
                closed.append(True)

        proc = eng.process(prog(eng))
        with pytest.raises(ConfigurationError, match="negative timeout"):
            eng.run(until=proc)
        assert closed == [True]
        assert eng.peek() == float("inf")


class TestStatsCounters:
    def test_counters_start_at_zero(self):
        stats = Engine().stats()
        assert stats == {
            "events_processed": 0,
            "processes_spawned": 0,
            "peak_queue_len": 0,
        }

    def test_peak_queue_len_sees_high_water_mark(self):
        eng = Engine()

        def prog(env, delay):
            yield Timeout(env, delay)

        for i in range(5):
            eng.process(prog(eng, float(i + 1)))
        eng.run()
        # 5 start calls were queued together before the first pop.
        assert eng.stats()["peak_queue_len"] == 5
        assert eng.stats()["processes_spawned"] == 5
        # 5 starts + 5 timeouts + 5 process-finish events.
        assert eng.stats()["events_processed"] == 15

    def test_step_and_drain_agree_on_counts(self):
        def grid(env):
            for _ in range(3):
                yield Timeout(env, 1.0)

        stepped = Engine()
        stepped.process(grid(stepped))
        while stepped._queue:
            stepped.step()

        drained = Engine()
        drained.process(grid(drained))
        drained.run()

        assert stepped.stats() == drained.stats()
