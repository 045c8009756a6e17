"""Regression tests for the engine's fast-path guarantees.

The hot loop replaces relay events with bare ``_Call`` heap entries
and lets ``Timeout`` / ``Event.succeed`` push themselves onto the
queue directly.  These tests pin down the observable contract of
those optimizations: no extra allocations on the wait path, exact
heap-entry counts, and the error behaviour of the edge cases the
rewrite touched.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import Engine
from repro.sim.events import Event, Timeout, _Call


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

        eng.process(prog(eng))
        # Before the first step the queue holds only the start _Call.
        assert [type(entry) for _, _, entry in eng._queue] == [_Call]
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
        ((_, _, entry),) = eng._queue
        assert isinstance(entry, Timeout)
        assert entry.callbacks == [proc._resume]

    def test_joining_processed_event_schedules_a_call(self):
        """Yielding an already-processed event resumes via a ``_Call``
        entry carrying the event's outcome, not via a relay event."""
        eng = Engine()
        done = Event(eng).succeed("early")
        eng.run()  # process `done`
        assert done.processed

        def prog(env):
            value = yield done
            return value

        proc = eng.process(prog(eng))
        eng.step()  # start call; now the _Call relay is queued
        ((_, _, entry),) = eng._queue
        assert type(entry) is _Call
        assert entry._ok is True and entry._value == "early"
        eng.run()
        assert proc.value == "early"


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
