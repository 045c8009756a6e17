"""Pin the simulated transport's heap schedule, entry for entry.

Every simulated message runs through the same transfer machinery:
eager deliveries, rendezvous envelopes, switch-port FIFOs, wire and
latency delays, local copies.  A change to that machinery may make it
cheaper, but it must push exactly the heap entries it pushed before,
at the same ``(time, seq)`` positions.  An added or dropped entry
moves ``events_processed``; a reordered one moves a float.

Each case below runs a small job and compares ``Engine.stats()`` and
the job's ``(elapsed_s, energy_j, message_count, bytes_on_wire)``
with literal values recorded from the generator-based transport these
chains replaced.  Equality is ``==`` on exact reprs.
"""

import pytest

from repro.cluster import Cluster, paper_cluster, paper_spec
from repro.mpi import ANY_SOURCE, run_program
from repro.npb import FTBenchmark, LUBenchmark, ProblemClass
from repro.units import mhz


def _pingpong(ctx):
    peer = 1 - ctx.rank
    for _ in range(5):
        if ctx.rank == 0:
            yield from ctx.send(peer, 1024)
            yield from ctx.recv(peer)
        else:
            yield from ctx.recv(peer)
            yield from ctx.send(peer, 1024)


def _rendezvous(ctx):
    # 8193 B is one byte over the 8 KiB eager threshold.
    if ctx.rank == 0:
        yield from ctx.send(1, 8193)
    else:
        yield from ctx.recv(0)


def _rx_fifo(ctx):
    # Ranks 1 and 2 send at the same instant; rank 0's RX port
    # serves them in request order.
    if ctx.rank == 0:
        for _ in range(2):
            yield from ctx.recv(ANY_SOURCE)
    else:
        yield from ctx.send(0, 4096)


def _tx_fifo(ctx):
    # Two non-blocking sends queue on rank 0's TX port.
    if ctx.rank == 0:
        handles = [ctx.isend(1, 4096), ctx.isend(2, 4096)]
        yield from ctx.waitall(handles)
    else:
        yield from ctx.recv(0)


def _congested(ctx):
    # Two disjoint rendezvous flows on the wire at once: the second
    # one to start pays the congestion penalty.
    if ctx.rank % 2 == 0:
        yield from ctx.send(ctx.rank + 1, 65536)
    else:
        yield from ctx.recv(ctx.rank - 1)


def _send_to_self(ctx):
    # An eager copy, then a rendezvous copy (non-blocking, so the
    # receive can post the clear-to-send).
    yield from ctx.send(0, 1024)
    yield from ctx.recv(0)
    handle = ctx.isend(0, 16384)
    yield from ctx.recv(0)
    yield from ctx.waitall([handle])


def _ring(ctx):
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    for nbytes in (2048, 2048, 10000):
        yield from ctx.sendrecv(right, nbytes, left)


_PROGRAMS = {
    "eager_pingpong": (2, _pingpong),
    "rendezvous_8193": (2, _rendezvous),
    "rx_fifo": (3, _rx_fifo),
    "tx_fifo": (3, _tx_fifo),
    "congestion": (4, _congested),
    "send_to_self": (1, _send_to_self),
    "sendrecv_ring": (4, _ring),
}

_BENCHMARKS = {"ft_s_4": FTBenchmark, "lu_s_4": LUBenchmark}


def _run(case):
    if case in _PROGRAMS:
        n, program = _PROGRAMS[case]
        cluster = paper_cluster(n, frequency_hz=mhz(1400))
        result = run_program(cluster, program)
    else:
        cluster = Cluster(paper_spec(4), frequency_hz=mhz(1400))
        result = _BENCHMARKS[case](ProblemClass.S).run(cluster)
    return cluster.engine.stats(), (
        result.elapsed_s,
        result.energy_j,
        result.message_count,
        result.bytes_on_wire,
    )


#: case -> ((events_processed, processes_spawned, peak_queue_len),
#:          (elapsed_s, energy_j, message_count, bytes_on_wire))
SCHEDULES = {
    "eager_pingpong": (
        (105, 22, 2),
        (0.002296292063492064, 0.14416054603174605, 10, 10240.0),
    ),
    "rendezvous_8193": (
        (17, 4, 2),
        (0.0011371504761904761, 0.07126375523809524, 1, 8193.0),
    ),
    "rx_fifo": (
        (27, 7, 4),
        (0.0010436279365079364, 0.09811079352380953, 2, 8192.0),
    ),
    "tx_fifo": (
        (32, 9, 4),
        (0.0010436279365079364, 0.09811079352380953, 2, 8192.0),
    ),
    "congestion": (
        (33, 8, 4),
        (0.011477158095238096, 1.4376862780952382, 2, 131072.0),
    ),
    "send_to_self": (
        (22, 6, 2),
        (0.0002929942857142857, 0.009332248000000001, 0, 0.0),
    ),
    "sendrecv_ring": (
        (197, 52, 8),
        (0.0035606671328373566, 0.44651749988837985, 12, 56384.0),
    ),
    "ft_s_4": (
        (2036, 490, 6),
        (1.330809719212288, 169.607790017688, 123, 18875928.0),
    ),
    "lu_s_4": (
        (22420, 4010, 9),
        (0.3592951132591988, 48.42951686045559, 1963, 2382424.0),
    ),
}


@pytest.mark.parametrize("case", sorted(SCHEDULES))
def test_schedule_is_pinned(case):
    stats, outcome = _run(case)
    (events, processes, peak), expected = SCHEDULES[case]
    assert stats == {
        "events_processed": events,
        "processes_spawned": processes,
        "peak_queue_len": peak,
    }
    assert outcome == expected
