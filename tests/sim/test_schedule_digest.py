"""Pin the engine's full pop sequence, one digest per run.

``tests/sim/test_transport_schedule.py`` and the golden cells pin the
engine counters and the floats a run produces.  This module pins the
schedule itself: every ``(time, seq)`` pair the engine pops, in order,
hashed into one SHA-256 digest per run.  A change that reorders two
heap entries, even where no float moves, changes the digest.

The recorder replaces the ``heapq`` module that :mod:`repro.sim.engine`
looks up on every run and hashes only the first two fields of each
popped entry, so the check holds whatever an entry carries after them.
The digests were recorded when heap entries were ``(time, seq, entry)``
triples; the engine's ``(time, seq, fn, arg)`` entries pop the same
sequence.

The two ``open_loop_*`` runs pin offline DVS schedules run through
:func:`~repro.governor.loop.govern_run`: FT.S under the
``CommBoundPolicy`` built from its own peak-frequency profile, and the
4-rank ``ImbalancedStencil`` under ``SlackPolicy.from_idle_fractions``.
Their digests were recorded when those schedules ran through a
dedicated per-phase scheduler program instead; the open-loop path
replays its pop sequence.  The baseline run each policy is built from
is not recorded.
"""

import hashlib
import heapq
import struct

import pytest

import repro.sim.engine as engine_module
from repro.cluster import Cluster, paper_cluster, paper_spec
from repro.experiments.slack_savings import (
    ImbalancedStencil,
    measure_idle_fractions,
)
from repro.governor import CommBoundPolicy, PowerCap, SlackPolicy, govern_run
from repro.mpi import run_program
from repro.npb import EPBenchmark, FTBenchmark, LUBenchmark, ProblemClass
from repro.proftools import profile_benchmark
from repro.units import mhz


class _PopRecorder:
    """Stands in for ``heapq`` inside the engine, hashing each pop."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.pops = 0

    def __getattr__(self, name):
        return getattr(heapq, name)

    def heappop(self, heap):
        entry = heapq.heappop(heap)
        self.digest.update(struct.pack("<dq", entry[0], entry[1]))
        self.pops += 1
        return entry


def _rendezvous_pingpong(ctx):
    # 8193 B is one byte over the 8 KiB eager threshold: both
    # directions run the rendezvous protocol.
    peer = 1 - ctx.rank
    if ctx.rank == 0:
        yield from ctx.send(peer, 8193)
        yield from ctx.recv(peer)
    else:
        yield from ctx.recv(peer)
        yield from ctx.send(peer, 8193)


def _benchmark(bench_cls, n):
    cluster = Cluster(paper_spec(n), frequency_hz=mhz(1400))
    bench_cls(ProblemClass.S).run(cluster)


def _comm_bound_ft():
    ft = FTBenchmark(ProblemClass.S)
    ops = paper_spec().cpu.operating_points
    profile = profile_benchmark(ft, 4, frequency_hz=ops.peak.frequency_hz)
    policy = CommBoundPolicy(profile, ops)
    return lambda: govern_run(ft, 4, policy, spec=paper_spec())


def _slack_stencil():
    stencil = ImbalancedStencil()
    ops = paper_spec().cpu.operating_points
    idle = measure_idle_fractions(stencil, 4, ops.peak.frequency_hz)
    policy = SlackPolicy.from_idle_fractions(idle, ops)
    return lambda: govern_run(stencil, 4, policy, spec=paper_spec())


#: Open-loop cases: each factory runs its baseline unrecorded and
#: returns the run to record.
_OPEN_LOOP = {
    "open_loop_ft_s_4_comm_bound": _comm_bound_ft,
    "open_loop_stencil_4_slack": _slack_stencil,
}

_RUNS = {
    "ft_s_4": lambda: _benchmark(FTBenchmark, 4),
    "lu_s_4": lambda: _benchmark(LUBenchmark, 4),
    "ep_s_2": lambda: _benchmark(EPBenchmark, 2),
    "rendezvous_pingpong_8193": lambda: run_program(
        paper_cluster(2, frequency_hz=mhz(1400)), _rendezvous_pingpong
    ),
    "governed_lu_s_4_reactive": lambda: govern_run(
        LUBenchmark(ProblemClass.S), 4, "reactive", PowerCap()
    ),
}

#: case -> (entries popped, SHA-256 of the popped (time, seq) pairs).
POP_DIGESTS = {
    "ep_s_2": (
        108,
        "aa05ccb42c695aaf4becf947b4177d2805999c2c16bdb3770949031eba41ed88",
    ),
    "ft_s_4": (
        2036,
        "081ef7b11f311577cff903e38b1f91779715eb2b7aaf451b84dd6b9251dd6093",
    ),
    "governed_lu_s_4_reactive": (
        23020,
        "285386be17ac64bed1378b7dafcf2fd0e8e3a9287ded6b2e6e19614778b79e73",
    ),
    "lu_s_4": (
        22420,
        "f38123843f08013ed88c65558b138fabd19fa08a420d5237325490de38e4d723",
    ),
    "open_loop_ft_s_4_comm_bound": (
        2132,
        "80445e086ee363fb3831d8d0b8f23437d3f89baf591969b354d4a626c6f60f43",
    ),
    "open_loop_stencil_4_slack": (
        4973,
        "41eb18d838eb4b4123daadf1451a68411931cffd60d58524b2df34aa966b7e75",
    ),
    "rendezvous_pingpong_8193": (
        29,
        "640db33b616f4c4607600a66be7e70a1b23d37941a95eec6e8d17ca28f3d5c76",
    ),
}


@pytest.mark.parametrize("case", sorted({**_RUNS, **_OPEN_LOOP}))
def test_pop_sequence_matches_digest(case, monkeypatch):
    run = _OPEN_LOOP[case]() if case in _OPEN_LOOP else _RUNS[case]
    recorder = _PopRecorder()
    monkeypatch.setattr(engine_module, "heapq", recorder)
    run()
    assert (recorder.pops, recorder.digest.hexdigest()) == POP_DIGESTS[case]
