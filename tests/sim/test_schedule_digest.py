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
"""

import hashlib
import heapq
import struct

import pytest

import repro.sim.engine as engine_module
from repro.cluster import Cluster, paper_cluster, paper_spec
from repro.governor import PowerCap, govern_run
from repro.mpi import run_program
from repro.npb import EPBenchmark, FTBenchmark, LUBenchmark, ProblemClass
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
    "rendezvous_pingpong_8193": (
        29,
        "640db33b616f4c4607600a66be7e70a1b23d37941a95eec6e8d17ca28f3d5c76",
    ),
}


@pytest.mark.parametrize("case", sorted(_RUNS))
def test_pop_sequence_matches_digest(case, monkeypatch):
    recorder = _PopRecorder()
    monkeypatch.setattr(engine_module, "heapq", recorder)
    _RUNS[case]()
    assert (recorder.pops, recorder.digest.hexdigest()) == POP_DIGESTS[case]
