"""Edge cases: self-messaging, heterogeneous frequencies, zero sizes,
rank subsets with non-contiguous node ids."""

import math

import pytest

from repro.cluster import paper_cluster
from repro.errors import ConfigurationError
from repro.mpi import Communicator, run_program
from repro.mpi.datatypes import Message
from repro.units import mhz


class TestSelfMessaging:
    def test_send_to_self(self):
        """A rank may message itself; the payload moves at memcpy speed
        and never touches the switch."""
        cluster = paper_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(0, nbytes=4096, tag=3, payload="loop")
                msg = yield from ctx.recv(source=0, tag=3)
                return msg.payload
            yield from ctx.compute_seconds(0.0)

        result = run_program(cluster, program)
        assert result.rank_values[0] == "loop"
        assert result.bytes_on_wire == 0.0

    def test_rendezvous_self_send_via_isend(self):
        """A large self-send must be posted non-blockingly (like real
        MPI, a blocking rendezvous self-send deadlocks)."""
        cluster = paper_cluster(1)

        def program(ctx):
            handle = ctx.isend(0, nbytes=1 << 20, tag=9)
            msg = yield from ctx.recv(source=0, tag=9)
            yield from ctx.waitall([handle])
            return msg.nbytes

        result = run_program(cluster, program)
        assert result.rank_values[0] == 1 << 20


class TestHeterogeneousFrequencies:
    def test_mixed_frequency_job(self):
        """Nodes at different operating points cooperate correctly; the
        slow node paces a balanced workload."""
        from repro.cluster import InstructionMix

        cluster = paper_cluster(2)
        cluster.node(0).set_frequency(mhz(1400))
        cluster.node(1).set_frequency(mhz(600))
        mix = InstructionMix(cpu=1e9)

        def program(ctx):
            t0 = ctx.now
            yield from ctx.compute(mix)
            compute_time = ctx.now - t0
            yield from ctx.barrier()
            return compute_time

        result = run_program(cluster, program)
        fast, slow = result.rank_values
        assert slow == pytest.approx(fast * 1400 / 600)
        assert result.elapsed_s >= slow

    def test_message_overheads_use_local_frequency(self):
        cluster = paper_cluster(2)
        cluster.node(0).set_frequency(mhz(600))
        cluster.node(1).set_frequency(mhz(1400))
        nbytes = 4096
        assert cluster.node(0).message_overhead_seconds(
            nbytes
        ) > cluster.node(1).message_overhead_seconds(nbytes)


class TestZeroSizes:
    def test_zero_byte_message(self):
        cluster = paper_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=0, tag=1)
            else:
                msg = yield from ctx.recv(source=0, tag=1)
                return msg.nbytes

        assert run_program(cluster, program).rank_values[1] == 0.0

    def test_zero_byte_collectives(self):
        cluster = paper_cluster(4)

        def program(ctx):
            yield from ctx.bcast(root=0, nbytes=0)
            yield from ctx.allreduce(nbytes=0)
            yield from ctx.alltoall(nbytes_per_pair=0)

        assert run_program(cluster, program).elapsed_s > 0  # latency only

    def test_negative_size_rejected(self):
        cluster = paper_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=-1)
            else:
                yield from ctx.recv(source=0)

        with pytest.raises(ConfigurationError):
            run_program(cluster, program)

    def test_nan_size_rejected(self):
        with pytest.raises(ConfigurationError, match="message size"):
            Message(source=0, dest=1, tag=0, nbytes=math.nan)


class TestRankSubsets:
    def test_non_contiguous_node_ids(self):
        """A communicator over nodes {1, 3, 5} numbers them as ranks
        0..2 and routes over the right switch ports."""
        cluster = paper_cluster(8)
        comm = Communicator(cluster, node_ids=[1, 3, 5])
        assert comm.size == 3
        assert comm.port_of(0) == 1
        assert comm.port_of(2) == 5
        assert comm.node_of(1) is cluster.node(3)

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            Communicator(paper_cluster(4), node_ids=[0, 0, 1])

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ConfigurationError):
            Communicator(paper_cluster(2), node_ids=[0, 5])

    def test_job_on_subset_runs(self):
        cluster = paper_cluster(8)

        def program(ctx):
            yield from ctx.allreduce(nbytes=64)
            return ctx.size

        result = run_program(cluster, program, ranks=[2, 4, 6, 7])
        assert result.rank_values == (4, 4, 4, 4)
        # Unused nodes burned no energy.
        assert cluster.node(0).energy.total_joules == 0.0
