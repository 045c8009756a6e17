"""Tests for the rank-program runner and its accounting."""

import math

import pytest

from repro.cluster import InstructionMix, paper_cluster
from repro.cluster.power import PowerState
from repro.errors import ConfigurationError, DeadlockError
from repro.mpi import run_program
from repro.units import mhz


class TestRunner:
    def test_spmd_runs_one_program_per_rank(self):
        cluster = paper_cluster(4)

        def program(ctx):
            yield from ctx.barrier()
            return ctx.rank * 10

        result = run_program(cluster, program)
        assert result.rank_values == (0, 10, 20, 30)
        assert result.n_ranks == 4

    def test_mpmd_program_list(self):
        cluster = paper_cluster(2)

        def sender(ctx):
            yield from ctx.send(1, nbytes=8, payload="hi")

        def receiver(ctx):
            msg = yield from ctx.recv(source=0)
            return msg.payload

        result = run_program(cluster, [sender, receiver])
        assert result.rank_values[1] == "hi"

    def test_program_list_length_checked(self):
        cluster = paper_cluster(3)
        with pytest.raises(ConfigurationError):
            run_program(cluster, [lambda ctx: iter(())] * 2)

    def test_rank_subset(self):
        cluster = paper_cluster(8)

        def program(ctx):
            yield from ctx.barrier()
            return ctx.size

        result = run_program(cluster, program, ranks=[0, 2, 4])
        assert result.n_ranks == 3
        assert result.rank_values == (3, 3, 3)

    def test_deadlock_detected(self):
        cluster = paper_cluster(2)

        def program(ctx):
            # Both ranks receive, nobody sends.
            yield from ctx.recv(source=1 - ctx.rank)

        with pytest.raises(DeadlockError):
            run_program(cluster, program)

    def test_elapsed_is_max_over_ranks(self):
        cluster = paper_cluster(2)

        def program(ctx):
            yield from ctx.compute_seconds(1.0 if ctx.rank == 0 else 3.0)

        result = run_program(cluster, program)
        assert result.elapsed_s == pytest.approx(3.0)


class TestComputeAccounting:
    def test_compute_advances_time_per_eq6(self):
        cluster = paper_cluster(1, frequency_hz=mhz(1400))
        mix = InstructionMix(cpu=1e9, l1=1e8, mem=1e6)
        expected = cluster.node(0).compute_seconds(mix)

        def program(ctx):
            yield from ctx.compute(mix)

        result = run_program(cluster, program)
        assert result.elapsed_s == pytest.approx(expected)

    def test_compute_feeds_counters(self):
        cluster = paper_cluster(1)

        def program(ctx):
            yield from ctx.compute(InstructionMix(cpu=500, l1=100, mem=7))

        result = run_program(cluster, program)
        assert result.rank_counters[0]["PAPI_TOT_INS"] == 607
        assert result.rank_counters[0]["PAPI_L2_TCM"] == 7

    def test_negative_compute_seconds_rejected(self):
        cluster = paper_cluster(1)

        def program(ctx):
            yield from ctx.compute_seconds(-1.0)

        with pytest.raises(ConfigurationError):
            run_program(cluster, program)

    def test_nan_compute_seconds_rejected(self):
        cluster = paper_cluster(2)

        def program(ctx):
            yield from ctx.compute_seconds(math.nan)
            yield from ctx.barrier()

        with pytest.raises(ConfigurationError, match="seconds must be"):
            run_program(cluster, program)


class TestEnergyAccounting:
    def test_every_rank_covers_full_duration(self):
        """Early-finishing ranks idle to the end: per-rank accounted time
        equals the job duration."""
        cluster = paper_cluster(2)

        def program(ctx):
            yield from ctx.compute_seconds(2.0 if ctx.rank == 0 else 0.5)

        result = run_program(cluster, program)
        for rank in range(2):
            assert cluster.node(rank).energy.total_seconds == pytest.approx(
                result.elapsed_s
            )

    def test_energy_positive_and_additive(self):
        cluster = paper_cluster(4)

        def program(ctx):
            yield from ctx.compute_seconds(1.0)
            yield from ctx.barrier()

        result = run_program(cluster, program)
        assert result.energy_j > 0
        assert result.energy_j == pytest.approx(sum(result.rank_energy_j))

    def test_waiting_rank_burns_less_than_computing_rank(self):
        cluster = paper_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.compute_seconds(5.0)
            yield from ctx.barrier()

        result = run_program(cluster, program)
        assert result.rank_energy_j[1] < result.rank_energy_j[0]

    def test_higher_frequency_higher_power(self):
        def energy_at(freq):
            cluster = paper_cluster(1, frequency_hz=freq)

            def program(ctx):
                yield from ctx.compute_seconds(1.0)

            return run_program(cluster, program).energy_j

        assert energy_at(mhz(1400)) > energy_at(mhz(600))

    def test_edp_metrics(self):
        cluster = paper_cluster(1)

        def program(ctx):
            yield from ctx.compute_seconds(2.0)

        result = run_program(cluster, program)
        assert result.energy_delay_j_s == pytest.approx(result.energy_j * 2.0)
        assert result.energy_delay_squared == pytest.approx(result.energy_j * 4.0)
        assert result.mean_power_w == pytest.approx(result.energy_j / 2.0)

    def test_comm_time_charged_to_comm_or_idle(self):
        cluster = paper_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=100_000)
            else:
                yield from ctx.recv(source=0)

        run_program(cluster, program)
        by_state = cluster.node(1).energy.seconds_by_state()
        assert by_state[PowerState.COMM] > 0
        assert by_state[PowerState.IDLE] > 0


class TestDvfsInRun:
    def test_set_frequency_mid_program(self):
        cluster = paper_cluster(1)

        def program(ctx):
            assert ctx.frequency_hz == mhz(600)
            yield from ctx.set_frequency(mhz(1400))
            assert ctx.frequency_hz == mhz(1400)
            yield from ctx.compute_seconds(0.1)

        result = run_program(cluster, program)
        assert result.elapsed_s == pytest.approx(
            0.1 + cluster.spec.cpu.dvfs_transition_s
        )


class TestTracing:
    def test_phases_recorded(self):
        cluster = paper_cluster(2, trace=True)

        def program(ctx):
            ctx.phase("setup")
            yield from ctx.compute_seconds(0.5)
            ctx.phase("exchange")
            yield from ctx.barrier()

        result = run_program(cluster, program)
        assert result.tracer is not None
        assert set(result.tracer.phases()) == {"setup", "exchange"}
        assert result.tracer.total_time(category="compute", rank=0) == pytest.approx(0.5)

    def test_tracing_disabled_by_default(self):
        cluster = paper_cluster(1)

        def program(ctx):
            yield from ctx.compute_seconds(0.1)

        assert run_program(cluster, program).tracer is None


class TestStateSeconds:
    def test_rank_state_seconds_cover_duration(self):
        cluster = paper_cluster(2)

        def program(ctx):
            yield from ctx.compute_seconds(1.0 if ctx.rank == 0 else 0.25)
            yield from ctx.barrier()

        result = run_program(cluster, program)
        for per_rank in result.rank_state_seconds:
            assert sum(per_rank.values()) >= result.elapsed_s - 1e-12
        assert set(result.rank_state_seconds[0]) == {
            "compute",
            "comm",
            "idle",
        }

    def test_state_seconds_aggregates(self):
        cluster = paper_cluster(2)

        def program(ctx):
            yield from ctx.compute_seconds(0.5)

        result = run_program(cluster, program)
        totals = result.state_seconds()
        assert totals["compute"] == pytest.approx(1.0)  # 2 ranks x 0.5

    def test_waiting_rank_shows_idle_dominance(self):
        cluster = paper_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.compute_seconds(2.0)
            yield from ctx.barrier()

        result = run_program(cluster, program)
        lazy = result.rank_state_seconds[1]
        assert lazy["idle"] > lazy["compute"]


class TestDeadlockDiagnostics:
    def test_deadlock_error_includes_matcher_state(self):
        cluster = paper_cluster(2)

        def program(ctx):
            yield from ctx.recv(source=1 - ctx.rank, tag=42)

        with pytest.raises(DeadlockError) as excinfo:
            run_program(cluster, program)
        message = str(excinfo.value)
        assert "deadlock diagnostics" in message
        assert "rank 0" in message and "rank 1" in message
        assert "(1, 42)" in message  # the posted recv that never matched

    def test_unmatched_rendezvous_send_is_a_deadlock(self):
        cluster = paper_cluster(2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 16384)  # waits for a clear-to-send
            else:
                yield from ctx.compute_seconds(1.0)

        with pytest.raises(DeadlockError) as excinfo:
            run_program(cluster, program)
        # Only the sender is blocked: the envelope has arrived.
        assert "with 1 live process(es)" in str(excinfo.value)
        assert "rank 1: alive=False" in str(excinfo.value)
