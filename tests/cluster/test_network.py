"""Tests for the switched-network model and NIC overhead."""

import pytest

from repro.cluster import NetworkSpec, NicSpec, SwitchedNetwork
from repro.errors import ConfigurationError
from repro.sim import Engine
from repro.units import mhz


def make_net(n=4, **kwargs):
    # Exact-timing tests use the ideal switch (no congestion surrogate).
    kwargs.setdefault("congestion_coeff", 0.0)
    eng = Engine()
    return eng, SwitchedNetwork(eng, n, NetworkSpec(**kwargs))


class TestNicSpec:
    def test_overhead_formula(self):
        nic = NicSpec(per_message_overhead_s=10e-6, cycles_per_byte=8.0)
        t = nic.host_overhead_s(1000, mhz(1000))
        assert t == pytest.approx(10e-6 + 1000 * 8.0 / 1e9)

    def test_overhead_frequency_sensitive(self):
        """Large-message host overhead shrinks with frequency — the
        Table 6 effect (310 doubles slower at 600 MHz)."""
        nic = NicSpec()
        slow = nic.host_overhead_s(2480, mhz(600))
        fast = nic.host_overhead_s(2480, mhz(1400))
        assert slow > fast

    def test_eager_threshold(self):
        nic = NicSpec(eager_threshold_bytes=1024)
        assert nic.is_eager(1024)
        assert not nic.is_eager(1025)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NicSpec(cycles_per_byte=-1)
        with pytest.raises(ConfigurationError):
            NicSpec().host_overhead_s(-5, mhz(600))


class TestNetworkSpec:
    def test_effective_bandwidth(self):
        spec = NetworkSpec(line_rate_bytes_per_s=12.5e6, efficiency=0.8)
        assert spec.effective_bandwidth == pytest.approx(10e6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(efficiency=0.0)
        with pytest.raises(ConfigurationError):
            NetworkSpec(efficiency=1.5)
        with pytest.raises(ConfigurationError):
            NetworkSpec(latency_s=-1.0)


class TestTransfers:
    def test_single_transfer_time(self):
        eng, net = make_net(latency_s=100e-6)
        p = net.transfer(0, 1, nbytes=net.spec.effective_bandwidth)  # 1 s of wire time
        eng.run(until=p)
        assert eng.now == pytest.approx(1.0 + 100e-6)

    def test_zero_byte_transfer_costs_latency_only(self):
        eng, net = make_net(latency_s=50e-6)
        p = net.transfer(0, 1, nbytes=0)
        eng.run(until=p)
        assert eng.now == pytest.approx(50e-6)

    def test_local_transfer_uses_memcpy_bandwidth(self):
        eng, net = make_net()
        nbytes = net.spec.local_copy_bytes_per_s  # 1 s of memcpy
        p = net.transfer(2, 2, nbytes=nbytes)
        eng.run(until=p)
        assert eng.now == pytest.approx(1.0)
        assert net.bytes_transferred == 0.0  # local copies don't hit the wire

    def test_disjoint_pairs_proceed_in_parallel(self):
        eng, net = make_net(latency_s=0.0)
        nbytes = net.spec.effective_bandwidth  # 1 s each
        p1 = net.transfer(0, 1, nbytes)
        p2 = net.transfer(2, 3, nbytes)
        eng.run(until=eng.all_of([p1, p2]))
        assert eng.now == pytest.approx(1.0)

    def test_shared_tx_port_serializes(self):
        eng, net = make_net(latency_s=0.0)
        nbytes = net.spec.effective_bandwidth
        p1 = net.transfer(0, 1, nbytes)
        p2 = net.transfer(0, 2, nbytes)
        eng.run(until=eng.all_of([p1, p2]))
        assert eng.now == pytest.approx(2.0)

    def test_shared_rx_port_serializes(self):
        """Ingress contention: two senders to one receiver take twice as
        long — the effect behind FT's sub-linear all-to-all."""
        eng, net = make_net(latency_s=0.0)
        nbytes = net.spec.effective_bandwidth
        p1 = net.transfer(1, 0, nbytes)
        p2 = net.transfer(2, 0, nbytes)
        eng.run(until=eng.all_of([p1, p2]))
        assert eng.now == pytest.approx(2.0)

    def test_full_duplex(self):
        """A node can send and receive simultaneously."""
        eng, net = make_net(latency_s=0.0)
        nbytes = net.spec.effective_bandwidth
        p1 = net.transfer(0, 1, nbytes)
        p2 = net.transfer(1, 0, nbytes)
        eng.run(until=eng.all_of([p1, p2]))
        assert eng.now == pytest.approx(1.0)

    def test_byte_accounting(self):
        eng, net = make_net()
        p = net.transfer(0, 1, 1234.0)
        eng.run(until=p)
        assert net.bytes_transferred == 1234.0
        assert net.transfer_count == 1

    def test_port_range_checked(self):
        eng, net = make_net(n=2)
        with pytest.raises(ConfigurationError):
            net.transfer(0, 5, 10)

    def test_negative_bytes_rejected(self):
        eng, net = make_net()
        with pytest.raises(ConfigurationError):
            net.transfer(0, 1, -10)

    def test_tx_waiters_rise_then_drain(self):
        eng, net = make_net(latency_s=0.0)
        nbytes = net.spec.effective_bandwidth  # 1 s each
        done = [net.transfer(0, dst, nbytes) for dst in (1, 2, 3)]
        assert net.tx_queue_length(0) == 0  # nothing has started yet
        eng.run(until=0.5)
        assert net.tx_queue_length(0) == 2
        eng.run(until=1.5)
        assert net.tx_queue_length(0) == 1
        eng.run(until=eng.all_of(done))
        assert eng.now == pytest.approx(3.0)
        assert net.tx_queue_length(0) == 0
        assert [net.rx_queue_length(p) for p in range(4)] == [0, 0, 0, 0]

    def test_rx_waiters_rise_then_drain(self):
        eng, net = make_net(latency_s=0.0)
        nbytes = net.spec.effective_bandwidth
        done = [net.transfer(src, 0, nbytes) for src in (1, 2, 3)]
        eng.run(until=0.5)
        assert net.rx_queue_length(0) == 2
        assert [net.tx_queue_length(p) for p in range(4)] == [0, 0, 0, 0]
        eng.run(until=2.5)
        assert net.rx_queue_length(0) == 0
        eng.run(until=eng.all_of(done))
        assert eng.now == pytest.approx(3.0)

    def test_uncontended_transfer_time_closed_form(self):
        eng, net = make_net(latency_s=70e-6)
        bw = net.spec.effective_bandwidth
        assert net.uncontended_transfer_time(bw / 2) == pytest.approx(
            70e-6 + 0.5
        )


class TestTransferChain:
    def test_remote_transfer_is_six_heap_entries_and_one_process(self):
        eng, net = make_net()
        done = net.transfer(0, 1, 1000)
        assert eng.stats()["processes_spawned"] == 1
        assert eng._live_processes == 1
        eng.run(until=done)
        # start, TX grant, RX grant, wire, latency, completion
        assert eng.stats()["events_processed"] == 6
        assert eng._live_processes == 0

    def test_local_copy_is_three_heap_entries(self):
        eng, net = make_net()
        done = net.transfer(1, 1, 1000)
        eng.run(until=done)
        # start, copy, completion
        assert eng.stats()["events_processed"] == 3
        assert eng.stats()["processes_spawned"] == 1
        assert eng._live_processes == 0


class TestCongestion:
    def test_penalty_formula(self):
        spec = NetworkSpec(congestion_coeff=0.5, congestion_exponent=0.6)
        assert spec.congestion_penalty(1) == 1.0
        assert spec.congestion_penalty(2) == pytest.approx(1.5)
        assert spec.congestion_penalty(16) == pytest.approx(
            1 + 0.5 * 15**0.6
        )

    def test_penalty_disabled(self):
        spec = NetworkSpec(congestion_coeff=0.0)
        assert spec.congestion_penalty(16) == 1.0

    def test_single_flow_unpenalized(self):
        eng, net = make_net(congestion_coeff=0.5, latency_s=0.0)
        p = net.transfer(0, 1, net.spec.effective_bandwidth)
        eng.run(until=p)
        assert eng.now == pytest.approx(1.0)

    def test_concurrent_flows_slow_each_other(self):
        eng, net = make_net(congestion_coeff=0.5, latency_s=0.0)
        nbytes = net.spec.effective_bandwidth
        p1 = net.transfer(0, 1, nbytes)
        p2 = net.transfer(2, 3, nbytes)
        eng.run(until=eng.all_of([p1, p2]))
        # Second flow starts while the first is active: penalty 1.5.
        assert eng.now == pytest.approx(1.5)

    def test_negative_congestion_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(congestion_coeff=-0.1)
