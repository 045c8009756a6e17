"""Switched-Ethernet interconnect model.

The paper's cluster uses a Cisco Catalyst 2950: a store-and-forward
switch giving every node a dedicated full-duplex 100 Mb/s port.  The
consequences we model:

* Each node has an independent *transmit* and *receive* channel
  (full duplex): a node can send and receive simultaneously, but two
  concurrent sends from one node share its TX port, and two concurrent
  sends *to* one node share its RX port.  This ingress contention is
  what makes FT's all-to-all sub-linear.
* Effective bandwidth is well below line rate — MPICH over TCP on
  100 Mb hardware of that era sustained roughly 60–80 % of line rate —
  captured by ``efficiency``.
* A fixed one-way latency covers PHY, switch forwarding and kernel
  stack traversal.
* **Congestion**: TCP over small-buffer 100 Mb switches degrades
  sharply under many simultaneous flows (packet loss, retransmission
  timeouts — the "incast" effect).  Dense exchanges such as FT's
  all-to-all ran far below per-port line rate on clusters of this era.
  We model it as a bandwidth penalty that grows sublinearly with the
  number of concurrently active flows:
  ``penalty = 1 + congestion_coeff · (flows − 1)^congestion_exponent``.
  Setting ``congestion_coeff = 0`` recovers the ideal switch (used by
  the ablation benches).

Intra-node "messages" (rank to itself) bypass the network and move at
local memcpy bandwidth.

:class:`SwitchedNetwork` executes each transfer on the discrete-event
engine as a chain of heap calls (:class:`_Transfer`); the analytic
Hockney/LogGP view of the same network lives in :mod:`repro.mpi.cost`.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as _t

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.units import mbit_per_s, mbyte_per_s

__all__ = ["NetworkSpec", "SwitchedNetwork"]


@dataclasses.dataclass(frozen=True)
class NetworkSpec:
    """Static description of the interconnect.

    Attributes
    ----------
    line_rate_bytes_per_s:
        Physical port speed (100 Mb/s for the paper platform).
    efficiency:
        Fraction of line rate achievable by the messaging stack.
    latency_s:
        One-way message latency (wire + switch + protocol stack).
    local_copy_bytes_per_s:
        Bandwidth for rank-to-self transfers (memcpy speed).
    congestion_coeff, congestion_exponent:
        TCP-era congestion surrogate: a transfer that starts while
        ``k`` other transfers are active sees its bandwidth divided by
        ``1 + coeff · k^exponent``.  Zero coefficient disables it.
    """

    line_rate_bytes_per_s: float = mbit_per_s(100)
    efficiency: float = 0.72
    latency_s: float = 70e-6
    local_copy_bytes_per_s: float = mbyte_per_s(400)
    congestion_coeff: float = 0.5
    congestion_exponent: float = 0.6

    def __post_init__(self) -> None:
        if self.line_rate_bytes_per_s <= 0:
            raise ConfigurationError("line rate must be positive")
        if not 0 < self.efficiency <= 1:
            raise ConfigurationError(
                f"efficiency must be in (0, 1]: {self.efficiency}"
            )
        if self.latency_s < 0:
            raise ConfigurationError("latency must be >= 0")
        if self.local_copy_bytes_per_s <= 0:
            raise ConfigurationError("local copy bandwidth must be positive")
        if self.congestion_coeff < 0:
            raise ConfigurationError("congestion_coeff must be >= 0")
        if self.congestion_exponent < 0:
            raise ConfigurationError("congestion_exponent must be >= 0")

    def congestion_penalty(self, concurrent_flows: int) -> float:
        """Bandwidth division factor when ``concurrent_flows`` are active."""
        if concurrent_flows <= 1:
            return 1.0
        return 1.0 + self.congestion_coeff * float(
            concurrent_flows - 1
        ) ** self.congestion_exponent

    @property
    def effective_bandwidth(self) -> float:
        """Achievable point-to-point bandwidth in bytes/second."""
        return self.line_rate_bytes_per_s * self.efficiency


class _Port:
    """One switch port direction: a single holder, waiters in FIFO order.

    Private to the network.  A waiter is the chain step to run once
    it holds the port; a grant pushes that step as one heap call, at
    once when the port is idle, else when the holder releases.
    """

    __slots__ = ("env", "busy", "waiting")

    def __init__(self, env: Engine) -> None:
        self.env = env
        self.busy = False
        self.waiting: collections.deque[_t.Callable] = collections.deque()

    def request(self, granted: _t.Callable) -> None:
        if self.busy:
            self.waiting.append(granted)
            return
        self.busy = True
        self.env._schedule_call(granted)

    def release(self) -> None:
        if self.waiting:
            self.env._schedule_call(self.waiting.popleft())
        else:
            self.busy = False


class _Transfer:
    """One transfer as a chain of heap calls.

    A remote transfer runs start → TX grant → RX grant → wire delay →
    latency delay → completion; a local copy runs start → copy delay →
    completion.  Each step is one heap entry that pushes the next, and
    the chain counts as one process in the engine's
    ``processes_spawned`` and ``_live_processes``.  The entries and
    their order are pinned by ``tests/sim/test_transport_schedule.py``
    and the golden cells: adding, dropping or moving one changes the
    engine counters or the results they pin.

    ``done`` is the completion: an :class:`~repro.sim.events.Event` is
    succeeded (its own heap entry is the completion step); a callable
    is pushed as the completion call.
    """

    __slots__ = ("net", "src", "dst", "nbytes", "done")

    def __init__(
        self,
        net: "SwitchedNetwork",
        src: int,
        dst: int,
        nbytes: float,
        done: Event | _t.Callable,
    ) -> None:
        self.net = net
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.done = done
        env = net.env
        env._live_processes += 1
        env.processes_spawned += 1
        env._schedule_call(self._copy if src == dst else self._request_tx)

    def _copy(self, _arg: None) -> None:
        net = self.net
        net.env._schedule_call(
            self._finish, float(self.nbytes / net.spec.local_copy_bytes_per_s)
        )

    def _request_tx(self, _arg: None) -> None:
        # TX before RX everywhere: nobody holds an RX port while
        # waiting for a TX port, so the ordering is deadlock-free.
        self.net._tx[self.src].request(self._request_rx)

    def _request_rx(self, _arg: None) -> None:
        self.net._rx[self.dst].request(self._clock_bytes)

    def _clock_bytes(self, _arg: None) -> None:
        net = self.net
        net._active_flows += 1
        flows = net._active_flows
        penalty = 1.0 if flows <= 1 else net.spec.congestion_penalty(flows)
        net.env._schedule_call(
            self._release, float(self.nbytes / net._bandwidth * penalty)
        )

    def _release(self, _arg: None) -> None:
        # RX first, then TX: each release pushes the next waiter's
        # grant before the latency step is pushed.
        net = self.net
        net._active_flows -= 1
        net._rx[self.dst].release()
        net._tx[self.src].release()
        # Propagation/forwarding delay after the ports are released: the
        # message is "in flight" and does not block subsequent traffic.
        net.env._schedule_call(self._arrive, net._latency)

    def _arrive(self, arg: None) -> None:
        net = self.net
        net.bytes_transferred += self.nbytes
        net.transfer_count += 1
        self._finish(arg)

    def _finish(self, _arg: None) -> None:
        env = self.net.env
        env._live_processes -= 1
        done = self.done
        if isinstance(done, Event):
            done.succeed()
        else:
            env._schedule_call(done)


class SwitchedNetwork:
    """A full-duplex switched network with per-port contention.

    Parameters
    ----------
    env:
        The discrete-event engine.
    n_nodes:
        Number of switch ports (cluster nodes).
    spec:
        Interconnect description.
    """

    def __init__(
        self, env: Engine, n_nodes: int, spec: NetworkSpec | None = None
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1: {n_nodes}")
        self.env = env
        self.spec = spec or NetworkSpec()
        self.n_nodes = int(n_nodes)
        # Hot-path caches of immutable spec values (one lookup each per
        # remote transfer instead of property/method hops).
        self._bandwidth = self.spec.effective_bandwidth
        self._latency = float(self.spec.latency_s)
        self._tx = [_Port(env) for _ in range(n_nodes)]
        self._rx = [_Port(env) for _ in range(n_nodes)]
        #: Transfers currently clocking bytes through the switch.
        self._active_flows = 0
        #: Total payload bytes moved over the switch (excludes local copies).
        self.bytes_transferred = 0.0
        #: Number of completed remote transfers.
        self.transfer_count = 0

    def _check_port(self, port: int) -> int:
        if not 0 <= port < self.n_nodes:
            raise ConfigurationError(
                f"port {port} out of range [0, {self.n_nodes})"
            )
        return int(port)

    def serialization_time(self, nbytes: float) -> float:
        """Time to clock ``nbytes`` through one port (no contention)."""
        if nbytes < 0:
            raise ConfigurationError(f"message size must be >= 0: {nbytes}")
        return nbytes / self.spec.effective_bandwidth

    def uncontended_transfer_time(self, nbytes: float) -> float:
        """Latency + serialization for a lone message (Hockney view)."""
        return self.spec.latency_s + self.serialization_time(nbytes)

    def transfer(self, src: int, dst: int, nbytes: float) -> Event:
        """Start moving ``nbytes`` from node ``src`` to node ``dst``.

        Returns an :class:`~repro.sim.events.Event` that succeeds when
        the last byte has arrived at ``dst``.  The wire time occupies
        the sender's TX port and the receiver's RX port simultaneously;
        latency is pure pipeline delay and holds neither.
        """
        src = self._check_port(src)
        dst = self._check_port(dst)
        if nbytes < 0:
            raise ConfigurationError(f"message size must be >= 0: {nbytes}")
        done = Event(self.env)
        _Transfer(self, src, dst, nbytes, done)
        return done

    def _start(
        self, src: int, dst: int, nbytes: float, done: Event | _t.Callable
    ) -> None:
        """Start a transfer without :meth:`transfer`'s checks.

        For callers that validated the ports and size already.  ``done``
        is the completion: an event to succeed, or a callable pushed as
        the completion call.
        """
        _Transfer(self, src, dst, nbytes, done)

    def tx_queue_length(self, port: int) -> int:
        """Number of transfers waiting on a node's TX port."""
        return len(self._tx[self._check_port(port)].waiting)

    def rx_queue_length(self, port: int) -> int:
        """Number of transfers waiting on a node's RX port."""
        return len(self._rx[self._check_port(port)].waiting)
