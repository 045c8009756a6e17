"""Point-to-point messaging: eager and rendezvous protocols.

Small messages (up to the NIC's eager threshold) travel *eagerly*: the
sender pays its host overhead, hands the payload to the network and
continues; the payload is buffered at the receiver if no receive is
posted yet.  Large messages use *rendezvous*: the sender ships only an
envelope, blocks until the receiver posts a matching receive
(clear-to-send), then performs the bulk transfer.  This is the MPICH
protocol split, and it matters for workload behaviour: eager sends
decouple sender and receiver; rendezvous sends synchronize them, which
is how real codes pick up "parallel overhead" waiting time.

These functions are *generators* meant to be driven by the engine —
either directly (``yield from send(...)``) or wrapped in a process for
the non-blocking variants (``engine.process(send(...))``).  What runs
beside the sender — an eager payload's delivery, a rendezvous
envelope's flight, the clear-to-send and the bulk transfer — is a
chain of heap calls (:class:`_Courier`), not a process.

Time charged to the caller:

* ``send`` (eager): host overhead only.
* ``send`` (rendezvous): host overhead + wait-for-CTS + wire time.
* ``recv``: wait-for-payload + host overhead.

Energy accounting is done by the caller (the rank context) which knows
how to split active messaging time from blocked waiting time.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.node import Node
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpi.datatypes import Message
from repro.sim.events import Event

__all__ = ["send", "recv", "sendrecv"]


class _Courier:
    """What moves one message after its sender has launched it.

    Eager: start → the network transfer (see
    :class:`~repro.cluster.network.SwitchedNetwork`) → delivery to the
    receiver's matcher.  Rendezvous: start → latency delay → envelope
    announced to the matcher; the clear-to-send event then starts the
    bulk transfer, whose completion is ``done``, the event the sender
    waits on.  The courier counts as one process in the engine's
    ``processes_spawned`` and ``_live_processes`` until it has
    delivered the payload or announced the envelope.
    """

    __slots__ = ("comm", "message", "done")

    def __init__(
        self, comm: Communicator, message: Message, done: Event | None
    ) -> None:
        self.comm = comm
        self.message = message
        self.done = done
        engine = comm.engine
        engine._live_processes += 1
        engine.processes_spawned += 1
        if done is None:
            engine._schedule_call(self._transfer)
        else:
            # Ahead of the sender's resume, which joins when it yields
            # ``done``: the receive completes before the sender moves on.
            done.callbacks.append(self._complete_rendezvous)
            engine._schedule_call(self._fly_envelope)

    def _transfer(self, _arg: Event | None) -> None:
        # An eager message's first step, or a rendezvous message's
        # clear-to-send callback.
        comm = self.comm
        message = self.message
        node_ids = comm._node_ids
        comm.network._start(
            node_ids[message.source],
            node_ids[message.dest],
            message.nbytes,
            self._deliver_eager if self.done is None else self.done,
        )

    def _deliver_eager(self, _arg: None) -> None:
        comm = self.comm
        comm.matchers[self.message.dest].deliver_eager(self.message)
        comm.engine._live_processes -= 1

    def _fly_envelope(self, _arg: None) -> None:
        comm = self.comm
        comm.engine._schedule_call(self._announce, comm.network._latency)

    def _announce(self, _arg: None) -> None:
        comm = self.comm
        clear_to_send = Event(comm.engine)
        clear_to_send.callbacks.append(self._transfer)
        comm.matchers[self.message.dest].announce_rendezvous(
            self.message, clear_to_send
        )
        comm.engine._live_processes -= 1

    def _complete_rendezvous(self, _done: Event) -> None:
        self.comm.matchers[self.message.dest].complete_rendezvous(self.message)


def launch(
    comm: Communicator, node: Node, message: Message, overhead: float
) -> Event | None:
    """The send step after the sender's host overhead has elapsed.

    Charges ``overhead`` at COMM, records the send, and starts the
    message's courier.  Returns ``None`` for an eager message (the
    sender is done) or, for a rendezvous message, the event the sender
    must wait on: it succeeds once the receiver has matched the
    envelope and the bulk transfer has arrived.  Shared by
    :func:`send` and :meth:`RankContext.send
    <repro.mpi.program.RankContext.send>`.
    """
    node.account_comm(overhead)
    comm.record_send(message.source, message.nbytes)
    if message.nbytes <= node.nic_spec.eager_threshold_bytes:
        _Courier(comm, message, None)
        return None
    done = Event(comm.engine)
    _Courier(comm, message, done)
    return done


def send(
    comm: Communicator,
    source: int,
    dest: int,
    nbytes: float,
    tag: int = 0,
    payload: _t.Any = None,
) -> _t.Generator[Event | float, _t.Any, Message]:
    """Blocking send from ``source`` to ``dest``.

    Returns the sent :class:`~repro.mpi.datatypes.Message` (useful for
    tests).  Eager sends complete locally — MPI's buffered-send
    semantics for small messages; rendezvous sends complete only after
    the payload has been pulled by a matching receive.
    """
    comm.check_rank(source)
    comm.check_rank(dest)
    node = comm._nodes[source]
    message = Message(source, dest, tag, nbytes, payload)
    # Host CPU cost of initiating the message (copies, packetization).
    overhead = node.message_overhead_seconds(nbytes)
    yield overhead
    rendezvous = launch(comm, node, message, overhead)
    if rendezvous is not None:
        yield rendezvous
    return message


def recv(
    comm: Communicator,
    rank: int,
    source: int = ANY_SOURCE,
    tag: int = ANY_TAG,
) -> _t.Generator[Event | float, _t.Any, Message]:
    """Blocking receive at ``rank``.

    ``source`` and ``tag`` accept the :data:`~repro.mpi.comm.ANY_SOURCE`
    / :data:`~repro.mpi.comm.ANY_TAG` wildcards.  Returns the received
    :class:`~repro.mpi.datatypes.Message`.
    """
    comm.check_rank(rank)
    if source != ANY_SOURCE:
        comm.check_rank(source)
    delivered = comm.matchers[rank].post_recv(source, tag)
    message: Message = yield delivered
    # Host CPU cost of draining the message out of the NIC buffers.
    node = comm._nodes[rank]
    overhead = node.message_overhead_seconds(message.nbytes)
    yield overhead
    node.account_comm(overhead)
    return message


def sendrecv(
    comm: Communicator,
    rank: int,
    dest: int,
    send_nbytes: float,
    source: int,
    send_tag: int = 0,
    recv_tag: int = ANY_TAG,
    payload: _t.Any = None,
) -> _t.Generator[Event, _t.Any, Message]:
    """Concurrent send+receive (the workhorse of exchange algorithms).

    The send and receive progress simultaneously, like
    ``MPI_Sendrecv``; the call completes when both have.  Returns the
    received message.
    """
    send_proc = comm.engine.process(
        send(comm, rank, dest, send_nbytes, send_tag, payload)
    )
    recv_proc = comm.engine.process(recv(comm, rank, source, recv_tag))
    yield comm.engine.all_of([send_proc, recv_proc])
    return recv_proc.value
