"""The rank-program API and job runner.

A *rank program* is a callable taking a :class:`RankContext` and
returning a generator — the simulated analogue of an MPI process's
``main``.  The context provides computation (:meth:`RankContext.compute`),
point-to-point and collective communication, phase labelling for the
profiler, and in-run DVFS control.  :func:`run_program` launches one
program instance per rank and collects a :class:`RunResult` with the
elapsed time, energy, counters and traces.

Example
-------
>>> from repro.cluster import InstructionMix, paper_cluster
>>> def program(ctx):
...     yield from ctx.compute(InstructionMix(cpu=1e6))
...     yield from ctx.barrier()
>>> result = run_program(paper_cluster(4), program)
>>> result.n_ranks
4

Energy accounting
-----------------
Compute time is charged at the COMPUTE power state by the node itself;
host messaging overhead is charged at COMM by the p2p layer; everything
else inside a communication call — waiting for a partner, wire time —
is charged at IDLE by the context wrapper.  Ranks that finish before
the slowest rank are topped up with IDLE time so every rank's energy
covers the full job duration (nodes do not power off mid-job).

One deliberate approximation: when a rank drives a send and a receive
*concurrently* (``sendrecv``, or ``isend``/``irecv`` pairs), both host
overheads are charged as COMM even though they overlap in wall time —
a real CPU interleaves the two copies at roughly the summed cost.
Accounted per-rank time therefore covers the job duration from below
exactly and may exceed it by at most the COMM time (energy errs
slightly high, never low); the invariant is fuzz-tested in
``tests/test_fuzz_simulation.py``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cluster.dvfs import DvfsController
from repro.cluster.machine import Cluster
from repro.cluster.power import PowerState
from repro.cluster.workmix import InstructionMix
from repro.errors import ConfigurationError, DeadlockError
from repro.mpi import collectives as _coll
from repro.mpi import p2p as _p2p
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpi.datatypes import Message
from repro.sim.trace import Tracer

__all__ = ["RankContext", "RunResult", "run_program"]

#: Type of a rank program: callable(ctx) -> generator.
RankProgram = _t.Callable[["RankContext"], _t.Generator]


class RankContext:
    """Everything one simulated MPI process can do.

    Communication methods are generators: invoke them with
    ``yield from`` inside the rank program.
    """

    def __init__(
        self,
        comm: Communicator,
        rank: int,
        dvfs: DvfsController,
        tracer: Tracer | None = None,
    ) -> None:
        self.comm = comm
        self.rank = comm.check_rank(rank)
        self.node = comm.node_of(rank)
        self._energy = self.node.energy
        self.engine = comm.engine
        self.dvfs = dvfs
        self.tracer = tracer
        self._phase = ""
        self._coll_seq = 0
        #: Free-form per-rank program state (e.g. cached
        #: sub-communicator contexts); cleared with the context.
        self.scratch: dict[str, _t.Any] = {}

    # -- identity --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self.comm.size

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    @property
    def frequency_hz(self) -> float:
        """This rank's node's current core frequency."""
        return self.node.frequency_hz

    # -- phases -----------------------------------------------------------

    def phase(self, label: str) -> None:
        """Label subsequent activity for the profiler/tracer."""
        self._phase = str(label)
        self.comm.set_phase(self.rank, self._phase)

    @property
    def current_phase(self) -> str:
        """The active phase label."""
        return self._phase

    def _trace(self, start: float, category: str, detail: _t.Any = None) -> None:
        if self.tracer is not None:
            self.tracer.record(
                start, self.engine.now, category, self.rank, self._phase, detail
            )

    # -- computation ---------------------------------------------------------

    def compute(self, mix: InstructionMix) -> _t.Generator:
        """Execute an instruction mix at the node's current frequency.

        Advances simulated time by the Eq. 6 execution time, feeds the
        hardware counters and charges COMPUTE energy.
        """
        engine = self.engine
        t0 = engine._now
        duration = self.node.execute_mix(mix)
        yield duration
        if self.tracer is not None:
            self.tracer.record(
                t0, engine._now, "compute", self.rank, self._phase, mix.total
            )

    def compute_seconds(self, seconds: float) -> _t.Generator:
        """Burn a fixed amount of compute time (for microbenchmarks).

        Charged as COMPUTE energy but feeds no counters.
        """
        if not seconds >= 0:  # not ``< 0``: NaN must fail too
            raise ConfigurationError(f"seconds must be >= 0: {seconds}")
        t0 = self.engine.now
        self.node.energy.account(
            seconds, self.node.operating_point, PowerState.COMPUTE
        )
        yield float(seconds)
        self._trace(t0, "compute")

    # -- sub-communicators --------------------------------------------------

    def split(
        self, color: _t.Hashable, key: int = 0
    ) -> _t.Generator[_t.Any, _t.Any, "RankContext | None"]:
        """Collective ``MPI_Comm_split``: a context on the color group.

        Every rank of this context must call ``split`` (the call blocks
        until all have).  Returns a *child* :class:`RankContext` over
        the sub-communicator — same node, DVFS controller and tracer —
        whose collectives span only the color group.  A ``None`` color
        opts out and returns ``None``.

        Example (2-D decomposition)::

            row = yield from ctx.split(color=ctx.rank // ncols)
            col = yield from ctx.split(color=ctx.rank % ncols)
            yield from row.alltoall(nbytes)
        """

        def _split() -> _t.Generator:
            subcomm, sub_rank = yield self.comm.split(
                self.rank, color, key
            )
            if subcomm is None:
                return None
            child = RankContext(
                subcomm, sub_rank, self.dvfs, tracer=self.tracer
            )
            child._phase = self._phase
            return child

        return self._comm_op(_split())

    # -- DVFS ------------------------------------------------------------------

    def set_frequency(self, frequency_hz: float) -> _t.Generator:
        """Switch this rank's node to a new operating point in-run."""
        yield from self.dvfs.transition(self.node.node_id, frequency_hz)

    # -- communication accounting wrapper ---------------------------------------

    def _comm_op(self, gen: _t.Generator) -> _t.Generator:
        """Run a communication generator; charge untracked time as IDLE.

        The p2p layer charges host overhead at COMM synchronously; the
        difference between the op's wall time and the COMM time charged
        during it was spent blocked, and is charged here at IDLE.
        """
        engine = self.engine
        energy = self._energy
        t0 = engine._now
        before = energy._s_comm
        result = yield from gen
        elapsed = engine._now - t0
        active = energy._s_comm - before
        idle = elapsed - active
        if idle > 0:
            self.node.account_idle(idle)
        if self.tracer is not None:
            self.tracer.record(
                t0, engine._now, "comm", self.rank, self._phase, None
            )
        return result

    # -- point-to-point -----------------------------------------------------------

    def send(
        self,
        dest: int,
        nbytes: float,
        tag: int = 0,
        payload: _t.Any = None,
    ) -> _t.Generator[_t.Any, _t.Any, Message]:
        """Blocking send (eager below the NIC threshold, else rendezvous).

        The :meth:`_comm_op` accounting and the body of
        :func:`repro.mpi.p2p.send` are open-coded here (and in
        :meth:`recv`) rather than delegated: these two run once per
        simulated message, and every dropped generator frame is a
        measurable win on iterative benchmarks.  The protocol itself
        is :func:`repro.mpi.p2p.launch`, shared with ``p2p.send``.
        """
        comm = self.comm
        rank = self.rank
        comm.check_rank(dest)
        node = self.node
        engine = self.engine
        energy = self._energy
        t0 = engine._now
        before = energy._s_comm
        message = Message(rank, dest, tag, nbytes, payload)

        # Host CPU cost of initiating the message (copies, packetization).
        overhead = node.message_overhead_seconds(nbytes)
        yield overhead
        rendezvous = _p2p.launch(comm, node, message, overhead)
        if rendezvous is not None:
            yield rendezvous

        idle = (engine._now - t0) - (energy._s_comm - before)
        if idle > 0:
            node.account_idle(idle)
        if self.tracer is not None:
            self.tracer.record(
                t0, engine._now, "comm", rank, self._phase, None
            )
        return message

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> _t.Generator[_t.Any, _t.Any, Message]:
        """Blocking receive; returns the :class:`Message`.

        Open-codes :func:`repro.mpi.p2p.recv` plus the idle-time
        accounting, like :meth:`send` — keep in sync.
        """
        comm = self.comm
        if source != ANY_SOURCE:
            comm.check_rank(source)
        engine = self.engine
        energy = self._energy
        node = self.node
        t0 = engine._now
        before = energy._s_comm
        delivered = comm.matchers[self.rank].post_recv(source, tag)
        message: Message = yield delivered
        # Host CPU cost of draining the message out of the NIC buffers.
        overhead = node.message_overhead_seconds(message.nbytes)
        yield overhead
        node.account_comm(overhead)
        idle = (engine._now - t0) - (energy._s_comm - before)
        if idle > 0:
            node.account_idle(idle)
        if self.tracer is not None:
            self.tracer.record(
                t0, engine._now, "comm", self.rank, self._phase, None
            )
        return message

    def sendrecv(
        self,
        dest: int,
        nbytes: float,
        source: int,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
        payload: _t.Any = None,
    ) -> _t.Generator[_t.Any, _t.Any, Message]:
        """Concurrent send and receive; returns the received message."""
        return self._comm_op(
            _p2p.sendrecv(
                self.comm,
                self.rank,
                dest,
                nbytes,
                source,
                send_tag,
                recv_tag,
                payload,
            )
        )

    # -- non-blocking point-to-point ----------------------------------------

    def isend(
        self,
        dest: int,
        nbytes: float,
        tag: int = 0,
        payload: _t.Any = None,
    ):
        """Start a non-blocking send; returns a completion handle.

        The handle is a simulated process event: pass it (alone or with
        others) to :meth:`waitall`, or ``yield`` it directly.  Host
        messaging overhead is charged as the operation progresses; the
        *waiting* time is charged by whichever wait observes it.
        """
        return self.engine.process(
            _p2p.send(self.comm, self.rank, dest, nbytes, tag, payload)
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Start a non-blocking receive; returns a completion handle
        whose value is the received :class:`Message`."""
        return self.engine.process(
            _p2p.recv(self.comm, self.rank, source, tag)
        )

    def waitall(self, handles: _t.Sequence) -> _t.Generator:
        """Block until every handle completes; returns their values.

        Blocked time (beyond the COMM overhead charged by the
        operations themselves) is accounted as IDLE, like any blocking
        call.
        """

        def _wait() -> _t.Generator:
            values = yield self.engine.all_of(list(handles))
            return values

        return self._comm_op(_wait())

    # -- collectives ---------------------------------------------------------------

    def _next_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def barrier(self) -> _t.Generator:
        """Dissemination barrier over all ranks."""
        return self._comm_op(
            _coll.barrier(self.comm, self.rank, self._next_seq())
        )

    def bcast(self, root: int, nbytes: float) -> _t.Generator:
        """Binomial-tree broadcast from ``root``."""
        return self._comm_op(
            _coll.bcast(self.comm, self.rank, root, nbytes, self._next_seq())
        )

    def reduce(self, root: int, nbytes: float) -> _t.Generator:
        """Binomial-tree reduction to ``root``."""
        return self._comm_op(
            _coll.reduce(self.comm, self.rank, root, nbytes, self._next_seq())
        )

    def allreduce(
        self, nbytes: float, algorithm: str = "recursive-doubling"
    ) -> _t.Generator:
        """Allreduce; ``algorithm`` picks the communication schedule.

        ``"recursive-doubling"`` (default — MPICH's small-payload
        choice) or ``"rabenseifner"`` (reduce-scatter + allgather, the
        large-payload winner).
        """
        if algorithm == "recursive-doubling":
            gen = _coll.allreduce(
                self.comm, self.rank, nbytes, self._next_seq()
            )
        elif algorithm == "rabenseifner":
            gen = _coll.allreduce_rabenseifner(
                self.comm, self.rank, nbytes, self._next_seq()
            )
        else:
            raise ConfigurationError(
                f"unknown allreduce algorithm {algorithm!r}"
            )
        return self._comm_op(gen)

    def reduce_scatter(self, nbytes_total: float) -> _t.Generator:
        """Recursive-halving reduce-scatter."""
        return self._comm_op(
            _coll.reduce_scatter(
                self.comm, self.rank, nbytes_total, self._next_seq()
            )
        )

    def allgather(self, nbytes_per_rank: float) -> _t.Generator:
        """Ring allgather of one block per rank."""
        return self._comm_op(
            _coll.allgather(
                self.comm, self.rank, nbytes_per_rank, self._next_seq()
            )
        )

    def alltoall(
        self, nbytes_per_pair: float, algorithm: str = "pairwise"
    ) -> _t.Generator:
        """Alltoall of ``nbytes_per_pair`` per peer.

        ``"pairwise"`` (default — bandwidth-optimal, N−1 rounds) or
        ``"bruck"`` (⌈log₂N⌉ rounds; wins for small payloads).
        """
        if algorithm == "pairwise":
            gen = _coll.alltoall(
                self.comm, self.rank, nbytes_per_pair, self._next_seq()
            )
        elif algorithm == "bruck":
            gen = _coll.alltoall_bruck(
                self.comm, self.rank, nbytes_per_pair, self._next_seq()
            )
        else:
            raise ConfigurationError(
                f"unknown alltoall algorithm {algorithm!r}"
            )
        return self._comm_op(gen)

    def scatter(self, root: int, nbytes_per_rank: float) -> _t.Generator:
        """Linear rooted scatter."""
        return self._comm_op(
            _coll.scatter(
                self.comm, self.rank, root, nbytes_per_rank, self._next_seq()
            )
        )

    def gather(self, root: int, nbytes_per_rank: float) -> _t.Generator:
        """Linear rooted gather."""
        return self._comm_op(
            _coll.gather(
                self.comm, self.rank, root, nbytes_per_rank, self._next_seq()
            )
        )


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated job execution.

    Attributes
    ----------
    elapsed_s:
        Wall-clock (simulated) job duration — max over ranks.
    energy_j:
        Total energy over all participating nodes for the job duration.
    n_ranks:
        Number of ranks.
    rank_values:
        The return value of each rank's program generator.
    rank_energy_j:
        Per-rank node energy.
    rank_counters:
        Per-rank hardware counter snapshots.
    bytes_on_wire:
        Total payload bytes that crossed the switch.
    message_count:
        Number of remote transfers completed.
    send_stats:
        ``{(rank, phase): (messages_sent, bytes_sent)}`` — the measured
        communication profile the FP parameterization can consume.
    rank_state_seconds:
        Per-rank accounted time by power state (state value → seconds):
        where each rank's job time went (compute / comm / idle).
    tracer:
        The cluster's tracer, when tracing was enabled.
    """

    elapsed_s: float
    energy_j: float
    n_ranks: int
    rank_values: tuple
    rank_energy_j: tuple[float, ...]
    rank_counters: tuple[dict, ...]
    bytes_on_wire: float
    message_count: int
    send_stats: dict[tuple[int, str], tuple[float, float]] = dataclasses.field(
        default_factory=dict
    )
    rank_state_seconds: tuple[dict[str, float], ...] = ()
    tracer: Tracer | None = None

    def state_seconds(self) -> dict[str, float]:
        """Accounted time per power state, summed over ranks."""
        totals: dict[str, float] = {}
        for per_rank in self.rank_state_seconds:
            for state, seconds in per_rank.items():
                totals[state] = totals.get(state, 0.0) + seconds
        return totals

    @property
    def energy_delay_j_s(self) -> float:
        """Energy-delay product ``E · T`` (the paper's EDP metric)."""
        return self.energy_j * self.elapsed_s

    @property
    def energy_delay_squared(self) -> float:
        """``E · T²`` (ED²P), the delay-emphasizing variant."""
        return self.energy_j * self.elapsed_s**2

    @property
    def mean_power_w(self) -> float:
        """Average whole-job cluster power."""
        return self.energy_j / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _deadlock_report(
    comm: Communicator, processes: _t.Sequence
) -> str:
    """Per-rank matching-state dump attached to deadlock errors —
    the simulated analogue of attaching a debugger to a hung MPI job."""
    lines = ["deadlock diagnostics (per-rank matching state):"]
    for rank in range(comm.size):
        summary = comm.matcher_of(rank).pending_summary()
        alive = processes[rank].is_alive
        lines.append(
            f"  rank {rank}: alive={alive}, "
            f"posted_recvs={summary['posted']}, "
            f"unexpected={[str(m) for m in summary['unexpected']]}, "
            f"rndv_in_flight={summary['rndv_in_flight']}"
        )
    return "\n".join(lines)


def run_program(
    cluster: Cluster,
    program: RankProgram | _t.Sequence[RankProgram],
    *,
    ranks: _t.Sequence[int] | None = None,
) -> RunResult:
    """Run one rank-program instance per rank and collect the result.

    Parameters
    ----------
    cluster:
        The machine.  Its engine must be idle (a fresh cluster, or one
        whose previous job has completed).
    program:
        Either one callable used for every rank (SPMD), or a sequence
        of per-rank callables (MPMD) whose length matches the rank
        count.
    ranks:
        Node ids participating, in rank order; defaults to all nodes.
    """
    comm = Communicator(cluster, ranks)
    dvfs = DvfsController(cluster)

    if callable(program):
        programs: list[RankProgram] = [program] * comm.size
    else:
        programs = list(program)
        if len(programs) != comm.size:
            raise ConfigurationError(
                f"{len(programs)} programs for {comm.size} ranks"
            )

    contexts = [
        RankContext(comm, rank, dvfs, tracer=cluster.tracer)
        for rank in range(comm.size)
    ]
    t_start = cluster.engine.now
    seconds_before = [
        comm.node_of(r).energy.total_seconds for r in range(comm.size)
    ]
    joules_before = [
        comm.node_of(r).energy.total_joules for r in range(comm.size)
    ]
    state_seconds_before = [
        comm.node_of(r).energy.seconds_by_state() for r in range(comm.size)
    ]
    bytes_before = cluster.network.bytes_transferred
    msgs_before = cluster.network.transfer_count

    processes = [
        cluster.engine.process(programs[rank](contexts[rank]))
        for rank in range(comm.size)
    ]
    try:
        cluster.engine.run(until=cluster.engine.all_of(processes))
    except DeadlockError as exc:
        raise DeadlockError(
            f"{exc}\n{_deadlock_report(comm, processes)}"
        ) from None
    elapsed = cluster.engine.now - t_start

    # Ranks that finished early idle until the job completes.
    for rank in range(comm.size):
        node = comm.node_of(rank)
        accounted = node.energy.total_seconds - seconds_before[rank]
        tail = elapsed - accounted
        if tail > 1e-15:
            node.account_idle(tail)

    rank_energy = tuple(
        comm.node_of(r).energy.total_joules - joules_before[r]
        for r in range(comm.size)
    )
    rank_counters = tuple(
        comm.node_of(r).counters.snapshot() for r in range(comm.size)
    )
    rank_state_seconds = tuple(
        {
            state.value: seconds - state_seconds_before[r][state]
            for state, seconds in comm.node_of(r)
            .energy.seconds_by_state()
            .items()
        }
        for r in range(comm.size)
    )
    return RunResult(
        elapsed_s=elapsed,
        energy_j=sum(rank_energy),
        n_ranks=comm.size,
        rank_values=tuple(p.value for p in processes),
        rank_energy_j=rank_energy,
        rank_counters=rank_counters,
        bytes_on_wire=cluster.network.bytes_transferred - bytes_before,
        message_count=cluster.network.transfer_count - msgs_before,
        send_stats=comm.send_stats(),
        rank_state_seconds=rank_state_seconds,
        tracer=cluster.tracer,
    )
