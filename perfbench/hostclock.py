"""Host-speed correction for wall-clock timings on a shared virtual machine.

On a virtual machine shared with other guests the CPUs slow down and
recover over seconds to minutes by tens of percent, in two ways: the
hypervisor runs other guests on our virtual CPUs (*steal*, counted in
``/proc/stat``), and other tenants contend for the cores we do run on.
The benchmark process samples both every :data:`PERIOD_S`, from a
background thread or from the timed thread itself: the steal counters,
and the thread CPU time a fixed pure-Python kernel (no program code)
takes.  A timing taken over ``[t0, t1]`` is reported in *reference
seconds*: multiplied by the share of CPU time not stolen and divided by a
fitted power of the kernel's median cost relative to its cost on the
reference host, both around that interval.  A
slower program still reads slower; a slower host does not.  Raw wall
times are kept in each run's report.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import threading
import time
import typing as _t

#: Seconds between samples; with a kernel of about 4 ms the sampler uses
#: about 4% of one CPU.
PERIOD_S = 0.1
#: Kernel CPU time on the reference host (2 vCPU Intel Xeon VM at 2.0 GHz).
REFERENCE_KERNEL_S = 0.004
#: Under the same contention the small kernel slows down about twice as
#: much as the program (in log terms), so timings are divided by the square
#: root of its slowdown.  Fitted on the reference host.
KERNEL_EXPONENT = 0.5
#: Samples this much either side of an interval still describe it; steal
#: is counted in 10 ms ticks, so short intervals need the margin.
_MARGIN_S = 1.0
#: Entries of the table :class:`MemoryKernel` reads at random; with their
#: int objects about 14 MB, more than a core's share of a contended
#: last-level cache, so the kernel slows under memory contention too.
TABLE_ENTRIES = 400_000
#: Random reads per :class:`MemoryKernel` sample.
TABLE_READS = 2000
#: Memory-kernel CPU time on the reference host (about 1% of the timed
#: thread at one sample per :data:`PERIOD_S`).
REFERENCE_MEMORY_S = 0.0015
#: The program slows about 1.4 times as much as the memory kernel (in log
#: terms).  Fitted on the reference host over two sets of about 20 ``suite``
#: passes, whose times spread 11% and 15% (standard deviation of their
#: logarithm): slopes 1.42 and 1.50, correlation 0.95 and 0.97, leaving
#: 3.6% where the small kernel leaves 5.9%.
MEMORY_EXPONENT = 1.4


def kernel() -> int:
    """Fixed interpreter work: heap, dict and integer operations."""
    heap: list[int] = []
    table: dict[int, int] = {}
    for i in range(10000):
        heapq.heappush(heap, (i * 7919) % 1009)
        table[i & 255] = table.get(i & 255, 0) + i
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(heap) + len(table)


class MemoryKernel:
    """Fixed interpreter work that misses the cache: chained random reads."""

    def __init__(self) -> None:
        self.table = list(range(TABLE_ENTRIES))
        random.Random(0).shuffle(self.table)
        self.reads = self.table[:TABLE_READS]

    def __call__(self) -> int:
        table = self.table
        total = 0
        for i in self.reads:
            total += table[table[i]]
            table[i] = table[i]
        return total


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) ticks of all CPUs since boot; zeros without ``/proc``."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class HostClock:
    """Samples host speed every :data:`PERIOD_S` while in a ``with`` block.

    By default a daemon thread runs :func:`kernel`.  With
    ``signal_timer=True`` an interval timer interrupts the main thread,
    which runs a :class:`MemoryKernel` itself.  A single-threaded workload
    needs this: there the sampler thread contends for the GIL, which slowed
    ``suite`` passes by 10-20%, and samples taken by the timed thread track
    the speed it gets.  The time the timed thread spends sampling is
    :meth:`paused_seconds`.
    """

    def __init__(self, signal_timer: bool = False) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []
        self.ticks: list[tuple[int, int]] = []
        #: (start, seconds) of each sample the timed thread took.
        self.pauses: list[tuple[float, float]] = []
        self._busy = False
        self._previous_handler: _t.Any = None
        self._stop = threading.Event()
        if signal_timer:
            self._kernel: _t.Callable[[], int] = MemoryKernel()
            self._reference_s = REFERENCE_MEMORY_S
            self._exponent = MEMORY_EXPONENT
            self._thread = None
        else:
            self._kernel = kernel
            self._reference_s = REFERENCE_KERNEL_S
            self._exponent = KERNEL_EXPONENT
            self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostClock":
        if self._thread is None:
            self._record()
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        else:
            self._thread.start()
        return self

    def __exit__(self, *_exc: _t.Any) -> None:
        if self._thread is None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        else:
            self._stop.set()
            self._thread.join(timeout=10.0)

    def _record(self) -> None:
        cpu = time.thread_time()
        self._kernel()
        self.costs.append(time.thread_time() - cpu)
        self.ticks.append(cpu_ticks())
        self.times.append(time.perf_counter())

    def _sample(self) -> None:
        while True:
            self._record()
            if self._stop.wait(PERIOD_S):
                return

    def _on_timer(self, _signum: int, _frame: _t.Any) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self._record()
        finally:
            self._busy = False
        self.pauses.append((start, time.perf_counter() - start))

    def paused_seconds(self, t0: float, t1: float) -> float:
        """Seconds the timed thread spent sampling within ``[t0, t1]``."""
        return sum(seconds for start, seconds in self.pauses if t0 <= start <= t1)

    def _span(self, t0: float, t1: float) -> tuple[int, int]:
        """Indices of the samples just outside ``[t0, t1]`` widened by the margin."""
        first = max(bisect.bisect_right(self.times, t0 - _MARGIN_S) - 1, 0)
        last = min(
            bisect.bisect_left(self.times, t1 + _MARGIN_S), len(self.times) - 1
        )
        return first, last

    def steal_fraction(self, t0: float, t1: float) -> float:
        """Share of all CPU time stolen around ``[t0, t1]``."""
        first, last = self._span(t0, t1)
        stolen = self.ticks[last][0] - self.ticks[first][0]
        total = self.ticks[last][1] - self.ticks[first][1]
        return stolen / total if total > 0 else 0.0

    def kernel_factor(self, t0: float, t1: float) -> float:
        """Median kernel cost around ``[t0, t1]`` over the reference cost."""
        first, last = self._span(t0, t1)
        return statistics.median(self.costs[first : last + 1]) / self._reference_s

    def reference(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured over ``[t0, t1]``, in reference seconds."""
        return (
            seconds
            * (1.0 - self.steal_fraction(t0, t1))
            / self.kernel_factor(t0, t1) ** self._exponent
        )
