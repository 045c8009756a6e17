"""Golden-value bit-identity tests for campaign cells.

The engine fast paths (one ``(time, seq, fn, arg)`` heap-entry shape
with direct resume calls, bare-delay sleeps, inlined ``Timeout``
scheduling, transfers as heap-call chains, memoized power lookups)
are all justified by one invariant: they change *nothing*
about the simulated schedule, so every cell's (elapsed_s, energy_j)
must stay bit-identical to the values the unoptimized simulator
produced.  These goldens were recorded from the pre-optimization
engine at full float repr precision; any drift — even in the last
ulp — means an optimization silently reordered the schedule and must
be reverted.
"""

import pytest

from repro.cluster import paper_spec
from repro.npb import BENCHMARKS
from repro.runtime.runner import _simulate_cell
from repro.units import mhz

#: (benchmark, n, frequency) -> (elapsed_s, energy_j), exact floats.
GOLDEN_CELLS = {
    ("ep", 2, mhz(600)): (151.11032136222215, 5587.937835128022),
    ("ep", 2, mhz(1400)): (64.7868459726984, 4405.328788716062),
    ("ep", 4, mhz(600)): (75.63138414111097, 5593.429199201853),
    ("ep", 4, mhz(1400)): (32.426503445396825, 4409.4715446088885),
    ("ft", 2, mhz(600)): (68.7726809688889, 2509.2152819612515),
    ("ft", 2, mhz(1400)): (51.82195686365081, 3338.459701898445),
    ("ft", 4, mhz(600)): (51.3105273453488, 3728.8384677601844),
    ("ft", 4, mhz(1400)): (42.43628237987258, 5408.466598489571),
    ("lu", 2, mhz(600)): (878.9636846385632, 32495.691686401486),
    ("lu", 2, mhz(1400)): (476.94741572994616, 32407.57600733085),
    ("lu", 4, mhz(600)): (447.97621434013865, 33107.6712989564),
    ("lu", 4, mhz(1400)): (243.13573659995538, 32991.53109448758),
}


@pytest.mark.parametrize(
    "bench,n,f", sorted(GOLDEN_CELLS), ids=lambda v: str(v)
)
def test_cell_matches_golden(bench, n, f):
    elapsed, energy, _wall, stats = _simulate_cell(
        BENCHMARKS[bench](), n, f, paper_spec()
    )
    golden_elapsed, golden_energy = GOLDEN_CELLS[(bench, n, f)]
    # Bit-identity, not approximate equality: == on exact reprs.
    assert elapsed == golden_elapsed
    assert energy == golden_energy
    # The engine stats ride along with every cell result.
    assert stats["events_processed"] > 0
    assert stats["processes_spawned"] >= n
    assert stats["peak_queue_len"] > 0


def test_cell_is_deterministic_across_runs():
    spec = paper_spec()
    first = _simulate_cell(BENCHMARKS["ft"](), 4, mhz(800), spec)
    second = _simulate_cell(BENCHMARKS["ft"](), 4, mhz(800), spec)
    assert first[0] == second[0]
    assert first[1] == second[1]
    # The schedule itself is identical, not just its outcome.
    assert first[3] == second[3]
