"""Whole fleets over HTTP: every (workers, procs) shape merges
bit-identical to serial, and adaptive lease sizing cuts the round
trips of an all-analytic grid.

Campaigns go through :func:`measure_campaign`, so each run also
checks that fleet-executed cells reach the session's campaign record.
"""

import pytest

from repro import runtime
from repro.cluster import paper_spec
from repro.experiments.platform import measure_campaign
from repro.npb import EPBenchmark, ProblemClass
from repro.service.server import ServiceThread
from repro.units import mhz

from tests.fabric.fleet import WorkerFleet, fast_config, wait_for_workers

#: Node counts large enough that a DES cell (tens of ms) outweighs
#: the lease protocol.
COUNTS = (4, 8, 16, 24, 32)
FREQUENCIES = tuple(mhz(f) for f in (600, 800, 1000, 1200, 1400))


def _fleet_campaign(workers, procs=1, counts=COUNTS, backend=None, **config):
    """Run a grid on a fresh fleet; return it and the leases issued."""
    config = fast_config(fabric_lease_ttl_s=2.0, **config)
    with ServiceThread(config) as service:
        with WorkerFleet(service.port, workers, procs=procs):
            wait_for_workers(service, workers)
            campaign = measure_campaign(
                EPBenchmark(ProblemClass.S),
                counts,
                FREQUENCIES,
                use_cache=False,
                jobs=1,
                fabric=True,
                backend=backend,
            )
        leases = service.service.coordinator.stats()["leases"]["issued"]
    record = runtime.campaign_metrics()["records"][-1]
    assert record["fabric_cells"] == len(counts) * len(FREQUENCIES)
    return campaign, leases


@pytest.fixture(scope="module")
def serial():
    return runtime.execute_campaign(
        EPBenchmark(ProblemClass.S), COUNTS, FREQUENCIES, paper_spec(), jobs=1
    )


@pytest.mark.parametrize(
    "workers, procs", [(1, 1), (2, 1), (4, 1), (1, 2), (2, 2), (4, 2)]
)
def test_fleet_shape_bit_identical_to_serial(serial, workers, procs):
    campaign, _ = _fleet_campaign(workers, procs)
    assert campaign.times == serial.times
    assert campaign.energies == serial.energies


def test_adaptive_leases_cut_analytic_round_trips():
    """A 16 x 5 analytic grid: adaptive leases against fixed 4-cell
    leases, the pre-adaptive default."""
    counts = tuple(range(1, 17))
    adaptive, adaptive_leases = _fleet_campaign(
        1, counts=counts, backend="analytic"
    )
    fixed, fixed_leases = _fleet_campaign(
        1,
        counts=counts,
        backend="analytic",
        fabric_target_lease_s=0,
        fabric_max_lease_cells=4,
    )
    assert adaptive.times == fixed.times
    assert adaptive.energies == fixed.energies
    assert fixed_leases >= 5 * adaptive_leases
