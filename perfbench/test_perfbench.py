"""The workload seed alone fixes every workload's inputs.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import itertools

from perfbench import des_grid, service, suite

EXPERIMENTS = [f"experiment{i}" for i in range(19)]


def _requests(seed: int, count: int = 3000) -> list:
    return list(itertools.islice(service.request_stream(seed), count))


def test_service_requests_repeat_for_a_seed_and_differ_across_seeds():
    assert _requests(7) == _requests(7)
    assert _requests(7) != _requests(8)


def test_service_mix_reads_past_the_response_cache_and_writes_jobs():
    requests = _requests(7, 20000)
    kinds = [kind for kind, _body in requests]
    assert 0.04 < 1 - kinds.count("predict") / len(kinds) < 0.06
    assert {"govern", "optimize", "campaign"} <= set(kinds)
    pool = service.predict_pool()
    distinct = {(b["benchmark"], tuple(b["cells"])) for b in pool}
    assert len(distinct) == len(pool) == service.PREDICT_POOL_SIZE > 512
    used = {
        (body["benchmark"], tuple(body["cells"]))
        for kind, body in requests
        if kind == "predict"
    }
    assert len(used) > 512


def test_grid_and_suite_orders_repeat_for_a_seed():
    assert des_grid.inputs(3) == des_grid.inputs(3)
    assert sorted(des_grid.inputs(3)) == sorted(des_grid.BENCHMARKS)
    assert len({tuple(des_grid.inputs(s)) for s in range(20)}) > 1
    assert suite.inputs(3, EXPERIMENTS) == suite.inputs(3, EXPERIMENTS)
    assert sorted(suite.inputs(3, EXPERIMENTS)) == sorted(EXPERIMENTS)
    assert suite.inputs(3, EXPERIMENTS) != suite.inputs(4, EXPERIMENTS)
