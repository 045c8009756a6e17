"""Single-flight coalescing tests and the bit-identity of vectorized
prediction against the scalar model path."""

import asyncio

import pytest

from repro.cluster.machine import paper_spec
from repro.core.energy import EnergyModel
from repro.core.params_sp import SimplifiedParameterization
from repro.errors import MeasurementError
from repro.experiments.platform import measure_campaign
from repro.npb import EPBenchmark, ProblemClass
from repro.service.coalesce import (
    Coalescer,
    PredictorBundle,
    evaluate_points,
)


@pytest.fixture(scope="module")
def bundle():
    campaign = measure_campaign(
        EPBenchmark(ProblemClass.S), use_cache=False
    )
    spec = paper_spec()
    return PredictorBundle(
        benchmark="ep",
        problem_class="S",
        campaign=campaign,
        sp=SimplifiedParameterization(campaign),
        energy_model=EnergyModel(spec.power, spec.cpu.operating_points),
    )


class TestEvaluatePoints:
    def test_bit_identical_to_scalar_path(self, bundle):
        points = sorted(bundle.campaign.times)
        table = evaluate_points(bundle, points)
        for n, f in points:
            got = table[(n, f)]
            time_s = bundle.sp.predict_time(n, f)
            overhead = (
                max(bundle.sp.overhead(n), 0.0) if n > 1 else 0.0
            )
            energy = bundle.energy_model.predict(
                n, f, time_s, overhead
            )
            assert got["time_s"] == time_s
            assert got["speedup"] == bundle.sp.predict_speedup(n, f)
            assert got["energy_j"] == energy.energy_j
            assert got["edp"] == energy.edp

    def test_batch_order_does_not_change_values(self, bundle):
        points = sorted(bundle.campaign.times)
        forward = evaluate_points(bundle, points)
        backward = evaluate_points(bundle, list(reversed(points)))
        assert forward == backward

    def test_singleton_equals_batched(self, bundle):
        points = sorted(bundle.campaign.times)
        whole = evaluate_points(bundle, points)
        for point in points:
            assert evaluate_points(bundle, [point]) == {
                point: whole[point]
            }

    def test_unknown_frequency_rejected(self, bundle):
        with pytest.raises(MeasurementError):
            evaluate_points(bundle, [(2, 123e6)])

    def test_unknown_count_rejected(self, bundle):
        with pytest.raises(MeasurementError):
            evaluate_points(bundle, [(3, 600e6)])

    def test_empty_batch(self, bundle):
        assert evaluate_points(bundle, []) == {}


class TestCoalescer:
    def test_identical_keys_share_one_computation(self):
        async def go():
            coalescer = Coalescer()
            gate = asyncio.Event()
            calls = 0

            async def factory():
                nonlocal calls
                calls += 1
                await gate.wait()
                return "result"

            async def leader():
                return await coalescer.run("k", factory)

            tasks = [
                asyncio.create_task(leader()) for _ in range(5)
            ]
            await asyncio.sleep(0)  # let every task reach run()
            gate.set()
            return calls, await asyncio.gather(*tasks), coalescer

        calls, results, coalescer = asyncio.run(go())
        assert calls == 1
        assert [value for value, _ in results] == ["result"] * 5
        assert sorted(joined for _, joined in results) == [
            False,
            True,
            True,
            True,
            True,
        ]
        assert coalescer.started == 1
        assert coalescer.coalesced == 4
        assert coalescer.inflight() == 0

    def test_distinct_keys_do_not_share(self):
        async def go():
            coalescer = Coalescer()

            async def factory(value):
                await asyncio.sleep(0)
                return value

            results = await asyncio.gather(
                coalescer.run("a", lambda: factory(1)),
                coalescer.run("b", lambda: factory(2)),
            )
            return results, coalescer

        results, coalescer = asyncio.run(go())
        assert results == [(1, False), (2, False)]
        assert coalescer.started == 2
        assert coalescer.coalesced == 0

    def test_exception_reaches_leader_and_joiners(self):
        async def go():
            coalescer = Coalescer()
            gate = asyncio.Event()

            async def factory():
                await gate.wait()
                raise ValueError("fit failed")

            tasks = [
                asyncio.create_task(coalescer.run("k", factory))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            gate.set()
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(go())
        assert all(isinstance(o, ValueError) for o in outcomes)

    def test_key_reusable_after_completion(self):
        async def go():
            coalescer = Coalescer()

            async def factory():
                return object()

            first, _ = await coalescer.run("k", factory)
            second, _ = await coalescer.run("k", factory)
            return first, second, coalescer

        first, second, coalescer = asyncio.run(go())
        assert first is not second
        assert coalescer.started == 2

