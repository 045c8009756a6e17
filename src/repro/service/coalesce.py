"""Fitted predictors, vectorized prediction and single-flight fitting.

* :class:`PredictorBundle` — one fitted model (SP + energy) that
  ``/predict`` answers from.
* :func:`evaluate_points` — one vectorized numpy pass over a request's
  grid points.
* :class:`Coalescer` — *single-flight* execution: identical concurrent
  requests share one in-flight computation.  The first arrival runs
  the factory; every later identical arrival (until the result lands)
  awaits the same future.  The service uses it for predictor fitting.

Bit-exactness is load-bearing: :func:`evaluate_points` performs the
same IEEE-754 double operations the scalar
:meth:`~repro.core.params_sp.SimplifiedParameterization.predict_time`
path performs (one divide, one add per point), just element-wise over
an array, so a response is bit-identical to calling the model directly
for each point.  The element-wise kernels themselves
(:func:`repro.analytic.vectorized.sp_times`,
:func:`~repro.analytic.vectorized.energy_joules`) are shared with the
analytic campaign backend, so the service and ``backend="analytic"``
agree by construction.
"""

from __future__ import annotations

import asyncio
import dataclasses
import typing as _t

import numpy as np

from repro.analytic.vectorized import energy_joules, sp_times
from repro.core.energy import EnergyModel
from repro.core.measurements import TimingCampaign
from repro.core.params_sp import SimplifiedParameterization
from repro.errors import MeasurementError

__all__ = [
    "Coalescer",
    "PredictorBundle",
    "evaluate_points",
]

GridPoint = tuple[int, float]


@dataclasses.dataclass
class PredictorBundle:
    """A fitted model and everything needed to answer ``/predict``.

    Built once per (benchmark, problem class) — the expensive part is
    the fitting campaign — then held resident by the service so
    predictions are pure closed-form arithmetic.
    """

    benchmark: str
    problem_class: str
    campaign: TimingCampaign
    sp: SimplifiedParameterization
    energy_model: EnergyModel

    def overhead_seconds(self, n: int) -> float:
        """The SP overhead term as used in energy blending (clamped)."""
        return max(self.sp.overhead(n), 0.0) if n > 1 else 0.0


def evaluate_points(
    bundle: PredictorBundle, points: _t.Sequence[GridPoint]
) -> dict[GridPoint, dict[str, float]]:
    """One vectorized pass over a set of grid points.

    Returns ``{(n, f): {"time_s", "speedup", "energy_j", "edp"}}``
    where every float is bit-identical to the scalar
    ``sp.predict_time`` / ``sp.predict_speedup`` /
    ``energy_model.predict`` calls for that point.
    """
    if not points:
        return {}
    base_row = bundle.sp.campaign.base_row()
    base_column = bundle.sp.campaign.base_column()
    for n, f in points:
        if f not in base_row:
            raise MeasurementError(
                f"model {bundle.benchmark}.{bundle.problem_class} has "
                f"no sequential measurement at {f / 1e6:.0f} MHz; "
                f"measured: {[fi / 1e6 for fi in sorted(base_row)]}"
            )
        if n != 1 and n not in base_column:
            raise MeasurementError(
                f"model {bundle.benchmark}.{bundle.problem_class} has "
                f"no base-frequency measurement for N={n}; "
                f"measured: {sorted(base_column)}"
            )

    n_arr = np.array([float(n) for n, _ in points])
    t1_arr = np.array([base_row[f] for _, f in points])
    overhead_arr = np.array(
        [bundle.overhead_seconds(n) for n, _ in points]
    )
    # Eq. 18, element-wise: T_N(w, f) = T_1(w, f)/N + overhead(N),
    # with the N = 1 entries restored to the bare T_1 (the scalar
    # path has no overhead term there at all).
    times = sp_times(t1_arr, n_arr, overhead_arr)
    # Eq. 4 over predictions: S = T_1(w, f0) / T_N(w, f).
    speedups = bundle.campaign.sequential_base_time() / times
    # Power lookups are per-frequency table reads; the blend itself is
    # the shared element-wise kernel the analytic backend uses.
    energies = energy_joules(
        n_arr,
        np.array([bundle.energy_model.busy_power_w(f) for _, f in points]),
        np.array(
            [bundle.energy_model.overhead_power_w(f) for _, f in points]
        ),
        times,
        overhead_arr,
    )
    edps = energies * times

    results: dict[GridPoint, dict[str, float]] = {}
    for i, (n, f) in enumerate(points):
        results[(n, f)] = {
            "time_s": float(times[i]),
            "speedup": float(speedups[i]),
            "energy_j": float(energies[i]),
            "edp": float(edps[i]),
        }
    return results


class Coalescer:
    """Single-flight sharing of identical concurrent computations."""

    def __init__(self) -> None:
        self._inflight: dict[_t.Any, asyncio.Future] = {}
        #: Computations actually started (cache-miss leaders).
        self.started = 0
        #: Requests that joined an already-running computation.
        self.coalesced = 0

    def inflight(self) -> int:
        """Number of computations currently running."""
        return len(self._inflight)

    async def run(
        self,
        key: _t.Any,
        factory: _t.Callable[[], _t.Awaitable[_t.Any]],
    ) -> tuple[_t.Any, bool]:
        """Run ``factory`` unless ``key`` is already in flight.

        Returns ``(result, joined)`` where ``joined`` is True when this
        call shared another caller's computation.  Exceptions propagate
        to the leader *and* every joiner.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            # shield: a cancelled joiner must not cancel the shared
            # computation under the leader and the other joiners.
            return await asyncio.shield(existing), True

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self.started += 1
        try:
            result = await factory()
        except BaseException as exc:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(exc)
                future.exception()  # joiners still raise; leader logs
            raise
        self._inflight.pop(key, None)
        if not future.done():
            future.set_result(result)
        return result, False
