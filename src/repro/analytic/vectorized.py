"""Vectorized, bit-identical closed-form kernels.

Every function here evaluates one of the model's scalar closed forms
(:mod:`repro.core.exectime`, :mod:`repro.core.params_sp`,
:mod:`repro.core.energy`) element-wise over numpy float64 arrays,
performing *the same IEEE-754 double operations in the same order* as
the scalar code.  That makes the vectorized results bit-identical to a
per-cell Python loop — the guarantee the analytic campaign backend and
the service's ``/predict`` path both rely on, and the property the
tests in ``tests/analytic/test_vectorized_identity.py`` pin with exact
``==`` comparisons.

The bit-identity argument: elementwise numpy arithmetic on float64
arrays applies the identical hardware double operation per element
that CPython applies to its ``float`` objects, so as long as (a) the
operand *values* match and (b) the *sequence* of operations per
element matches, the results match to the last ulp.  Each kernel's
docstring names the scalar function it mirrors and preserves its exact
accumulation order.

This module deliberately depends only on numpy so it can be imported
from anywhere in the package (the service, the runtime backend, the
benchmarks) without cycles.
"""

from __future__ import annotations

import typing as _t

import numpy as np

__all__ = [
    "component_times",
    "sp_times",
    "energy_joules",
]


def component_times(
    components: _t.Sequence[tuple[float, float, _t.Sequence[float]]],
    on_rate: np.ndarray,
    off_rate: np.ndarray,
    overhead: np.ndarray,
) -> np.ndarray:
    """Eq. 9 over a cell vector, mirroring ``ExecutionTimeModel.parallel_time``.

    Parameters
    ----------
    components:
        ``(on_chip, off_chip, divisors)`` per DOP component, in the
        workload's component order; ``divisors`` is the per-cell
        ``effective_divisor(n)`` vector for that component.
    on_rate, off_rate:
        Per-cell ``CPI_ON/f`` and ``CPI_OFF/f_OFF`` seconds per
        instruction.
    overhead:
        Per-cell parallel-overhead seconds ``T(w_PO, n, f)``.

    The scalar path accumulates ``time += on; time += off`` per
    component, then ``time += overhead``; the element-wise adds below
    replay exactly that sequence, so each returned element is
    bit-identical to the corresponding scalar call.
    """
    times = np.zeros_like(on_rate)
    for on_chip, off_chip, divisors in components:
        div = np.asarray(divisors, dtype=np.float64)
        times += on_chip * on_rate / div
        times += off_chip * off_rate / div
    times += overhead
    return times


def sp_times(
    t1: np.ndarray, n: np.ndarray, overhead: np.ndarray
) -> np.ndarray:
    """Eq. 18 over a cell vector, mirroring ``SimplifiedParameterization.predict_time``.

    ``t1`` is the measured sequential time at each cell's frequency,
    ``n`` the (float) processor count, ``overhead`` the clamped SP
    overhead term (zero-filled for sequential cells).  Cells with
    ``n == 1`` are restored to the bare ``T_1`` because the scalar
    path never touches the overhead term there.
    """
    times = t1 / n + overhead
    sequential = n == 1.0
    times[sequential] = t1[sequential]
    return times


def energy_joules(
    n: np.ndarray,
    busy_power_w: np.ndarray,
    overhead_power_w: np.ndarray,
    total_s: np.ndarray,
    overhead_s: np.ndarray,
) -> np.ndarray:
    """Per-cell energy, mirroring ``EnergyModel.predict``.

    The scalar path clamps ``overhead = min(max(o, 0), total)``, splits
    ``busy = total - overhead`` and charges
    ``n * (busy_power * busy + overhead_power * overhead)``; the same
    operations run element-wise here (``np.minimum``/``np.maximum``
    agree with Python's ``min``/``max`` on every non-NaN double, and a
    ``-0.0``-vs-``+0.0`` disagreement cannot change any product or sum
    below).
    """
    overhead = np.minimum(np.maximum(overhead_s, 0.0), total_s)
    busy = total_s - overhead
    return n * (busy_power_w * busy + overhead_power_w * overhead)
