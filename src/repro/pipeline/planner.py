"""Cross-experiment campaign planning.

Given every :class:`~repro.pipeline.requests.CampaignRequest` of a set
of experiments, the planner:

1. **Dedupes** requests by content digest — identical grids from
   different experiments collapse to one.
2. **Looks up** each unique request's key in the cache tiers
   (:func:`~repro.experiments.platform.lookup_campaign`: memory, then
   disk); hits never re-enter execution, and their cells seed the
   process-global cell index so *overlapping* grids reuse them too.
3. Computes, per execution group (same benchmark config + platform),
   the **union of still-missing cells** and runs each union once
   through :func:`~repro.experiments.platform.run_cells` — one batch
   and one campaign record per group, inheriting the runner's
   parallelism and fault tolerance.
4. **Assembles** each request's campaign from the cell index in grid
   order — bit-identical to a direct ``measure_campaign`` call,
   because cells are independent and the simulator is deterministic —
   and stores each complete one under its key in both cache tiers
   (:func:`~repro.experiments.platform.store_campaign`) so later
   direct calls (and warm restarts) hit.

A request's identity is :meth:`CampaignRequest.key`, computed once per
request: lookup, run and store all use it, so a request without a
``spec`` is the paper platform whatever the runtime default is.

The cell index is process-global: across any number of plans in one
process, each unique (benchmark config, platform, n, f) cell is
simulated at most once.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
import typing as _t

from repro import runtime
from repro.core.measurements import TimingCampaign
from repro.errors import CampaignExecutionError
from repro.experiments.platform import (
    lookup_campaign,
    run_cells,
    store_campaign,
)
from repro.pipeline.artifacts import CampaignArtifact, Provenance
from repro.pipeline.requests import CampaignRequest
from repro.pipeline.store import ArtifactStore, campaign_artifact_name

__all__ = ["PlanReport", "execute_plan", "clear_cell_index"]

#: (group key, n, f) → (time_s, energy_j) for every cell simulated or
#: recovered from cache in this process.  The at-most-once guarantee.
_CELL_INDEX: dict[tuple, tuple[float, float]] = {}


def clear_cell_index() -> None:
    """Forget all indexed cells (test isolation)."""
    _CELL_INDEX.clear()


@dataclasses.dataclass
class PlanReport:
    """Cell-level accounting of one planner pass.

    ``planned_cells`` counts cells over *all* incoming requests (the
    work the experiments asked for); ``executed_cells`` is what the
    batches actually simulated; ``deduped_cells`` is the difference —
    cells avoided by request dedup, grid overlap and the cache tiers.
    """

    requested_campaigns: int = 0
    unique_campaigns: int = 0
    cached_campaigns: int = 0
    planned_cells: int = 0
    deduped_cells: int = 0
    executed_cells: int = 0
    analytic_cells: int = 0
    batches: list[dict[str, _t.Any]] = dataclasses.field(
        default_factory=list
    )

    def as_dict(self) -> dict[str, _t.Any]:
        """JSON-ready plan accounting (the ``--plan-json`` export)."""
        return {
            "requested_campaigns": self.requested_campaigns,
            "unique_campaigns": self.unique_campaigns,
            "cached_campaigns": self.cached_campaigns,
            "planned_cells": self.planned_cells,
            "deduped_cells": self.deduped_cells,
            "executed_cells": self.executed_cells,
            "analytic_cells": self.analytic_cells,
            "batches": list(self.batches),
        }

    def summary_line(self) -> str:
        """One-line human summary (the CLI's ``[experiment plan]``)."""
        line = (
            f"{self.requested_campaigns} campaigns requested "
            f"({self.unique_campaigns} unique): "
            f"{self.planned_cells} cells planned, "
            f"{self.deduped_cells} deduped, "
            f"{self.executed_cells} executed in "
            f"{len(self.batches)} batches"
        )
        if self.analytic_cells:
            line += f" ({self.analytic_cells} analytic)"
        return line


def _index_campaign(request: CampaignRequest, campaign: TimingCampaign) -> None:
    """Seed the cell index with a campaign's cells."""
    group = request.group()
    for (n, f), seconds in campaign.times.items():
        _CELL_INDEX[(group, n, f)] = (
            seconds,
            campaign.energies[(n, f)],
        )


def _run_batch(
    request: CampaignRequest,
    cells: _t.Sequence[tuple[int, float]],
    settings: runtime.Settings,
) -> tuple[int, int]:
    """Run one group's missing-cell union and index its cells.

    Returns ``(cells done, cells answered analytically)``.
    """
    execution = run_cells(
        request.key(), request.build(), cells, request.spec, settings
    )
    group = request.group()
    for (n, f), seconds in execution.times.items():
        _CELL_INDEX[(group, n, f)] = (seconds, execution.energies[(n, f)])
    return len(execution.times), execution.analytic_cells


def execute_plan(
    requests: _t.Sequence[CampaignRequest],
    store: ArtifactStore,
    *,
    jobs: int | None = None,
    fabric: bool | None = None,
) -> PlanReport:
    """Satisfy every request, simulating each unique cell at most once.

    Deposits one :class:`CampaignArtifact` per unique request into
    ``store`` and reports plan counters (planned/deduped/executed
    cells) into the runtime metrics.  Raises
    :class:`~repro.errors.CampaignExecutionError` if a batch exhausts
    its retry budget and partial campaigns are not allowed.

    ``fabric`` dispatches each execution-group batch to the
    distributed worker fleet (``None`` resolves the configured
    default; no live fleet falls back to the local pool per batch).
    With a live fleet, up to ``REPRO_PLAN_WINDOW`` (default 4) group
    batches are kept in flight on the coordinator concurrently so the
    fleet never drains between groups.  ``jobs``, ``fabric`` and the
    window resolve once per plan (:func:`repro.settings.settings`).
    """
    start = time.perf_counter()
    settings = runtime.settings(jobs=jobs, fabric=fabric)
    report = PlanReport(requested_campaigns=len(requests))
    report.planned_cells = sum(len(r.cells()) for r in requests)

    # 1. Dedup by content digest.
    unique: dict[str, CampaignRequest] = {}
    for request in requests:
        unique.setdefault(request.digest(), request)
    report.unique_campaigns = len(unique)

    # 2. Cache lookup; hits seed the cell index for overlapping grids.
    campaigns: dict[str, TimingCampaign] = {}
    sources: dict[str, str] = {}
    missing: dict[str, CampaignRequest] = {}
    for digest, request in unique.items():
        campaign = lookup_campaign(request.key(), settings)
        if campaign is not None:
            campaigns[digest] = campaign
            sources[digest] = "cached"
            _index_campaign(request, campaign)
        else:
            missing[digest] = request
    report.cached_campaigns = len(campaigns)

    # 3. Per-group union of cells not yet indexed, one batch each.
    groups: dict[tuple, list[CampaignRequest]] = {}
    for request in missing.values():
        groups.setdefault(request.group(), []).append(request)
    group_batches: list[
        tuple[list[CampaignRequest], list[tuple[int, float]]]
    ] = []
    for group, members in groups.items():
        needed: list[tuple[int, float]] = []
        seen: set[tuple[int, float]] = set()
        for request in members:
            for cell in request.cells():
                if cell in seen or (group, *cell) in _CELL_INDEX:
                    continue
                seen.add(cell)
                needed.append(cell)
        if needed:
            group_batches.append((members, needed))

    # With a live worker fleet, pipeline the group batches: up to
    # ``REPRO_PLAN_WINDOW`` groups are submitted to the coordinator
    # concurrently, so the fleet never drains between groups.  Each
    # in-flight group still produces its own CampaignRecord, and
    # per-group assembly below stays in plan order (bit-identical
    # merge).  Without a fleet, dispatch stays strictly sequential.
    window = settings.plan_window
    live_fleet = False
    if settings.fabric and window > 1 and len(group_batches) > 1:
        from repro.fabric import active_coordinator

        coordinator = active_coordinator()
        live_fleet = (
            coordinator is not None
            and not coordinator.draining
            and coordinator.live_workers() > 0
        )
    outcomes: list[tuple[int, int] | None] = [None] * len(
        group_batches
    )
    if live_fleet:
        errors: list[CampaignExecutionError | None] = [None] * len(
            group_batches
        )
        # Cells a degrading fleet strands run locally *inside* a
        # dispatch thread — force that fallback serial (jobs=1) so
        # concurrent groups never fight over the shared local pool.
        serial = dataclasses.replace(settings, jobs=1)
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=window, thread_name_prefix="plan-dispatch"
        ) as pool:
            futures = {
                pool.submit(_run_batch, members[0], needed, serial): index
                for index, (members, needed) in enumerate(
                    group_batches
                )
            }
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                try:
                    outcomes[index] = future.result()
                except CampaignExecutionError as error:
                    errors[index] = error
        for error in errors:
            if error is not None:
                raise error
    else:
        for index, (members, needed) in enumerate(group_batches):
            outcomes[index] = _run_batch(members[0], needed, settings)
    for (members, needed), outcome in zip(group_batches, outcomes):
        done, analytic = outcome
        report.executed_cells += done
        report.analytic_cells += analytic
        report.batches.append(
            {
                "label": members[0].label,
                "requests": len(members),
                "cells": len(needed),
                "completed": done,
                "backend": members[0].key()[6],
                "analytic_cells": analytic,
            }
        )

    # 4. Assemble per-request campaigns from the index, grid order.
    for digest, request in missing.items():
        group = request.group()
        times: dict[tuple[int, float], float] = {}
        energies: dict[tuple[int, float], float] = {}
        for cell in request.cells():
            entry = _CELL_INDEX.get((group, *cell))
            if entry is not None:
                times[cell] = entry[0]
                energies[cell] = entry[1]
        campaign = TimingCampaign(
            times=times,
            base_frequency_hz=min(request.frequencies),
            energies=energies,
            label=request.label,
        )
        if len(times) == len(request.cells()):
            # Complete → warm both cache tiers, exactly as if this
            # campaign had gone through measure_campaign.
            store_campaign(request.key(), campaign, settings)
        campaigns[digest] = campaign
        sources[digest] = "planned"
        runtime.METRICS.record(
            runtime.CampaignRecord(
                label=request.label,
                source="planned",
                cells=len(request.cells()),
                wall_s=0.0,
                failed_cells=len(request.cells()) - len(times),
            )
        )

    # 5. Deposit campaign artifacts.
    for digest, request in unique.items():
        store.add(
            CampaignArtifact(
                name=campaign_artifact_name(request),
                value=campaigns[digest],
                provenance=Provenance(
                    experiment_id="",
                    stage="plan",
                    inputs_digest=digest,
                    wall_s=time.perf_counter() - start,
                ),
                request=request,
                source=sources[digest],
            )
        )

    report.deduped_cells = report.planned_cells - report.executed_cells
    runtime.METRICS.record_plan(
        report.planned_cells,
        report.deduped_cells,
        report.executed_cells,
    )
    return report
