"""Declarative experiment specs and the stage runner.

An experiment is an :class:`ExperimentSpec`: a ``requires`` hook that
maps parameters to :class:`~repro.pipeline.requests.CampaignRequest`s,
plus an ordered tuple of pure :class:`Stage`s (conventionally ``fit``
→ ``analyze`` → ``render``) that transform measured campaigns into the
final :class:`~repro.experiments.registry.ExperimentResult`.  Stages
receive a :class:`StageContext` — parameters, the resolved requests,
the shared artifact store and the previous stages' outputs — and must
not measure anything themselves: campaigns come from the store, where
the planner put them.

:func:`run_pipeline` is the batch entry point: it resolves every
experiment's requests, executes them as **one deduplicated plan**
(:func:`repro.pipeline.planner.execute_plan`), then runs each
experiment's stages off the shared store.  Running experiments
together is therefore strictly cheaper than running them one by one,
and bit-identical to it.
"""

from __future__ import annotations

import dataclasses
import time
import typing as _t

from repro.experiments.registry import ExperimentResult
from repro.pipeline.artifacts import (
    Artifact,
    FitArtifact,
    Provenance,
    TableArtifact,
    inputs_digest,
)
from repro.pipeline.planner import PlanReport, execute_plan
from repro.pipeline.requests import CampaignRequest, checked_body
from repro.pipeline.store import ArtifactStore

__all__ = [
    "Stage",
    "ExperimentSpec",
    "StageContext",
    "run_pipeline",
    "run_single",
]

Params = dict[str, _t.Any]
RequiresHook = _t.Callable[[Params], _t.Sequence[CampaignRequest]]


@dataclasses.dataclass(frozen=True, eq=False)
class Stage:
    """One pure transform step of an experiment.

    ``fn`` takes the :class:`StageContext` and returns the stage's
    output; the final stage must return an
    :class:`~repro.experiments.registry.ExperimentResult`.
    """

    name: str
    fn: _t.Callable[["StageContext"], _t.Any]


@dataclasses.dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """A declarative experiment: requirements + transform stages.

    Attributes
    ----------
    experiment_id:
        Registry id (``"table3"``).
    title:
        Human-readable title for listings.
    stages:
        Ordered transform stages; the last must return an
        ``ExperimentResult``.
    requires:
        Either a static request tuple or a callable mapping the
        run's parameters to requests.  Empty for experiments that
        measure nothing through campaigns (pure profiling studies).
    description:
        Listing description (defaults to the title).
    params:
        The parameter names its ``requires`` hook and its stages read;
        the service rejects a run naming any other
        (:meth:`params_from_body`).
    """

    experiment_id: str
    title: str
    stages: tuple[Stage, ...]
    requires: RequiresHook | tuple[CampaignRequest, ...] = ()
    description: str = ""
    params: tuple[str, ...] = ("problem_class",)

    def params_from_body(self, body: _t.Any) -> Params:
        """The run parameters a JSON request body names.

        A body that is not an object, or that names a parameter outside
        :attr:`params`, raises :class:`~repro.errors.ConfigurationError`.
        """
        return dict(checked_body(body, self.params))

    def resolve_requests(
        self, params: Params
    ) -> tuple[CampaignRequest, ...]:
        """The campaign requests this run needs, given ``params``."""
        if callable(self.requires):
            return tuple(self.requires(params) or ())
        return tuple(self.requires)


class StageContext:
    """What a stage sees: params, requests, store, prior outputs."""

    def __init__(
        self,
        spec: ExperimentSpec,
        params: Params,
        store: ArtifactStore,
        requests: tuple[CampaignRequest, ...],
    ) -> None:
        self.spec = spec
        self.params = dict(params)
        self.store = store
        self.requests = requests
        #: Previous stages' outputs by stage name.
        self.state: dict[str, _t.Any] = {}

    @property
    def experiment_id(self) -> str:
        """The running experiment's registry id."""
        return self.spec.experiment_id

    def param(self, name: str, default: _t.Any = None) -> _t.Any:
        """A run parameter, with an experiment-chosen default."""
        value = self.params.get(name, default)
        return default if value in (None, "") else value

    def campaign(self, which: int | CampaignRequest):
        """The measured campaign for one of this run's requests.

        ``which`` is an index into the spec's resolved requests or a
        request object.  Campaigns come from the shared store (the
        planner put them there); a request the planner never saw
        falls back to :meth:`CampaignRequest.measure` — whose cache
        the planner kept warm, so the at-most-once guarantee holds
        either way.
        """
        request = (
            self.requests[which] if isinstance(which, int) else which
        )
        artifact = self.store.campaign(request)
        if artifact is not None:
            return artifact.value
        return request.measure()


def _run_stages(
    spec: ExperimentSpec,
    params: Params,
    store: ArtifactStore,
    requests: tuple[CampaignRequest, ...],
) -> ExperimentResult:
    """Run one experiment's stages off the shared store."""
    context = StageContext(spec, params, store, requests)
    base_inputs = {
        "params": {k: repr(v) for k, v in sorted(params.items())},
        "requests": [r.digest() for r in requests],
    }
    value: _t.Any = None
    previous: list[str] = []
    for stage in spec.stages:
        start = time.perf_counter()
        value = stage.fn(context)
        context.state[stage.name] = value
        provenance = Provenance(
            experiment_id=spec.experiment_id,
            stage=stage.name,
            inputs_digest=inputs_digest(
                {**base_inputs, "after": list(previous)}
            ),
            wall_s=time.perf_counter() - start,
        )
        name = f"{spec.experiment_id}/{stage.name}"
        if isinstance(value, ExperimentResult):
            store.add(TableArtifact(name, value, provenance))
        elif stage.name == "fit":
            store.add(FitArtifact(name, value, provenance))
        else:
            store.add(Artifact(name, value, provenance))
        previous.append(stage.name)
    if not isinstance(value, ExperimentResult):
        raise TypeError(
            f"experiment {spec.experiment_id!r}: final stage "
            f"{spec.stages[-1].name!r} returned "
            f"{type(value).__name__}, expected ExperimentResult"
        )
    return value


def run_pipeline(
    items: _t.Sequence[ExperimentSpec | tuple[ExperimentSpec, Params]],
    *,
    store: ArtifactStore | None = None,
    jobs: int | None = None,
) -> tuple[dict[str, ExperimentResult], PlanReport]:
    """Run many experiments as one deduplicated plan.

    ``items`` holds specs, or ``(spec, params)`` pairs for
    parameterized runs.  Returns ``(results by experiment id, plan
    report)``.  The store (given or fresh) ends up holding every
    campaign, fit, analysis and table artifact of the batch.
    """
    store = store if store is not None else ArtifactStore()
    pairs = [
        item if isinstance(item, tuple) else (item, {}) for item in items
    ]
    resolved = [
        (spec, dict(params), spec.resolve_requests(dict(params)))
        for spec, params in pairs
    ]
    all_requests = [
        request
        for _spec, _params, requests in resolved
        for request in requests
    ]
    report = execute_plan(all_requests, store, jobs=jobs)
    results: dict[str, ExperimentResult] = {}
    for spec, params, requests in resolved:
        results[spec.experiment_id] = _run_stages(
            spec, params, store, requests
        )
    return results, report


def run_single(
    spec: ExperimentSpec,
    params: Params | None = None,
    *,
    store: ArtifactStore | None = None,
) -> ExperimentResult:
    """Run one experiment through the pipeline (registry entry path)."""
    results, _report = run_pipeline([(spec, dict(params or {}))], store=store)
    return results[spec.experiment_id]
