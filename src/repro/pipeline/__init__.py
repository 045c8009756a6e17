"""Declarative experiment pipeline with cross-experiment planning.

The paper's artifacts (Tables 1–7, Figures 1–2, the EDP/ablation
studies) all measure on the same (benchmark × counts × frequency)
grids, then diverge only in analysis.  This package separates those
concerns:

* :mod:`~repro.pipeline.requests` — :class:`CampaignRequest`, the
  typed, content-addressed description of what an experiment needs,
  :class:`GovernRequest`/:class:`OptimizeRequest`, the other two
  parameterized jobs the CLI and the service share, and
  :class:`PredictRequest`, the service's ``/predict`` query.
* :mod:`~repro.pipeline.planner` — dedupes requests across any set of
  experiments, executes the union of missing cells as one batch per
  (benchmark config, platform) group via
  :func:`repro.runtime.execute_cells`, and guarantees each unique
  cell simulates **at most once per process**.
* :mod:`~repro.pipeline.artifacts` / :mod:`~repro.pipeline.store` —
  typed artifacts (campaign, fit, table) with provenance (inputs
  digest, schema version, wall time) in a shared in-memory store.
* :mod:`~repro.pipeline.experiment` — :class:`ExperimentSpec` (pure
  ``fit`` → ``analyze`` → ``render`` stages) and the batch runner
  :func:`run_pipeline`.

Experiment outputs are bit-identical whether experiments run alone,
together, or through the pre-pipeline imperative drivers — the
simulator is deterministic and cells are independent, so assembling a
campaign from batch-executed cells reproduces ``measure_campaign``
exactly.
"""

from repro.pipeline.artifacts import (
    PIPELINE_SCHEMA_VERSION,
    Artifact,
    CampaignArtifact,
    FitArtifact,
    Provenance,
    TableArtifact,
    inputs_digest,
)
from repro.pipeline.experiment import (
    ExperimentSpec,
    Stage,
    StageContext,
    run_pipeline,
    run_single,
)
from repro.pipeline.planner import (
    PlanReport,
    clear_cell_index,
    execute_plan,
)
from repro.pipeline.requests import (
    CampaignRequest,
    GovernRequest,
    OptimizeRequest,
    PredictRequest,
)
from repro.pipeline.store import ArtifactStore, campaign_artifact_name

__all__ = [
    "PIPELINE_SCHEMA_VERSION",
    "Artifact",
    "ArtifactStore",
    "CampaignArtifact",
    "CampaignRequest",
    "ExperimentSpec",
    "FitArtifact",
    "GovernRequest",
    "OptimizeRequest",
    "PlanReport",
    "PredictRequest",
    "Provenance",
    "Stage",
    "StageContext",
    "TableArtifact",
    "campaign_artifact_name",
    "clear_cell_index",
    "execute_plan",
    "inputs_digest",
    "run_pipeline",
    "run_single",
]
