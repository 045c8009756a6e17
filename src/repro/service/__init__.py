"""Long-running prediction & campaign service.

Every other entry point to the reproduction is a one-shot CLI: each
invocation re-imports the package, re-warms the caches and cannot
share in-flight work between callers.  This subsystem turns the
reproduction into a *server* — ``repro-serve`` (or ``repro-experiments
serve``) starts a stdlib-only asyncio HTTP service that keeps fitted
models, campaign caches and the fault-tolerant worker pool alive
across requests.

The workload is asymmetric, and the service is shaped around that:

* **Predictions are closed-form and cheap** (the paper's Eqs. 10–18
  reduce to a handful of float operations once a parameterization is
  fitted), so ``POST /predict`` answers synchronously — sub-millisecond
  on a warm model — with one vectorized numpy evaluation per request
  behind a bounded response cache; concurrent requests that wait for
  the same model's fit share one fit (:mod:`repro.service.coalesce`).
* **Campaign simulation is expensive and cacheable**, so ``POST
  /campaign`` submits a background job (:mod:`repro.service.jobs`)
  onto the fault-tolerant :mod:`repro.runtime` pool, deduplicated
  against running jobs, a bounded in-process LRU
  (:mod:`repro.runtime.memcache`) and the persistent
  :class:`~repro.runtime.diskcache.DiskCache`.  ``GET /jobs/<id>``
  reports status plus the runtime's retry/attempt history.

``GET /metrics`` exposes the service counters together with
:func:`repro.runtime.campaign_metrics` (per-campaign sources, engine
throughput, disk-cache behaviour), making the PR 3 observability work
externally scrapeable; ``GET /healthz`` is the liveness probe.

Everything speaks JSON over HTTP/1.1 with no dependencies beyond the
standard library and numpy, and every float in a response is
bit-identical to the equivalent direct
:class:`~repro.core.params_sp.SimplifiedParameterization` /
:func:`~repro.experiments.platform.measure_campaign` call — JSON
round-trips doubles exactly.

Configuration: :class:`~repro.service.server.ServiceConfig` holds the
service's knobs, each field naming its ``REPRO_SERVE_*`` variable
(flags take precedence); the campaign runtime's knobs are
:class:`repro.settings.Settings`, resolved once when the service is
constructed.  Both read the environment through
:func:`repro.settings.env_values`, so a malformed value is a
:class:`~repro.errors.ConfigurationError` naming the variable, and
``repro-serve`` exits 2 on it.  README's environment table lists them
all.
"""

from repro.runtime.memcache import LRUCache
from repro.service.client import ServiceClient, ServiceError
from repro.service.coalesce import Coalescer
from repro.service.jobs import Job, JobManager, JobQueueFullError
from repro.service.server import (
    ReproService,
    ServiceConfig,
    ServiceThread,
    main,
)

__all__ = [
    "Coalescer",
    "Job",
    "JobManager",
    "JobQueueFullError",
    "LRUCache",
    "ReproService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "main",
]
