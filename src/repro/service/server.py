"""The asyncio HTTP server: route table, model registry, lifecycle.

One :class:`ReproService` owns everything a long-lived prediction
process needs:

* a registry of fitted :class:`~repro.service.coalesce.PredictorBundle`
  models (one per benchmark × problem class × platform), built lazily —
  the fitting campaign runs on the default executor so the event loop
  keeps serving — and single-flighted
  (:class:`~repro.service.coalesce.Coalescer`) so a thundering herd
  fits once;
* ``/predict``: the body becomes a typed
  :class:`~repro.pipeline.requests.PredictRequest`, answered from a
  bounded :class:`~repro.runtime.memcache.LRUCache` of rendered
  responses or by one vectorized pass on the event loop;
* one job path for ``POST /campaign``, ``/govern``, ``/optimize``
  and ``/experiments/<id>``: the body becomes a typed request
  (:mod:`repro.pipeline.requests`) or the experiment's declared
  parameters, which a
  :class:`~repro.service.jobs.JobManager` thread runs, deduplicated
  by job key while active and replayed from the response cache once
  done; the POST answers with the finished job when it finishes
  within :data:`ANSWER_WAIT_S`, else with a ticket to poll
  (``docs/SERVICE.md`` has the contract); ``GET /experiments``
  lists the registry's pipeline specs;
* one boundary rule for every body: a key the route does not declare,
  a value of the wrong type or an unknown benchmark, class or platform
  is a 400 naming the field, before any work starts;
* platforms: ``GET /platforms`` lists the registered platform specs
  (:mod:`repro.platforms`); ``/predict``, ``/campaign`` and
  ``/govern`` accept a ``platform`` field (unknown names are a 400
  naming the valid choices);
* the campaign-fabric coordinator (:mod:`repro.fabric`): remote
  workers drive ``/fabric/register``, ``/fabric/lease``,
  ``/fabric/complete`` and ``/fabric/heartbeat``; worker/lease
  counters ride along in ``/metrics``, and a periodic housekeeping
  task reaps dead workers and purges expired job results;
* split health endpoints — ``/healthz`` is pure liveness (200 while
  the process answers), ``/readyz`` is readiness (503 while draining
  or queue-full, so load balancers stop routing *before* the SIGTERM
  drain completes);
* graceful shutdown — SIGTERM/SIGINT stop admission, drain the
  fabric (workers see ``drain`` and exit; in-flight fabric batches
  fall back to local execution), drain running jobs, then close the
  listener.

The process is marked as a long-lived server at startup
(:func:`repro.runtime.mark_server_process`), so fault-injection plans
cannot be armed under live traffic unless explicitly allowed.

Entry points: the ``repro-serve`` console script (:func:`main`), the
``repro-experiments serve`` subcommand (:func:`add_serve_arguments` /
:func:`serve_from_args`), and :class:`ServiceThread` for tests and
benchmarks that need an in-process server on a free port.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import inspect
import os
import signal
import sys
import threading
import time
import typing as _t

from repro.errors import ConfigurationError, ReproError
from repro.runtime.memcache import LRUCache
from repro.service import coalesce, jobs as jobs_mod, protocol
from repro.settings import env_values, flag, knob, settings

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ReproService",
    "ServiceConfig",
    "ServiceThread",
    "add_serve_arguments",
    "main",
    "serve_from_args",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642
#: Response-cache bound (``REPRO_SERVE_CACHE_ENTRIES`` overrides).
DEFAULT_CACHE_ENTRIES = 512
#: How long a job route waits for its job before answering with a
#: ticket.  Under the perfbench ``service`` load the median job runs
#: in 0.26 ms and the slowest in under 0.1 s, so nearly every job is
#: answered in its POST, while a long campaign still gets its ticket
#: after 50 ms.
ANSWER_WAIT_S = 0.05

#: Per-model fitting grids (LU follows the paper's N <= 8, matching
#: the edp experiment).
_MODEL_COUNTS: dict[str, tuple[int, ...]] = {"lu": (1, 2, 4, 8)}


def parse_warmup(text: str) -> tuple[tuple[str, str], ...]:
    """Parse ``"ep:A,ft:A"`` into ``(("ep", "A"), ("ft", "A"))``."""
    models = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, sep, cls = token.partition(":")
        models.append((name.strip().lower(), (cls.strip() or "A").upper()))
    return tuple(models)


@dataclasses.dataclass
class ServiceConfig:
    """Everything configurable about one service instance.

    Defaults come from the ``REPRO_SERVE_*`` environment (each field's
    variable is named beside it); CLI flags override per invocation.
    """

    host: str = knob("REPRO_SERVE_HOST", str, DEFAULT_HOST)
    port: int = knob("REPRO_SERVE_PORT", int, DEFAULT_PORT)
    warmup: tuple[tuple[str, str], ...] = knob(
        "REPRO_SERVE_WARMUP", parse_warmup, ()
    )
    job_workers: int = knob("REPRO_SERVE_JOB_WORKERS", int, 2)
    max_queue: int = knob("REPRO_SERVE_QUEUE", int, 64)
    result_ttl_s: float = knob("REPRO_SERVE_RESULT_TTL", float, 900.0)
    cache_entries: int = knob(
        "REPRO_SERVE_CACHE_ENTRIES", int, DEFAULT_CACHE_ENTRIES
    )
    allow_faults: bool = knob("REPRO_SERVE_ALLOW_FAULTS", flag, False)
    drain_timeout_s: float = 30.0
    #: Campaign-fabric timings (see :mod:`repro.fabric`); tests dial
    #: these down so lease expiry and worker death resolve in tens of
    #: milliseconds instead of seconds.
    fabric_lease_ttl_s: float = knob("REPRO_SERVE_LEASE_TTL", float, 5.0)
    fabric_heartbeat_s: float = knob("REPRO_SERVE_HEARTBEAT", float, 1.0)
    fabric_worker_timeout_s: float | None = None
    #: Cap on cells per lease; the adaptive sizing policy picks the
    #: actual count (see :class:`repro.fabric.FabricCoordinator`).
    fabric_max_lease_cells: int = knob(
        "REPRO_SERVE_MAX_LEASE_CELLS", int, 256
    )
    #: Per-lease work target driving adaptive lease sizing.  ``None``
    #: defaults to ~2× the heartbeat; ``0`` disables adaptation
    #: (every lease filled to the cap).
    fabric_target_lease_s: float | None = knob(
        "REPRO_SERVE_TARGET_LEASE", float
    )
    #: Period of the housekeeping task (job purge + fabric reap).
    housekeeping_s: float = knob("REPRO_SERVE_HOUSEKEEPING", float, 1.0)

    @classmethod
    def from_env(cls) -> "ServiceConfig":
        """A config resolved from the ``REPRO_SERVE_*`` environment.

        A malformed value raises :class:`~repro.errors.
        ConfigurationError` naming the variable.
        """
        return cls(**env_values(cls))


class ReproService:
    """The prediction & campaign HTTP service."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        #: Runtime settings resolved once, at construction: ``/predict``
        #: reads its default platform here, never per request.
        self.settings = settings()
        self.responses = LRUCache(self.config.cache_entries)
        self.fit_coalescer = coalesce.Coalescer()
        self.jobs = jobs_mod.JobManager(
            max_workers=self.config.job_workers,
            max_queue=self.config.max_queue,
            ttl_s=self.config.result_ttl_s,
        )
        self.bundles: dict[
            tuple[str, str, str], coalesce.PredictorBundle
        ] = {}
        self.requests_total = 0
        #: ``/predict`` counters: ``requests`` that passed validation,
        #: each a cache hit, ``coalesced`` (it waited for its model's
        #: fit and then found its response cached), ``computed`` (one
        #: vectorized pass, which fails on an unfitted cell) or a fit
        #: failure.
        self.predict_counts = dict.fromkeys(
            ("requests", "cache_hits", "computed", "coalesced"), 0
        )
        self.by_endpoint: dict[str, int] = {}
        self.by_status: dict[int, int] = {}
        self._server: asyncio.AbstractServer | None = None
        self._port: int | None = None
        self._started_at: float | None = None
        self._stop_event: asyncio.Event | None = None
        self._closing = False
        self.coordinator: _t.Any | None = None
        self._housekeeping: asyncio.Task | None = None
        # ``(method, path)`` -> handler(request, *ids); an ``<id>``
        # path segment matches any one segment.
        self._routes: dict[tuple[str, str], _t.Callable] = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/readyz"): self._readyz,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/platforms"): self._handle_platforms,
            ("GET", "/experiments"): self._handle_experiments_list,
            ("GET", "/jobs"): self._handle_jobs_list,
            ("GET", "/jobs/<id>"): self._handle_job,
            ("POST", "/jobs/<id>/cancel"): self._handle_cancel,
            ("POST", "/predict"): self._handle_predict,
            ("POST", "/experiments/<id>"): self._handle_experiment,
            ("POST", "/campaign"): self._handle_job_request,
            ("POST", "/govern"): self._handle_job_request,
            ("POST", "/optimize"): self._handle_job_request,
        }
        for action in ("register", "lease", "heartbeat", "complete"):
            self._routes["POST", f"/fabric/{action}"] = self._handle_fabric
        self._paths = {path for _, path in self._routes}

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._port is None:
            raise RuntimeError("service is not started")
        return self._port

    async def start(self) -> None:
        """Mark the process, warm requested models, bind the socket."""
        from repro import runtime
        from repro.fabric import FabricCoordinator, install_coordinator

        runtime.mark_server_process(
            "repro-serve", allow_faults=self.config.allow_faults
        )
        self._started_at = time.monotonic()
        self.coordinator = FabricCoordinator(
            lease_ttl_s=self.config.fabric_lease_ttl_s,
            heartbeat_s=self.config.fabric_heartbeat_s,
            worker_timeout_s=self.config.fabric_worker_timeout_s,
            max_lease_cells=self.config.fabric_max_lease_cells,
            target_lease_s=self.config.fabric_target_lease_s,
        )
        install_coordinator(self.coordinator)
        for name, cls in self.config.warmup:
            await self._bundle(name, cls)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._housekeeping = asyncio.create_task(
            self._housekeeping_loop()
        )

    async def _housekeeping_loop(self) -> None:
        """Periodic upkeep no request should have to trigger: purge
        expired job results and reap dead fabric workers/leases."""
        period = max(0.05, float(self.config.housekeeping_s))
        while True:
            await asyncio.sleep(period)
            self.jobs.purge()
            if self.coordinator is not None:
                self.coordinator.reap()

    async def stop(self) -> None:
        """Graceful shutdown: stop admission, drain jobs, unbind."""
        from repro import runtime
        from repro.fabric import install_coordinator

        self._closing = True
        if self.coordinator is not None:
            # Workers see ``drain`` on their next lease and exit; any
            # in-flight fabric batch falls back to local execution.
            self.coordinator.drain()
        await self.jobs.drain(self.config.drain_timeout_s)
        self.jobs.shutdown()
        if self._housekeeping is not None:
            self._housekeeping.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._housekeeping
            self._housekeeping = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        install_coordinator(None)
        self.coordinator = None
        runtime.unmark_server_process()

    def request_stop(self) -> None:
        """Ask :meth:`run` to shut down (signal-handler safe)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def run(self, announce: bool = False) -> None:
        """Start, serve until SIGTERM/SIGINT (or
        :meth:`request_stop`), then drain and stop."""
        await self.start()
        self._stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._stop_event.set)
                installed.append(sig)
            except (NotImplementedError, ValueError):
                pass  # non-main thread or unsupported platform
        if announce:
            print(
                f"repro-serve listening on "
                f"http://{self.config.host}:{self.port} "
                f"(pid {os.getpid()}); SIGTERM drains gracefully"
            )
        try:
            await self._stop_event.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.stop()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await protocol.read_request(reader)
                except protocol.ProtocolError as exc:
                    writer.write(
                        protocol.render_response(
                            exc.status,
                            protocol.error_payload("protocol", str(exc)),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload = await self._dispatch(request)
                self.by_status[status] = self.by_status.get(status, 0) + 1
                keep = request.keep_alive and not self._closing
                writer.write(
                    protocol.render_response(
                        status, payload, keep_alive=keep
                    )
                )
                await writer.drain()
                if not keep:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection tasks;
            # ending the handler cleanly keeps teardown quiet.
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _dispatch(
        self, request: protocol.Request
    ) -> tuple[int, _t.Any]:
        """Route one request; all error mapping happens here."""
        self.requests_total += 1
        # ``by_endpoint`` counts route templates, so ids add no keys;
        # requests no route handles (404, 405) share one bucket.
        route = "unmatched"
        try:
            # ``/jobs/x/cancel`` -> ``/jobs/<id>/cancel`` with ``("x",)``.
            parts = request.path.split("/", 3)
            path, args = request.path, ()
            if len(parts) > 2:
                template = "/".join([*parts[:2], "<id>", *parts[3:]])
                if template in self._paths:
                    path, args = template, (parts[2],)
            handler = self._routes.get((request.method, path))
            if handler is None:
                if path in self._paths:
                    return 405, protocol.error_payload(
                        "method_not_allowed",
                        f"{request.method} not supported on {path}",
                    )
                return 404, protocol.error_payload(
                    "not_found", f"unknown path {request.path!r}"
                )
            route = f"{request.method} {path}"
            result = handler(request, *args)
            if inspect.isawaitable(result):
                result = await result
            return result
        except protocol.ProtocolError as exc:
            return exc.status, protocol.error_payload(
                "bad_request", str(exc)
            )
        except jobs_mod.JobQueueFullError as exc:
            return 503, protocol.error_payload("queue_full", str(exc))
        except jobs_mod.UnknownJobError as exc:
            return 404, protocol.error_payload("unknown_job", str(exc))
        except ReproError as exc:
            return 400, protocol.error_payload(
                type(exc).__name__, str(exc)
            )
        except Exception as exc:  # pragma: no cover - defensive
            return 500, protocol.error_payload(
                "internal", f"{type(exc).__name__}: {exc}"
            )
        finally:
            self.by_endpoint[route] = self.by_endpoint.get(route, 0) + 1

    # -- endpoints ----------------------------------------------------------

    def _healthz(self, _request: protocol.Request) -> tuple[int, _t.Any]:
        """Liveness: the process is up and the loop is turning.

        Always 200 while the listener answers — even mid-drain.  A
        supervisor restarts on liveness failure; readiness
        (:meth:`_readyz`) is what load balancers route on.
        """
        from repro import __version__

        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return 200, {
            "status": "draining" if self._closing else "ok",
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": uptime,
            "models_loaded": sorted(
                _model_label(key) for key in self.bundles
            ),
            "jobs_active": self.jobs.active_count(),
        }

    def _readyz(self, _request: protocol.Request) -> tuple[int, _t.Any]:
        """Readiness: should *new* work be routed here right now?

        503 while draining (so a balancer stops routing before the
        SIGTERM drain finishes) or while the job queue is full; 200
        with capacity detail otherwise.
        """
        active = self.jobs.active_count()
        reasons = []
        if self._closing or self.jobs.draining:
            reasons.append("draining")
        if active >= self.jobs.max_queue:
            reasons.append("queue_full")
        document = {
            "status": "ready" if not reasons else "unavailable",
            "reasons": reasons,
            "jobs_active": active,
            "queue_capacity": self.jobs.max_queue,
            "fabric_workers": (
                self.coordinator.live_workers()
                if self.coordinator is not None
                else 0
            ),
        }
        return (200 if not reasons else 503), document

    def _handle_fabric(
        self, request: protocol.Request
    ) -> tuple[int, _t.Any]:
        """The worker-protocol endpoints (``/fabric/<action>``).

        Thin wrappers over the installed
        :class:`~repro.fabric.FabricCoordinator` — every method is a
        quick in-memory state transition, so handling them inline on
        the event loop is fine.
        """
        from repro.fabric.coordinator import UnknownWorkerError

        if self.coordinator is None:
            return 503, protocol.error_payload(
                "no_fabric", "fabric coordinator is not running"
            )
        body = request.json()
        if not isinstance(body, dict):
            raise protocol.ProtocolError(
                "fabric request body must be a JSON object"
            )
        action = request.path[len("/fabric/") :]
        worker_id = str(body.get("worker_id", ""))
        try:
            if action == "register":
                return 200, self.coordinator.register(
                    str(body.get("name", "")),
                    body.get("capacity"),
                )
            if action == "lease":
                return 200, self.coordinator.lease(
                    worker_id, body.get("max_cells")
                )
            if action == "heartbeat":
                return 200, self.coordinator.heartbeat(
                    worker_id, body.get("lease_id")
                )
            return 200, self.coordinator.complete(
                worker_id,
                str(body.get("lease_id", "")),
                str(body.get("batch_id", "")),
                body.get("results") or (),
                body.get("failures") or (),
            )
        except UnknownWorkerError as exc:
            return 404, protocol.error_payload(
                "unknown_worker", str(exc)
            )

    def _metrics(self, _request: protocol.Request) -> tuple[int, _t.Any]:
        from repro.experiments.platform import (
            campaign_cache_stats,
            governed_run_cache_stats,
        )
        from repro.runtime import campaign_metrics, server_process_context

        predict = self.predict_counts
        shared = predict["coalesced"] + predict["cache_hits"]
        return 200, {
            "service": {
                "context": server_process_context(),
                "uptime_s": (
                    time.monotonic() - self._started_at
                    if self._started_at is not None
                    else 0.0
                ),
                "requests": {
                    "total": self.requests_total,
                    "by_endpoint": self.by_endpoint,
                    "by_status": {
                        str(k): v for k, v in self.by_status.items()
                    },
                },
                "predict": {
                    **predict,
                    # Fraction of predict traffic that shared work
                    # (coalesced or response-cache hit).
                    "coalesce_ratio": (
                        shared / predict["requests"]
                        if predict["requests"]
                        else 0.0
                    ),
                    # Compatibility fields: each computed predict is
                    # one vectorized pass, so one batch of one.
                    "batcher": {
                        "batches": predict["computed"],
                        "mean_batch": 1.0 if predict["computed"] else 0.0,
                    },
                },
                "models": {
                    "loaded": sorted(
                        _model_label(key) for key in self.bundles
                    ),
                    "fits_started": self.fit_coalescer.started,
                    "fits_coalesced": self.fit_coalescer.coalesced,
                    "fits_inflight": self.fit_coalescer.inflight(),
                },
                "response_cache": self.responses.stats(),
                "jobs": self.jobs.stats(),
                "fabric": (
                    self.coordinator.stats()
                    if self.coordinator is not None
                    else None
                ),
            },
            "campaign_runtime": {
                **campaign_metrics(),
                "memory_cache": campaign_cache_stats(),
                "governed_runs": governed_run_cache_stats(),
            },
        }

    def _handle_platforms(
        self, _request: protocol.Request
    ) -> tuple[int, _t.Any]:
        from repro.platforms import DEFAULT_PLATFORM, platform_summaries

        return 200, {
            "default": DEFAULT_PLATFORM,
            "platforms": platform_summaries(),
        }

    async def _handle_predict(
        self, request: protocol.Request
    ) -> tuple[int, _t.Any]:
        """``POST /predict``: the cached response, else one vectorized
        pass over the request's points.

        A loaded model's path never awaits, so identical requests can
        only meet while they wait for their model's fit; a waiter reads
        the response cache again and answers ``coalesced`` on a hit.
        """
        from repro.pipeline import PredictRequest

        query = _from_body(
            PredictRequest.from_body, request, platform=self.settings.platform
        )
        counts = self.predict_counts
        counts["requests"] += 1
        key = query.key()
        cached = self.responses.get(key)
        if cached is not None:
            counts["cache_hits"] += 1
            return 200, {**cached, "served_from": "cache"}
        bundle = self.bundles.get(query.model)
        if bundle is None:
            bundle = await self._bundle(*query.model)
            cached = self.responses.get(key)
            if cached is not None:
                counts["coalesced"] += 1
                return 200, {**cached, "served_from": "coalesced"}
        counts["computed"] += 1
        points = query.points or tuple(sorted(bundle.campaign.times))
        document = {
            "benchmark": query.benchmark,
            "class": query.problem_class.value,
            "platform": query.platform,
            "base_frequency_hz": bundle.campaign.base_frequency_hz,
            "predictions": coalesce.evaluate_points(bundle, points),
            "model": bundle.sp.inputs_used(),
        }
        self.responses.put(key, document)
        return 200, {**document, "served_from": "computed"}

    def _handle_experiments_list(
        self, _request: protocol.Request
    ) -> tuple[int, _t.Any]:
        from repro.experiments.registry import (
            get_experiment,
            list_experiments,
        )

        experiments = []
        for exp_id, title, description in list_experiments():
            spec = get_experiment(exp_id)
            experiments.append(
                {
                    "id": exp_id,
                    "title": title,
                    "description": description,
                    "stages": [stage.name for stage in spec.stages],
                }
            )
        return 200, {"experiments": experiments}

    async def _handle_job_request(
        self, request: protocol.Request
    ) -> tuple[int, _t.Any]:
        """``POST /campaign|/govern|/optimize``: submit the typed request
        the JSON body names; any invalid field is a 400."""
        from repro.pipeline import CampaignRequest, GovernRequest, OptimizeRequest

        kind = {
            "/campaign": CampaignRequest,
            "/govern": GovernRequest,
            "/optimize": OptimizeRequest,
        }[request.path]
        job = _from_body(kind.from_body, request)
        return await self._answer(
            *self._submit_job(
                job.job_key(),
                job.label,
                job.params(),
                job.document,
                job.ticket_key(),
            )
        )

    async def _handle_experiment(
        self, request: protocol.Request, exp_id: str
    ) -> tuple[int, _t.Any]:
        from repro.experiments.registry import (
            UnknownExperimentError,
            get_experiment,
        )
        from repro.pipeline import ArtifactStore, inputs_digest, run_single

        try:
            spec = get_experiment(exp_id)
        except UnknownExperimentError as exc:
            return 404, protocol.error_payload(
                "unknown_experiment", str(exc)
            )
        values = _from_body(spec.params_from_body, request)
        params = {"experiment": exp_id, "params": values}

        def document() -> dict[str, _t.Any]:
            store = ArtifactStore()
            result = run_single(spec, dict(values), store=store)
            return {
                **result.document(),
                "text": result.text,
                "provenance": store.provenance_document(),
            }

        return await self._answer(
            *self._submit_job(
                "exp-" + inputs_digest(params),
                f"experiment:{exp_id}",
                params,
                document,
            )
        )

    def _submit_job(
        self,
        key: str,
        label: str,
        params: dict[str, _t.Any],
        compute: _t.Callable[[], dict[str, _t.Any]],
        ticket_key: str | None = None,
    ) -> tuple[int, _t.Any]:
        """The one job path: dedup, response-cache replay, 202 ticket.

        A ``key`` with an active job joins it; a ``key`` whose document
        is cached gets a job that replays it; else ``compute`` runs on a
        job thread.  The ticket reports ``ticket_key`` (default ``key``);
        the routes pass it to :meth:`_answer`.
        """
        from repro.runtime.metrics import METRICS

        def run_job(job: jobs_mod.Job) -> dict[str, _t.Any]:
            cached = self.responses.get(("job", key))
            if cached is not None:
                job.runtime = {"source": "service-cache"}
                return cached
            with METRICS.capture() as written:
                document = compute()
            # A campaign job's metrics record carries its label; other
            # kinds record nothing under theirs.
            record = next(
                (r for r in reversed(written) if r.label == label), None
            )
            if record is not None:
                job.runtime = record.as_dict()
                if record.failed_cells:
                    # Partial result: reusable only by this job's own
                    # poll, never by future submissions.
                    return document
            self.responses.put(("job", key), document)
            return document

        job, created = self.jobs.submit(key, label, run_job, params=params)
        return 202, {
            "job_id": job.id,
            "status": job.status,
            "key": ticket_key or key,
            "created": created,
            "poll": f"/jobs/{job.id}",
        }

    async def _answer(
        self, status: int, ticket: dict[str, _t.Any]
    ) -> tuple[int, _t.Any]:
        """Answer a submission with its job once finished, waiting at
        most :data:`ANSWER_WAIT_S`; else with the ``ticket`` as is.

        The finished job's document is the one ``GET /jobs/<id>``
        returns with the ticket's ``key``, ``created`` and ``poll`` laid
        over it.  The wait holds this connection, not a thread, and
        never cancels the job: ``asyncio.wait`` leaves its futures
        running past the timeout, and a cancelled job's future counts
        as finished.
        """
        future = self.jobs.future(ticket["job_id"])
        if future is not None:
            await asyncio.wait(
                (asyncio.wrap_future(future),), timeout=ANSWER_WAIT_S
            )
        job = self.jobs.answer(ticket["job_id"])
        if job is None:
            return status, ticket
        document = job.as_dict()
        for field in ("key", "created", "poll"):
            document[field] = ticket[field]
        return 200, document

    def _handle_jobs_list(
        self, _request: protocol.Request
    ) -> tuple[int, _t.Any]:
        return 200, {
            "jobs": [
                job.as_dict(include_result=False)
                for job in self.jobs.jobs()
            ],
            "stats": self.jobs.stats(),
        }

    def _handle_job(
        self, _request: protocol.Request, job_id: str
    ) -> tuple[int, _t.Any]:
        return 200, self.jobs.job(job_id).as_dict()

    def _handle_cancel(
        self, _request: protocol.Request, job_id: str
    ) -> tuple[int, _t.Any]:
        job = self.jobs.cancel(job_id)
        return 200, job.as_dict(include_result=False)

    # -- model registry -------------------------------------------------------

    async def _bundle(
        self, name: str, cls: str, platform: str = "paper"
    ) -> coalesce.PredictorBundle:
        """The fitted model for ``(name, cls, platform)``; fit once,
        coalesced."""
        key = (name, cls, platform)
        bundle = self.bundles.get(key)
        if bundle is not None:
            return bundle

        async def fit() -> coalesce.PredictorBundle:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, self._fit_bundle, name, cls, platform
            )

        bundle, _ = await self.fit_coalescer.run(("fit",) + key, fit)
        self.bundles[key] = bundle
        return bundle

    def _fit_bundle(
        self, name: str, cls: str, platform: str = "paper"
    ) -> coalesce.PredictorBundle:
        """Fit SP + energy model from the platform-grid campaign
        (runs on the executor; hits the campaign caches when warm)."""
        from repro.core.energy import EnergyModel
        from repro.core.params_sp import SimplifiedParameterization
        from repro.experiments.platform import PAPER_COUNTS, measure_campaign
        from repro.npb import BENCHMARKS, ProblemClass
        from repro.platforms import get_platform

        bench = BENCHMARKS[name](ProblemClass.parse(cls))
        counts = _MODEL_COUNTS.get(name, PAPER_COUNTS)
        spec = get_platform(platform)
        # The paper's common frequencies are PAPER_FREQUENCIES, so its
        # bundles keep their pre-registry cache keys.
        campaign = measure_campaign(
            bench,
            tuple(n for n in counts if n <= spec.n_nodes),
            spec.common_frequencies(),
            platform=platform,
        )
        # Heterogeneous specs mirror group 0 at the top level; the
        # bundle's energy model prices the reference group.
        return coalesce.PredictorBundle(
            benchmark=name,
            problem_class=cls,
            campaign=campaign,
            sp=SimplifiedParameterization(campaign),
            energy_model=EnergyModel(
                spec.power, spec.cpu.operating_points
            ),
        )


def _model_label(key: tuple[str, str, str]) -> str:
    """``ep:A`` for paper-platform bundles, ``ep:A@<platform>`` else."""
    name, cls, platform = key
    if platform == "paper":
        return f"{name}:{cls}"
    return f"{name}:{cls}@{platform}"


def _from_body(
    build: _t.Callable[..., _t.Any],
    request: protocol.Request,
    **defaults: _t.Any,
) -> _t.Any:
    """``build(body, **defaults)`` on the request's JSON body; whatever
    it rejects is a 400 (``bad_request``) and nothing runs."""
    try:
        return build(request.json(), **defaults)
    except (ReproError, TypeError, ValueError) as exc:
        raise protocol.ProtocolError(str(exc)) from exc


class ServiceThread:
    """An in-process service on its own thread + event loop.

    Tests and benchmarks use it as a context manager::

        with ServiceThread() as service:
            client = ServiceClient(port=service.port)
            ...

    The constructor default binds port 0 (a free port).
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig(port=0)
        self.service = ReproService(self.config)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    def start(self) -> "ServiceThread":
        """Boot the server thread; blocks until it is accepting."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=120.0):
            raise RuntimeError("service failed to start within 120s")
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error}"
            ) from self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.service._stop_event = asyncio.Event()
        await self.service.start()
        self._ready.set()
        await self.service._stop_event.wait()
        await self.service.stop()

    def stop(self) -> None:
        """Request a graceful stop and join the server thread."""
        if self._loop is not None and not self._loop.is_closed():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(
                    self.service.request_stop
                )
        if self._thread is not None:
            self._thread.join(timeout=120.0)

    @property
    def port(self) -> int:
        """The bound port (resolved even when configured as 0)."""
        return self.service.port

    @property
    def base_url(self) -> str:
        """The server's ``http://host:port`` root URL."""
        return f"http://{self.config.host}:{self.port}"

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *_exc: _t.Any) -> None:
        self.stop()


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``serve`` flags on a parser (shared between the
    ``repro-serve`` script and ``repro-experiments serve``)."""
    parser.add_argument(
        "--host",
        default=None,
        help=f"bind address (default: REPRO_SERVE_HOST or {DEFAULT_HOST})",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help=f"bind port; 0 picks a free port "
        f"(default: REPRO_SERVE_PORT or {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--warmup",
        default=None,
        metavar="MODELS",
        help="comma-separated benchmark:CLASS models to fit before "
        "accepting traffic, e.g. 'ep:A,ft:A' "
        "(default: REPRO_SERVE_WARMUP)",
    )
    parser.add_argument(
        "--job-workers",
        type=int,
        default=None,
        metavar="N",
        help="campaign job threads (default: REPRO_SERVE_JOB_WORKERS or 2)",
    )
    parser.add_argument(
        "--queue",
        type=int,
        default=None,
        metavar="N",
        help="max queued+running jobs before /campaign returns 503 "
        "(default: REPRO_SERVE_QUEUE or 64)",
    )
    parser.add_argument(
        "--result-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="finished-job retention; at most 4 x --queue finished jobs "
        "are kept (default: REPRO_SERVE_RESULT_TTL or 900)",
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        metavar="N",
        help="in-process response-cache bound "
        f"(default: REPRO_SERVE_CACHE_ENTRIES or "
        f"{DEFAULT_CACHE_ENTRIES})",
    )
    parser.add_argument(
        "--allow-faults",
        action="store_true",
        help="permit fault-injection plans inside this server process "
        "(testing only; default: refuse, and refuse to start with "
        "REPRO_FAULTS armed)",
    )


def serve_from_args(args: argparse.Namespace) -> int:
    """Run the service from parsed CLI arguments (blocks until
    SIGTERM/SIGINT).  A bad setting is a usage error (exit 2)."""
    try:
        config = ServiceConfig.from_env()
        if args.host is not None:
            config.host = args.host
        if args.port is not None:
            config.port = args.port
        if args.warmup is not None:
            config.warmup = parse_warmup(args.warmup)
        if args.job_workers is not None:
            config.job_workers = args.job_workers
        if args.queue is not None:
            config.max_queue = args.queue
        if args.result_ttl is not None:
            config.result_ttl_s = args.result_ttl
        if args.cache_entries is not None:
            config.cache_entries = args.cache_entries
        if args.allow_faults:
            config.allow_faults = True
        service = ReproService(config)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        asyncio.run(service.run(announce=True))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: _t.Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-serve`` console script."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-running prediction & campaign service for "
        "the 'Power-Aware Speedup' reproduction.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    add_serve_arguments(parser)
    return serve_from_args(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
