"""A stdlib client for the prediction & campaign service.

:class:`ServiceClient` wraps :mod:`http.client` with one persistent
keep-alive connection per instance — concurrent callers each create
their own client (the load benchmark runs one per worker thread).
Service-side errors surface as :class:`ServiceError` carrying the
HTTP status and the structured error body.

Transient connection failures (``ConnectionRefusedError`` while the
server restarts, a reset mid-read) are retried with bounded
exponential backoff — but only when the request is safe to repeat:
idempotent GETs retry by default, POSTs only when the caller flags
``retry=True`` (fabric workers do: their completions deduplicate
server-side, so repeating one is harmless, and surviving a
coordinator restart is the point).
"""

from __future__ import annotations

import http.client
import json
import time
import typing as _t

__all__ = ["ServiceClient", "ServiceError"]

#: Connection-level failures worth retrying: the server was down,
#: restarting, or dropped the connection mid-exchange.  HTTP *status*
#: errors are never retried — the request made it and was answered.
_TRANSIENT_ERRORS = (
    http.client.HTTPException,
    ConnectionError,  # refused, reset, aborted
    BrokenPipeError,
    TimeoutError,
)


def _body(
    benchmark: str, problem_class: str, **fields: _t.Any
) -> dict[str, _t.Any]:
    """A JSON request body: the workload, then each field that has a
    value (``None`` leaves it out, so the service applies its default)."""
    body = {"benchmark": benchmark, "class": problem_class}
    body.update((k, v) for k, v in fields.items() if v is not None)
    return body


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(
        self, status: int, error_type: str, message: str
    ) -> None:
        super().__init__(
            f"HTTP {status} [{error_type}]: {message}"
        )
        self.status = status
        self.error_type = error_type
        self.message = message


class ServiceClient:
    """JSON-over-HTTP client; one keep-alive connection, not
    thread-safe (use one client per thread)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout_s: float = 60.0,
        *,
        retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self.retries = max(0, int(retries))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))
        self._connection: http.client.HTTPConnection | None = None
        #: Connections established / re-established after the first.
        #: ``reconnects`` staying near zero is the keep-alive path
        #: working — fabric workers surface it in their stats.
        self.connects = 0
        self.reconnects = 0

    # -- plumbing -----------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            self.connects += 1
            if self.connects > 1:
                self.reconnects += 1
        return self._connection

    def close(self) -> None:
        """Drop the persistent connection."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc: _t.Any) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        body: _t.Any | None = None,
        *,
        retry: bool | None = None,
    ) -> _t.Any:
        """One round trip; returns the parsed JSON body.

        A stale keep-alive connection (the server may have closed it
        between requests) always gets one silent reconnect.  Beyond
        that, *transient* connection failures — refused while the
        server restarts, reset mid-read — are retried up to
        ``self.retries`` times with exponential backoff
        (``retry_backoff_s * 2**k``), but only when ``retry`` is true:
        it defaults to ``True`` for idempotent GETs and ``False`` for
        everything else, so a non-idempotent POST is never silently
        repeated unless the caller declared it safe.
        """
        if retry is None:
            retry = method.upper() in ("GET", "HEAD")
        extra_attempts = self.retries if retry else 1
        payload = (
            json.dumps(body).encode("utf-8")
            if body is not None
            else None
        )
        headers = {"Content-Type": "application/json"}
        for attempt in range(extra_attempts + 1):
            connection = self._connect()
            try:
                connection.request(method, path, payload, headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except _TRANSIENT_ERRORS:
                self.close()
                if attempt >= extra_attempts:
                    raise
                # The first reconnect is free (stale keep-alive is
                # routine, not an outage); later ones back off.
                if attempt > 0:
                    time.sleep(
                        self.retry_backoff_s * 2 ** (attempt - 1)
                    )
        document = json.loads(raw) if raw else {}
        if response.status >= 400:
            error = (
                document.get("error", {})
                if isinstance(document, dict)
                else {}
            )
            raise ServiceError(
                response.status,
                error.get("type", "unknown"),
                error.get("message", raw.decode("utf-8", "replace")),
            )
        return document

    # -- endpoints ----------------------------------------------------------

    def healthz(self) -> dict[str, _t.Any]:
        """``GET /healthz`` — liveness (the process is up)."""
        return self.request("GET", "/healthz")

    def readyz(self) -> dict[str, _t.Any]:
        """``GET /readyz`` — readiness to take *new* work.

        Raises :class:`ServiceError` with status 503 while the
        service is draining or its job queue is full.
        """
        return self.request("GET", "/readyz")

    def metrics(self) -> dict[str, _t.Any]:
        """``GET /metrics``."""
        return self.request("GET", "/metrics")

    def platforms(self) -> dict[str, _t.Any]:
        """``GET /platforms`` — the registered platform specs."""
        return self.request("GET", "/platforms")

    def predict(
        self,
        benchmark: str,
        problem_class: str = "A",
        cells: _t.Sequence[str] | None = None,
        counts: _t.Sequence[int] | None = None,
        frequencies_mhz: _t.Sequence[float] | None = None,
        *,
        platform: str | None = None,
    ) -> dict[str, _t.Any]:
        """``POST /predict`` — closed-form SP/energy predictions.

        With no grid arguments the service evaluates the model's full
        fitted grid; ``platform`` selects a registered platform (the
        service fits one model per benchmark × class × platform).
        """
        body = _body(
            benchmark,
            problem_class,
            cells=cells,
            counts=counts,
            frequencies_mhz=frequencies_mhz,
            platform=platform,
        )
        return self.request("POST", "/predict", body)

    def submit_campaign(
        self,
        benchmark: str,
        problem_class: str = "A",
        counts: _t.Sequence[int] | None = None,
        frequencies_mhz: _t.Sequence[float] | None = None,
        *,
        fabric: bool | None = None,
        allow_partial: bool | None = None,
        platform: str | None = None,
    ) -> dict[str, _t.Any]:
        """``POST /campaign`` — the finished job (200), or its ticket
        (202) while it runs.

        ``fabric`` asks the service to execute on the worker fleet
        (falling back to its local pool when no workers are live);
        ``allow_partial`` lets the campaign complete with failed-cell
        metadata instead of failing outright; ``platform`` selects a
        registered platform for the grid.
        """
        body = _body(
            benchmark,
            problem_class,
            counts=counts,
            frequencies_mhz=frequencies_mhz,
            fabric=fabric,
            allow_partial=allow_partial,
            platform=platform,
        )
        return self.request("POST", "/campaign", body)

    def submit_govern(
        self,
        benchmark: str,
        problem_class: str = "A",
        ranks: int = 4,
        *,
        policy: str | None = None,
        scenario: str | None = None,
        cluster_cap_w: float | None = None,
        node_cap_w: float | None = None,
        epoch_phases: int | None = None,
        safety: float | None = None,
        seed: int | None = None,
        platform: str | None = None,
    ) -> dict[str, _t.Any]:
        """``POST /govern`` — the finished job (200), or its ticket
        (202) while it runs.

        Runs a closed-loop governed simulation on the service;
        ``scenario`` names a derived power-cap scenario
        (``uncapped``/``cluster_cap``/``node_cap``), or explicit watt
        budgets can be given.  The finished job's result carries the
        full decision trace and the EDP comparison against the static
        baseline under the same cap.
        """
        body = _body(
            benchmark,
            problem_class,
            ranks=ranks,
            policy=policy,
            scenario=scenario,
            cluster_cap_w=cluster_cap_w,
            node_cap_w=node_cap_w,
            epoch_phases=epoch_phases,
            safety=safety,
            seed=seed,
            platform=platform,
        )
        return self.request("POST", "/govern", body)

    def submit_optimize(
        self,
        benchmark: str,
        problem_class: str = "A",
        *,
        objective: str = "energy",
        platforms: _t.Sequence[str] | None = None,
        counts: _t.Sequence[int] | None = None,
        scenario: str | None = None,
        cluster_cap_w: float | None = None,
        node_cap_w: float | None = None,
        confirm: bool | None = None,
    ) -> dict[str, _t.Any]:
        """``POST /optimize`` — the finished job (200), or its ticket
        (202) while it runs.

        Searches every ``(platform, N, f)`` configuration for the
        ``objective``-optimal one under the given power budget; the
        finished job's result is the full candidate ranking with the
        winner's DES confirmation.
        """
        body = _body(
            benchmark,
            problem_class,
            objective=objective,
            platforms=platforms,
            counts=counts,
            scenario=scenario,
            cluster_cap_w=cluster_cap_w,
            node_cap_w=node_cap_w,
            confirm=confirm,
        )
        return self.request("POST", "/optimize", body)

    def experiments(self) -> dict[str, _t.Any]:
        """``GET /experiments`` — the registry's pipeline specs."""
        return self.request("GET", "/experiments")

    def submit_experiment(
        self,
        experiment_id: str,
        params: dict[str, _t.Any] | None = None,
    ) -> dict[str, _t.Any]:
        """``POST /experiments/<id>`` — the finished job (200), or its
        ticket (202) while it runs."""
        return self.request(
            "POST", f"/experiments/{experiment_id}", dict(params or {})
        )

    def job(self, job_id: str) -> dict[str, _t.Any]:
        """``GET /jobs/<id>`` — status, runtime history, result."""
        return self.request("GET", f"/jobs/{job_id}")

    def jobs(self) -> dict[str, _t.Any]:
        """``GET /jobs`` — every retained job plus manager stats."""
        return self.request("GET", "/jobs")

    def cancel_job(self, job_id: str) -> dict[str, _t.Any]:
        """``POST /jobs/<id>/cancel``."""
        return self.request("POST", f"/jobs/{job_id}/cancel")

    def wait_for_job(
        self,
        job_id: str,
        timeout_s: float = 120.0,
        poll_s: float = 0.05,
    ) -> dict[str, _t.Any]:
        """Poll ``/jobs/<id>`` until it leaves the active states.

        Returns the final job document (``done``, ``failed`` or
        ``cancelled``); raises :class:`TimeoutError` past
        ``timeout_s``.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            document = self.job(job_id)
            if document.get("status") not in ("queued", "running"):
                return document
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {document.get('status')!r} "
                    f"after {timeout_s}s"
                )
            time.sleep(poll_s)
