"""``service``: a mixed read/write load on the HTTP daemon in its own process.

The daemon runs as ``repro serve --port 0 --warmup ep:A,ft:A,lu:A`` with
``REPRO_BACKEND=analytic``, so warm-up fits take no DES time.  Two
closed-loop client connections each send their next request only after
the previous one completes, drawing from one seeded mix:

* about 95% ``/predict`` reads, keyed from a fixed pool of distinct bodies
  four times larger than the 512-entry response cache, with Zipf
  popularity, so the cache hits, misses and evicts;
* about 5% job writes: ``/govern`` (EP/FT on 4 ranks, varied policy, cap
  and seed),
  ``/optimize`` (EP/FT, objective x cap scenario, so some repeat) and
  analytic ``/campaign`` grids, each polled to completion on the
  connection that submitted it.

The HTTP stack, response cache, coalescer, micro-batcher and job manager
do the work, with writes running beside reads.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import typing as _t

from perfbench import common

CLIENTS = 2
#: Distinct /predict bodies; four times the service's response cache.
PREDICT_POOL_SIZE = 2048
ZIPF_EXPONENT = 1.1
JOB_SHARE = 0.05
#: Operations per block; a block's wall time is this workload's pass.
BLOCK_OPS = 200
POLL_S = 0.005
#: Govern jobs re-run directly to check their decision-trace digests.
GOVERN_SAMPLE = 3

COUNTS = (1, 2, 4, 8, 16)
LU_COUNTS = (1, 2, 4, 8)
MHZ = (600, 800, 1000, 1200, 1400)
POLICIES = ("static", "static_optimal", "reactive", "model_predictive")
SCENARIOS = ("uncapped", "cluster_cap", "node_cap")
OBJECTIVES = ("energy", "edp", "time")
WARMUP = "ep:A,ft:A,lu:A"

#: Per-layer metrics read from the service: name -> unit.
SERVICE_METRICS = {
    "service.predict_hits": "count",
    "service.predict_computed": "count",
    "service.predict_coalesced": "count",
    "service.hit_ratio": "ratio",
    "service.cache_evictions": "count",
    "service.batches": "count",
    "service.mean_batch": "req",
    "service.job_queue_wait_s": "s",
    "service.job_run_s": "s",
    "service.jobs_coalesced": "count",
    "service.metrics_doc_bytes": "B",
    "service.rss_growth_mb": "MB",
}


def predict_pool() -> list[dict[str, _t.Any]]:
    """The fixed pool of distinct /predict bodies (independent of the seed)."""
    rng = random.Random(0)
    names = ("ep", "ft", "lu")
    pool: list[dict[str, _t.Any]] = []
    seen: set[tuple] = set()
    while len(pool) < PREDICT_POOL_SIZE:
        name = names[len(pool) % len(names)]
        counts = LU_COUNTS if name == "lu" else COUNTS
        grid = [f"{n}@{m}MHz" for n in counts for m in MHZ]
        cells = tuple(rng.sample(grid, rng.randint(1, 6)))
        if (name, cells) not in seen:
            seen.add((name, cells))
            pool.append({"benchmark": name, "cells": list(cells)})
    return pool


def _job(rng: random.Random) -> tuple[str, dict[str, _t.Any]]:
    kind = rng.choices(("govern", "optimize", "campaign"), (2, 2, 1))[0]
    if kind == "govern":
        return kind, {
            "benchmark": rng.choice(("ep", "ft")),
            "ranks": 4,
            "policy": rng.choice(POLICIES),
            "scenario": rng.choice(SCENARIOS),
            "seed": rng.randrange(4),
        }
    if kind == "optimize":
        return kind, {
            "benchmark": rng.choice(("ep", "ft")),
            "objective": rng.choice(OBJECTIVES),
            "scenario": rng.choice(SCENARIOS),
        }
    return kind, {
        "benchmark": rng.choice(("ep", "ft", "lu")),
        "backend": "analytic",
        # Speed-ups are relative to the N = 1 run, so every grid has it.
        "counts": [1, *sorted(rng.sample(COUNTS[1:], rng.randint(1, 4)))],
        "frequencies_mhz": sorted(rng.sample(MHZ, rng.randint(2, 5))),
    }


def request_stream(seed: int) -> _t.Iterator[tuple[str, dict[str, _t.Any]]]:
    """The endless seeded request sequence: ``(kind, body)`` pairs."""
    rng = random.Random(seed)
    pool = predict_pool()
    cumulative: list[float] = []
    total = 0.0
    for rank in range(1, len(pool) + 1):
        total += rank**-ZIPF_EXPONENT
        cumulative.append(total)
    while True:
        if rng.random() < JOB_SHARE:
            yield _job(rng)
        else:
            index = bisect.bisect_left(cumulative, rng.random() * total)
            yield "predict", pool[min(index, len(pool) - 1)]


class Server:
    """One daemon process; ``setup_s`` is spawn until ``/readyz`` answers 200."""

    def __init__(self, tag: str, clock: _t.Any, spans_out: str | None = None) -> None:
        self.log = common.WORK / f"serve-{os.getpid()}-{tag}.log"
        self.cache = common.WORK / f"serve-cache-{os.getpid()}-{tag}"
        serve = ["--port", "0", "--warmup", WARMUP]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            script = common.ROOT / "perfbench" / "serve_traced.py"
            command = [sys.executable, str(script), spans_out, *serve]
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                command,
                env=common.subprocess_env(
                    REPRO_BACKEND="analytic",
                    REPRO_CACHE_DIR=str(self.cache),
                    PYTHONUNBUFFERED="1",
                ),
                cwd=common.WORK,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        try:
            self.port = self._wait_port(start + 120.0)
            self._wait_ready(start + 120.0)
        except BaseException:
            self.stop()
            raise
        ready = time.perf_counter()
        self.setup_s = clock.reference(ready - start, start, ready)
        self.rss_ready_mb = common.rss_mb(self.process.pid)

    def _wait_port(self, deadline: float) -> int:
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        while time.perf_counter() < deadline:
            match = pattern.search(self.log.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited: {self.log.read_text()}")
            time.sleep(0.002)
        raise TimeoutError("server did not announce its port")

    def _wait_ready(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/readyz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)
        raise TimeoutError("server never became ready")

    def metrics(self) -> tuple[dict[str, _t.Any], int]:
        """The ``/metrics`` document and its size in bytes."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/metrics")
            raw = connection.getresponse().read()
        finally:
            connection.close()
        return json.loads(raw), len(raw)

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits), then wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=60)
        shutil.rmtree(self.cache, ignore_errors=True)
        self.log.unlink(missing_ok=True)


def expected_predictions() -> dict[str, dict[str, dict[str, float]]]:
    """Direct SP and energy-model evaluation of each warm-up model's campaign."""
    from repro.cluster import paper_spec
    from repro.core.energy import EnergyModel
    from repro.core.params_sp import SimplifiedParameterization
    from repro.experiments.platform import PAPER_FREQUENCIES, measure_campaign
    from repro.npb import BENCHMARKS
    from repro.reporting import grid_key

    spec = paper_spec()
    energy = EnergyModel(spec.power, spec.cpu.operating_points)
    expected = {}
    for name in ("ep", "ft", "lu"):
        campaign = measure_campaign(
            BENCHMARKS[name](),
            LU_COUNTS if name == "lu" else COUNTS,
            PAPER_FREQUENCIES,
            use_cache=False,
            backend="analytic",
        )
        sp = SimplifiedParameterization(campaign)
        table = {}
        for n, f in campaign.times:
            time_s = sp.predict_time(n, f)
            overhead = max(sp.overhead(n), 0.0) if n > 1 else 0.0
            prediction = energy.predict(n, f, time_s, overhead)
            table[grid_key((n, f))] = {
                "time_s": time_s,
                "speedup": sp.predict_speedup(n, f),
                "energy_j": prediction.energy_j,
                "edp": prediction.edp,
            }
        expected[name] = table
    return expected


class Load:
    """Closed-loop clients sharing one seeded request stream."""

    def __init__(self, port: int, seed: int, expected: dict, clock: _t.Any) -> None:
        self.port = port
        self.clock = clock
        self.stream = request_stream(seed)
        self.expected = expected
        self.lock = threading.Lock()
        #: (kind, start, end, ok) per completed operation.
        self.ops: list[tuple[str, float, float, bool]] = []
        self.jobs: list[dict[str, _t.Any]] = []
        self.govern_sample: list[tuple[dict, str]] = []
        self.errors: list[str] = []

    def _one(self, client: _t.Any, kind: str, body: dict) -> bool:
        if kind == "predict":
            document = client.request("POST", "/predict", body)
            table = self.expected[body["benchmark"]]
            return document["predictions"] == {c: table[c] for c in body["cells"]}
        job = client.request("POST", f"/{kind}", body)
        while job["status"] not in ("done", "failed", "cancelled"):
            time.sleep(POLL_S)
            job = client.request("GET", f"/jobs/{job['job_id']}")
        if job["status"] != "done":
            self.errors.append(f"{kind} job {job['status']}: {job.get('error')}")
            return False
        with self.lock:
            self.jobs.append(
                {k: job[k] for k in ("submitted_s", "started_s", "finished_s")}
            )
            if kind == "govern" and len(self.govern_sample) < GOVERN_SAMPLE:
                digest = job["result"]["governed"]["trace_digest"]
                self.govern_sample.append((body, digest))
        return True

    def _client(self, deadline: float) -> None:
        from repro.service.client import ServiceClient, ServiceError

        with ServiceClient(port=self.port, timeout_s=60.0) as client:
            while time.perf_counter() < deadline:
                with self.lock:
                    kind, body = next(self.stream)
                start = time.perf_counter()
                try:
                    ok = self._one(client, kind, body)
                    if not ok and kind == "predict":
                        self.errors.append(f"predict mismatch for {body}")
                except (ServiceError, OSError, http.client.HTTPException) as exc:
                    self.errors.append(f"{kind}: {exc}")
                    ok = False
                with self.lock:
                    self.ops.append((kind, start, time.perf_counter(), ok))

    def run(self, seconds: float) -> None:
        """Drive the load for ``seconds``."""
        self.start = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(self.start + seconds,))
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
        if any(thread.is_alive() for thread in threads):
            raise TimeoutError("a client did not finish")

    def block_seconds(self, reference: bool = True) -> list[float]:
        """Time of each consecutive block of ``BLOCK_OPS`` completions.

        In reference seconds unless ``reference`` is false (raw wall time).
        """
        ends = sorted(end for _k, _s, end, _ok in self.ops)
        marks = [self.start] + ends[BLOCK_OPS - 1 :: BLOCK_OPS]
        if len(marks) < 2:
            marks = [self.start, ends[-1]]
        blocks = [
            self.clock.reference(b - a, a, b) if reference else b - a
            for a, b in zip(marks, marks[1:])
        ]
        if len(ends) < BLOCK_OPS:
            blocks = [blocks[0] * BLOCK_OPS / len(ends)]
        return blocks

    def latencies(self, kinds: _t.Container[str]) -> list[float]:
        """Reference seconds of each successful operation of these kinds."""
        return [
            self.clock.reference(end - s, s, end)
            for kind, s, end, ok in self.ops
            if kind in kinds and ok
        ]


def check_govern(sample: _t.Sequence[tuple[dict, str]]) -> list[str]:
    """Re-run sampled /govern jobs directly; returns digest mismatches."""
    from repro.governor import govern_run, power_cap_scenarios
    from repro.npb import BENCHMARKS
    from repro.platforms import get_platform

    spec = get_platform("paper")
    wrong = []
    for body, digest in sample:
        ranks = body["ranks"]
        governed = govern_run(
            BENCHMARKS[body["benchmark"]](),
            ranks,
            body["policy"],
            power_cap_scenarios(ranks, spec)[body["scenario"]],
            spec=spec,
            seed=body["seed"],
        )
        if governed.trace.digest() != digest:
            wrong.append(f"govern trace digest differs for {body}")
    return wrong


def _measure(
    seed: int, seconds: float, expected: dict, server: Server, clock: _t.Any
) -> dict[str, _t.Any]:
    """Drive one server for ``seconds`` and collect what it reports."""
    load = Load(server.port, seed, expected, clock)
    try:
        load.run(seconds)
        metrics, metrics_bytes = server.metrics()
        peak_rss = common.tree_peak_rss_mb(server.process.pid)
        rss_end = common.rss_mb(server.process.pid)
    finally:
        server.stop()
    return {
        "load": load,
        "metrics": metrics,
        "metrics_bytes": metrics_bytes,
        "peak_rss_mb": peak_rss,
        "rss_growth_mb": rss_end - server.rss_ready_mb,
    }


def _outcome(measured: dict[str, _t.Any]) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors); a wrong govern digest is one more failure."""
    load = measured["load"]
    wrong = check_govern(load.govern_sample)
    failed = sum(1 for *_x, ok in load.ops if not ok) + len(wrong)
    return len(load.ops), failed, load.errors + wrong


def run(seed: int, seconds: float, trace: bool, clock: _t.Any) -> dict[str, _t.Any]:
    expected = expected_predictions()
    if trace:
        return _traced(seed, seconds, expected, clock)
    servers = []
    try:
        for repeat in range(common.SETUP_REPEATS):
            if servers:
                servers[-1].stop()
            servers.append(Server(f"s{seed}-{repeat}", clock))
    except BaseException:
        for server in servers:
            server.stop()
        raise
    setup = [server.setup_s for server in servers]
    measured = _measure(seed, seconds, expected, servers[-1], clock)
    load = measured["load"]
    attempted, failed, errors = _outcome(measured)

    window = max(end for _k, _s, end, _ok in load.ops) - load.start
    predict = [1e3 * s for s in load.latencies({"predict"})]
    jobs = load.latencies({"govern", "optimize", "campaign"})
    blocks = load.block_seconds()
    report = {
        "setup_s": ("s", common.median(setup), len(setup)),
        "peak_rss_mb": ("MB", measured["peak_rss_mb"], 1),
        "error_rate": ("ratio", failed / attempted, attempted),
        "predict_p50_ms": ("ms", common.median(predict), len(predict)),
        "predict_p99_ms": ("ms", common.percentile(predict, 99.0), len(predict)),
        "predict_rps": ("req/s", len(predict) / window, len(predict)),
        "block_s": ("s", common.median(blocks), len(blocks)),
        "block_wall_s": (
            "s",
            common.median(load.block_seconds(reference=False)),
            len(blocks),
        ),
    }
    if jobs:
        report["job_p50_s"] = ("s", common.median(jobs), len(jobs))
        report["job_p90_s"] = ("s", common.percentile(jobs, 90.0), len(jobs))
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "e2e": {
            "setup_s": common.median(setup),
            "peak_rss_mb": measured["peak_rss_mb"],
            "pass_s": common.median(blocks),
        },
        "report": report,
    }


def service_layers(measured: dict[str, _t.Any]) -> dict[str, float]:
    """The service's own counters from ``/metrics`` and the job documents."""
    service = measured["metrics"]["service"]
    predict = service["predict"]
    jobs = measured["load"].jobs
    waits = [j["started_s"] - j["submitted_s"] for j in jobs]
    runs = [j["finished_s"] - j["started_s"] for j in jobs]
    return {
        "service.predict_hits": predict["cache_hits"],
        "service.predict_computed": predict["computed"],
        "service.predict_coalesced": predict["coalesced"],
        "service.hit_ratio": (
            predict["cache_hits"] / predict["requests"] if predict["requests"] else 0.0
        ),
        "service.cache_evictions": service["response_cache"]["evictions"],
        "service.batches": predict["batcher"]["batches"],
        "service.mean_batch": predict["batcher"]["mean_batch"],
        "service.job_queue_wait_s": common.median(waits) if waits else 0.0,
        "service.job_run_s": common.median(runs) if runs else 0.0,
        "service.jobs_coalesced": service["jobs"]["coalesced"],
        "service.metrics_doc_bytes": measured["metrics_bytes"],
        "service.rss_growth_mb": measured["rss_growth_mb"],
    }


def _traced(
    seed: int, seconds: float, expected: dict, clock: _t.Any
) -> dict[str, _t.Any]:
    """An untraced load, then a traced one on a fresh daemon."""
    from perfbench import spans

    reference = _measure(seed, seconds, expected, Server(f"r{seed}", clock), clock)
    spans_out = common.WORK / f"serve-spans-{os.getpid()}.json"
    traced = _measure(
        seed, seconds, expected, Server(f"t{seed}", clock, str(spans_out)), clock
    )
    recorded = [
        span
        for span in spans.load(spans_out)
        if span.start_ns >= traced["load"].start * 1e9
    ]
    spans_out.unlink()
    layers = spans.layer_metrics(recorded)
    layers.update(service_layers(traced))
    attempted = failed = 0
    errors: list[str] = []
    for measured in (reference, traced):
        a, f, e = _outcome(measured)
        attempted += a
        failed += f
        errors += e
    untraced_s = common.median(reference["load"].block_seconds())
    overhead = common.median(traced["load"].block_seconds()) - untraced_s
    recorder = spans.Recorder()
    recorder.spans = recorded
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "layers": layers,
        "overhead_s": overhead,
        "overhead_pct": 100.0 * overhead / untraced_s,
        "recorder": recorder,
    }
