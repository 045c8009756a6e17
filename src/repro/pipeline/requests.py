"""Typed requests: campaign requirements and the parameterized jobs.

A :class:`CampaignRequest` names a measurement grid declaratively:
benchmark, problem class, processor counts, frequencies, and
optionally a platform override (:class:`~repro.cluster.machine.
ClusterSpec`) and benchmark constructor options (e.g. FT's
``decomposition``).  Experiments publish their requests *before*
running, which is what lets the planner (:mod:`repro.pipeline.
planner`) compute the union of cells across many experiments and
execute it as one deduplicated batch.

Identity is content-based: two requests naming the same (benchmark
config, grid, platform) share a digest — and therefore one execution —
no matter which experiments issued them.

The CLI (``repro-experiments campaign|govern|optimize``) and the
service (``POST /campaign|/govern|/optimize``) build the same requests
for their jobs: :class:`CampaignRequest`, :class:`GovernRequest` and
:class:`OptimizeRequest`.  Each constructor validates every field and
raises :class:`~repro.errors.ConfigurationError` naming a bad one.
For the service's job path each provides ``job_key()``,
``ticket_key()``, ``label``, ``params()`` and ``document()``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing as _t

from repro.cluster.machine import ClusterSpec
from repro.errors import ConfigurationError
from repro.npb import BENCHMARKS, ProblemClass
from repro.npb.base import BenchmarkModel
from repro.settings import settings

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.measurements import TimingCampaign
    from repro.governor import GovernedRun, PowerCap
    from repro.optimizer import OptimizeResult

__all__ = ["CampaignRequest", "GovernRequest", "OptimizeRequest"]

Cell = tuple[int, float]


def _check_workload(request: _t.Any) -> None:
    """Validate and normalise a request's ``benchmark`` and class."""
    name = str(request.benchmark).strip().lower()
    if name not in BENCHMARKS:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        )
    object.__setattr__(request, "benchmark", name)
    object.__setattr__(
        request, "problem_class", ProblemClass.parse(request.problem_class)
    )


def _params_key(kind: str, params: dict[str, _t.Any]) -> str:
    """``<kind>-<sha256 of the canonical params JSON>``."""
    blob = json.dumps(params, sort_keys=True).encode("utf-8")
    return f"{kind}-{hashlib.sha256(blob).hexdigest()}"


@dataclasses.dataclass(frozen=True, eq=False)
class CampaignRequest:
    """One declarative (benchmark × counts × frequencies) requirement.

    Attributes
    ----------
    benchmark:
        Benchmark name from :data:`repro.npb.BENCHMARKS`
        (``"ep"``, ``"ft"``, ``"lu"``, ...).
    problem_class:
        NPB problem class (a :class:`~repro.npb.ProblemClass` or its
        letter).
    counts:
        Processor counts of the grid.
    frequencies:
        Frequencies of the grid, in hertz.
    spec:
        Platform override; ``None`` means the paper platform (and
        digests identically to an explicit ``paper_spec()``).
    options:
        Extra benchmark constructor keyword arguments as sorted
        ``(name, value)`` pairs — e.g. ``(("decomposition", "1d"),)``
        for FT's ablation variant.
    backend:
        Execution backend (``"des"``, ``"analytic"`` or ``"auto"``);
        ``None`` resolves the runtime default at key time.  Part of
        the request identity — analytic and DES grids never dedup
        into one execution.
    platform:
        Named platform from the registry (:mod:`repro.platforms`),
        an alternative to passing ``spec`` directly.  ``"paper"``
        (and ``None``) keep ``spec`` at ``None`` so pre-registry
        digests — and warm caches — are preserved; any other name is
        resolved to its :class:`ClusterSpec` here, so the platform
        participates in cache identity through the spec digest.
        Unknown names raise :class:`~repro.errors.ConfigurationError`
        listing the registered choices.
    fabric, allow_partial:
        How a job measures, not what: neither is part of the campaign
        identity, but ``allow_partial`` is part of the job key.
    """

    benchmark: str
    problem_class: ProblemClass | str = ProblemClass.A
    counts: tuple[int, ...] = ()
    frequencies: tuple[float, ...] = ()
    spec: ClusterSpec | None = None
    options: tuple[tuple[str, _t.Any], ...] = ()
    backend: str | None = None
    platform: str | None = None
    fabric: bool = False
    allow_partial: bool = False

    def __post_init__(self) -> None:
        _check_workload(self)
        if self.backend is not None:
            from repro.runtime import check_backend

            object.__setattr__(
                self, "backend", check_backend(self.backend)
            )
        if self.platform is not None:
            from repro.platforms import DEFAULT_PLATFORM, check_platform, get_platform

            name = check_platform(self.platform)
            object.__setattr__(self, "platform", name)
            if self.spec is not None:
                raise ConfigurationError(
                    f"{self.benchmark}: pass either spec= or "
                    f"platform={name!r}, not both"
                )
            if name != DEFAULT_PLATFORM:
                object.__setattr__(self, "spec", get_platform(name))
        object.__setattr__(
            self, "counts", tuple(int(n) for n in self.counts)
        )
        object.__setattr__(
            self, "frequencies", tuple(float(f) for f in self.frequencies)
        )
        object.__setattr__(
            self,
            "options",
            tuple(sorted((str(k), v) for k, v in self.options)),
        )
        if not self.counts or not self.frequencies:
            raise ConfigurationError(
                f"{self.benchmark}: a campaign request needs at least "
                "one count and one frequency"
            )
        if any(n < 1 for n in self.counts):
            raise ConfigurationError(
                f"{self.benchmark}: processor counts must be >= 1, got "
                f"{sorted(self.counts)}"
            )

    @classmethod
    def for_job(
        cls,
        benchmark: str,
        problem_class: ProblemClass | str = ProblemClass.A,
        counts: _t.Sequence[int] | None = None,
        frequencies_mhz: _t.Sequence[float] | None = None,
        *,
        backend: str | None = None,
        platform: str | None = None,
        fabric: bool = False,
        allow_partial: bool = False,
    ) -> "CampaignRequest":
        """A campaign job: the paper grid unless ``counts`` or
        ``frequencies_mhz`` narrow it, with the runtime's backend and
        platform unless ``backend`` and ``platform`` name them."""
        from repro.experiments.platform import PAPER_COUNTS, PAPER_FREQUENCIES
        from repro.units import mhz

        resolved = settings(backend=backend, platform=platform)
        return cls(
            benchmark,
            problem_class,
            PAPER_COUNTS if counts is None else counts,
            (
                PAPER_FREQUENCIES
                if frequencies_mhz is None
                else tuple(mhz(m) for m in frequencies_mhz)
            ),
            backend=resolved.backend,
            platform=resolved.platform,
            fabric=fabric,
            allow_partial=allow_partial,
        )

    @property
    def label(self) -> str:
        """Campaign label, matching ``measure_campaign``'s."""
        return f"{self.benchmark}.{self.problem_class.value}"

    def build(self) -> BenchmarkModel:
        """Construct the benchmark model this request names."""
        return BENCHMARKS[self.benchmark](
            self.problem_class, **dict(self.options)
        )

    def cells(self) -> tuple[Cell, ...]:
        """The grid cells in grid order (count-major)."""
        return tuple(
            (n, f) for n in self.counts for f in self.frequencies
        )

    def key(self) -> tuple:
        """Full campaign identity (platform cache key), memoized."""
        cached = self.__dict__.get("_key")
        if cached is None:
            from repro.experiments.platform import _cache_key

            cached = _cache_key(
                self.build(),
                self.counts,
                self.frequencies,
                self.spec,
                self.backend or settings().backend,
            )
            object.__setattr__(self, "_key", cached)
        return cached

    def digest(self) -> str:
        """Short content digest — the dedup identity of this request."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hashlib.sha256(
                repr(self.key()).encode()
            ).hexdigest()[:16]
            object.__setattr__(self, "_digest", cached)
        return cached

    def group(self) -> tuple:
        """Execution-group identity: same benchmark config + platform.

        Requests in one group share simulated cells — a cell result
        depends only on (benchmark config, platform, n, f), never on
        which grid it was part of.
        """
        k = self.key()
        return (k[0], k[1], k[4], k[5], k[6])

    def as_dict(self) -> dict[str, _t.Any]:
        """JSON-ready description (provenance documents)."""
        k = self.key()
        return {
            "benchmark": self.benchmark,
            "class": self.problem_class.value,
            "counts": list(self.counts),
            "frequencies_mhz": [f / 1e6 for f in self.frequencies],
            "options": {name: value for name, value in self.options},
            "spec_digest": k[4],
            "benchmark_digest": k[5],
            "backend": k[6],
            "platform": self.platform,
            "digest": self.digest(),
        }

    def ticket_key(self) -> str:
        """The full campaign digest (the disk cache's content address)."""
        from repro import runtime

        return runtime.campaign_digest(*self.key())

    def job_key(self) -> str:
        """The campaign digest, suffixed ``+partial`` under
        ``allow_partial`` so a partial document never answers, or is
        answered by, a full one."""
        return self.ticket_key() + ("+partial" if self.allow_partial else "")

    def params(self) -> dict[str, _t.Any]:
        """The job parameters, as submitted (resolved backend)."""
        return {
            "benchmark": self.benchmark,
            "class": self.problem_class.value,
            "platform": self.platform,
            "counts": list(self.counts),
            "frequencies_mhz": [f / 1e6 for f in self.frequencies],
            "backend": self.key()[6],
            "fabric": self.fabric,
            "allow_partial": self.allow_partial,
        }

    def measure(self) -> "TimingCampaign":
        """Measure the grid through ``measure_campaign`` (cached)."""
        from repro.experiments.platform import measure_campaign
        from repro.platforms import DEFAULT_PLATFORM

        # A request without a spec names the paper platform, whatever
        # the runtime default is.
        return measure_campaign(
            self.build(),
            self.counts,
            self.frequencies,
            spec=self.spec,
            platform=DEFAULT_PLATFORM if self.spec is None else None,
            backend=self.backend,
            fabric=self.fabric or None,
            allow_partial=self.allow_partial or None,
        )

    def document(self) -> dict[str, _t.Any]:
        """Measure the grid; times, energies and speed-ups by cell."""
        campaign = self.measure()
        return {
            "benchmark": self.benchmark,
            "class": self.problem_class.value,
            "platform": self.platform,
            "base_frequency_hz": campaign.base_frequency_hz,
            "data": {
                "times": campaign.times,
                "energies": campaign.energies,
                "speedups": campaign.speedups(),
            },
        }


@dataclasses.dataclass(frozen=True, eq=False)
class GovernRequest:
    """One governed run plus its static baseline under the same cap.

    Fields left at ``None`` take their runtime defaults.  The cap comes
    from :func:`~repro.governor.resolve_cap`; a budget no operating
    point meets is rejected here rather than inside the run.

    ``seed`` is provenance only, so :meth:`run` keeps each of its two
    runs in the governed-run memory tier
    (:func:`~repro.experiments.platform.cached_governed_run`) under a
    seedless identity and re-stamps the trace with this request's
    seed: every result equals an uncached run under that seed.
    """

    benchmark: str
    problem_class: ProblemClass | str = ProblemClass.A
    ranks: int = 4
    policy: str | None = None
    scenario: str | None = None
    cluster_cap_w: float | None = None
    node_cap_w: float | None = None
    platform: str | None = None
    epoch_phases: int | None = None
    safety: float | None = None
    seed: int = 0
    cap: "PowerCap" = dataclasses.field(init=False)
    spec: ClusterSpec = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        from repro.governor import resolve_cap
        from repro.platforms import get_platform

        _check_workload(self)
        ranks = int(self.ranks)
        if ranks < 1:
            raise ConfigurationError(f"ranks must be >= 1, got {ranks}")
        resolved = settings(
            governor_policy=self.policy,
            platform=self.platform,
            governor_epoch=self.epoch_phases,
            governor_safety=self.safety,
        )
        spec = get_platform(resolved.platform)
        cap = resolve_cap(
            ranks, spec, self.scenario, self.cluster_cap_w, self.node_cap_w
        )
        cap.allowed_frequencies_for(spec, ranks)
        for name, value in (
            ("ranks", ranks),
            ("policy", resolved.governor_policy),
            ("platform", resolved.platform),
            ("spec", spec),
            ("cap", cap),
            ("epoch_phases", resolved.governor_epoch),
            ("safety", resolved.governor_safety),
            ("seed", int(self.seed)),
        ):
            object.__setattr__(self, name, value)

    @property
    def label(self) -> str:
        """Job label: ``govern.<benchmark>.<class>.<policy>``."""
        return (
            f"govern.{self.benchmark}.{self.problem_class.value}."
            f"{self.policy}"
        )

    def params(self) -> dict[str, _t.Any]:
        """Every resolved input of the run (the job key hashes these)."""
        return {
            "benchmark": self.benchmark,
            "class": self.problem_class.value,
            "platform": self.platform,
            "ranks": self.ranks,
            "policy": self.policy,
            "cap": self.cap.as_dict(),
            "epoch_phases": self.epoch_phases,
            "safety": self.safety,
            "seed": self.seed,
        }

    def job_key(self) -> str:
        """``govern-`` plus the SHA-256 of the canonical params."""
        return _params_key("govern", self.params())

    ticket_key = job_key

    def run(self) -> tuple["GovernedRun", "GovernedRun"]:
        """The governed run and the static baseline, in that order.

        Each is simulated only when the governed-run tier misses on
        its identity: benchmark digest, ranks, spec digest, policy,
        cap (label included, as the trace prints it), epoch length
        and safety factor.
        """
        from repro import runtime
        from repro.experiments.platform import cached_governed_run
        from repro.governor import govern_run

        benchmark = BENCHMARKS[self.benchmark](self.problem_class)
        identity = (
            runtime.benchmark_digest(benchmark),
            self.ranks,
            runtime.spec_digest(self.spec),
            json.dumps(self.cap.as_dict(), sort_keys=True),
            self.epoch_phases,
            self.safety,
        )

        def run(policy: str) -> "GovernedRun":
            stored = cached_governed_run(
                (policy, *identity),
                lambda: govern_run(
                    benchmark,
                    self.ranks,
                    policy,
                    self.cap,
                    spec=self.spec,
                    epoch_phases=self.epoch_phases,
                    safety=self.safety,
                    seed=self.seed,
                ),
            )
            return dataclasses.replace(
                stored, trace=stored.trace.with_seed(self.seed)
            )

        return run(self.policy), run("static")

    def document(self) -> dict[str, _t.Any]:
        """Run both; the decision trace and the comparison to static."""
        governed, baseline = self.run()
        return {
            "params": self.params(),
            "governed": {
                "elapsed_s": governed.elapsed_s,
                "energy_j": governed.energy_j,
                "edp_j_s": governed.edp,
                "transitions": governed.trace.transitions,
                "trace_digest": governed.trace.digest(),
            },
            "baseline": {
                "policy": "static",
                "elapsed_s": baseline.elapsed_s,
                "energy_j": baseline.energy_j,
                "edp_j_s": baseline.edp,
            },
            "edp_ratio_vs_static": (
                governed.edp / baseline.edp if baseline.edp else 0.0
            ),
            "trace": governed.trace.to_document(),
        }


@dataclasses.dataclass(frozen=True, eq=False)
class OptimizeRequest:
    """One ``(platform, N, f)`` search for the optimal configuration.

    ``None`` platforms and counts search every registered platform over
    the paper counts; the cap is sized to the largest count.
    """

    benchmark: str
    problem_class: ProblemClass | str = ProblemClass.A
    objective: str = "energy"
    platforms: tuple[str, ...] | None = None
    counts: tuple[int, ...] | None = None
    scenario: str | None = None
    cluster_cap_w: float | None = None
    node_cap_w: float | None = None
    confirm: bool = True
    cap: "PowerCap" = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        from repro.experiments.platform import PAPER_COUNTS
        from repro.governor import resolve_cap
        from repro.optimizer import check_objective
        from repro.platforms import check_platform

        _check_workload(self)
        object.__setattr__(self, "objective", check_objective(self.objective))
        if self.platforms is not None:
            platforms = tuple(check_platform(p) for p in self.platforms)
            if not platforms:
                raise ConfigurationError(
                    "'platforms' must name at least one platform"
                )
            object.__setattr__(self, "platforms", platforms)
        if self.counts is not None:
            counts = tuple(int(n) for n in self.counts)
            if not counts or any(n < 1 for n in counts):
                raise ConfigurationError(
                    "'counts' must be a non-empty list of processor "
                    f"counts >= 1, got {list(counts)}"
                )
            object.__setattr__(self, "counts", counts)
        cap = resolve_cap(
            max(self.counts or PAPER_COUNTS),
            None,
            self.scenario,
            self.cluster_cap_w,
            self.node_cap_w,
        )
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "confirm", bool(self.confirm))

    @property
    def label(self) -> str:
        """Job label: ``optimize.<benchmark>.<class>.<objective>``."""
        return (
            f"optimize.{self.benchmark}.{self.problem_class.value}."
            f"{self.objective}"
        )

    def params(self) -> dict[str, _t.Any]:
        """Every resolved input of the search (the job key hashes these)."""
        return {
            "benchmark": self.benchmark,
            "class": self.problem_class.value,
            "objective": self.objective,
            "platforms": list(self.platforms) if self.platforms else None,
            "counts": list(self.counts) if self.counts else None,
            "cap": self.cap.as_dict(),
            "confirm": self.confirm,
        }

    def job_key(self) -> str:
        """``optimize-`` plus the SHA-256 of the canonical params."""
        return _params_key("optimize", self.params())

    ticket_key = job_key

    def run(self) -> "OptimizeResult":
        """Search (see :func:`repro.optimizer.optimize`)."""
        from repro.optimizer import optimize

        return optimize(
            self.benchmark,
            self.problem_class.value,
            objective=self.objective,
            platforms=self.platforms,
            counts=self.counts,
            cap=self.cap,
            confirm=self.confirm,
        )

    def document(self) -> dict[str, _t.Any]:
        """Search; the full candidate ranking."""
        return self.run().as_dict()
