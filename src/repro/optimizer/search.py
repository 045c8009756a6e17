"""Energy-optimal configuration search across platforms.

The power-aware speedup model's practical payoff (paper §6): given a
benchmark and a power budget, *which* configuration — processor count,
frequency, and now platform — minimizes energy (or energy-delay
product)?  :func:`optimize` answers by exhaustive enumeration: every
``(platform, N, f)`` candidate is priced through the closed-form
analytic backend (:mod:`repro.analytic`) in one vectorized pass per
platform, infeasible candidates (cap violations, unmodelable cells)
are filtered out with recorded reasons, and the winner is optionally
*confirmed* by running its single cell through the discrete-event
simulator.

Exhaustive enumeration is deliberate: the full search space (3
platforms × 5 counts × 5 frequencies) prices in well under a
millisecond, and ``tests/optimizer/test_search.py`` cross-checks the
winner against an independent re-enumeration.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigurationError
from repro.governor.caps import PowerCap
from repro.npb import BENCHMARKS, ProblemClass

__all__ = [
    "OBJECTIVES",
    "Candidate",
    "OptimizeResult",
    "check_objective",
    "optimize",
]

#: Search objectives: total energy, energy-delay product, or time.
OBJECTIVES = ("energy", "edp", "time")


def check_objective(objective: str) -> str:
    """Validate an objective name, returning it normalised."""
    name = str(objective).strip().lower()
    if name not in OBJECTIVES:
        raise ConfigurationError(
            f"unknown objective {objective!r}: valid choices are "
            + ", ".join(repr(o) for o in OBJECTIVES)
        )
    return name


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One priced ``(platform, N, f)`` configuration."""

    platform: str
    n: int
    frequency_hz: float
    time_s: float
    energy_j: float
    feasible: bool
    reason: str = ""

    @property
    def edp_j_s(self) -> float:
        """Energy-delay product, the paper's combined metric."""
        return self.energy_j * self.time_s

    @property
    def mean_power_w(self) -> float:
        """Average cluster power over the candidate's run."""
        return self.energy_j / self.time_s if self.time_s > 0 else 0.0

    def objective_value(self, objective: str) -> float:
        """The candidate's score under a (validated) objective."""
        if objective == "energy":
            return self.energy_j
        if objective == "edp":
            return self.edp_j_s
        return self.time_s

    def as_dict(self) -> dict[str, _t.Any]:
        """JSON-ready rendering (service and CLI exports)."""
        return {
            "platform": self.platform,
            "n": self.n,
            "frequency_mhz": self.frequency_hz / 1e6,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "edp_j_s": self.edp_j_s,
            "mean_power_w": self.mean_power_w,
            "feasible": self.feasible,
            "reason": self.reason,
        }


@dataclasses.dataclass(frozen=True)
class OptimizeResult:
    """Outcome of one :func:`optimize` search."""

    benchmark: str
    problem_class: str
    objective: str
    cap: PowerCap
    platforms: tuple[str, ...]
    counts: tuple[int, ...]
    candidates: tuple[Candidate, ...]
    winner: Candidate
    skipped: tuple[dict[str, _t.Any], ...] = ()
    confirmation: dict[str, float] | None = None

    def feasible_candidates(self) -> tuple[Candidate, ...]:
        """The candidates that survived the power budget."""
        return tuple(c for c in self.candidates if c.feasible)

    def as_dict(self) -> dict[str, _t.Any]:
        """JSON-ready document (the ``/optimize`` response body)."""
        return {
            "benchmark": self.benchmark,
            "class": self.problem_class,
            "objective": self.objective,
            "cap": self.cap.as_dict(),
            "platforms": list(self.platforms),
            "counts": list(self.counts),
            "winner": self.winner.as_dict(),
            "candidates": [c.as_dict() for c in self.candidates],
            "skipped": list(self.skipped),
            "confirmation": self.confirmation,
        }


def _candidate_sort_key(
    objective: str,
) -> _t.Callable[[Candidate], tuple]:
    def key(candidate: Candidate) -> tuple:
        return (
            candidate.objective_value(objective),
            candidate.time_s,
            candidate.n,
            candidate.frequency_hz,
            candidate.platform,
        )

    return key


def optimize(
    benchmark: str,
    problem_class: str = "A",
    *,
    objective: str = "energy",
    platforms: _t.Sequence[str] | None = None,
    counts: _t.Sequence[int] | None = None,
    cap: PowerCap | None = None,
    confirm: bool = True,
    use_cache: bool = True,
) -> OptimizeResult:
    """Find the ``(platform, N, f)`` minimizing ``objective`` under ``cap``.

    Parameters
    ----------
    benchmark, problem_class:
        The workload, as in :data:`repro.npb.BENCHMARKS`.
    objective:
        ``"energy"`` (joules), ``"edp"`` (J·s) or ``"time"`` (s).
    platforms:
        Registered platform names to search over (default: every
        registered platform).  Unknown names raise
        :class:`~repro.errors.ConfigurationError` naming the choices.
    counts:
        Candidate processor counts (default: the paper grid, clipped
        per platform to its node count).
    cap:
        Power budget enforced per candidate via
        :meth:`PowerCap.admits_spec` (default: uncapped).  Candidates
        over budget stay in the result, marked infeasible.
    confirm:
        Re-run the winning cell through the DES and attach the
        relative analytic-vs-DES errors as ``confirmation``.
    use_cache:
        Passed through to the confirmation measurement.

    The search itself is purely analytic — a vectorized closed-form
    pass per platform — so it never spawns a process pool.
    """
    from repro.experiments.platform import PAPER_COUNTS
    from repro.platforms import check_platform, get_platform, platform_names

    name = str(benchmark).lower()
    if name not in BENCHMARKS:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        )
    objective = check_objective(objective)
    cap = cap or PowerCap()
    searched = tuple(
        check_platform(p) for p in (platforms or platform_names())
    )
    if not searched:
        raise ConfigurationError("optimize needs at least one platform")
    base_counts = tuple(
        int(n) for n in (counts if counts is not None else PAPER_COUNTS)
    )

    from repro.analytic import AnalyticCampaignModel

    problem = ProblemClass.parse(problem_class)
    model_benchmark = BENCHMARKS[name](problem)
    candidates: list[Candidate] = []
    skipped: list[dict[str, _t.Any]] = []
    winner_spec = {}
    for platform in searched:
        spec = get_platform(platform)
        model = AnalyticCampaignModel(model_benchmark, spec)
        frequencies = spec.common_frequencies()
        cells = []
        for n in base_counts:
            if n > spec.n_nodes:
                skipped.append(
                    {
                        "platform": platform,
                        "n": n,
                        "reason": (
                            f"exceeds the platform's {spec.n_nodes} nodes"
                        ),
                    }
                )
                continue
            for f in frequencies:
                reason = model.unsupported_reason((n, f))
                if reason is not None:
                    skipped.append(
                        {
                            "platform": platform,
                            "n": n,
                            "frequency_mhz": f / 1e6,
                            "reason": reason,
                        }
                    )
                else:
                    cells.append((n, f))
        if not cells:
            continue
        evaluation = model.evaluate_cells(cells)
        times = evaluation.times_by_cell()
        energies = evaluation.energies_by_cell()
        for cell in cells:
            n, f = cell
            admitted = cap.admits_spec(f, spec, n)
            candidates.append(
                Candidate(
                    platform=platform,
                    n=n,
                    frequency_hz=f,
                    time_s=times[cell],
                    energy_j=energies[cell],
                    feasible=admitted,
                    reason=(
                        ""
                        if admitted
                        else f"over power cap {cap.label!r}"
                    ),
                )
            )
        winner_spec[platform] = spec

    feasible = [c for c in candidates if c.feasible]
    if not feasible:
        raise ConfigurationError(
            f"power cap {cap.label!r} ({cap.as_dict()}) admits no "
            f"candidate configuration for {name}.{problem.value} on "
            f"platforms {', '.join(searched)}"
        )
    winner = min(feasible, key=_candidate_sort_key(objective))

    confirmation: dict[str, float] | None = None
    if confirm:
        from repro.experiments.platform import measure_campaign

        campaign = measure_campaign(
            model_benchmark,
            [winner.n],
            [winner.frequency_hz],
            use_cache=use_cache,
            spec=winner_spec[winner.platform],
            backend="des",
        )
        cell = (winner.n, winner.frequency_hz)
        des_time = campaign.times[cell]
        des_energy = campaign.energies[cell]
        confirmation = {
            "des_time_s": des_time,
            "des_energy_j": des_energy,
            "time_rel_err": (
                abs(winner.time_s - des_time) / des_time
                if des_time
                else 0.0
            ),
            "energy_rel_err": (
                abs(winner.energy_j - des_energy) / des_energy
                if des_energy
                else 0.0
            ),
        }

    return OptimizeResult(
        benchmark=name,
        problem_class=problem.value,
        objective=objective,
        cap=cap,
        platforms=searched,
        counts=base_counts,
        candidates=tuple(
            sorted(candidates, key=_candidate_sort_key(objective))
        ),
        winner=winner,
        skipped=tuple(skipped),
        confirmation=confirmation,
    )
