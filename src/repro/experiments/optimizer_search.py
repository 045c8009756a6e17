"""Energy-optimal configuration search as a declarative experiment.

The optimizer's planner-integrated face: the paper-platform grid is
requested through the **DES** exactly like the table experiments
request it (same request digest, so the planner dedups the cells with
``table1``/``edp``/ ``figure1`` in a ``run-all`` batch), while the
alternative platforms' grids go through the analytic backend.  The
analyze stage then picks the energy/EDP-optimal ``(platform, N, f)``
under a named power-cap scenario and confirms the winner's cell in
the DES when it came from an analytic grid.

Parameters: ``benchmark`` (default ``ep``), ``problem_class``
(default ``A``), ``objective`` (``energy``/``edp``/``time``) and
``scenario`` (``uncapped``/``cluster_cap``/``node_cap`` — the budget
in watts is derived from the *paper* platform's power curve at the
largest count, then applied identically to every platform).
"""

from __future__ import annotations

import typing as _t

from repro.experiments.platform import (
    PAPER_COUNTS,
    measure_campaign,
)
from repro.experiments.registry import ExperimentResult, register_spec
from repro.npb import BENCHMARKS, ProblemClass
from repro.pipeline import (
    CampaignRequest,
    ExperimentSpec,
    Stage,
    StageContext,
)
from repro.reporting.tables import format_rows

__all__ = ["SPEC", "SEARCH_PLATFORMS"]

TITLE = "Energy-optimal (platform, N, f) under a power budget"

#: Platforms the search enumerates, reference platform first.  The
#: paper grid runs through the DES (dedups with the table
#: experiments); the rest are priced analytically.
SEARCH_PLATFORMS: tuple[str, ...] = (
    "paper",
    "paper-memwall",
    "hetero-2gen",
)


def _params(params: dict) -> tuple[str, str, str, str]:
    benchmark = str(params.get("benchmark") or "ep").lower()
    problem_class = str(params.get("problem_class") or "A")
    objective = str(params.get("objective") or "energy").lower()
    scenario = str(params.get("scenario") or "cluster_cap").lower()
    return benchmark, problem_class, objective, scenario


def _requires(params: dict) -> tuple[CampaignRequest, ...]:
    from repro.platforms import get_platform

    benchmark, problem_class, _objective, _scenario = _params(params)
    requests = []
    for platform in SEARCH_PLATFORMS:
        spec = get_platform(platform)
        counts = tuple(n for n in PAPER_COUNTS if n <= spec.n_nodes)
        requests.append(
            CampaignRequest(
                benchmark,
                problem_class,
                counts,
                spec.common_frequencies(),
                platform=None if platform == "paper" else platform,
                # The reference grid is a DES campaign with the same
                # digest as the table experiments' requests; the
                # alternatives are cheap analytic sweeps.
                backend=None if platform == "paper" else "analytic",
            )
        )
    return tuple(requests)


def _analyze(ctx: StageContext) -> dict[str, _t.Any]:
    from repro.governor import resolve_cap
    from repro.optimizer.search import check_objective
    from repro.platforms import get_platform

    benchmark, problem_class, objective, scenario = _params(ctx.params)
    objective = check_objective(objective)
    cap = resolve_cap(max(PAPER_COUNTS), scenario=scenario)

    def score(time_s: float, energy_j: float) -> float:
        if objective == "energy":
            return energy_j
        if objective == "edp":
            return energy_j * time_s
        return time_s

    per_platform: dict[str, dict[str, _t.Any]] = {}
    best = None
    for index, platform in enumerate(SEARCH_PLATFORMS):
        campaign = ctx.campaign(index)
        spec = get_platform(platform)
        feasible = []
        for cell, time_s in campaign.times.items():
            n, f = cell
            if not cap.admits_spec(f, spec, n):
                continue
            energy_j = campaign.energies[cell]
            feasible.append(
                (
                    score(time_s, energy_j),
                    time_s,
                    n,
                    f,
                    platform,
                    energy_j,
                )
            )
        if not feasible:
            per_platform[platform] = {"feasible_cells": 0}
            continue
        feasible.sort()
        value, time_s, n, f, _platform, energy_j = feasible[0]
        entry = {
            "n": n,
            "frequency_mhz": f / 1e6,
            "time_s": time_s,
            "energy_j": energy_j,
            "edp_j_s": energy_j * time_s,
            "objective_value": value,
            "feasible_cells": len(feasible),
        }
        per_platform[platform] = entry
        if best is None or (value, time_s, n, f, platform) < best[0]:
            best = ((value, time_s, n, f, platform), entry, platform)

    assert best is not None, "cap admitted no cell on any platform"
    _key, winner_entry, winner_platform = best

    # Confirm analytic winners in the DES (the paper grid already *is*
    # DES data).  A single cell, served from the planner-warmed cache
    # when possible.
    confirmation: dict[str, float] | None = None
    if winner_platform != "paper":
        bench = BENCHMARKS[benchmark](ProblemClass.parse(problem_class))
        f_hz = winner_entry["frequency_mhz"] * 1e6
        des = measure_campaign(
            bench,
            [winner_entry["n"]],
            [f_hz],
            spec=get_platform(winner_platform),
            backend="des",
        )
        cell = (winner_entry["n"], f_hz)
        des_time = des.times[cell]
        des_energy = des.energies[cell]
        confirmation = {
            "des_time_s": des_time,
            "des_energy_j": des_energy,
            "time_rel_err": abs(winner_entry["time_s"] - des_time)
            / des_time,
            "energy_rel_err": abs(winner_entry["energy_j"] - des_energy)
            / des_energy,
        }

    return {
        "benchmark": benchmark,
        "class": problem_class,
        "objective": objective,
        "scenario": scenario,
        "cap": cap.as_dict(),
        "per_platform": per_platform,
        "winner": {**winner_entry, "platform": winner_platform},
        "confirmation": confirmation,
    }


def _render(ctx: StageContext) -> ExperimentResult:
    analysis = ctx.state["analyze"]
    rows = []
    for platform, entry in analysis["per_platform"].items():
        if not entry.get("feasible_cells"):
            rows.append([platform, "-", "-", "-", "-", "-", "0"])
            continue
        rows.append(
            [
                platform,
                str(entry["n"]),
                f"{entry['frequency_mhz']:.0f}",
                f"{entry['time_s']:.3f}",
                f"{entry['energy_j']:.1f}",
                f"{entry['edp_j_s']:.1f}",
                str(entry["feasible_cells"]),
            ]
        )
    winner = analysis["winner"]
    lines = [
        format_rows(
            [
                "platform",
                "N*",
                "f* [MHz]",
                "time [s]",
                "energy [J]",
                "EDP [J*s]",
                "legal cells",
            ],
            rows,
            title=(
                f"{analysis['benchmark'].upper()} class "
                f"{analysis['class']}: {analysis['objective']}-optimal "
                f"config per platform, cap '{analysis['scenario']}'"
            ),
        ),
        f"winner: {winner['platform']} at N={winner['n']}, "
        f"f={winner['frequency_mhz']:.0f} MHz "
        f"({analysis['objective']} = {winner['objective_value']:.1f})",
    ]
    confirmation = analysis["confirmation"]
    if confirmation is not None:
        lines.append(
            "DES confirmation: time err "
            f"{confirmation['time_rel_err']:.3%}, energy err "
            f"{confirmation['energy_rel_err']:.3%}"
        )
    return ExperimentResult(
        "optimizer_search",
        TITLE,
        "\n\n".join(lines),
        analysis,
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="optimizer_search",
        title=TITLE,
        description=(
            "exhaustive (platform, N, f) search for the energy/EDP-"
            "optimal configuration under a power-cap scenario; paper "
            "grid via DES (planner-deduped), alternatives analytic"
        ),
        requires=_requires,
        params=("problem_class", "benchmark", "objective", "scenario"),
        stages=(
            Stage("analyze", _analyze),
            Stage("render", _render),
        ),
    )
)
