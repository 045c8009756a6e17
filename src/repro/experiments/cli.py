"""Command-line interface: ``repro-experiments``.

Usage::

    repro-experiments list
    repro-experiments run table3 [--class A] [--json OUT.json] [--jobs 4]
    repro-experiments run-all [--outdir results/] [--json ALL.json] \\
        [--plan-json PLAN.json]
    repro-experiments campaign ft --class A --counts 1,2,4,8,16 \\
        --csv ft_times.csv --json ft.json
    repro-experiments govern ft --ranks 4 --policy model_predictive \\
        --scenario cluster_cap --json trace.json
    repro-experiments optimize ep --objective energy \\
        --scenario cluster_cap --json winner.json
    repro-experiments serve --port 8080
    repro-experiments --version

Every experiment prints its report in the paper's table layout; JSON
export captures the machine-readable data for downstream analysis.
All JSON exports — ``run --json``, ``run-all --json``/``--outdir``
and ``campaign --json`` — share one schema path
(:func:`repro.reporting.jsonify`): grid cells render as ``"N@fMHz"``
keys and floats round-trip bit-exactly.  The ``campaign`` subcommand
measures any registered benchmark over a custom (counts × frequencies)
grid and exports times/energies/speedups.  ``serve`` starts the
long-running prediction & campaign service (see
:mod:`repro.service`).

``run-all`` executes the whole suite as **one deduplicated campaign
plan** (:mod:`repro.pipeline`): every experiment declares the
campaigns it requires, the planner unions the cells and simulates
each unique (benchmark, N, f) cell at most once, and the experiments'
fit/analyze/render stages consume the shared artifact store.  The
``[experiment plan]`` line reports planned/deduped/executed cell
counts; ``--plan-json`` exports the plan, the store's provenance
document and the runtime metrics snapshot.

``--jobs N`` fans campaign cells out over N worker processes and
``--no-disk-cache`` disables the persistent ``.repro_cache/`` tier
(see :mod:`repro.runtime`); each command ends with a ``[campaign
runtime]`` line reporting simulated cells, cache hits and engine
throughput (events processed, events/second, peak queue length).
``--profile`` wraps the command in :mod:`cProfile` and prints the top
20 functions by cumulative time.  Fault
tolerance is tunable per run: ``--retries N`` (extra attempts per
failing cell), ``--cell-timeout S`` (terminate and retry hung
workers) and ``--allow-partial`` (return surviving cells plus a
failure report instead of aborting the command).  ``--backend
{des,analytic,auto}`` picks the campaign execution path — the
discrete-event simulator, the vectorized closed forms, or per-cell
routing between them (see ``docs/ANALYTIC.md``).

``govern`` runs one benchmark under the closed-loop DVFS governor
(:mod:`repro.governor`): pick a policy and a power-cap scenario, get
the decision trace plus the energy/time/EDP comparison against the
static baseline governed under the same cap (see
``docs/GOVERNOR.md``).

``--platform NAME`` selects a registered platform (``paper``,
``paper-memwall``, ``hetero-2gen``; see ``docs/PLATFORMS.md``) for
``campaign`` and ``govern`` — equivalent to setting
``REPRO_PLATFORM``.  The campaigns of registry experiments (``run``,
``run-all``) always use the paper platform.  ``optimize`` searches
every ``(platform, N, f)`` configuration for the energy/EDP/time-optimal
one under a power budget, pricing candidates analytically and
confirming the winner in the simulator (:mod:`repro.optimizer`).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import typing as _t

from repro.experiments.registry import (
    list_experiments,
    run_experiment,
)

__all__ = ["main"]


def _jsonify(value: _t.Any) -> _t.Any:
    """Make experiment data JSON-serializable.

    One shared schema path for every CLI JSON export — delegates to
    :func:`repro.reporting.jsonify` (tuple grid keys become
    ``"N@fMHz"`` strings).
    """
    from repro.reporting import jsonify

    return jsonify(value)


def _comma_list(kind: _t.Callable[[str], _t.Any]) -> _t.Callable:
    """An argparse ``type``: ``"1,2,4"`` -> ``(1, 2, 4)`` via ``kind``.

    A bad item is a usage error: argparse prints it and exits 2.
    """

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(item.strip()) for item in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated list of {kind.__name__}: {text!r}"
            ) from None

    return parse


def _configure_runtime(args: argparse.Namespace) -> None:
    """Apply the runtime flags (jobs, cache, platform, fault tolerance)
    and resolve the settings once: a bad flag or ``REPRO_*`` value is
    a usage error (exit 2)."""
    from repro import runtime
    from repro.errors import ConfigurationError

    jobs = args.jobs
    if getattr(args, "profile", False) and jobs is None:
        # Profile in-process by default: pool workers would hide the
        # simulation hot loop from the profiler.
        jobs = 1
    try:
        runtime.configure(
            jobs=jobs,
            disk_cache=False if args.no_disk_cache else None,
            retries=args.retries,
            cell_timeout=args.cell_timeout,
            allow_partial=True if args.allow_partial else None,
            backend=getattr(args, "backend", None),
            fabric=True if getattr(args, "fabric", False) else None,
            platform=getattr(args, "platform", None),
        )
        runtime.settings()
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(2)


def _print_runtime_stats() -> None:
    """Per-cell timing, cache-hit and fault metrics for the command."""
    from repro.runtime.metrics import METRICS

    if METRICS.campaigns:
        print(f"[campaign runtime] {METRICS.summary_line()}")
    for label, failure in METRICS.failures:
        cell = failure.get("cell", ["?", 0.0])
        try:
            where = f"n={cell[0]}, f={float(cell[1]) / 1e6:.0f} MHz"
        except (TypeError, ValueError, IndexError):
            where = repr(cell)
        print(
            f"[campaign runtime] {label}: FAILED cell "
            f"({where}): {failure.get('error', 'unknown error')}"
        )


def _cmd_list(_args: argparse.Namespace) -> int:
    for exp_id, title, _desc in list_experiments():
        print(f"{exp_id:20s} {title}")
    return 0


def _run_one(
    exp_id: str, problem_class: str, json_path: str | None
) -> dict[str, _t.Any]:
    kwargs: dict[str, _t.Any] = {}
    if problem_class:
        kwargs["problem_class"] = problem_class
    result = run_experiment(exp_id, **kwargs)
    print(result)
    print()
    document = result.document()
    if json_path:
        pathlib.Path(json_path).write_text(json.dumps(document, indent=2))
        print(f"[data written to {json_path}]")
    return document


def _cmd_run(args: argparse.Namespace) -> int:
    _configure_runtime(args)
    _run_one(args.experiment, args.problem_class, args.json)
    _print_runtime_stats()
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    _configure_runtime(args)
    from repro.experiments.registry import get_experiment
    from repro.pipeline import ArtifactStore, run_pipeline

    outdir = pathlib.Path(args.outdir) if args.outdir else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    params: dict[str, _t.Any] = {}
    if args.problem_class:
        params["problem_class"] = args.problem_class

    # One deduplicated plan for the whole suite: every experiment's
    # campaign requests are unioned, each unique (benchmark, N, f)
    # cell is simulated at most once, and the per-experiment stages
    # run off the shared artifact store.
    store = ArtifactStore()
    listing = list_experiments()
    specs = [(get_experiment(exp_id), dict(params)) for exp_id, _, _ in listing]
    results, report = run_pipeline(specs, store=store)

    documents = []
    for exp_id, _title, _desc in listing:
        result = results[exp_id]
        print(result)
        print()
        document = result.document()
        if outdir:
            json_path = outdir / f"{exp_id}.json"
            json_path.write_text(json.dumps(document, indent=2))
            print(f"[data written to {json_path}]")
        documents.append(document)
    print(f"[experiment plan] {report.summary_line()}")
    if args.json:
        combined = {"experiments": documents}
        pathlib.Path(args.json).write_text(json.dumps(combined, indent=2))
        print(f"[combined data written to {args.json}]")
    if args.plan_json:
        from repro.runtime.metrics import METRICS

        plan_document = {
            "plan": report.as_dict(),
            "store": store.provenance_document(),
            "runtime": METRICS.snapshot(),
        }
        pathlib.Path(args.plan_json).write_text(
            json.dumps(plan_document, indent=2)
        )
        print(f"[plan report written to {args.plan_json}]")
    _print_runtime_stats()
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.pipeline import CampaignRequest
    from repro.reporting import format_grid, grid_to_csv

    try:
        request = CampaignRequest.for_job(
            args.benchmark,
            args.problem_class or "A",
            args.counts,
            args.frequencies,
            backend=args.backend,
            platform=args.platform,
        )
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _configure_runtime(args)
    result = request.document()
    data = result["data"]
    name = request.benchmark

    print(
        format_grid(
            data["times"],
            title=f"{name.upper()} execution time (seconds)",
            value_style="time",
        )
    )
    print()
    print(
        format_grid(
            data["speedups"],
            title=f"{name.upper()} power-aware speedup",
            value_style="speedup",
        )
    )
    if args.csv:
        base = pathlib.Path(args.csv)
        grid_to_csv(data["times"], base, value_name="seconds")
        energy_path = base.with_name(base.stem + "_energy" + base.suffix)
        grid_to_csv(data["energies"], energy_path, value_name="joules")
        print(f"\n[times written to {base}, energies to {energy_path}]")
    if args.json:
        document = {
            "benchmark": name,
            "class": result["class"],
            "base_frequency_hz": result["base_frequency_hz"],
            "data": _jsonify(data),
        }
        pathlib.Path(args.json).write_text(json.dumps(document, indent=2))
        print(f"[data written to {args.json}]")
    _print_runtime_stats()
    return 0


def _cmd_govern(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.pipeline import GovernRequest
    from repro.reporting.tables import format_rows

    try:
        request = GovernRequest(
            args.benchmark,
            args.problem_class or "A",
            args.ranks,
            policy=args.policy,
            scenario=args.scenario,
            cluster_cap_w=args.cluster_cap_w,
            node_cap_w=args.node_cap_w,
            platform=args.platform,
            epoch_phases=args.epoch_phases,
            safety=args.safety,
            seed=args.seed,
        )
        governed, baseline = request.run()
    except ReproError as exc:
        print(f"govern failed: {exc}", file=sys.stderr)
        return 2

    rows = [
        [
            run.policy,
            f"{run.elapsed_s:.3f}",
            f"{run.energy_j:.1f}",
            f"{run.edp:.1f}",
            run.trace.transitions,
        ]
        for run in (baseline, governed)
    ]
    print(
        format_rows(
            ["policy", "time [s]", "energy [J]", "EDP [J*s]", "transitions"],
            rows,
            title=(
                f"{request.benchmark.upper()} class "
                f"{request.problem_class.value} at N={request.ranks}, "
                f"cap '{request.cap.label}' "
                f"({governed.trace.n_epochs} epochs)"
            ),
        )
    )
    ratio = governed.edp / baseline.edp if baseline.edp else 0.0
    print(
        f"\nEDP vs static baseline: {ratio:.3f}  "
        f"(trace digest {governed.trace.digest()[:16]})"
    )
    if args.json:
        document = {
            "baseline": {
                "elapsed_s": baseline.elapsed_s,
                "energy_j": baseline.energy_j,
                "edp_j_s": baseline.edp,
            },
            "edp_ratio_vs_static": ratio,
            "trace": governed.trace.to_document(),
        }
        pathlib.Path(args.json).write_text(json.dumps(document, indent=2))
        print(f"[decision trace written to {args.json}]")
    return 0


def _cmd_platforms(_args: argparse.Namespace) -> int:
    from repro.platforms import platform_summaries
    from repro.reporting.tables import format_rows

    rows = []
    for summary in platform_summaries():
        rows.append(
            [
                summary["name"],
                str(summary["n_nodes"]),
                "yes" if summary["heterogeneous"] else "no",
                ",".join(f"{m:.0f}" for m in summary["frequencies_mhz"]),
                summary["spec_digest"][:12],
                summary["description"],
            ]
        )
    print(
        format_rows(
            [
                "platform",
                "nodes",
                "hetero",
                "common f [MHz]",
                "digest",
                "description",
            ],
            rows,
            title="registered platforms (select with --platform or "
            "REPRO_PLATFORM)",
        )
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.pipeline import OptimizeRequest
    from repro.reporting.tables import format_rows

    _configure_runtime(args)
    try:
        request = OptimizeRequest(
            args.benchmark,
            args.problem_class or "A",
            objective=args.objective,
            platforms=args.platforms,
            counts=args.counts,
            scenario=args.scenario,
            cluster_cap_w=args.cluster_cap_w,
            node_cap_w=args.node_cap_w,
            confirm=not args.no_confirm,
        )
        result = request.run()
    except ReproError as exc:
        print(f"optimize failed: {exc}", file=sys.stderr)
        return 2

    shown = result.feasible_candidates()[: args.top]
    rows = [
        [
            c.platform,
            str(c.n),
            f"{c.frequency_hz / 1e6:.0f}",
            f"{c.time_s:.3f}",
            f"{c.energy_j:.1f}",
            f"{c.edp_j_s:.1f}",
            f"{c.mean_power_w:.1f}",
        ]
        for c in shown
    ]
    n_feasible = len(result.feasible_candidates())
    print(
        format_rows(
            [
                "platform",
                "N",
                "f [MHz]",
                "time [s]",
                "energy [J]",
                "EDP [J*s]",
                "mean [W]",
            ],
            rows,
            title=(
                f"{result.benchmark.upper()} class {result.problem_class}: "
                f"top {len(shown)} of {n_feasible} feasible configs by "
                f"{result.objective}, cap '{result.cap.label}'"
            ),
        )
    )
    winner = result.winner
    print(
        f"\nwinner: {winner.platform} at N={winner.n}, "
        f"f={winner.frequency_hz / 1e6:.0f} MHz "
        f"({result.objective} = "
        f"{winner.objective_value(result.objective):.1f})"
    )
    infeasible = len(result.candidates) - n_feasible
    if infeasible or result.skipped:
        print(
            f"[{infeasible} candidates over cap, "
            f"{len(result.skipped)} cells skipped]"
        )
    if result.confirmation is not None:
        print(
            "DES confirmation: time err "
            f"{result.confirmation['time_rel_err']:.3%}, energy err "
            f"{result.confirmation['energy_rel_err']:.3%}"
        )
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(result.as_dict(), indent=2)
        )
        print(f"[optimizer result written to {args.json}]")
    _print_runtime_stats()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve_from_args

    return serve_from_args(args)


def main(argv: _t.Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-experiments`` console script."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of 'Power-Aware "
        "Speedup' (Ge & Cameron, IPDPS 2007) on the simulated platform.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runtime_opts = argparse.ArgumentParser(add_help=False)
    runtime_opts.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per campaign (default: auto)",
    )
    runtime_opts.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="disable the on-disk campaign cache (.repro_cache/)",
    )
    runtime_opts.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts per failing campaign cell (default: 2)",
    )
    runtime_opts.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="terminate and retry cells after this stall time "
        "(default: disabled; needs --jobs > 1)",
    )
    runtime_opts.add_argument(
        "--allow-partial",
        action="store_true",
        help="on exhausted retries, keep surviving cells and print a "
        "failure report instead of aborting",
    )
    runtime_opts.add_argument(
        "--backend",
        choices=("des", "analytic", "auto"),
        default=None,
        help="campaign execution backend: 'des' simulates every cell, "
        "'analytic' evaluates the closed forms in one vectorized "
        "pass, 'auto' uses the analytic path where validated and "
        "falls back to the simulator (default: des, or REPRO_BACKEND)",
    )
    runtime_opts.add_argument(
        "--platform",
        default=None,
        metavar="NAME",
        help="registered platform for 'campaign' (see 'platforms'; "
        "default: paper, or REPRO_PLATFORM); experiment campaigns "
        "always use paper",
    )
    runtime_opts.add_argument(
        "--fabric",
        action="store_true",
        help="offer DES cells to the distributed worker fleet when a "
        "coordinator is installed in this process (default: off, or "
        "REPRO_FABRIC; no live fleet falls back to the local pool)",
    )
    runtime_opts.add_argument(
        "--profile",
        action="store_true",
        help="profile the command with cProfile and print the top 20 "
        "functions by cumulative time (implies --jobs 1 unless --jobs "
        "is given, so the simulation runs in-process)",
    )

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser(
        "run", help="run one experiment", parents=[runtime_opts]
    )
    p_run.add_argument("experiment", help="experiment id (see 'list')")
    p_run.add_argument(
        "--class",
        dest="problem_class",
        default="",
        help="NPB problem class (default: each experiment's default, A)",
    )
    p_run.add_argument("--json", default=None, help="write data to JSON file")
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser(
        "run-all", help="run every experiment", parents=[runtime_opts]
    )
    p_all.add_argument("--class", dest="problem_class", default="")
    p_all.add_argument(
        "--outdir", default=None, help="directory for per-experiment JSON"
    )
    p_all.add_argument(
        "--json",
        default=None,
        help="write all experiments to one combined JSON file",
    )
    p_all.add_argument(
        "--plan-json",
        dest="plan_json",
        default=None,
        help="write the campaign plan, artifact-store provenance and "
        "runtime metrics to a JSON file",
    )
    p_all.set_defaults(func=_cmd_run_all)

    p_camp = sub.add_parser(
        "campaign",
        help="measure a benchmark over a custom (N, f) grid",
        parents=[runtime_opts],
    )
    p_camp.add_argument(
        "benchmark", help="benchmark name (ep, ft, lu, cg, mg, is, bt, sp)"
    )
    p_camp.add_argument("--class", dest="problem_class", default="A")
    p_camp.add_argument(
        "--counts",
        type=_comma_list(int),
        default=None,
        help="comma-separated processor counts",
    )
    p_camp.add_argument(
        "--frequencies",
        type=_comma_list(float),
        default=None,
        help="comma-separated frequencies (MHz)",
    )
    p_camp.add_argument(
        "--csv", default=None, help="CSV path for times (+ _energy sibling)"
    )
    p_camp.add_argument(
        "--json",
        default=None,
        help="write times/energies/speedups to a JSON file",
    )
    p_camp.set_defaults(func=_cmd_campaign)

    p_gov = sub.add_parser(
        "govern",
        help="run a benchmark under the closed-loop DVFS governor",
    )
    p_gov.add_argument(
        "benchmark", help="benchmark name (ep, ft, lu, cg, mg, is, bt, sp)"
    )
    p_gov.add_argument("--class", dest="problem_class", default="A")
    p_gov.add_argument(
        "--ranks", type=int, default=4, help="rank count (default: 4)"
    )
    p_gov.add_argument(
        "--policy",
        default=None,
        help="governor policy: static, static_optimal, reactive, "
        "model_predictive (default: REPRO_GOVERNOR_POLICY or "
        "model_predictive)",
    )
    p_gov.add_argument(
        "--scenario",
        default=None,
        help="named power-cap scenario: uncapped, cluster_cap, node_cap",
    )
    p_gov.add_argument(
        "--cluster-cap-w",
        dest="cluster_cap_w",
        type=float,
        default=None,
        help="explicit cluster-wide power budget in watts",
    )
    p_gov.add_argument(
        "--node-cap-w",
        dest="node_cap_w",
        type=float,
        default=None,
        help="explicit per-node power ceiling in watts",
    )
    p_gov.add_argument(
        "--platform",
        default=None,
        metavar="NAME",
        help="registered platform to govern on (see 'platforms'; "
        "default: paper, or REPRO_PLATFORM)",
    )
    p_gov.add_argument(
        "--epoch-phases",
        dest="epoch_phases",
        type=int,
        default=None,
        help="phases per governor epoch (default: REPRO_GOVERNOR_EPOCH or 4)",
    )
    p_gov.add_argument(
        "--safety",
        type=float,
        default=None,
        help="slack-reclamation safety in [0,1] "
        "(default: REPRO_GOVERNOR_SAFETY or 0.9)",
    )
    p_gov.add_argument(
        "--seed", type=int, default=0, help="trace provenance seed"
    )
    p_gov.add_argument(
        "--json",
        default=None,
        help="write the decision trace + baseline comparison to JSON",
    )
    p_gov.set_defaults(func=_cmd_govern)

    p_platforms = sub.add_parser(
        "platforms",
        help="list the registered platforms",
    )
    p_platforms.set_defaults(func=_cmd_platforms)

    p_opt = sub.add_parser(
        "optimize",
        help="search (platform, N, f) for the energy/EDP-optimal "
        "configuration under a power budget",
        parents=[runtime_opts],
    )
    p_opt.add_argument(
        "benchmark", help="benchmark name (ep, ft, lu, cg, mg, is, bt, sp)"
    )
    p_opt.add_argument("--class", dest="problem_class", default="A")
    p_opt.add_argument(
        "--objective",
        choices=("energy", "edp", "time"),
        default="energy",
        help="optimization objective (default: energy)",
    )
    p_opt.add_argument(
        "--platforms",
        type=_comma_list(str),
        default=None,
        help="comma-separated platform names to search "
        "(default: every registered platform)",
    )
    p_opt.add_argument(
        "--counts",
        type=_comma_list(int),
        default=None,
        help="comma-separated processor counts",
    )
    p_opt.add_argument(
        "--scenario",
        default=None,
        help="named power-cap scenario: uncapped, cluster_cap, node_cap",
    )
    p_opt.add_argument(
        "--cluster-cap-w",
        dest="cluster_cap_w",
        type=float,
        default=None,
        help="explicit cluster-wide power budget in watts",
    )
    p_opt.add_argument(
        "--node-cap-w",
        dest="node_cap_w",
        type=float,
        default=None,
        help="explicit per-node power ceiling in watts",
    )
    p_opt.add_argument(
        "--top",
        type=int,
        default=8,
        help="feasible candidates to print (default: 8)",
    )
    p_opt.add_argument(
        "--no-confirm",
        action="store_true",
        help="skip the DES confirmation of the winning cell",
    )
    p_opt.add_argument(
        "--json",
        default=None,
        help="write the full candidate ranking to a JSON file",
    )
    p_opt.set_defaults(func=_cmd_optimize)

    p_serve = sub.add_parser(
        "serve",
        help="start the long-running prediction & campaign service",
    )
    from repro.service.server import add_serve_arguments

    add_serve_arguments(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="join a running service's campaign fabric as a worker",
    )
    from repro.fabric.worker import add_worker_arguments, worker_from_args

    add_worker_arguments(p_worker)
    p_worker.set_defaults(func=worker_from_args)

    args = parser.parse_args(argv)
    if getattr(args, "profile", False):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        status = profiler.runcall(args.func, args)
        print("\n[profile] top 20 functions by cumulative time:")
        pstats.Stats(profiler, stream=sys.stdout).sort_stats(
            "cumulative"
        ).print_stats(20)
        return status
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
