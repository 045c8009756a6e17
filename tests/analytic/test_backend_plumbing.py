"""Backend selection, routing and cache-identity plumbing.

Covers the runner dispatch (``des`` / ``analytic`` / ``auto``), the
configuration ladder (argument → ``configure`` → ``REPRO_BACKEND``),
rejection of unknown backend names, the ``auto`` partition between
the closed forms and the DES, metrics accounting of analytic cells,
and — load-bearing for correctness — cache separation: a grid
measured under one backend must never silently answer a request for
the other, in either the in-memory tier or the on-disk tier.
"""

import pytest

from repro import runtime
from repro.cluster import paper_spec
from repro.errors import ConfigurationError, ModelError
from repro.experiments.platform import (
    clear_campaign_cache,
    measure_campaign,
    peek_campaign,
)
from repro.npb import BENCHMARKS
from repro.pipeline import ArtifactStore, CampaignRequest
from repro.pipeline.planner import clear_cell_index, execute_plan
from repro.units import mhz

GRID = dict(counts=(1, 2, 4), frequencies=(mhz(600), mhz(1400)))
CELLS = [(n, f) for n in GRID["counts"] for f in GRID["frequencies"]]


@pytest.fixture(autouse=True)
def isolated_runtime(tmp_path):
    runtime.configure(
        jobs=None, disk_cache=None, cache_dir=tmp_path, backend=None
    )
    clear_campaign_cache()
    clear_cell_index()
    runtime.reset_campaign_metrics()
    yield
    clear_campaign_cache()
    clear_cell_index()
    runtime.configure(
        jobs=None, disk_cache=None, cache_dir=None, backend=None
    )
    runtime.reset_campaign_metrics()


class TestBackendResolution:
    def test_default_is_des(self):
        assert runtime.settings().backend == "des"

    def test_explicit_wins(self):
        runtime.configure(backend="des")
        assert runtime.settings(backend="analytic").backend == "analytic"

    def test_configured_default(self):
        runtime.configure(backend="auto")
        assert runtime.settings().backend == "auto"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "analytic")
        assert runtime.settings().backend == "analytic"

    def test_unknown_names_rejected_everywhere(self):
        for attempt in (
            lambda: runtime.settings(backend="fpga").backend,
            lambda: runtime.configure(backend="fpga"),
            lambda: runtime.check_backend("fpga"),
            lambda: runtime.execute_cells(
                BENCHMARKS["ep"](),
                [(1, mhz(600))],
                paper_spec(),
                backend="fpga",
            ),
        ):
            with pytest.raises(ConfigurationError) as error:
                attempt()
            message = str(error.value)
            for choice in runtime.BACKENDS:
                assert repr(choice) in message

    def test_request_backend_validated(self):
        with pytest.raises(ConfigurationError):
            CampaignRequest("ep", "A", (1,), (mhz(600),), backend="bad")


class TestAnalyticExecution:
    def test_analytic_backend_skips_the_simulator(self):
        execution = runtime.execute_cells(
            BENCHMARKS["ep"](),
            CELLS,
            paper_spec(),
            backend="analytic",
        )
        assert execution.analytic_cells == len(CELLS)
        assert execution.events_processed == 0
        assert execution.processes_spawned == 0
        assert len(execution.times) == len(CELLS)
        assert list(execution.times) == CELLS

    def test_analytic_rejects_out_of_model_cells(self):
        with pytest.raises(ModelError, match="auto"):
            runtime.execute_cells(
                BENCHMARKS["ep"](),
                [(2, mhz(725))],  # not an operating point
                paper_spec(),
                backend="analytic",
            )

    def test_auto_routes_validated_benchmark_analytically(self):
        execution = runtime.execute_cells(
            BENCHMARKS["ep"](), CELLS, paper_spec(), backend="auto"
        )
        assert execution.analytic_cells == len(CELLS)
        assert execution.events_processed == 0

    def test_auto_falls_back_to_des_for_unvalidated_benchmark(self):
        execution = runtime.execute_cells(
            BENCHMARKS["cg"](),
            [(1, mhz(600)), (2, mhz(600))],
            paper_spec(),
            backend="auto",
        )
        assert execution.analytic_cells == 0
        assert execution.events_processed > 0

    def test_auto_splits_mixed_cells(self):
        # A benchmark whose analytic decomposition rejects one rank
        # count the simulator can still run: auto must send exactly
        # that cell to the DES and keep input order in the merge.
        from repro.npb.ep import EPBenchmark

        class PartiallyModelable(EPBenchmark):
            def message_profile(self, n_ranks):
                if n_ranks == 4:
                    raise ConfigurationError(
                        "no analytic profile at n=4"
                    )
                return super().message_profile(n_ranks)

        cells = [(2, mhz(600)), (4, mhz(600))]
        execution = runtime.execute_cells(
            PartiallyModelable(), cells, paper_spec(), backend="auto"
        )
        assert execution.analytic_cells == 1
        assert execution.events_processed > 0
        assert list(execution.times) == cells

    def test_metrics_report_analytic_cells(self):
        measure_campaign(BENCHMARKS["ep"](), backend="analytic", **GRID)
        snapshot = runtime.campaign_metrics()
        assert snapshot["analytic_cells"] == len(CELLS)
        assert snapshot["simulated_cells"] == 0
        line = runtime.METRICS.summary_line()
        assert f"{len(CELLS)} analytic cells" in line
        assert "0 cells simulated" in line


class TestCacheSeparation:
    def test_digests_differ_by_backend(self):
        base = ("ep", "A", (1, 2), (mhz(600),), "specdigest", "state")
        digests = {
            runtime.campaign_digest(*base, backend): backend
            for backend in runtime.BACKENDS
        }
        assert len(digests) == len(runtime.BACKENDS)

    def test_des_campaign_not_served_to_analytic_request(self):
        benchmark = BENCHMARKS["ep"]()
        measured = measure_campaign(benchmark, backend="des", **GRID)
        assert len(measured.times) == len(CELLS)
        # Both tiers are warm for "des"...
        assert (
            peek_campaign(benchmark, backend="des", **GRID) is not None
        )
        # ...and stone cold for "analytic": no silent cross-serving.
        assert peek_campaign(benchmark, backend="analytic", **GRID) is None

    def test_analytic_campaign_not_served_to_des_request(self):
        benchmark = BENCHMARKS["ep"]()
        measure_campaign(benchmark, backend="analytic", **GRID)
        assert peek_campaign(benchmark, backend="des", **GRID) is None
        assert (
            peek_campaign(benchmark, backend="analytic", **GRID)
            is not None
        )

    def test_request_digests_differ_by_backend(self):
        kwargs = dict(
            problem_class="A",
            counts=(1, 2),
            frequencies=(mhz(600),),
        )
        des = CampaignRequest("ep", backend="des", **kwargs)
        analytic = CampaignRequest("ep", backend="analytic", **kwargs)
        assert des.digest() != analytic.digest()
        assert des.group() != analytic.group()


class TestPlannerIntegration:
    def test_plan_reports_analytic_split(self):
        request = CampaignRequest(
            "ep",
            "A",
            GRID["counts"],
            GRID["frequencies"],
            backend="analytic",
        )
        report = execute_plan([request], ArtifactStore())
        assert report.executed_cells == len(CELLS)
        assert report.analytic_cells == len(CELLS)
        assert report.batches[0]["backend"] == "analytic"
        assert report.batches[0]["analytic_cells"] == len(CELLS)
        assert "analytic" in report.summary_line()

    def test_planned_analytic_campaign_adopted_under_its_backend(self):
        request = CampaignRequest(
            "ep",
            "A",
            GRID["counts"],
            GRID["frequencies"],
            backend="analytic",
        )
        execute_plan([request], ArtifactStore())
        benchmark = BENCHMARKS["ep"]()
        assert (
            peek_campaign(benchmark, backend="analytic", **GRID)
            is not None
        )
        assert peek_campaign(benchmark, backend="des", **GRID) is None

    def test_des_plan_has_no_analytic_cells(self):
        request = CampaignRequest(
            "ep", "A", (1, 2), (mhz(600),), backend="des"
        )
        report = execute_plan([request], ArtifactStore())
        assert report.analytic_cells == 0
        assert report.batches[0]["backend"] == "des"
