"""Tests for the fault-tolerant campaign execution layer: the seeded
fault-injection harness, per-cell retries, timeouts with hung-worker
termination, crash recovery that keeps finished cells, and the
partial-results degradation mode."""

import concurrent.futures
import time

import pytest

from repro import runtime
from repro.cluster import paper_spec
from repro.errors import (
    CampaignExecutionError,
    CellExecutionError,
    CellTimeoutError,
)
from repro.experiments import platform
from repro.experiments.platform import (
    PAPER_COUNTS,
    PAPER_FREQUENCIES,
    measure_campaign,
)
from repro.npb import EPBenchmark, ProblemClass
from repro.runtime import FaultPlan, install_fault_plan
from repro.runtime.faults import (
    InjectedFaultError,
    active_fault_plan,
    parse_fault_plan,
)
from repro.runtime import runner
from repro.units import mhz

GRID = ((1, 2, 4), (mhz(600), mhz(1400)))
N_CELLS = 6


@pytest.fixture(autouse=True)
def isolated_runtime(tmp_path):
    """Isolate cache, metrics, fault plan; zero the retry backoff."""
    runtime.configure(
        jobs=None,
        disk_cache=None,
        cache_dir=tmp_path,
        retries=None,
        cell_timeout=None,
        allow_partial=None,
        retry_backoff_s=0.0,
    )
    platform._CACHE.clear()
    runtime.reset_campaign_metrics()
    install_fault_plan(None)
    yield
    install_fault_plan(None)
    runtime.configure(
        jobs=None,
        disk_cache=None,
        cache_dir=None,
        retries=None,
        cell_timeout=None,
        allow_partial=None,
        retry_backoff_s=None,
    )
    platform._CACHE.clear()
    runtime.reset_campaign_metrics()


@pytest.fixture()
def clean():
    """The reference campaign: a clean serial run, no caching."""
    ep = EPBenchmark(ProblemClass.S)
    return measure_campaign(ep, *GRID, use_cache=False, jobs=1)


def _last_record():
    return runtime.campaign_metrics()["records"][-1]


class TestFaultPlan:
    def test_parse_full_syntax(self):
        plan = parse_fault_plan(
            "seed=42,crash=0.2,exception=0.1,hang=0.05,corrupt=0.3,"
            "times=3,hang_s=2,cells=4@600+8@1400"
        )
        assert plan.seed == 42
        assert plan.crash == 0.2
        assert plan.exception == 0.1
        assert plan.hang == 0.05
        assert plan.corrupt == 0.3
        assert plan.times == 3
        assert plan.hang_s == 2.0
        assert plan.cells == ((4, mhz(600)), (8, mhz(1400)))

    def test_parse_bare_kind_means_rate_one(self):
        assert parse_fault_plan("crash").crash == 1.0

    def test_parse_blank_is_none(self):
        assert parse_fault_plan("") is None
        assert parse_fault_plan("   ") is None

    def test_parse_unknown_key_raises(self):
        with pytest.raises(ValueError):
            parse_fault_plan("sabotage=1")

    def test_parse_bad_cell_raises(self):
        with pytest.raises(ValueError):
            parse_fault_plan("crash=1,cells=4-600")

    def test_selection_is_deterministic(self):
        plan = FaultPlan(seed=7, exception=0.5)
        picks = [
            plan.fault_for(n, mhz(600), 0) for n in range(1, 100)
        ]
        assert picks == [
            plan.fault_for(n, mhz(600), 0) for n in range(1, 100)
        ]
        assert 0 < sum(p is not None for p in picks) < 99

    def test_seed_changes_selection(self):
        a = FaultPlan(seed=1, exception=0.5)
        b = FaultPlan(seed=2, exception=0.5)
        cells = [(n, mhz(600)) for n in range(1, 200)]
        assert [a.fault_for(n, f, 0) for n, f in cells] != [
            b.fault_for(n, f, 0) for n, f in cells
        ]

    def test_rate_extremes(self):
        always = FaultPlan(exception=1.0)
        never = FaultPlan(exception=0.0)
        assert always.fault_for(1, mhz(600), 0) == "exception"
        assert never.fault_for(1, mhz(600), 0) is None

    def test_fault_fires_only_on_early_attempts(self):
        plan = FaultPlan(exception=1.0, times=2)
        assert plan.fault_for(1, mhz(600), 0) == "exception"
        assert plan.fault_for(1, mhz(600), 1) == "exception"
        assert plan.fault_for(1, mhz(600), 2) is None

    def test_cell_whitelist_restricts(self):
        plan = FaultPlan(exception=1.0, cells=((2, mhz(600)),))
        assert plan.fault_for(2, mhz(600), 0) == "exception"
        assert plan.fault_for(4, mhz(600), 0) is None

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "seed=5,exception=1")
        plan = active_fault_plan()
        assert plan is not None and plan.exception == 1.0

    def test_installed_plan_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "exception=1")
        install_fault_plan(FaultPlan(seed=9))
        assert active_fault_plan().seed == 9

    def test_crash_degrades_to_exception_in_main_process(self):
        from repro.cluster import paper_spec

        install_fault_plan(FaultPlan(crash=1.0))
        with pytest.raises(InjectedFaultError):
            runner._simulate_cell(
                EPBenchmark(ProblemClass.S), 1, mhz(600), paper_spec()
            )


class TestRetries:
    def test_exceptions_everywhere_retried_bit_identical(self, clean):
        install_fault_plan(FaultPlan(seed=3, exception=1.0, times=1))
        ep = EPBenchmark(ProblemClass.S)
        faulty = measure_campaign(ep, *GRID, use_cache=False, jobs=4)
        assert faulty.times == clean.times
        assert faulty.energies == clean.energies
        assert list(faulty.times) == list(clean.times)
        record = _last_record()
        assert record["retries"] == N_CELLS
        assert record["attempts"] == 2 * N_CELLS

    def test_serial_path_retries_too(self, clean):
        install_fault_plan(FaultPlan(seed=3, exception=1.0, times=1))
        ep = EPBenchmark(ProblemClass.S)
        faulty = measure_campaign(ep, *GRID, use_cache=False, jobs=1)
        assert faulty.times == clean.times
        assert _last_record()["retries"] == N_CELLS

    def test_exhausted_budget_raises_with_history(self):
        install_fault_plan(
            FaultPlan(
                seed=1,
                exception=1.0,
                times=99,
                cells=((2, mhz(1400)),),
            )
        )
        ep = EPBenchmark(ProblemClass.S)
        with pytest.raises(CampaignExecutionError) as excinfo:
            measure_campaign(
                ep, *GRID, use_cache=False, jobs=2, retries=1
            )
        (failure,) = excinfo.value.failures
        assert isinstance(failure, CellExecutionError)
        assert failure.cell == (2, mhz(1400))
        assert len(failure.attempts) == 2  # 1 try + 1 retry
        assert all(
            a.outcome == "exception" for a in failure.attempts
        )
        assert excinfo.value.completed == N_CELLS - 1
        assert _last_record()["source"] == "failed"

    def test_retries_zero_fails_on_first_fault(self):
        install_fault_plan(
            FaultPlan(seed=1, exception=1.0, cells=((1, mhz(600)),))
        )
        ep = EPBenchmark(ProblemClass.S)
        with pytest.raises(CampaignExecutionError):
            measure_campaign(
                ep, *GRID, use_cache=False, jobs=1, retries=0
            )


class TestCrashRecovery:
    def test_crash_reruns_only_unfinished_cells(self, clean):
        # Crash the *last* grid cell: with 2 workers and 6 cells the
        # earlier cells are done before the crasher starts, so their
        # results must be kept and only the tail re-submitted.
        install_fault_plan(
            FaultPlan(seed=3, crash=1.0, cells=((4, mhz(1400)),))
        )
        ep = EPBenchmark(ProblemClass.S)
        faulty = measure_campaign(ep, *GRID, use_cache=False, jobs=2)
        assert faulty.times == clean.times
        assert faulty.energies == clean.energies
        record = _last_record()
        assert record["crash_recoveries"] >= 1
        attempts = {
            (n, f): count for n, f, count in record["cell_attempts"]
        }
        assert attempts[(4, mhz(1400))] >= 2
        # Most of the grid must NOT have been re-simulated.
        single = sum(1 for c in attempts.values() if c == 1)
        assert single >= N_CELLS // 2

    def test_pool_broken_while_submitting_is_a_crash(
        self, clean, monkeypatch
    ):
        # A reused pool whose worker dies at once breaks before the
        # round is fully submitted, so submit() itself raises.
        real = runner._POOL.executor
        died = []

        class DiesOnSubmit:
            def submit(self, *args, **kwargs):
                died.append(True)
                raise concurrent.futures.process.BrokenProcessPool("died")

        monkeypatch.setattr(
            runner._POOL,
            "executor",
            lambda: real() if died else DiesOnSubmit(),
        )
        ep = EPBenchmark(ProblemClass.S)
        again = measure_campaign(ep, *GRID, use_cache=False, jobs=2)
        assert again.times == clean.times
        record = _last_record()
        assert record["crash_recoveries"] == 1
        assert all(count == 1 for *_cell, count in record["cell_attempts"])

    def test_summary_line_reports_faults(self):
        install_fault_plan(
            FaultPlan(seed=3, exception=1.0, cells=((1, mhz(600)),))
        )
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, *GRID, use_cache=False, jobs=2)
        line = runtime.METRICS.summary_line()
        assert "faults absorbed" in line and "1 retries" in line

    def test_clean_summary_line_has_no_fault_noise(self):
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, *GRID, use_cache=False, jobs=1)
        assert "faults" not in runtime.METRICS.summary_line()


class TestTimeouts:
    def test_hung_worker_terminated_and_cell_retried(self, clean):
        install_fault_plan(
            FaultPlan(
                seed=3,
                hang=1.0,
                hang_s=15.0,
                cells=((2, mhz(600)),),
            )
        )
        ep = EPBenchmark(ProblemClass.S)
        start = time.perf_counter()
        faulty = measure_campaign(
            ep, *GRID, use_cache=False, jobs=2, cell_timeout=1.0
        )
        wall = time.perf_counter() - start
        assert faulty.times == clean.times
        assert wall < 10.0  # far less than the 15 s hang
        record = _last_record()
        assert record["timeouts"] >= 1

    def test_persistent_hang_raises_cell_timeout_error(self):
        install_fault_plan(
            FaultPlan(
                seed=3,
                hang=1.0,
                hang_s=15.0,
                times=99,
                cells=((2, mhz(600)),),
            )
        )
        ep = EPBenchmark(ProblemClass.S)
        with pytest.raises(CampaignExecutionError) as excinfo:
            measure_campaign(
                ep,
                *GRID,
                use_cache=False,
                jobs=2,
                retries=0,
                cell_timeout=0.75,
            )
        (failure,) = excinfo.value.failures
        assert isinstance(failure, CellTimeoutError)
        assert failure.cell == (2, mhz(600))
        assert any(a.outcome == "timeout" for a in failure.attempts)

    def test_every_cell_stalls_once(self):
        # Every cell of the paper grid hangs on its first try.  A stall
        # bills only the cells running in the pool and re-runs the
        # rest unbilled, so one retry per cell completes the grid.
        ep = EPBenchmark(ProblemClass.S)
        clean = measure_campaign(
            ep, PAPER_COUNTS, PAPER_FREQUENCIES, use_cache=False, jobs=1
        )
        install_fault_plan(FaultPlan(hang=1.0, hang_s=2.0))
        faulty = measure_campaign(
            ep,
            PAPER_COUNTS,
            PAPER_FREQUENCIES,
            use_cache=False,
            jobs=2,
            retries=1,
            cell_timeout=0.3,
        )
        assert faulty.times == clean.times
        assert faulty.energies == clean.energies
        record = _last_record()
        assert record["failed_cells"] == 0
        assert record["timeouts"] == len(clean.times)

    def test_stall_bills_only_cells_that_started(self, monkeypatch):
        # Two cells hang for good on a fresh 2-process pool.  The
        # executor also marks the cells it pre-loads into its call
        # queue as running; the stall must re-run those, not bill
        # them, so only the two hung cells fail.
        pool = runner.CellPool()
        monkeypatch.setattr(runner, "_POOL", pool)
        hung = ((1, mhz(600)), (1, mhz(1400)))
        install_fault_plan(
            FaultPlan(hang=1.0, hang_s=3.0, times=99, cells=hung)
        )
        ep = EPBenchmark(ProblemClass.S)
        try:
            partial = measure_campaign(
                ep,
                *GRID,
                use_cache=False,
                jobs=2,
                retries=0,
                cell_timeout=0.5,
                allow_partial=True,
            )
        finally:
            pool.shutdown(wait=True)
        failed = [tuple(f["cell"]) for f in _last_record()["failures"]]
        assert sorted(failed) == sorted(hung)
        assert len(partial.times) == N_CELLS - len(hung)


class TestAllowPartial:
    def test_partial_returns_survivors_and_report(self, clean):
        install_fault_plan(
            FaultPlan(
                seed=1,
                exception=1.0,
                times=99,
                cells=((2, mhz(1400)),),
            )
        )
        ep = EPBenchmark(ProblemClass.S)
        partial = measure_campaign(
            ep,
            *GRID,
            use_cache=False,
            jobs=2,
            retries=1,
            allow_partial=True,
        )
        assert len(partial.times) == N_CELLS - 1
        assert (2, mhz(1400)) not in partial.times
        for cell, value in partial.times.items():
            assert value == clean.times[cell]
        record = _last_record()
        assert record["failed_cells"] == 1
        (failure,) = record["failures"]
        assert failure["cell"] == [2, mhz(1400)]
        assert failure["attempts"]  # structured attempt history

    def test_partial_campaign_never_cached(self):
        install_fault_plan(
            FaultPlan(
                seed=1,
                exception=1.0,
                times=99,
                cells=((2, mhz(1400)),),
            )
        )
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(
            ep, *GRID, jobs=1, retries=0, allow_partial=True
        )
        assert not platform._CACHE
        assert len(runtime.disk_cache()) == 0
        # A later clean run must re-simulate and cache the full grid.
        install_fault_plan(None)
        full = measure_campaign(ep, *GRID, jobs=1)
        assert len(full.times) == N_CELLS
        assert len(runtime.disk_cache()) == 1

    def test_allow_partial_via_configure(self):
        install_fault_plan(
            FaultPlan(
                seed=1,
                exception=1.0,
                times=99,
                cells=((1, mhz(600)),),
            )
        )
        runtime.configure(allow_partial=True, retries=0)
        ep = EPBenchmark(ProblemClass.S)
        partial = measure_campaign(ep, *GRID, use_cache=False, jobs=1)
        assert len(partial.times) == N_CELLS - 1


class TestMixedFaultAcceptance:
    def test_faults_on_a_third_of_cells_still_bit_identical(self):
        """The acceptance grid: mixed crash/exception faults on ≤ 30 %
        of cells; the retried campaign must equal a clean serial run
        exactly."""
        counts, frequencies = (1, 2, 4, 8), (
            mhz(600),
            mhz(1000),
            mhz(1400),
        )
        ep = EPBenchmark(ProblemClass.S)
        clean = measure_campaign(
            ep, counts, frequencies, use_cache=False, jobs=1
        )
        # seed 2 draws two exceptions and one crash on this grid.
        plan = FaultPlan(seed=2, crash=0.12, exception=0.18)
        cells = [(n, f) for n in counts for f in frequencies]
        faulted = [
            cell
            for cell in cells
            if plan.fault_for(cell[0], cell[1], 0) is not None
        ]
        assert 0 < len(faulted) <= 0.3 * len(cells) + 1
        install_fault_plan(plan)
        faulty = measure_campaign(
            ep, counts, frequencies, use_cache=False, jobs=4
        )
        assert faulty.times == clean.times
        assert faulty.energies == clean.energies
        assert list(faulty.times) == list(clean.times)
        record = _last_record()
        attempts = {
            (n, f): count for n, f, count in record["cell_attempts"]
        }
        for cell in faulted:
            assert attempts[cell] >= 2


class TestPoolLifecycle:
    def test_atexit_shutdown_waits_for_children(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            runner,
            "shutdown_executor",
            lambda wait=False: calls.append(wait),
        )
        runner._shutdown_at_exit()
        assert calls == [True]

    def test_record_reports_pool_actually_used(self):
        """A campaign runs on the width it asks for, even after a wider
        one — the record must say so."""
        ep = EPBenchmark(ProblemClass.S)
        measure_campaign(ep, *GRID, use_cache=False, jobs=4)
        measure_campaign(
            ep, (1, 2, 4, 8), GRID[1], use_cache=False, jobs=2
        )
        record = _last_record()
        assert record["jobs"] == 2

    def test_pool_takes_the_requested_width(self, monkeypatch):
        """A narrower ``jobs`` after a wider one re-forks the pool at
        the narrower width; the same width again reuses it."""
        pool = runner.CellPool()
        monkeypatch.setattr(runner, "_POOL", pool)
        ep = EPBenchmark(ProblemClass.S)
        cells = [
            (n, f)
            for n in (1, 2, 4, 8)
            for f in (mhz(600), mhz(1000), mhz(1400))
        ]

        def run(jobs):
            return runner.execute_cells(
                ep, cells, paper_spec(), jobs=jobs, backend="des", fabric=False
            )

        try:
            wide = run(4)
            narrow = run(2)
            executor = pool.executor()
            again = run(2)
            assert pool.executor() is executor
        finally:
            pool.shutdown(wait=True)
        assert (wide.jobs, narrow.jobs, again.jobs) == (4, 2, 2)
        assert executor._max_workers == 2
        assert narrow.times == wide.times
        assert narrow.energies == wide.energies

    def test_shutdown_executor_then_restart(self, clean):
        runtime.shutdown_executor(wait=True)
        ep = EPBenchmark(ProblemClass.S)
        again = measure_campaign(ep, *GRID, use_cache=False, jobs=2)
        assert again.times == clean.times
