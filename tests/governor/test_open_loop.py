"""Open-loop policies under ``govern_run``: cap clamping, the trace they
leave, and the slack rule they share with the reactive policy."""

from repro.cluster import paper_spec
from repro.cluster.workmix import InstructionMix
from repro.governor import (
    POLICIES,
    CommBoundPolicy,
    GovernorContext,
    PhaseObservation,
    PhaseTablePolicy,
    PowerCap,
    ReactiveSlackPolicy,
    SlackPolicy,
    govern_run,
    power_cap_scenarios,
)
from repro.npb import FTBenchmark, ProblemClass
from repro.units import mhz

SPEC = paper_spec()
OPS = SPEC.cpu.operating_points
FT_S = FTBenchmark(ProblemClass.S)


class TestCapClamping:
    def test_answers_above_the_cap_run_at_the_legal_peak(self):
        """Under a node cap, a 1400 MHz default is clamped to 1000 MHz:
        the run equals the uncapped one that asks for 1000 MHz."""
        cap = power_cap_scenarios(4)["node_cap"]
        assert cap.allowed_frequencies_for(SPEC, 4) == (
            mhz(600),
            mhz(800),
            mhz(1000),
        )
        capped = govern_run(
            FT_S,
            4,
            PhaseTablePolicy({"transpose": mhz(600)}, mhz(1400)),
            cap,
            spec=SPEC,
        )
        legal = govern_run(
            FT_S,
            4,
            PhaseTablePolicy({"transpose": mhz(600)}, mhz(1000)),
            spec=SPEC,
        )
        assert capped.elapsed_s == legal.elapsed_s
        assert capped.energy_j == legal.energy_j
        assert capped.trace.transitions == legal.trace.transitions > 0


class TestOpenLoopRun:
    def test_trace_keeps_header_and_totals_without_observations(self):
        policy = PhaseTablePolicy({"transpose": mhz(600)}, mhz(1400))
        run = govern_run(FT_S, 4, policy, spec=SPEC, seed=7)
        trace = run.trace
        assert run.policy == trace.policy == "phase_table"
        assert (trace.benchmark, trace.n_ranks, trace.seed) == ("ft", 4, 7)
        assert trace.observations == []
        assert trace.decisions == []
        result = trace.to_document()["result"]
        assert result["elapsed_s"] == run.elapsed_s
        assert result["energy_j"] == run.energy_j
        assert result["finalized"] is True
        assert trace.transitions > 0

    def test_header_records_no_epoch_or_safety(self, monkeypatch):
        """The open-loop path reads neither setting, so equal runs under
        different ones digest equal."""
        policy = PhaseTablePolicy({}, mhz(1400))
        runs = []
        for epoch, safety in (("4", "0.9"), ("8", "0.5")):
            monkeypatch.setenv("REPRO_GOVERNOR_EPOCH", epoch)
            monkeypatch.setenv("REPRO_GOVERNOR_SAFETY", safety)
            runs.append(govern_run(FT_S, 4, policy, spec=SPEC))
        first, second = runs
        assert first.elapsed_s == second.elapsed_s == 1.330859719212288
        assert first.trace.digest() == second.trace.digest()
        header = first.trace.to_document()
        assert (header["epoch_phases"], header["safety"]) == (None, None)

    def test_nodes_boot_at_the_base_point(self):
        """A static peak schedule pays one transition per node, before
        its first phase; a static base schedule pays none."""
        peak = govern_run(
            FT_S, 4, PhaseTablePolicy({}, OPS.peak.frequency_hz), spec=SPEC
        )
        base = govern_run(
            FT_S, 4, PhaseTablePolicy({}, OPS.base.frequency_hz), spec=SPEC
        )
        assert peak.trace.transitions == 4
        assert base.trace.transitions == 0

    def test_open_loop_policies_stay_out_of_the_registry(self):
        names = {
            PhaseTablePolicy.name,
            CommBoundPolicy.name,
            SlackPolicy.name,
        }
        assert names == {"phase_table", "comm_bound", "slack"}
        assert not names & set(POLICIES)


def test_offline_and_reactive_slack_pick_the_same_frequency():
    """``SlackPolicy.from_idle_fractions`` over a whole run and
    ``ReactiveSlackPolicy`` over one epoch apply one rule."""
    peak = OPS.peak.frequency_hz
    allowed = tuple(point.frequency_hz for point in OPS)
    for safety in (0.5, 0.9, 1.0):
        context = GovernorContext(
            FT_S, 1, SPEC.with_nodes(1), PowerCap(), allowed, safety
        )
        reactive = ReactiveSlackPolicy(safety=safety)
        for idle in (0.0, 0.05, 0.3, 0.43, 0.6, 0.95, 1.0):
            observation = PhaseObservation(
                epoch=0,
                rank=0,
                phase_span="stencil",
                frequency_hz=peak,
                elapsed_s=1.0,
                compute_s=1.0 - idle,
                comm_s=0.0,
                idle_s=idle,
                joules=0.0,
                mix=InstructionMix(cpu=1.0),
            )
            offline = SlackPolicy.from_idle_fractions(
                {0: idle}, OPS, safety=safety
            )
            decision = reactive.decide(1, [(observation,)], context)
            assert decision.frequencies == (offline.frequency_for(0, ""),)
