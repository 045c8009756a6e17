"""Tests for the platform registry (:mod:`repro.platforms`)."""

import pytest

from repro import runtime
from repro.cluster.machine import paper_spec
from repro.errors import ConfigurationError
from repro.platforms import (
    DEFAULT_PLATFORM,
    check_platform,
    get_platform,
    platform_entry,
    platform_names,
    platform_summaries,
    register_platform,
    unregister_platform,
)

#: The paper platform's spec digest, pinned from before the registry
#: refactor.  If this changes, every cached paper campaign and all 17
#: golden experiment results silently invalidate — treat a failure
#: here as a broken refactor, not a stale test.
PAPER_SPEC_DIGEST = (
    "a418c1b39472b0251529bc6f776c098c497ace4b886376ed871e0b54a555a51d"
)


class TestRegistry:
    def test_builtin_platforms_registered(self):
        assert set(platform_names()) >= {
            "paper",
            "paper-memwall",
            "hetero-2gen",
        }
        assert DEFAULT_PLATFORM == "paper"

    def test_names_sorted(self):
        names = platform_names()
        assert list(names) == sorted(names)

    def test_unknown_platform_error_names_choices(self):
        with pytest.raises(ConfigurationError) as err:
            check_platform("bogus")
        message = str(err.value)
        assert "unknown platform 'bogus'" in message
        for name in platform_names():
            assert repr(name) in message

    def test_check_platform_normalizes_case(self):
        assert check_platform("PAPER") == "paper"
        assert check_platform(" Hetero-2Gen ") == "hetero-2gen"

    def test_get_platform_builds_fresh_specs(self):
        a = get_platform("paper")
        b = get_platform("paper")
        assert a == b
        assert a == paper_spec()

    def test_register_and_unregister(self):
        register_platform(
            "test-tiny",
            lambda: paper_spec(n_nodes=2),
            description="two nodes",
        )
        try:
            assert "test-tiny" in platform_names()
            assert get_platform("test-tiny").n_nodes == 2
            with pytest.raises(ConfigurationError, match="already"):
                register_platform("test-tiny", paper_spec)
            register_platform(
                "test-tiny", lambda: paper_spec(n_nodes=3), replace=True
            )
            assert get_platform("test-tiny").n_nodes == 3
        finally:
            unregister_platform("test-tiny")
        assert "test-tiny" not in platform_names()

    def test_entry_carries_description(self):
        entry = platform_entry("paper")
        assert entry.name == "paper"
        assert entry.description

    def test_summaries_are_json_ready(self):
        import json

        summaries = platform_summaries()
        assert json.loads(json.dumps(summaries)) == summaries
        by_name = {s["name"]: s for s in summaries}
        assert by_name["paper"]["heterogeneous"] is False
        assert by_name["hetero-2gen"]["heterogeneous"] is True
        assert by_name["paper"]["spec_digest"] == PAPER_SPEC_DIGEST


class TestPresets:
    def test_paper_digest_is_stable(self):
        assert runtime.spec_digest(get_platform("paper")) == (
            PAPER_SPEC_DIGEST
        )

    def test_memwall_only_adds_contention(self):
        memwall = get_platform("paper-memwall")
        paper = get_platform("paper")
        assert memwall.memory.shared_cores == 2
        assert memwall.memory.contention == pytest.approx(0.35)
        assert memwall.memory.contention_multiplier == pytest.approx(1.35)
        assert memwall.cpu == paper.cpu
        assert memwall.power == paper.power
        assert memwall.n_nodes == paper.n_nodes

    def test_hetero_2gen_composition(self):
        spec = get_platform("hetero-2gen")
        assert spec.is_heterogeneous
        groups = spec.node_groups()
        assert [g.name for g in groups] == ["gen0", "gen1"]
        assert [g.count for g in groups] == [8, 8]
        assert spec.n_nodes == 16
        # Shared frequency ladder, lower gen1 voltages.
        gen0, gen1 = groups
        assert (
            gen1.cpu.operating_points.frequencies
            == gen0.cpu.operating_points.frequencies
        )
        for p0, p1 in zip(
            gen0.cpu.operating_points.points,
            gen1.cpu.operating_points.points,
        ):
            assert p1.voltage_v == round(p0.voltage_v * 0.88, 3)
        # Faster memory: lower off-chip latency on gen1.
        assert gen1.memory.off_chip_ns < gen0.memory.off_chip_ns

    def test_group_zero_mirrors_paper_nodes(self):
        """Group-major layout: node 0 of hetero-2gen is a paper node,
        so single-node campaigns match the paper platform exactly."""
        spec = get_platform("hetero-2gen")
        gen0 = spec.node_groups()[0]
        paper = get_platform("paper")
        assert gen0.cpu == paper.cpu
        assert gen0.power == paper.power


class TestResolvePlatform:
    def test_default_is_paper(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLATFORM", raising=False)
        assert runtime.settings().platform == "paper"

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLATFORM", "paper-memwall")
        assert (
            runtime.settings(platform="hetero-2gen").platform
            == "hetero-2gen"
        )

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLATFORM", "hetero-2gen")
        assert runtime.settings().platform == "hetero-2gen"

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLATFORM", "hetero-2gen")
        runtime.configure(platform="paper-memwall")
        try:
            assert runtime.settings().platform == "paper-memwall"
        finally:
            runtime.configure(platform=None)

    def test_configure_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown platform"):
            runtime.configure(platform="bogus")

    def test_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLATFORM", "bogus")
        with pytest.raises(ConfigurationError, match="unknown platform"):
            runtime.settings().platform
