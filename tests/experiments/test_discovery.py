"""Tests for registry auto-discovery and lookup."""

import pytest

from repro.experiments import registry

ALL_EXPERIMENTS = {
    "table1",
    "table3",
    "table5",
    "table6",
    "table7",
    "figure1",
    "figure2",
    "edp",
    "extrapolation",
    "suite_overview",
    "dvfs_savings",
    "slack_savings",
    "predictive_scheduling",
    "ablation_onoff",
    "ablation_overhead",
    "ablation_dop",
    "ablation_decomposition",
    "governor_comparison",
    "optimizer_search",
}


class TestDiscovery:
    def test_every_experiment_module_discovered(self):
        ids = {e[0] for e in registry.list_experiments()}
        assert ids == ALL_EXPERIMENTS

    def test_infrastructure_modules_are_not_experiments(self):
        ids = {e[0] for e in registry.list_experiments()}
        assert not ids & registry._NON_EXPERIMENT_MODULES

    def test_specs_are_well_formed(self):
        for exp_id, title, _desc in registry.list_experiments():
            spec = registry.get_experiment(exp_id)
            assert spec.experiment_id == exp_id
            assert spec.title == title
            assert spec.stages
            assert spec.stages[-1].name == "render"


    def test_specs_declare_the_params_their_requires_hooks_read(self):
        class Reads(dict):
            """A parameter dict that records every name looked up."""

            def __init__(self):
                super().__init__()
                self.names = set()

            def get(self, name, default=None):
                self.names.add(name)
                return default

        for exp_id, _title, _desc in registry.list_experiments():
            spec = registry.get_experiment(exp_id)
            assert "problem_class" in spec.params, exp_id
            params = Reads()
            spec.resolve_requests(params)
            assert params.names <= set(spec.params), exp_id


class TestLegacyRegister:
    def test_unknown_experiment_still_raises(self):
        from repro.errors import UnknownExperimentError

        with pytest.raises(UnknownExperimentError, match="zz_nope"):
            registry.get_experiment("zz_nope")
