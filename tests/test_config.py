"""Tests for configuration serialization."""

import dataclasses
import json

import pytest

from repro.cluster import paper_spec
from repro.config import spec_from_dict, spec_to_dict
from repro.errors import ConfigurationError
from repro.platforms import get_platform, platform_names
from repro.runtime import spec_digest
from repro.units import mhz


class TestRoundTrip:
    def test_paper_spec_roundtrip(self):
        spec = paper_spec()
        rebuilt = spec_from_dict(spec_to_dict(spec))
        assert rebuilt.n_nodes == spec.n_nodes
        assert rebuilt.cpu.operating_points == spec.cpu.operating_points
        assert rebuilt.cpu.cpi_l2 == spec.cpu.cpi_l2
        assert rebuilt.memory.off_chip_ns == spec.memory.off_chip_ns
        assert dict(rebuilt.memory.off_chip_ns_overrides) == dict(
            spec.memory.off_chip_ns_overrides
        )
        assert rebuilt.power.activity == spec.power.activity
        assert rebuilt.nic == spec.nic
        assert rebuilt.network == spec.network

    def test_json_serializable(self):
        blob = json.dumps(spec_to_dict(paper_spec()))
        rebuilt = spec_from_dict(json.loads(blob))
        assert rebuilt.n_nodes == 16

    def test_modified_spec_roundtrip(self):
        spec = dataclasses.replace(
            paper_spec(),
            n_nodes=4,
            network=dataclasses.replace(
                paper_spec().network, efficiency=0.5
            ),
        )
        rebuilt = spec_from_dict(spec_to_dict(spec))
        assert rebuilt.n_nodes == 4
        assert rebuilt.network.efficiency == 0.5

    def test_rebuilt_spec_behaves_identically(self):
        """A round-tripped spec produces identical simulation results."""
        from repro.cluster import Cluster
        from repro.npb import FTBenchmark, ProblemClass

        ft = FTBenchmark(ProblemClass.S)
        original = ft.run(Cluster(paper_spec(4), frequency_hz=mhz(1000)))
        rebuilt_spec = spec_from_dict(spec_to_dict(paper_spec(4)))
        rebuilt = ft.run(Cluster(rebuilt_spec, frequency_hz=mhz(1000)))
        assert rebuilt.elapsed_s == original.elapsed_s
        assert rebuilt.energy_j == original.energy_j

    @pytest.mark.parametrize("name", platform_names())
    def test_registered_platform_digest_survives_json(self, name):
        """Node groups and the memory wall are part of the round trip."""
        spec = get_platform(name)
        rebuilt = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert spec_digest(rebuilt) == spec_digest(spec)

    def test_documents_without_new_keys_read_as_defaults(self):
        data = spec_to_dict(paper_spec())
        del data["groups"]
        del data["memory"]["shared_cores"]
        del data["memory"]["contention"]
        rebuilt = spec_from_dict(data)
        assert rebuilt.groups == ()
        assert rebuilt.memory.shared_cores == 1
        assert rebuilt.memory.contention == 0.0


class TestValidation:
    def test_unknown_top_level_key(self):
        data = spec_to_dict(paper_spec())
        data["gpu"] = {}
        with pytest.raises(ConfigurationError, match="gpu"):
            spec_from_dict(data)

    def test_unknown_nested_key(self):
        data = spec_to_dict(paper_spec())
        data["nic"]["mtu"] = 1500
        with pytest.raises(ConfigurationError, match="mtu"):
            spec_from_dict(data)

    def test_invalid_values_still_validated(self):
        data = spec_to_dict(paper_spec())
        data["network"]["efficiency"] = 2.0
        with pytest.raises(ConfigurationError):
            spec_from_dict(data)

    def test_unknown_power_state_rejected(self):
        data = spec_to_dict(paper_spec())
        data["power"]["activity"]["turbo"] = 1.0
        with pytest.raises(ValueError):
            spec_from_dict(data)
