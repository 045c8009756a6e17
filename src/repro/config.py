"""Configuration serialization.

Experiments are defined by a :class:`~repro.cluster.machine.ClusterSpec`
(hardware) plus grid parameters.  This module round-trips specs through
plain JSON-able dicts so a campaign's exact platform can be stored next
to its results and reloaded later::

    from repro.config import spec_to_dict, spec_from_dict
    blob = json.dumps(spec_to_dict(paper_spec()))
    spec = spec_from_dict(json.loads(blob))

Every knob of every component spec is covered, including node groups
and the memory wall; unknown keys are rejected loudly (a typo in a
stored config should never silently fall back to a default).  Keys
added later (``groups``, ``shared_cores``, ``contention``) are
optional on read, so documents written before them still load.
"""

from __future__ import annotations

import typing as _t

from repro.cluster.cpu import CpuSpec
from repro.cluster.machine import ClusterSpec, NodeGroupSpec
from repro.cluster.memory import MemorySpec
from repro.cluster.network import NetworkSpec
from repro.cluster.nic import NicSpec
from repro.cluster.opoints import OperatingPoint, OperatingPointTable
from repro.cluster.power import PowerSpec, PowerState
from repro.errors import ConfigurationError

__all__ = ["spec_to_dict", "spec_from_dict"]


def _check_keys(data: _t.Mapping, allowed: set[str], what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown keys in {what} config: {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )


# ---------------------------------------------------------------------------
# to dict
# ---------------------------------------------------------------------------

def _opoints_to_dict(table: OperatingPointTable) -> list[dict]:
    return [
        {"frequency_hz": p.frequency_hz, "voltage_v": p.voltage_v}
        for p in table
    ]


def _cpu_to_dict(cpu: CpuSpec) -> dict:
    return {
        "operating_points": _opoints_to_dict(cpu.operating_points),
        "cpi_cpu": cpu.cpi_cpu,
        "cpi_l1": cpu.cpi_l1,
        "cpi_l2": cpu.cpi_l2,
        "dvfs_transition_s": cpu.dvfs_transition_s,
    }


def _memory_to_dict(memory: MemorySpec) -> dict:
    return {
        "l1_bytes": memory.l1_bytes,
        "l2_bytes": memory.l2_bytes,
        "ram_bytes": memory.ram_bytes,
        "off_chip_ns": memory.off_chip_ns,
        "off_chip_ns_overrides": {
            str(f): lat for f, lat in memory.off_chip_ns_overrides.items()
        },
        "shared_cores": memory.shared_cores,
        "contention": memory.contention,
    }


def _power_to_dict(power: PowerSpec) -> dict:
    return {
        "cpu_dynamic_max_w": power.cpu_dynamic_max_w,
        "cpu_static_max_w": power.cpu_static_max_w,
        "system_base_w": power.system_base_w,
        "activity": {
            state.value: factor for state, factor in power.activity.items()
        },
        "peak": {
            "frequency_hz": power.peak.frequency_hz,
            "voltage_v": power.peak.voltage_v,
        },
    }


def _nic_to_dict(nic: NicSpec) -> dict:
    return {
        "per_message_overhead_s": nic.per_message_overhead_s,
        "cycles_per_byte": nic.cycles_per_byte,
        "eager_threshold_bytes": nic.eager_threshold_bytes,
    }


def spec_to_dict(spec: ClusterSpec) -> dict:
    """Serialize a :class:`ClusterSpec` to a JSON-able dict."""
    return {
        "n_nodes": spec.n_nodes,
        "cpu": _cpu_to_dict(spec.cpu),
        "memory": _memory_to_dict(spec.memory),
        "power": _power_to_dict(spec.power),
        "nic": _nic_to_dict(spec.nic),
        "network": {
            "line_rate_bytes_per_s": spec.network.line_rate_bytes_per_s,
            "efficiency": spec.network.efficiency,
            "latency_s": spec.network.latency_s,
            "local_copy_bytes_per_s": spec.network.local_copy_bytes_per_s,
            "congestion_coeff": spec.network.congestion_coeff,
            "congestion_exponent": spec.network.congestion_exponent,
        },
        "groups": [
            {
                "count": group.count,
                "name": group.name,
                "cpu": _cpu_to_dict(group.cpu),
                "memory": _memory_to_dict(group.memory),
                "power": _power_to_dict(group.power),
                "nic": _nic_to_dict(group.nic),
            }
            for group in spec.groups
        ],
    }


# ---------------------------------------------------------------------------
# from dict
# ---------------------------------------------------------------------------

def _opoints_from_dict(data: _t.Sequence[_t.Mapping]) -> OperatingPointTable:
    points = []
    for entry in data:
        _check_keys(entry, {"frequency_hz", "voltage_v"}, "operating point")
        points.append(
            OperatingPoint(
                frequency_hz=float(entry["frequency_hz"]),
                voltage_v=float(entry["voltage_v"]),
            )
        )
    return OperatingPointTable(points)


def _cpu_from_dict(data: _t.Mapping) -> CpuSpec:
    _check_keys(
        data,
        {"operating_points", "cpi_cpu", "cpi_l1", "cpi_l2",
         "dvfs_transition_s"},
        "cpu",
    )
    return CpuSpec(
        operating_points=_opoints_from_dict(data["operating_points"]),
        cpi_cpu=float(data["cpi_cpu"]),
        cpi_l1=float(data["cpi_l1"]),
        cpi_l2=float(data["cpi_l2"]),
        dvfs_transition_s=float(data["dvfs_transition_s"]),
    )


def _memory_from_dict(data: _t.Mapping) -> MemorySpec:
    _check_keys(
        data,
        {"l1_bytes", "l2_bytes", "ram_bytes", "off_chip_ns",
         "off_chip_ns_overrides", "shared_cores", "contention"},
        "memory",
    )
    return MemorySpec(
        l1_bytes=float(data["l1_bytes"]),
        l2_bytes=float(data["l2_bytes"]),
        ram_bytes=float(data["ram_bytes"]),
        off_chip_ns=float(data["off_chip_ns"]),
        off_chip_ns_overrides={
            float(f): float(lat)
            for f, lat in data["off_chip_ns_overrides"].items()
        },
        shared_cores=int(data.get("shared_cores", 1)),
        contention=float(data.get("contention", 0.0)),
    )


def _power_from_dict(data: _t.Mapping) -> PowerSpec:
    _check_keys(
        data,
        {"cpu_dynamic_max_w", "cpu_static_max_w", "system_base_w",
         "activity", "peak"},
        "power",
    )
    return PowerSpec(
        cpu_dynamic_max_w=float(data["cpu_dynamic_max_w"]),
        cpu_static_max_w=float(data["cpu_static_max_w"]),
        system_base_w=float(data["system_base_w"]),
        activity={
            PowerState(name): float(factor)
            for name, factor in data["activity"].items()
        },
        peak=OperatingPoint(
            frequency_hz=float(data["peak"]["frequency_hz"]),
            voltage_v=float(data["peak"]["voltage_v"]),
        ),
    )


def _nic_from_dict(data: _t.Mapping) -> NicSpec:
    _check_keys(
        data,
        {"per_message_overhead_s", "cycles_per_byte",
         "eager_threshold_bytes"},
        "nic",
    )
    return NicSpec(
        per_message_overhead_s=float(data["per_message_overhead_s"]),
        cycles_per_byte=float(data["cycles_per_byte"]),
        eager_threshold_bytes=float(data["eager_threshold_bytes"]),
    )


def _network_from_dict(data: _t.Mapping) -> NetworkSpec:
    _check_keys(
        data,
        {"line_rate_bytes_per_s", "efficiency", "latency_s",
         "local_copy_bytes_per_s", "congestion_coeff",
         "congestion_exponent"},
        "network",
    )
    return NetworkSpec(
        line_rate_bytes_per_s=float(data["line_rate_bytes_per_s"]),
        efficiency=float(data["efficiency"]),
        latency_s=float(data["latency_s"]),
        local_copy_bytes_per_s=float(data["local_copy_bytes_per_s"]),
        congestion_coeff=float(data["congestion_coeff"]),
        congestion_exponent=float(data["congestion_exponent"]),
    )


def _group_from_dict(data: _t.Mapping) -> NodeGroupSpec:
    _check_keys(
        data, {"count", "name", "cpu", "memory", "power", "nic"}, "group"
    )
    return NodeGroupSpec(
        count=int(data["count"]),
        name=str(data["name"]),
        cpu=_cpu_from_dict(data["cpu"]),
        memory=_memory_from_dict(data["memory"]),
        power=_power_from_dict(data["power"]),
        nic=_nic_from_dict(data["nic"]),
    )


def spec_from_dict(data: _t.Mapping) -> ClusterSpec:
    """Rebuild a :class:`ClusterSpec` from :func:`spec_to_dict` output."""
    _check_keys(
        data,
        {"n_nodes", "cpu", "memory", "power", "nic", "network", "groups"},
        "cluster",
    )
    return ClusterSpec(
        n_nodes=int(data["n_nodes"]),
        cpu=_cpu_from_dict(data["cpu"]),
        memory=_memory_from_dict(data["memory"]),
        power=_power_from_dict(data["power"]),
        nic=_nic_from_dict(data["nic"]),
        network=_network_from_dict(data["network"]),
        groups=tuple(_group_from_dict(g) for g in data.get("groups", ())),
    )
