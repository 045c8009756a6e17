"""The named-platform registry.

Every layer that used to assume "the paper's 16-node cluster" now
resolves a *platform name* through this registry instead: the runner
(``platform=`` / ``REPRO_PLATFORM`` / ``--platform``), campaign
requests and cache identity, the analytic backend, the governor's
power caps and the service.  A platform is a name bound to a factory
producing a :class:`~repro.cluster.machine.ClusterSpec`; the built-in
presets (:mod:`repro.platforms.presets`) register ``paper``,
``paper-memwall`` and ``hetero-2gen``, and ablation studies may
register their own.

Unknown names raise :class:`~repro.errors.ConfigurationError` naming
the valid choices, mirroring the runtime's ``backend=`` error pattern.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as _t

from repro.cluster.machine import ClusterSpec
from repro.errors import ConfigurationError
from repro.settings import Settings

__all__ = [
    "DEFAULT_PLATFORM",
    "PlatformEntry",
    "register_platform",
    "unregister_platform",
    "platform_names",
    "check_platform",
    "get_platform",
    "platform_entry",
    "platform_digest",
    "platform_summaries",
]

#: The platform campaigns run on when nothing names one — the paper's
#: homogeneous 16-node Pentium M cluster.
DEFAULT_PLATFORM = Settings.platform


@dataclasses.dataclass(frozen=True)
class PlatformEntry:
    """One registered platform: a name, a blurb, and a spec factory."""

    name: str
    description: str
    factory: _t.Callable[[], ClusterSpec]

    @functools.cached_property
    def digest(self) -> str:
        """:func:`~repro.runtime.spec_digest` of the factory's spec,
        computed once per registration (a factory builds the same spec
        every call)."""
        from repro import runtime

        return runtime.spec_digest(self.factory())


_REGISTRY: dict[str, PlatformEntry] = {}


def register_platform(
    name: str,
    factory: _t.Callable[[], ClusterSpec],
    description: str = "",
    *,
    replace: bool = False,
) -> None:
    """Bind ``name`` to a :class:`ClusterSpec` factory.

    Names are normalised to lowercase.  Re-registering an existing
    name raises unless ``replace`` is set (tests swap platforms in and
    out; production code should never collide).
    """
    key = str(name).strip().lower()
    if not key:
        raise ConfigurationError("platform name must be non-empty")
    if key in _REGISTRY and not replace:
        raise ConfigurationError(
            f"platform {key!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[key] = PlatformEntry(
        name=key, description=str(description), factory=factory
    )


def unregister_platform(name: str) -> None:
    """Remove a registered platform (test isolation)."""
    _REGISTRY.pop(str(name).strip().lower(), None)


def platform_names() -> tuple[str, ...]:
    """All registered platform names, sorted."""
    return tuple(sorted(_REGISTRY))


def check_platform(platform: str) -> str:
    """Validate a platform name, returning it normalised.

    Raises :class:`~repro.errors.ConfigurationError` naming the valid
    registered choices for anything unknown — the same shape as the
    runtime's ``check_backend``.
    """
    name = str(platform).strip().lower()
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown platform {platform!r}: valid choices are "
            + ", ".join(repr(n) for n in platform_names())
        )
    return name


def platform_entry(platform: str) -> PlatformEntry:
    """The registry entry for a (validated) platform name."""
    return _REGISTRY[check_platform(platform)]


def get_platform(platform: str) -> ClusterSpec:
    """Build the :class:`ClusterSpec` a platform name stands for."""
    return platform_entry(platform).factory()


def platform_digest(platform: str) -> str:
    """The spec digest of a platform (:attr:`PlatformEntry.digest`)."""
    return platform_entry(platform).digest


def platform_summaries() -> list[dict[str, _t.Any]]:
    """JSON-ready descriptions of every registered platform.

    Backs the service's ``/platforms`` listing and the CLI's platform
    report: name, description, shape, per-group layout and the spec
    digest (the cache-identity component, so operators can audit that
    two platforms never share entries).
    """
    summaries = []
    for name in platform_names():
        spec = get_platform(name)
        summaries.append(
            {
                "name": name,
                "description": _REGISTRY[name].description,
                "n_nodes": spec.n_nodes,
                "heterogeneous": spec.is_heterogeneous,
                "frequencies_mhz": [
                    f / 1e6 for f in spec.common_frequencies()
                ],
                "groups": [
                    {
                        "name": group.name,
                        "count": group.count,
                        "memory_contention": (
                            group.memory.contention_multiplier
                        ),
                    }
                    for group in spec.node_groups()
                ],
                "spec_digest": platform_digest(name),
            }
        )
    return summaries
