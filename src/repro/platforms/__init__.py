"""Named cluster platforms.

Importing this package registers the built-in presets (``paper``,
``paper-memwall``, ``hetero-2gen``); see :mod:`repro.platforms.presets`
for what each one is and :mod:`repro.platforms.registry` for the
registry API.
"""

from repro.platforms.presets import (
    gen1_operating_points,
    hetero_2gen_spec,
    paper_memwall_spec,
    register_builtin_platforms,
)
from repro.platforms.registry import (
    DEFAULT_PLATFORM,
    PlatformEntry,
    check_platform,
    get_platform,
    platform_digest,
    platform_entry,
    platform_names,
    platform_summaries,
    register_platform,
    unregister_platform,
)

register_builtin_platforms()

__all__ = [
    "DEFAULT_PLATFORM",
    "PlatformEntry",
    "check_platform",
    "get_platform",
    "platform_digest",
    "platform_entry",
    "platform_names",
    "platform_summaries",
    "register_platform",
    "unregister_platform",
    "register_builtin_platforms",
    "gen1_operating_points",
    "hetero_2gen_spec",
    "paper_memwall_spec",
]
