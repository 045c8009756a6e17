"""Process-wide settings: one resolution of every ``REPRO_*`` knob.

:func:`settings` returns a frozen :class:`Settings` with one field per
process-wide knob, each resolved in the same order: explicit keyword
argument → :func:`configure` (what CLI flags such as ``--jobs`` or
``--backend`` set) → environment variable → default.  Entry points
(``measure_campaign``, ``peek_campaign``, ``execute_plan``,
``execute_cells``, ``govern_run``, the typed requests, the CLI, the
service and the fabric worker) resolve once per call and pass the
result down; nothing below them reads the environment.

Environment text goes through one parser, :func:`env_values`, which
:meth:`repro.service.server.ServiceConfig.from_env` uses too.  An
empty variable counts as unset.  A malformed number or boolean, or an
unknown backend, platform or governor policy, raises
:class:`~repro.errors.ConfigurationError` naming the variable — at
every resolution, whichever field the caller goes on to read.

The module imports nothing else from :mod:`repro` at import time, so
every layer can depend on it; name checks import their registries
when a value needs checking.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import typing as _t

from repro.errors import ConfigurationError

__all__ = [
    "MIN_CELLS_AUTO_PARALLEL",
    "Settings",
    "configure",
    "env_values",
    "flag",
    "knob",
    "settings",
]

#: Below this many cells, auto mode stays serial (pool + pickling
#: overhead beats the win on small grids).
MIN_CELLS_AUTO_PARALLEL = 10

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def flag(value: _t.Any) -> bool:
    """A boolean from ``1/true/yes/on`` or ``0/false/no/off`` text."""
    if not isinstance(value, str):
        return bool(value)
    word = value.strip().lower()
    if word not in _TRUE + _FALSE:
        raise ValueError(f"not a boolean; use one of {_TRUE + _FALSE}")
    return word in _TRUE


def knob(
    env: str, convert: _t.Callable[[_t.Any], _t.Any], default: _t.Any = None
) -> _t.Any:
    """A dataclass field read from environment variable ``env``.

    ``convert`` turns the variable's text — or a value passed in code —
    into the field's value, raising ``ValueError`` or
    :class:`~repro.errors.ConfigurationError` on a bad one.
    """
    return dataclasses.field(
        default=default, metadata={"env": env, "convert": convert}
    )


def _convert(field: dataclasses.Field, value: _t.Any, source: str) -> _t.Any:
    try:
        return field.metadata["convert"](value)
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{source}={value!r}: {exc}") from None


def env_values(cls: type) -> dict[str, _t.Any]:
    """Each set variable behind a :func:`knob` field of ``cls``, converted."""
    values = {}
    for field in dataclasses.fields(cls):
        env = field.metadata.get("env")
        text = os.environ.get(env, "").strip() if env else ""
        if text:
            values[field.name] = _convert(field, text, env)
    return values


def _at_least(low: int) -> _t.Callable[[_t.Any], int]:
    return lambda value: max(low, int(value))


def _non_negative(value: _t.Any) -> float:
    return max(0.0, float(value))


def _timeout(value: _t.Any) -> float | None:
    seconds = float(value)
    return seconds if seconds > 0 else None  # <= 0 disables


def _positive(value: _t.Any) -> int:
    number = int(value)
    if number <= 0:
        raise ValueError("must be positive")
    return number


def _fraction(value: _t.Any) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise ValueError("must be in [0, 1]")
    return number


def _backend(value: _t.Any) -> str:
    from repro.runtime.runner import check_backend

    return check_backend(value)


def _platform(value: _t.Any) -> str:
    from repro.platforms import check_platform

    return check_platform(value)


def _policy(value: _t.Any) -> str:
    from repro.governor.policies import POLICIES

    if value not in POLICIES:
        raise ValueError(
            f"unknown governor policy; choose from {sorted(POLICIES)}"
        )
    return value


@dataclasses.dataclass(frozen=True)
class Settings:
    """Every process-wide knob, resolved (see :func:`settings`).

    ``jobs`` is ``None`` in auto mode (see :meth:`jobs_for`);
    ``cell_timeout`` is ``None`` when disabled (any value ``<= 0``).
    Counts are clamped: ``jobs``, ``cache_max_entries``,
    ``plan_window`` and ``worker_procs`` to at least 1, ``retries``
    and ``retry_backoff_s`` to at least 0.  ``governor_epoch`` must be
    positive and ``governor_safety`` in ``[0, 1]``.
    """

    jobs: int | None = knob("REPRO_JOBS", _at_least(1))
    disk_cache: bool = knob("REPRO_DISK_CACHE", flag, True)
    cache_dir: pathlib.Path = knob(
        "REPRO_CACHE_DIR", pathlib.Path, pathlib.Path(".repro_cache")
    )
    cache_max_entries: int = knob(
        "REPRO_CACHE_MAX_ENTRIES", _at_least(1), 4096
    )
    retries: int = knob("REPRO_RETRIES", _at_least(0), 2)
    cell_timeout: float | None = knob("REPRO_CELL_TIMEOUT", _timeout)
    retry_backoff_s: float = knob("REPRO_RETRY_BACKOFF_S", _non_negative, 0.05)
    allow_partial: bool = knob("REPRO_ALLOW_PARTIAL", flag, False)
    backend: str = knob("REPRO_BACKEND", _backend, "des")
    fabric: bool = knob("REPRO_FABRIC", flag, False)
    platform: str = knob("REPRO_PLATFORM", _platform, "paper")
    plan_window: int = knob("REPRO_PLAN_WINDOW", _at_least(1), 4)
    governor_epoch: int = knob("REPRO_GOVERNOR_EPOCH", _positive, 4)
    governor_policy: str = knob(
        "REPRO_GOVERNOR_POLICY", _policy, "model_predictive"
    )
    governor_safety: float = knob("REPRO_GOVERNOR_SAFETY", _fraction, 0.9)
    worker_procs: int = knob(
        "REPRO_WORKER_PROCS", _at_least(1), max(1, os.cpu_count() or 1)
    )

    def jobs_for(self, n_cells: int) -> int:
        """Worker processes for a campaign of ``n_cells`` grid cells.

        Auto mode stays serial below :data:`MIN_CELLS_AUTO_PARALLEL`
        cells and otherwise uses every CPU; no campaign gets more
        workers than cells.
        """
        jobs = self.jobs
        if jobs is None:
            if n_cells < MIN_CELLS_AUTO_PARALLEL:
                return 1
            jobs = os.cpu_count() or 1
        return max(1, min(jobs, n_cells))


_FIELDS = {field.name: field for field in dataclasses.fields(Settings)}
_configured: dict[str, _t.Any] = {}


def _given(values: dict[str, _t.Any]) -> dict[str, _t.Any]:
    """The non-``None`` entries of ``values``, converted."""
    unknown = sorted(set(values) - set(_FIELDS))
    if unknown:
        raise TypeError(f"unknown settings {unknown}: use {list(_FIELDS)}")
    return {
        name: _convert(_FIELDS[name], value, name)
        for name, value in values.items()
        if value is not None
    }


def configure(**values: _t.Any) -> None:
    """Set process-wide values for :class:`Settings` fields.

    Only the keywords passed change; ``None`` restores the default.
    A bad value raises :class:`~repro.errors.ConfigurationError` and
    changes nothing.  The table is replaced, never mutated, so a
    concurrent :func:`settings` sees the old or the new one whole.
    """
    global _configured
    updated = {**_configured, **_given(values)}
    for name, value in values.items():
        if value is None:
            updated.pop(name, None)
    _configured = updated


def settings(**explicit: _t.Any) -> Settings:
    """Resolve each field: explicit → :func:`configure` → env → default.

    ``explicit`` takes :class:`Settings` field names; ``None`` means
    not given.  Every set ``REPRO_*`` variable is parsed, so a bad one
    raises even when another tier overrides it.
    """
    values = {**env_values(Settings), **_configured, **_given(explicit)}
    return Settings(**values)
