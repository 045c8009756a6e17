"""Experiment registry and result container.

Experiment modules register an :class:`~repro.pipeline.experiment.
ExperimentSpec` with :func:`register_spec`; the CLI, the service and
the benchmark harness discover them through :func:`list_experiments` /
:func:`run_experiment`.  Modules are auto-discovered: every module in
:mod:`repro.experiments` (minus the infrastructure modules) is
imported for its registration side effects, so a new experiment file
can never be silently unregistered by a stale import list.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import typing as _t

from repro.errors import UnknownExperimentError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.experiment import ExperimentSpec

__all__ = [
    "ExperimentResult",
    "register_spec",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """The outcome of one experiment driver.

    Attributes
    ----------
    experiment_id:
        Registry id (e.g. ``"table3"``).
    title:
        Human-readable title naming the paper artifact.
    text:
        The rendered report (tables in the paper's layout).
    data:
        Machine-readable results: grids, rows, scalar summaries.
    """

    experiment_id: str
    title: str
    text: str
    data: dict[str, _t.Any]

    def __str__(self) -> str:
        return f"== {self.title} ==\n{self.text}"

    def document(self) -> dict[str, _t.Any]:
        """The JSON-ready export of this result.

        One shared schema path for every machine-readable surface —
        CLI exports, the service API and the golden snapshots — via
        :func:`repro.reporting.jsonify`: tuple grid keys render as
        ``"N@fMHz"`` strings and floats round-trip bit-exactly.
        """
        from repro.reporting import jsonify

        return {
            "experiment": self.experiment_id,
            "title": self.title,
            "data": jsonify(self.data),
        }


_REGISTRY: dict[str, "ExperimentSpec"] = {}

#: Infrastructure modules in this package that are not experiments.
_NON_EXPERIMENT_MODULES = {"cli", "platform", "registry"}

_loaded = False


def register_spec(spec: "ExperimentSpec") -> "ExperimentSpec":
    """Register a declarative experiment spec under its id."""
    _REGISTRY[spec.experiment_id] = spec
    return spec


def _ensure_loaded() -> None:
    """Import every experiment module for its registration effects.

    Discovery is ``pkgutil``-based: any non-underscore module in
    :mod:`repro.experiments` other than the known infrastructure
    modules is treated as an experiment module.
    """
    global _loaded
    if _loaded:
        return
    import repro.experiments as package

    for info in pkgutil.iter_modules(package.__path__):
        name = info.name
        if name.startswith("_") or name in _NON_EXPERIMENT_MODULES:
            continue
        importlib.import_module(f"repro.experiments.{name}")
    _loaded = True


def get_experiment(experiment_id: str) -> "ExperimentSpec":
    """Look up a registered experiment spec."""
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(_REGISTRY)}"
        ) from None


def list_experiments() -> list[tuple[str, str, str]]:
    """(id, title, description) of every registered experiment."""
    _ensure_loaded()
    return [
        (spec.experiment_id, spec.title, spec.description)
        for spec in sorted(
            _REGISTRY.values(), key=lambda spec: spec.experiment_id
        )
    ]


def run_experiment(experiment_id: str, **kwargs: _t.Any) -> ExperimentResult:
    """Run one experiment by id through the pipeline."""
    from repro.pipeline.experiment import run_single

    return run_single(get_experiment(experiment_id), kwargs)
