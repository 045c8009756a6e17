"""One settings resolution: bad values are errors naming the variable,
every entry point treats them as usage errors, and README's environment
table lists exactly the variables the settings declare."""

import dataclasses
import pathlib
import re

import pytest

from repro import runtime
from repro.errors import ConfigurationError
from repro.fabric import worker
from repro.service import server
from repro.service.server import ServiceConfig
from repro.settings import Settings

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

#: Free-text converters (paths, hosts, warm-up lists) accept any value.
FREE_TEXT = (str, pathlib.Path, server.parse_warmup)


def _declared(cls):
    return [f for f in dataclasses.fields(cls) if "env" in f.metadata]


#: Every variable with a malformed form: "abc" is neither a number nor
#: a boolean, nor a backend, platform or governor policy name.
CASES = [
    pytest.param(cls, field.metadata["env"], id=field.metadata["env"])
    for cls in (Settings, ServiceConfig)
    for field in _declared(cls)
    if field.metadata["convert"] not in FREE_TEXT
]


def test_every_checkable_variable_is_covered():
    assert len(CASES) == 15 + 11


@pytest.mark.parametrize("cls,env", CASES)
def test_malformed_value_names_the_variable(cls, env, monkeypatch):
    monkeypatch.setenv(env, "abc")
    resolve = runtime.settings if cls is Settings else ServiceConfig.from_env
    with pytest.raises(ConfigurationError, match=env):
        resolve()


def test_bad_variable_raises_even_when_overridden(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
        runtime.settings(jobs=2)


def test_configure_rejects_a_bad_value_and_changes_nothing():
    before = runtime.settings()
    with pytest.raises(ConfigurationError, match="retries"):
        runtime.configure(jobs=3, retries="two")
    assert runtime.settings() == before


def test_unknown_setting_name_is_a_type_error():
    with pytest.raises(TypeError, match="jobz"):
        runtime.settings(jobz=1)


def test_configured_cell_timeout_zero_disables_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "5")
    runtime.configure(cell_timeout=0)
    try:
        assert runtime.settings().cell_timeout is None
    finally:
        runtime.configure(cell_timeout=None)
    assert runtime.settings().cell_timeout == 5.0


@pytest.mark.parametrize(
    "entry,env,argv",
    [
        pytest.param(server.main, "REPRO_SERVE_PORT", ["--port", "0"]),
        pytest.param(server.main, "REPRO_BACKEND", ["--port", "0"]),
        pytest.param(worker.main, "REPRO_WORKER_PROCS", []),
    ],
)
def test_entry_points_exit_2_naming_the_variable(
    entry, env, argv, monkeypatch, capsys
):
    monkeypatch.setenv(env, "abc")
    assert entry(argv) == 2
    err = capsys.readouterr().err
    assert env in err
    assert len(err.strip().splitlines()) == 1


def test_readme_table_lists_exactly_the_declared_variables():
    table = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", README.read_text(), re.M)
    declared = {
        field.metadata["env"]
        for cls in (Settings, ServiceConfig)
        for field in _declared(cls)
    }
    assert len(table) == len(set(table))
    assert set(table) == declared | {"REPRO_FAULTS"}
