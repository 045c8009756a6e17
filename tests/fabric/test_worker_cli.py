"""The worker entry points: ``repro-worker`` and ``repro-experiments
worker`` share one flag set and one run path, Ctrl-C included."""

from repro.experiments import cli
from repro.fabric import worker

ARGV = [
    "--host", "10.0.0.7",
    "--port", "9001",
    "--name", "w1",
    "--max-idle-s", "2.5",
    "--procs", "3",
    "--stall-timeout-s", "4",
]


def test_both_parsers_read_the_same_flags(monkeypatch):
    seen = []
    monkeypatch.setattr(
        worker, "worker_from_args", lambda args: seen.append(vars(args)) or 0
    )
    assert worker.main(ARGV) == 0
    assert cli.main(["worker", *ARGV]) == 0
    script, subcommand = seen
    assert {k: subcommand[k] for k in script} == script
    assert script["procs"] == 3 and script["max_idle_s"] == 2.5


def test_ctrl_c_prints_the_summary_and_exits_0(monkeypatch, capsys):
    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(worker.FabricWorker, "run", interrupted)
    assert worker.main(["--name", "w1", "--procs", "1"]) == 0
    out = capsys.readouterr().out
    assert "repro-worker w1: 0 cells completed" in out
