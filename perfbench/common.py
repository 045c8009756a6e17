"""Shared helpers: paths, statistics, memory probes and the run record."""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import subprocess
import sys
import time
import typing as _t

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, logs and trace files (ignored by git).
WORK = ROOT / ".perfbench"

#: Set-up is measured this many times per run and reported as the median.
SETUP_REPEATS = 11


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def subprocess_env(**extra: str) -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def percentile(values: _t.Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: _t.Sequence[float]) -> float:
    return percentile(values, 50.0)


def _status_kb(pid: int, key: str) -> int:
    try:
        text = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def rss_mb(pid: int) -> float:
    """Current resident set size of one process, in MB."""
    return _status_kb(pid, "VmRSS") / 1024.0


def _children(pid: int) -> list[int]:
    found: list[int] = []
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*"):
        try:
            found.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Peak RSS of ``pid`` plus the peak RSS of each live descendant, in MB."""
    total = _status_kb(pid, "VmHWM")
    for child in _children(pid):
        total += tree_peak_rss_mb(child) * 1024.0
    return total / 1024.0


def setup_seconds(workload: str) -> list[float]:
    """Reference seconds each of :data:`SETUP_REPEATS` fresh interpreters
    spends importing and building models.

    Each probe times itself from its first statement, so interpreter
    start-up is excluded and only the program's own set-up is counted.
    The times are corrected by a sampler thread of their own: this process
    only waits while a probe runs, so the thread slows nothing, and the
    timed thread's memory-kernel samples (``suite``) did not track the
    probes.  Over three runs on a busy host the medians of 11 ranged over
    50% of their median with those samples, 38% raw and 19% with the
    sampler thread.
    """
    from perfbench.hostclock import HostClock

    seconds = []
    with HostClock() as clock:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            completed = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload],
                env=subprocess_env(),
                cwd=WORK,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            probe_s = float(completed.stdout.strip().splitlines()[-1])
            seconds.append(clock.reference(probe_s, start, time.perf_counter()))
    return seconds


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment() -> dict[str, _t.Any]:
    """What every result is recorded with: host, toolchain and code."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a dependency
        numpy_version = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "src_digest": _source_digest(),
        "loadavg_at_start": list(os.getloadavg()),
        "started_unix_s": time.time(),
    }
