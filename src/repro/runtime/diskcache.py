"""Content-addressed on-disk campaign cache.

Simulation is deterministic, so a campaign is fully described by its
inputs: benchmark name, problem class, the (counts × frequencies)
grid, and every field of the platform spec.  This module hashes that
description into a digest and stores the resulting
:class:`~repro.core.measurements.TimingCampaign` as JSON under
``.repro_cache/`` — warm processes skip simulation entirely.

JSON round-trips Python floats exactly (``json.dumps`` emits the
shortest repr that parses back to the same double), so a reloaded
campaign is bit-identical to the freshly simulated one.

Integrity: every entry embeds a SHA-256 checksum of its canonical
payload, verified on read.  An entry that fails to parse, parses to
the wrong shape, or fails the checksum is *quarantined* — renamed to
``<name>.json.corrupt`` — instead of silently ignored, so corruption
is both harmless (treated as a miss, cell re-simulated) and visible
(the file survives for post-mortem).  The cache is also bounded: once
it exceeds ``max_entries`` (default 4096, override with
``REPRO_CACHE_MAX_ENTRIES``), the least-recently-used entries are
swept after a write; reads refresh an entry's mtime to keep warm
campaigns resident.  A write lists the directory only when it could
have passed the bound: each process counts its own writes since its
last listing, per directory, and notices other writers through the
directory's mtime.  Across processes the bound is therefore soft:
another process's write that leaves no mtime this process can tell
from its own (see :meth:`DiskCache._keep_bound`) goes uncounted, and
the directory may overshoot by such writes until this process next
lists it.

Bump :data:`SCHEMA_VERSION` whenever simulation semantics change —
the digest includes it, so old entries are orphaned rather than
served stale.
"""

from __future__ import annotations

import collections.abc as _c
import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import tempfile
import threading
import typing as _t

from repro.cluster.machine import ClusterSpec
from repro.core.measurements import TimingCampaign
from repro.runtime import faults
from repro.runtime.memcache import LRUCache
from repro.settings import Settings, settings

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_MAX_ENTRIES",
    "DiskCache",
    "spec_digest",
    "benchmark_digest",
    "campaign_digest",
    "cache_stats",
    "reset_cache_stats",
]

#: Version of both the digest material and the on-disk JSON layout.
#: Bump when the simulator's outputs or this file format change.
#: (v2: embedded payload checksum.)
SCHEMA_VERSION = 2

#: Default cap on resident entries before the LRU sweep kicks in.
DEFAULT_MAX_ENTRIES = Settings.cache_max_entries


@dataclasses.dataclass
class _SweepState:
    """What a process knows of one cache directory since listing it."""

    max_entries: int
    #: Writes the directory takes before it could pass ``max_entries``.
    headroom: int
    #: The directory's mtime as this process last listed or changed it.
    mtime_ns: int


# Absolute cache root -> its sweep state.  The runtime builds a
# DiskCache per lookup, so the state lives per directory, not per
# instance; a process writes one or two directories.
_SWEEPS = LRUCache(8)
_SWEEP_LOCK = threading.Lock()

# Per-process counters, shared by every DiskCache instance.  A campaign
# cache is consulted once per campaign, not per cell, so these stay
# cheap; the lock makes them safe to bump from the service's job
# threads.
_STATS_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0
_EVICTIONS = 0
_QUARANTINES = 0
_WRITES = 0


def _count(kind: str, amount: int = 1) -> None:
    global _HITS, _MISSES, _EVICTIONS, _QUARANTINES, _WRITES
    with _STATS_LOCK:
        if kind == "hit":
            _HITS += amount
        elif kind == "miss":
            _MISSES += amount
        elif kind == "eviction":
            _EVICTIONS += amount
        elif kind == "quarantine":
            _QUARANTINES += amount
        elif kind == "write":
            _WRITES += amount


def cache_stats() -> dict[str, int]:
    """Per-process disk-cache counters (all instances, since start).

    ``hits``/``misses`` count :meth:`DiskCache.get` outcomes (a
    quarantined read counts as both a miss and a quarantine),
    ``writes`` counts successful :meth:`DiskCache.put` calls,
    ``evictions`` the entries removed by the LRU sweep.
    """
    with _STATS_LOCK:
        return {
            "hits": _HITS,
            "misses": _MISSES,
            "evictions": _EVICTIONS,
            "quarantines": _QUARANTINES,
            "writes": _WRITES,
        }


def reset_cache_stats() -> None:
    """Zero the per-process disk-cache counters (test isolation)."""
    global _HITS, _MISSES, _EVICTIONS, _QUARANTINES, _WRITES
    with _STATS_LOCK:
        _HITS = _MISSES = _EVICTIONS = _QUARANTINES = _WRITES = 0


def _digest_material(obj: _t.Any) -> _t.Any:
    """Recursively reduce spec values to stable JSON-able structures.

    Handles what plain ``dataclasses.asdict`` cannot: mapping proxies
    (not deep-copyable), enum keys, and iterable table objects such as
    :class:`~repro.cluster.opoints.OperatingPointTable`.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: _digest_material(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, _c.Mapping):
        return {
            repr(_digest_material(k)): _digest_material(v)
            for k, v in sorted(
                obj.items(), key=lambda item: repr(item[0])
            )
        }
    if isinstance(obj, _c.Iterable):
        return [_digest_material(v) for v in obj]
    return repr(obj)


def _prune_degenerate(material: _t.Any) -> _t.Any:
    """Drop spec fields that sit at their zero-effect defaults.

    Newer ``ClusterSpec``/``MemorySpec`` fields (node groups, the
    memory-wall contention term) default to values with exactly zero
    model effect; omitting them from the digest material keeps the
    paper platform's digest — and therefore every warm cache entry —
    identical to its pre-refactor value.
    """
    if isinstance(material, dict):
        return {
            key: _prune_degenerate(value)
            for key, value in material.items()
            if not (
                (key == "groups" and value == [])
                or (key == "shared_cores" and value == 1)
                or (key == "contention" and value == 0.0)
            )
        }
    if isinstance(material, list):
        return [_prune_degenerate(value) for value in material]
    return material


def spec_digest(spec: ClusterSpec) -> str:
    """Digest of every platform-spec field, ignoring node count.

    Node count is a grid axis, not part of the platform identity, so
    homogeneous specs normalize it away before hashing.  Grouped
    (heterogeneous) specs hash their full group composition — counts
    included — because "the same machine with fewer nodes" is a
    different mix of generations there, and two platforms sharing a
    leading group must never share cache entries.
    """
    normalized = spec if spec.groups else spec.with_nodes(1)
    material = _prune_degenerate(_digest_material(normalized))
    blob = json.dumps(material, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def benchmark_digest(benchmark: _t.Any) -> str:
    """Digest of a benchmark model's full configuration.

    ``(name, problem class)`` alone is not a campaign identity — e.g.
    ``FTBenchmark`` carries a ``decomposition`` option under one name.
    Hash the concrete class plus every instance attribute instead.
    """
    material = {
        "type": f"{type(benchmark).__module__}."
        f"{type(benchmark).__qualname__}",
        "state": _digest_material(vars(benchmark)),
    }
    blob = json.dumps(material, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def campaign_digest(
    benchmark_name: str,
    problem_class: str,
    counts: _t.Sequence[int],
    frequencies: _t.Sequence[float],
    spec: ClusterSpec | str,
    benchmark_state: str = "",
    backend: str = "des",
) -> str:
    """Content address of one campaign (includes the schema version).

    ``spec`` may be a :class:`ClusterSpec` or an already-computed
    :func:`spec_digest` string; ``benchmark_state`` is the
    :func:`benchmark_digest` of the measured model.  ``backend`` is
    part of the identity: the analytic closed forms and the DES agree
    only to documented tolerances, so a grid measured under one
    backend must never silently answer a request for the other.
    """
    material = {
        "schema": SCHEMA_VERSION,
        "benchmark": benchmark_name,
        "class": problem_class,
        "state": benchmark_state,
        "counts": [int(n) for n in counts],
        "frequencies": [float(f) for f in frequencies],
        "spec": spec if isinstance(spec, str) else spec_digest(spec),
        "backend": str(backend),
    }
    blob = json.dumps(material, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _payload_checksum(document: dict[str, _t.Any]) -> str:
    """Checksum of an entry's canonical payload (checksum field aside)."""
    payload = {k: v for k, v in document.items() if k != "checksum"}
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DiskCache:
    """A directory of ``<digest>.json`` campaign files.

    Entries are written atomically (temp file + rename) and carry a
    payload checksum, so a reader never observes a half-written or
    silently-corrupted campaign even with concurrent processes filling
    the same cache.  Bad entries are quarantined to
    ``<name>.json.corrupt`` and treated as misses.
    """

    def __init__(
        self,
        root: pathlib.Path | str,
        max_entries: int | None = None,
    ) -> None:
        self.root = pathlib.Path(root)
        if max_entries is None:
            max_entries = settings().cache_max_entries
        self.max_entries = max(1, int(max_entries))

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / f"{digest}.json"

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a bad entry aside as ``<name>.corrupt`` (best effort).

        Rename rather than delete: the corrupt bytes stay available
        for post-mortem, and can never again be served as a hit.
        """
        target = path.with_name(path.name + ".corrupt")
        _count("quarantine")
        try:
            os.replace(path, target)
        except OSError:
            try:  # e.g. another process already quarantined it
                path.unlink()
            except OSError:
                pass

    def get(self, digest: str) -> TimingCampaign | None:
        """Load a campaign, or ``None`` on miss.

        Unparseable, wrong-shaped, checksum-failing and structurally
        invalid entries are quarantined; a wrong schema version is an
        ordinary (legitimately orphaned) miss.
        """
        path = self._path(digest)
        try:
            raw = path.read_text()
        except OSError:
            _count("miss")
            return None
        try:
            document = json.loads(raw)
        except ValueError:
            self._quarantine(path)
            _count("miss")
            return None
        if not isinstance(document, dict):
            self._quarantine(path)
            _count("miss")
            return None
        if document.get("schema") != SCHEMA_VERSION:
            _count("miss")
            return None
        if document.get("checksum") != _payload_checksum(document):
            self._quarantine(path)
            _count("miss")
            return None
        try:
            campaign = TimingCampaign(
                times={
                    (n, f): t for n, f, t in document["times"]
                },
                base_frequency_hz=document["base_frequency_hz"],
                energies={
                    (n, f): e for n, f, e in document["energies"]
                },
                label=document.get("label", ""),
            )
        except (KeyError, TypeError, ValueError):
            self._quarantine(path)
            _count("miss")
            return None
        try:  # LRU recency: a hit keeps the entry resident.
            os.utime(path)
        except OSError:
            pass
        _count("hit")
        return campaign

    def put(self, digest: str, campaign: TimingCampaign) -> None:
        """Store a campaign; failures are non-fatal (cache stays cold)."""
        document = {
            "schema": SCHEMA_VERSION,
            "label": campaign.label,
            "base_frequency_hz": campaign.base_frequency_hz,
            "times": [
                [n, f, t] for (n, f), t in campaign.times.items()
            ],
            "energies": [
                [n, f, e] for (n, f), e in campaign.energies.items()
            ],
        }
        document["checksum"] = _payload_checksum(document)
        plan = faults.active_fault_plan()
        if plan is not None and plan.corrupts(digest):
            # Injected corruption: tamper with the payload *after*
            # sealing the checksum, so the read path must catch it.
            if document["times"]:
                document["times"][0][2] = (
                    float(document["times"][0][2]) + 1.0
                )
            else:
                document["label"] = document["label"] + "!corrupt"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            before = os.stat(self.root).st_mtime_ns
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(document, handle)
                os.replace(tmp, self._path(digest))
            except BaseException:
                os.unlink(tmp)
                raise
            after = os.stat(self.root).st_mtime_ns
        except OSError:
            return
        _count("write")
        self._keep_bound(before, after)

    def _keep_bound(self, before: int, after: int) -> None:
        """Keep the directory within ``max_entries`` after one write
        that moved its mtime from ``before`` to ``after``.

        The write lists the directory only when it could have passed
        the bound: once this process's writes since its last listing
        have spent the headroom that listing left, or once the mtime
        is not the one this process left (another writer changed the
        directory).  Past the bound the least recently used entries go,
        down to the bound.  The listing records the mtime from before
        it, so a write it may have missed makes the next write list
        again; the process's own writers wait on the lock instead.

        Other processes are seen only through the mtime, so the bound is
        soft across processes.  Another process's write that lands
        between ``before`` and this write's rename, or in the clock tick
        of this process's last write, leaves the mtime this process
        expects, and is not counted.  The directory then overshoots by
        at most the writes so missed, until this process's headroom is
        spent or a later foreign write moves the mtime.
        """
        key = os.path.abspath(self.root)
        with _SWEEP_LOCK:
            state = _SWEEPS.get(key)
            if (
                state is not None
                and state.max_entries == self.max_entries
                and state.mtime_ns == before
                and state.headroom > 0
            ):
                state.headroom -= 1
                state.mtime_ns = after
                return
            try:
                mtime_ns = os.stat(self.root).st_mtime_ns
                entries = list(self.root.glob("*.json"))
            except OSError:
                return
            removed = 0
            if len(entries) > self.max_entries:
                aged: list[tuple[float, pathlib.Path]] = []
                for path in entries:
                    try:
                        aged.append((path.stat().st_mtime, path))
                    except OSError:
                        pass  # raced with another process's eviction
                aged.sort(key=lambda pair: pair[0])
                for _, path in aged[: max(0, len(aged) - self.max_entries)]:
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
                _count("eviction", removed)
            _SWEEPS.put(
                key,
                _SweepState(
                    max_entries=self.max_entries,
                    headroom=self.max_entries - (len(entries) - removed),
                    mtime_ns=mtime_ns,
                ),
            )

    def clear(self) -> int:
        """Delete every entry (quarantined ones included); returns the
        number of live entries removed."""
        removed = 0
        try:
            entries = list(self.root.glob("*.json"))
            corrupt = list(self.root.glob("*.json.corrupt"))
        except OSError:
            return 0
        for path in corrupt:
            try:
                path.unlink()
            except OSError:
                pass
        for path in entries:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def quarantined(self) -> int:
        """Number of quarantined (``.json.corrupt``) entries on disk."""
        try:
            return sum(1 for _ in self.root.glob("*.json.corrupt"))
        except OSError:
            return 0

    def stats(self) -> dict[str, int]:
        """Per-process counters plus this root's on-disk footprint.

        The counter fields (:func:`cache_stats`) are process-wide —
        every :class:`DiskCache` instance contributes — because the
        runtime builds a fresh instance per campaign lookup; the
        ``entries``/``quarantined_entries`` fields are live counts for
        *this* cache directory.
        """
        snapshot = cache_stats()
        snapshot["entries"] = len(self)
        snapshot["quarantined_entries"] = self.quarantined()
        return snapshot

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:
            return 0
