"""Bounded in-process LRU cache, for the memory tiers of long-lived
processes.

Two tiers use it.  The campaign runtime's memory tier
(:mod:`repro.experiments.platform`) holds recently used campaigns in
front of the persistent, content-addressed
:class:`~repro.runtime.diskcache.DiskCache`; a miss falls through to
disk.  The service's response cache (:mod:`repro.service.server`)
maps request keys to fully-rendered response payloads, so repeated
traffic is served without re-rendering.  Both stay capped no matter
how varied the traffic gets.

The implementation is an ``OrderedDict`` under a lock (service job
threads populate it while the event loop reads it) with hit / miss /
eviction counters surfaced at ``/metrics``.
"""

from __future__ import annotations

import collections
import threading
import typing as _t

__all__ = ["LRUCache"]

_MISSING: _t.Any = object()


class LRUCache:
    """A thread-safe, bounded, least-recently-used key/value cache.

    Parameters
    ----------
    max_entries:
        Resident-entry bound; inserting beyond it evicts the least
        recently *used* (read or written) entries.
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max(1, int(max_entries))
        self._lock = threading.Lock()
        self._entries: collections.OrderedDict[_t.Any, _t.Any] = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: _t.Any, default: _t.Any = None) -> _t.Any:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: _t.Any, value: _t.Any) -> None:
        """Insert (or refresh) ``key``, evicting beyond the bound."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __contains__(self, key: _t.Any) -> bool:
        # Membership is a metrics-free peek: no counter, no recency.
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are lifetime)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """JSON-ready counters for the ``/metrics`` endpoint."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
