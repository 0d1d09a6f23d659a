"""Thread-safe LRU cache for served query answers.

Real reverse-rank traffic is heavily skewed — a handful of hot products
(the ones being merchandised right now) receive most of the queries — so
an answer cache in front of the scheduler converts the common case into a
dictionary lookup.  Keys are exact: the query point's canonical float64
bytes plus ``(kind, k, method)``, so two requests share an entry only when
the library would provably return the same answer.

Invalidation is explicit.  A static :class:`~repro.core.gir.GridIndexRRQ`
never changes, so entries live until evicted; when the service fronts a
mutable engine (:class:`~repro.storage.SegmentStore`, or the durable
wrapper around it), :func:`bind_dynamic` subscribes the cache to the
engine's mutation events so every insert, delete, or compaction flushes
stale answers.

Entries are additionally keyed by an **index generation**: every
:meth:`ResultCache.invalidate` bumps a monotone counter, and a
:meth:`ResultCache.put` stamped with an older generation is dropped
instead of stored.  This closes the swap-vs-in-flight race: a query
that started computing against the old index cannot re-poison the
cache *after* a mutation or promote cleared it — without the writer
holding any lock across the (slow) answer computation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional, Tuple

import numpy as np

from ..errors import InvalidParameterError

#: Default number of answers kept.
DEFAULT_CAPACITY = 1024

#: Cache key: (query-point bytes, kind, k, method).
CacheKey = Tuple[bytes, str, int, str]


def make_key(q: np.ndarray, kind: str, k: int, method: str) -> CacheKey:
    """Canonical cache key for one request.

    ``q`` must already be validated/canonicalized (float64, 1-D) — the
    service layer runs ``check_query_point`` before keying, so byte
    equality is exactly value equality.
    """
    q_arr = np.ascontiguousarray(q, dtype=np.float64)
    return (q_arr.tobytes(), kind, int(k), method)


class ResultCache:
    """A bounded, thread-safe LRU mapping of request keys to answers.

    Hit/miss tallies are kept under the same lock so the ``/metrics``
    snapshot always sees a consistent pair.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 0:
            raise InvalidParameterError("capacity must be >= 0")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._generation = 0

    def generation(self) -> int:
        """The current index generation (bumped by every invalidate).

        Readers capture this *before* computing an answer and pass it to
        :meth:`put`; a swap landing in between moves the generation and
        the stale put is rejected.
        """
        with self._lock:
            return self._generation

    def get(self, key: CacheKey) -> Optional[Any]:
        """The cached answer, refreshed to most-recently-used, or None."""
        with self._lock:
            try:
                value = self._entries.pop(key)
            except KeyError:
                self._misses += 1
                return None
            self._entries[key] = value
            self._hits += 1
            return value

    def put(self, key: CacheKey, value: Any,
            generation: Optional[int] = None) -> None:
        """Insert (or refresh) an answer, evicting the LRU entry if full.

        ``generation`` (from :meth:`generation`, captured before the
        answer was computed) makes the insert conditional: if an
        :meth:`invalidate` has landed since, the answer was computed
        against a dead index and is silently dropped.
        """
        if self.capacity == 0:
            return
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            self._entries.pop(key, None)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every entry and bump the generation.

        The hook every index-changing path calls: dynamic mutations
        (via :func:`bind_dynamic`) and standby promotion.
        """
        with self._lock:
            self._entries.clear()
            self._invalidations += 1
            self._generation += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any traffic)."""
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def stats(self) -> dict:
        """Snapshot for the ``/metrics`` endpoint."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / total if total else 0.0,
                "invalidations": self._invalidations,
            }


def bind_dynamic(cache: ResultCache, engine) -> None:
    """Flush ``cache`` whenever ``engine`` (a mutable one) mutates.

    The segment store and its durable wrapper expose
    ``add_change_listener``; every insert, remove, modify, or compaction
    then invalidates the whole cache.  Whole-cache
    invalidation is deliberately coarse: a single product insert can
    change *every* rank, so per-entry invalidation would be wrong.
    """
    engine.add_change_listener(cache.invalidate)
