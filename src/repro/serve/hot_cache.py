"""In-process hot cache: a bytes-bounded LRU above the disk cache.

The shared iteration-trace memo makes a repeated point cheap (one
pricing, no rebuild) and the :class:`~repro.runner.cache.ResultCache`
makes a repeated grid one pickle load; this cache makes either *free*:
fully rendered response bodies are kept in memory, keyed by the runner's
content addresses, so a hot ``GET /profile/<point>`` is a dict lookup
plus a socket write — no re-price, no re-summarize, no re-render.

The bound is **bytes, not entries**: a Perfetto export of a BERT Large
point is ~10^4x larger than a summary row, so an entry count would make
the footprint unpredictable.  Eviction is LRU (``OrderedDict`` move-to-
end on hit, pop-oldest while over budget).  A value larger than the
whole budget is not admitted — caching it would evict everything else
for a single entry.

Thread-safe: the server touches it from the event loop, but benchmarks
and tests poke it from worker threads, and the lock costs nanoseconds
next to a socket write.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs import metrics

_HOT_REQUESTS = metrics.counter(
    "serve.hot_cache.requests", "hot-cache lookups by result")
_HOT_EVICTIONS = metrics.counter(
    "serve.hot_cache.evictions", "hot-cache LRU evictions")
_HOT_BYTES = metrics.gauge(
    "serve.hot_cache.bytes", "bytes currently held by the hot cache")

#: Default budget: plenty for every registry point's summary + perfetto
#: payload, small next to the interpreter itself.
DEFAULT_CAPACITY_BYTES = 64 * 1024 * 1024


@dataclass
class HotCacheStats:
    """Counters for one hot-cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


class HotCache:
    """Bytes-bounded LRU mapping content-address keys to response bytes."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.stats = HotCacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._bytes = 0

    def get(self, key: str) -> bytes | None:
        """The cached value, refreshed to most-recently-used; None on miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                _HOT_REQUESTS.inc(result="miss")
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            _HOT_REQUESTS.inc(result="hit")
            return value

    def put(self, key: str, value: bytes) -> bool:
        """Admit ``value``, evicting LRU entries to fit; False if oversize."""
        size = len(value)
        if size > self.capacity_bytes:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[key] = value
            self._bytes += size
            while self._bytes > self.capacity_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.stats.evictions += 1
                _HOT_EVICTIONS.inc()
            _HOT_BYTES.set(self._bytes)
            return True

    def clear(self) -> None:
        """Drop every entry (stats survive)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            _HOT_BYTES.set(0)

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def snapshot(self) -> dict[str, int]:
        """JSON-able state for ``/stats``."""
        with self._lock:
            return {"entries": len(self._entries), "bytes": self._bytes,
                    "capacity_bytes": self.capacity_bytes,
                    **self.stats.as_dict()}
