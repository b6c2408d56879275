"""A bounded, thread-safe LRU map.

Values are opaque to the LRU; the generation-stamping that makes entries
safely shareable lives in :mod:`repro.cache.catalog_cache`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Least-recently-used mapping with a fixed capacity."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be positive")
        self.capacity = capacity
        self._guard = threading.Lock()
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self.evictions = 0

    def get(self, key: K) -> Optional[V]:
        with self._guard:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: K, value: V) -> list[V]:
        """Store *value*; returns the values it displaced (the one it
        replaced under *key*, the one it evicted), oldest first."""
        with self._guard:
            entries = self._entries
            replaced = entries.get(key)
            displaced = [] if replaced is None or replaced is value else [replaced]
            entries[key] = value
            entries.move_to_end(key)
            if len(entries) > self.capacity:
                displaced.append(entries.popitem(last=False)[1])
                self.evictions += 1
            return displaced

    def discard(self, key: K) -> None:
        with self._guard:
            self._entries.pop(key, None)

    def clear(self) -> list[V]:
        """Drop every entry; returns the dropped values."""
        with self._guard:
            values = list(self._entries.values())
            self._entries.clear()
            return values

    def __len__(self) -> int:
        with self._guard:
            return len(self._entries)
