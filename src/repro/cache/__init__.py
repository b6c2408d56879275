"""Strict-consistency read caching for the catalog hot path.

The subsystem has four pieces:

* :class:`~repro.cache.generations.GenerationMap` — one monotonic
  counter per table, bumped by the engine when a transaction *commits*
  a write to that table (and only then);
* :class:`~repro.cache.keyed.KeyedRegistry` — the dependencies of
  entries keyed by rows (name resolutions, attribute-conditioned query
  leaves), invalidated only by the committed row images that can
  change them;
* :class:`~repro.cache.lru.LRUCache` — a bounded, thread-safe LRU used
  for query results;
* :class:`~repro.cache.catalog_cache.CatalogCache` — the catalog-facing
  facade stamping every entry with a generation snapshot so a committed
  write atomically invalidates every dependent entry.

The invalidation protocol is documented in ``docs/INTERNALS.md``.
"""

from repro.cache.catalog_cache import CatalogCache, LookupToken
from repro.cache.generations import GenerationMap
from repro.cache.lru import LRUCache

__all__ = ["CatalogCache", "GenerationMap", "LRUCache", "LookupToken"]
