"""Horizontal sharding: N independent engines behind one logical catalog.

The MCS paper scales a single backend to ~100 client threads; past that
the write path saturates one engine.  ``repro.shard`` partitions the
catalog across N independent :class:`repro.db.Database` instances keyed
by a stable hash of the logical name — with collection affinity, so a
collection's files co-locate — and presents the whole as one
:class:`~repro.shard.router.ShardedCatalog` that plugs in wherever a
:class:`~repro.core.catalog.MetadataCatalog` does (AMGA/Magda pattern:
distribute the backend itself, keep one catalog interface).

Layout:

* :mod:`repro.shard.map` — stable hash routing (``ShardMap``);
* :mod:`repro.shard.twopc` — two-phase commit over the per-shard WALs;
* :mod:`repro.shard.router` — the ``ShardedCatalog`` router itself.
"""

from repro.shard.map import ShardMap
from repro.shard.router import ShardedCatalog, build_sharded_catalog
from repro.shard.twopc import TwoPhaseCoordinator

__all__ = [
    "ShardMap",
    "ShardedCatalog",
    "TwoPhaseCoordinator",
    "build_sharded_catalog",
]
