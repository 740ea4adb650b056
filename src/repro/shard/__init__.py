"""Sharded scatter-gather execution: partitioned tables behind the
single-table surface.

The scale-out layer of the reproduction: each domain's records are
partitioned across N shards and the whole answer path runs
scatter-gather, bit-identical to the single-table path
(``tests/test_sharding.py`` holds the parity battery across all eight
domains at N in {1, 2, 4}).

* :mod:`repro.shard.partition` — fixed record placement:
  :func:`shard_of` hashes a record id onto one of N shards, and a
  record never moves;
* :mod:`repro.shard.table` — the :class:`ShardedTable` facade: global
  ids with hash placement, aggregated mutation epochs, event relay
  with batched bulk notifications, and scatter-gather reads whose
  per-shard tasks run in shard order on the caller's thread.

The scatter-gather *compute* paths live with their single-table
counterparts and detect the facade by duck-typing (``table.shards``):
per-shard relaxation id-sets in :mod:`repro.perf.subplan` (fragment
cache keyed on each shard's own epoch) and per-shard column-store
ranking with top-k merge in :mod:`repro.perf.colrank`.  Construction
is wired through ``Database.create_table(shards=...)``,
``build_system(shards=...)``, ``SystemBuilder.shards(...)`` and the
CLI ``--shards``; ``PERFORMANCE.md`` documents the merge semantics
and what sharding costs and buys under the default configuration.
"""

from repro.shard.partition import shard_of
from repro.shard.table import ShardedTable

__all__ = ["ShardedTable", "shard_of"]
