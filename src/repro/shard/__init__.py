"""Sharded scatter-gather execution: partitioned tables behind the
single-table surface.

The scale-out layer of the reproduction: each domain's records are
partitioned across N shards and the whole answer path runs
scatter-gather, bit-identical to the single-table path
(``tests/test_sharding.py`` holds the parity battery across all eight
domains at N in {1, 2, 4}).

* :mod:`repro.shard.partition` — pluggable record placement
  (:class:`Partitioner` protocol; :class:`HashPartitioner` default,
  :class:`ModuloPartitioner` alternative);
* :mod:`repro.shard.table` — the :class:`ShardedTable` facade: global
  ids with routed placement (overrides + redirects for records moved
  online), aggregated mutation epochs, event relay with batched bulk
  notifications, scatter-gather reads, a dedicated scatter executor
  for parallel per-shard work, and online shard topology changes
  (``split_shard`` / ``merge_shard`` / ``rebalance``);
* :mod:`repro.shard.rebalance` — :func:`plan_rebalance` turns the
  per-shard row/latency gauges into a :class:`RebalancePlan` of
  record moves applied under the existing write lock as ordinary
  typed deltas.

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

from repro.shard.partition import HashPartitioner, ModuloPartitioner, Partitioner
from repro.shard.rebalance import RebalancePlan, ShardMove, plan_rebalance
from repro.shard.table import ShardedTable

__all__ = [
    "HashPartitioner",
    "ModuloPartitioner",
    "Partitioner",
    "RebalancePlan",
    "ShardMove",
    "ShardedTable",
    "plan_rebalance",
]
