"""Cross-question fragment cache: relaxation-unit id-sets, caught up on read.

The shared-subplan engine (:mod:`repro.perf.subplan`) evaluates each
relaxation unit's WHERE fragment once *per question*.  Real workloads
repeat criteria across different questions — "price < 10000" and
"make = toyota" appear in thousands of distinct queries — so this
cache memoizes the id-sets themselves::

    (table, shard index or None, scoring unit) -> (epoch, id-set)

:class:`~repro.ranking.rank_sim.ScoringUnit` is a frozen dataclass of
frozen :class:`~repro.qa.conditions.Condition` tuples, so the unit is
its own fingerprint: two questions that constrain the same column the
same way hit the same entry.  A plain table's entries carry shard
``None`` and the table's epoch; a sharded table (:mod:`repro.shard`)
stores one entry per shard, each carrying its shard's **own** epoch,
so a mutation to one shard leaves the other shards' entries current.
Entries key on the table object, not its name: a table dropped and
re-created under the same name starts a new epoch sequence, and its
log must never patch the old table's sets.

**Entries catch up on read.**  An entry records the epoch of the last
delta it reflects.  :meth:`FragmentCache.get` replays the table's (or
shard's) delta log since then
(:meth:`~repro.db.table.Table.deltas_since`): each touched record is
tested against the unit and its id added to or discarded from the set,
and the entry moves to the newest epoch.  An update that changes none
of the unit's columns cannot change its membership and is skipped.
When the log cannot bridge the gap the lookup is a miss, and the
caller re-evaluates the unit and stores the fresh set with
:meth:`~FragmentCache.put`.  A write costs this cache nothing; a unit
that is never asked again never pays for the writes it missed.

The per-record test runs the executor's own compiled WHERE tree for
the unit (:func:`repro.db.sql.executor.compile_where` over
:func:`repro.perf.subplan.unit_expression`, compiled once per unit),
so a patched set is by construction what ``eval_where`` would return;
the randomized mutation-storm battery in ``tests/test_incremental.py``
holds patched sets bit-identical to re-evaluated ones.  Entries hold
plain id-sets whatever access path (window, complement, hash index)
produced them.

Cached id-sets are shared between the cache and every consumer;
callers must treat them as immutable — catch-up therefore patches
copy-on-write (a membership change allocates a fresh set; an
untouched set is re-tagged without copying).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.db.sql.builder import QueryBuilder
from repro.db.sql.executor import Compiled, compile_where
from repro.db.table import RemoveDelta, Table, UpdateDelta
from repro.obs.hooks import cache_event
from repro.perf.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.ranking.rank_sim import ScoringUnit

__all__ = ["FragmentCache"]

#: Generous default: a unit id-set is a few KB at paper scale, and
#: distinct criteria per domain number in the hundreds.
DEFAULT_CAPACITY = 4096


class FragmentCache:
    """Bounded LRU of ``(table, shard, unit) -> (epoch, id-set)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._entries = LRUCache(capacity)
        #: ``(table name, unit) -> (schema, compiled WHERE tree, the
        #: unit's columns)``: what catch-up tests touched records with.
        #: The schema check recompiles for a table re-created under the
        #: same name.
        self._trees: dict[
            tuple[str, "ScoringUnit"], tuple[object, Compiled, frozenset[str]]
        ] = {}
        #: Lookups served (caught up if need be) and lookups the caller
        #: had to evaluate; counted under ``_count_lock`` because
        #: requests answered on several threads look up concurrently.
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._entries.capacity

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(
        self, table: Table, shard: int | None, unit: "ScoringUnit"
    ) -> set[int] | None:
        """*unit*'s id-set over *table* — over shard *shard* of a sharded
        table — caught up to the newest state, or ``None`` (a miss)."""
        key = (table, shard, unit)
        entry = self._entries.get(key)
        ids = None
        if entry is not None:
            epoch, ids = entry  # type: ignore[misc]
            source = table if shard is None else table.shards[shard]
            if epoch != source.epoch:
                ids = self._caught_up(key, table, source, epoch, ids)
        hit = ids is not None
        with self._count_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        cache_event("fragment", hit)
        return ids

    def put(
        self,
        table: Table,
        shard: int | None,
        unit: "ScoringUnit",
        epoch: int,
        ids: set[int],
    ) -> None:
        """Store *ids*, evaluated at *epoch* (read before evaluating)."""
        self._entries.put((table, shard, unit), (epoch, ids))

    def invalidate(self, table_name: str | None = None) -> int:
        """Drop entries for *table_name* (all tables when ``None``);
        returns the number dropped.  A dropped table's entries can no
        longer be looked up, so this only frees them."""
        if table_name is None:
            return self._entries.clear()
        return self._entries.pop_where(
            lambda key, _value: key[0].name == table_name  # type: ignore[index]
        )

    # ------------------------------------------------------------------
    def _caught_up(
        self,
        key: tuple,
        table: Table,
        source: Table,
        epoch: int,
        ids: set[int],
    ) -> set[int] | None:
        """*ids* patched forward from *source*'s delta log and stored
        under the newest epoch, or ``None`` when the log cannot bridge
        the gap."""
        deltas = source.deltas_since(epoch)
        if deltas is None:
            return None
        _name, _shard, unit = key
        tree, columns = self._unit_tree(table, unit)
        patched = ids
        for delta in deltas:
            if isinstance(delta, UpdateDelta) and columns.isdisjoint(
                delta.changed_columns
            ):
                continue  # no column the unit reads changed
            record_id = delta.record_id
            member = not isinstance(delta, RemoveDelta) and tree.matches(
                delta.record
            )
            if member != (record_id in patched):
                if patched is ids:
                    patched = set(ids)
                if member:
                    patched.add(record_id)
                else:
                    patched.discard(record_id)
        self._entries.put(key, (deltas[-1].epoch, patched))
        return patched

    def _unit_tree(
        self, table: Table, unit: "ScoringUnit"
    ) -> tuple[Compiled, frozenset[str]]:
        """*unit*'s WHERE tree as the executor compiles it, and the
        columns its conditions read (schema names are lowercase, and
        the tree resolves a column case-insensitively), memoized."""
        key = (table.name, unit)
        cached = self._trees.get(key)
        if cached is not None and cached[0] is table.schema:
            return cached[1], cached[2]
        # Imported here, not at module top: subplan imports the qa
        # package, whose pipeline imports this module — a load-time
        # cycle.
        from repro.perf.subplan import unit_expression

        tree = compile_where(table, unit_expression(QueryBuilder(table.name), unit))
        columns = frozenset(condition.column.lower() for condition in unit.conditions)
        if len(self._trees) >= self.capacity:
            self._trees = {}  # cheap reset; trees recompile on use
        self._trees[key] = (table.schema, tree, columns)
        return tree, columns
