"""Cross-question fragment cache: relaxation-unit id-sets by epoch.

The shared-subplan engine (:mod:`repro.perf.subplan`) evaluates each
relaxation unit's WHERE fragment once *per question*.  Real workloads
repeat criteria across different questions — "price < 10000" and
"make = toyota" appear in thousands of distinct queries — so this
cache memoizes the id-sets themselves, keyed on::

    (table name, table epoch, scoring unit)

:class:`~repro.ranking.rank_sim.ScoringUnit` is a frozen dataclass of
frozen :class:`~repro.qa.conditions.Condition` tuples, so the unit is
its own fingerprint: two questions that constrain the same column the
same way hit the same entry.

The epoch slot is any hashable version tag.  Plain tables use their
integer epoch; sharded tables (:mod:`repro.shard`) store one entry
per shard keyed ``(shard index, shard epoch)`` under the facade's
table name, so a mutation to one shard leaves the other shards'
fragments live — :meth:`FragmentCache.invalidate_stale` sweeps only
the entries whose version tag is no longer current.

**Invalidation is by versioning, not by hand.**  Every table mutation
bumps the table's epoch (:mod:`repro.db.table`), so entries computed
against an older state can never be looked up again — a stale hit is
structurally impossible.  :class:`~repro.qa.pipeline.CQAds`
additionally subscribes a database mutation listener that calls
:meth:`FragmentCache.absorb`, which **patches** every live entry
forward to the new epoch — the touched record is re-evaluated against
each cached unit's conditions and its id is added to or discarded from
the cached id-set — instead of dropping the whole generation.  The
epoch sweep (:meth:`FragmentCache.invalidate` /
:meth:`FragmentCache.invalidate_stale`) is the fallback for any delta
the cache cannot absorb (untyped events, batch deltas without row
payloads, bulk loads past :data:`MAX_ABSORB_ROWS`).

The per-record re-evaluation runs the executor's own compiled WHERE
tree for the unit (:func:`repro.db.sql.executor.compile_where` over
:func:`repro.perf.subplan.unit_expression`, compiled once per unit),
so a patched set is by construction what ``eval_where`` would return;
the randomized mutation-storm battery in
``tests/test_incremental.py`` holds patched sets bit-identical to
re-evaluated ones.

Cached id-sets are shared between the cache and every consumer;
callers must treat them as immutable — :meth:`absorb` therefore
patches copy-on-write (a membership change allocates a fresh set; an
untouched entry is re-keyed without copying).

The ordered-window access path (:mod:`repro.perf.window`) changes
nothing here by design: ``eval_where`` materializes every cached
fragment into a plain id-set regardless of whether a leaf was
answered by a scan, an index lookup or a bisected window, so
window-computed range fragments enter the cache in the same shape as
always and :meth:`absorb` patches them forward identically.  The
windows themselves version by table/shard epoch on their own
(:class:`~repro.perf.window.TableWindows` splices the same typed
deltas this cache absorbs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Hashable

from repro.db.sql.builder import QueryBuilder
from repro.db.sql.executor import Compiled, compile_where
from repro.db.table import (
    BatchDelta,
    InsertDelta,
    MutationEvent,
    RemoveDelta,
    Table,
    UpdateDelta,
)
from repro.perf.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.ranking.rank_sim import ScoringUnit

__all__ = ["FragmentCache"]

#: Generous default: a unit id-set is a few KB at paper scale, and
#: distinct criteria per domain number in the hundreds.
DEFAULT_CAPACITY = 4096

#: Bulk deltas beyond this many rows are not absorbed — patching is
#: O(cached entries x batch rows) on the mutating thread, so past this
#: point the O(cache) generation sweep (and a lazy re-evaluation per
#: unit on next use) is strictly cheaper.  Mirrors
#: ``RankingResources.MAX_PENDING_DELTAS``: bulk loads invalidate
#: once instead of patching row-by-row, keeping ``insert_many``'s
#: "bulk loads stay linear" contract.
MAX_ABSORB_ROWS = 256


def _consecutive(epochs: list) -> bool:
    """Are *epochs* a +1-stepped run?  (Anything else means the delta
    stream has a gap the patcher must not paper over.)"""
    return all(
        later == earlier + 1 for earlier, later in zip(epochs, epochs[1:])
    )


class FragmentCache:
    """Bounded LRU of ``(table, epoch, unit) -> id-set``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._entries = LRUCache(capacity)
        #: ``(table name, unit) -> (schema, compiled WHERE tree)``: what
        #: :meth:`absorb` tests touched records with.  The schema check
        #: recompiles for a table re-created under the same name.
        self._trees: dict[tuple[str, "ScoringUnit"], tuple[object, Compiled]] = {}

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._entries.capacity

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(
        self, table_name: str, epoch: Hashable, unit: "ScoringUnit"
    ) -> set[int] | None:
        """The cached id-set for *unit* at *epoch*, or ``None``."""
        return self._entries.get((table_name, epoch, unit))  # type: ignore[return-value]

    def put(
        self, table_name: str, epoch: Hashable, unit: "ScoringUnit", ids: set[int]
    ) -> None:
        self._entries.put((table_name, epoch, unit), ids)

    def invalidate(self, table_name: str | None = None) -> int:
        """Drop entries for *table_name* (all tables when ``None``).

        Epoch keying already guarantees stale entries are unreachable;
        this reclaims their memory eagerly.  Returns the number of
        entries dropped.
        """
        if table_name is None:
            return self._entries.clear()
        return self._entries.pop_where(lambda key, _value: key[0] == table_name)  # type: ignore[index]

    def absorb(self, event: MutationEvent) -> bool:
        """Patch this cache's entries for *event*'s table to its new
        epoch; ``False`` means the delta could not be absorbed and the
        caller should fall back to epoch-sweep invalidation.

        For each cached unit of the mutated table (or, sharded, of the
        mutated *shard*) the touched record is re-evaluated against
        the unit's conditions and its id added to / discarded from the
        cached id-set (copy-on-write), and the entry is re-keyed to
        the post-mutation epoch tag — so the very next question hits
        warm fragments instead of re-running every unit's index scan.
        Batch deltas replay their per-row deltas (grouped per shard on
        a facade event).  Entries at any *other* dead epoch are swept,
        so a successful absorb leaves only live tags behind (exactly
        like :meth:`invalidate_stale`).
        """
        table = event.table
        if isinstance(event, BatchDelta):
            row_deltas: tuple[MutationEvent, ...] = event.deltas
        else:
            row_deltas = (event,)
        if not row_deltas or len(row_deltas) > MAX_ABSORB_ROWS:
            return False  # bulk load: the generation sweep is cheaper
        if not all(
            isinstance(delta, (InsertDelta, RemoveDelta, UpdateDelta))
            # Inserts/updates are re-evaluated against the record; a
            # hand-built delta without one cannot be replayed (mirrors
            # ColumnStore.apply's record-less fallback).
            and (isinstance(delta, RemoveDelta) or delta.record is not None)
            for delta in row_deltas
        ):
            return False
        shards = getattr(table, "shards", None)
        if shards is None:
            if any(delta.shard_index is not None for delta in row_deltas):
                return False  # shard-stamped event from a plain table?
            groups = {None: list(row_deltas)}
            live_tags: set[Hashable] = {table.epoch}
            transitions = {None: (row_deltas[0].epoch - 1, row_deltas[-1].epoch)}
            if not _consecutive([delta.epoch for delta in row_deltas]):
                return False
        else:
            groups = {}
            for delta in row_deltas:
                if delta.shard_index is None or delta.shard_epoch is None:
                    return False
                groups.setdefault(delta.shard_index, []).append(delta)
            live_tags = {
                (index, shard.epoch) for index, shard in enumerate(shards)
            }
            transitions = {}
            for shard_index, deltas in groups.items():
                epochs = [delta.shard_epoch for delta in deltas]
                if not _consecutive(epochs):
                    return False
                transitions[shard_index] = (
                    (shard_index, epochs[0] - 1),
                    (shard_index, epochs[-1]),
                )
        stale = self._entries.pop_items(
            lambda key, _value: key[0] == table.name and key[1] not in live_tags  # type: ignore[index]
        )
        old_tags = {old: group for group, (old, _new) in transitions.items()}
        for key, ids in stale:
            _name, tag, unit = key  # type: ignore[misc]
            if tag not in old_tags:
                continue  # an older dead generation: swept
            group = old_tags[tag]
            tree = self._unit_tree(table, unit)
            patched: set[int] = ids  # type: ignore[assignment]
            for delta in groups[group]:
                record_id = delta.record_id
                member = not isinstance(delta, RemoveDelta) and tree.matches(
                    delta.record
                )
                if member and record_id not in patched:
                    if patched is ids:
                        patched = set(ids)
                    patched.add(record_id)
                elif not member and record_id in patched:
                    if patched is ids:
                        patched = set(ids)
                    patched.discard(record_id)
            _old, new_tag = transitions[group]
            self._entries.put((table.name, new_tag, unit), patched)
        return True

    def _unit_tree(self, table: Table, unit: "ScoringUnit") -> Compiled:
        """*unit*'s WHERE tree as the executor compiles it, memoized."""
        key = (table.name, unit)
        cached = self._trees.get(key)
        if cached is not None and cached[0] is table.schema:
            return cached[1]
        # Imported here, not at module top: subplan imports the qa
        # package, whose pipeline imports this module — a load-time
        # cycle.
        from repro.perf.subplan import unit_expression

        tree = compile_where(table, unit_expression(QueryBuilder(table.name), unit))
        if len(self._trees) >= self.capacity:
            self._trees = {}  # cheap reset; trees recompile on use
        self._trees[key] = (table.schema, tree)
        return tree

    def invalidate_stale(
        self, table_name: str, live_epochs: Collection[Hashable]
    ) -> int:
        """Drop *table_name* entries whose epoch tag is not in
        *live_epochs*.

        The shard-aware sweep: a sharded table passes the current
        ``(shard index, shard epoch)`` pair of every shard, so only the
        mutated shard's dead generation (plus any leftovers from older
        generations) is reclaimed and the sibling shards' fragments
        stay warm.  Returns the number of entries dropped.
        """
        live = set(live_epochs)
        return self._entries.pop_where(
            lambda key, _value: key[0] == table_name and key[1] not in live  # type: ignore[index]
        )
