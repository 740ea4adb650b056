"""`ShardedTable`: N partitioned tables behind the one-table surface.

The facade owns N real :class:`~repro.db.table.Table` shards over the
same schema and satisfies the full ``Table`` surface itself, so every
existing consumer — the SQL executor's index lookups, the relaxation
engine, the domain builder, the datagen bulk loader — works unchanged
against a partitioned store.  What changes is the *granularity* of
everything epoch-shaped:

* **ids are global, placement is fixed.**  The facade mints globally
  sequential record ids (bit-identical to a single table's) and
  :func:`~repro.shard.partition.shard_of` hashes each id onto its
  owning shard, so any layer holding an id can route to the shard
  without a directory.  The shard count is fixed at construction and
  a record never moves between shards.
* **epochs aggregate, logs do not.**  ``ShardedTable.epoch`` is the
  sum of the shard epochs — still monotonic, still "any mutation
  moves it" — so facade-level state (answer cache generations) keeps
  its contract.  The facade keeps no delta log: each shard is a plain
  table with its own log and epoch, and every shard-granular structure
  (column windows, per-shard column stores, per-shard fragment
  id-sets) records a shard's epoch and catches up from that shard's
  log, so a point mutation leaves the sibling shards' state current.
* **events relay.**  Listeners attach to the facade and receive every
  shard's typed mutation delta (:class:`~repro.db.table.InsertDelta` /
  :class:`~repro.db.table.RemoveDelta` /
  :class:`~repro.db.table.UpdateDelta`) re-stamped with the facade
  table and the aggregated epoch, so catalog-level listeners (the
  WAL, answer-cache generations) see the single-table contract.  Bulk
  operations (:meth:`insert_many`, :meth:`remove_many`) notify once
  per batch with a :class:`~repro.db.table.BatchDelta` wrapping the
  re-stamped per-row deltas.

Scatter work (per-shard ranking in :mod:`repro.perf.colrank`) runs
through :meth:`map_shards`, one shard after another on the caller's
thread.  The scoring is CPU-bound Python, so under the interpreter
lock a thread pool could not overlap it; and a plain loop cannot
deadlock, whatever thread a scatter is issued from.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import replace
from typing import Callable, Iterable, Iterator, TypeVar

from repro.db.schema import TableSchema
from repro.db.table import (
    BatchDelta,
    MutationEvent,
    Record,
    Table,
    batch_notifications,
)
from repro.obs.hooks import register_shard_rows_gauge, shard_scatter_observe
from repro.obs.trace import span
from repro.shard.partition import shard_of

__all__ = ["ShardedTable"]

T = TypeVar("T")


class ShardedTable:
    """N partitioned :class:`Table` shards behind the ``Table`` surface.

    Parameters
    ----------
    schema:
        The shared schema; every shard indexes it identically.
    shard_count:
        How many shards to partition across (>= 1; 1 keeps the whole
        scatter-gather machinery live over a single shard, which is
        how the parity battery pins the facade to the plain table).
        Fixed for the table's lifetime.
    """

    def __init__(self, schema: TableSchema, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.schema = schema
        self.name = schema.table_name
        self.shard_count = shard_count
        self.shards: list[Table] = []
        for index in range(shard_count):
            shard = Table(schema)
            # Distinct names keep shard-level diagnostics and cache keys
            # unambiguous; nothing resolves these through the catalog.
            shard.name = f"{self.name}::shard{index}"
            shard.add_listener(self._relay)
            self.shards.append(shard)
        self._next_id = 1
        #: Serializes facade mutations.  The seed's single table leaves
        #: concurrent writers to the caller; the scale-out layer takes
        #: the stronger position: id minting and shard routing are
        #: atomic, so concurrent writers cannot collide on an id or
        #: interleave inside one shard's index maintenance.  Readers
        #: never take it (scatter reads work off per-shard snapshots).
        self._write_lock = threading.RLock()
        self._listeners: list[Callable[[MutationEvent], None]] = []
        self._suppressed_notifications = 0
        #: Re-stamped row deltas collected while a bulk facade mutation
        #: suppresses notifications; emitted as one BatchDelta.
        self._pending_deltas: list[MutationEvent] = []
        for index in range(shard_count):
            register_shard_rows_gauge(self, index)

    # ------------------------------------------------------------------
    # epoch and listeners (the Table contract, aggregated)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Sum of the shard epochs — monotonic, moved by any mutation.

        Facade-level state keys on this aggregate exactly as it would
        on a plain table's epoch; shard-level structures record each
        shard's own epoch instead, so a point mutation leaves the
        sibling shards' state current.
        """
        return sum(shard.epoch for shard in self.shards)

    def add_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Call *listener* after every mutation of any shard."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Detach *listener*; unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _relay(self, event: MutationEvent) -> None:
        """Re-emit a shard's delta as the facade's own.

        The forwarded delta keeps its concrete type and payload
        (inserted/removed record, changed columns) but is re-stamped
        with the facade table and the aggregated epoch, so
        catalog-level listeners (answer cache generations, the WAL)
        see exactly the single-table contract.  During a bulk facade
        mutation the re-stamped deltas accumulate and go out as one
        :class:`~repro.db.table.BatchDelta`.
        """
        if not self._listeners:
            return  # nobody to tell: skip the re-stamp allocation too
        stamped = self._stamp(event)
        if self._suppressed_notifications:
            self._pending_deltas.append(stamped)
            return
        self._notify(stamped)

    def _stamp(self, event: MutationEvent) -> MutationEvent:
        """Re-stamp a shard delta with the facade table and epoch."""
        if isinstance(event, BatchDelta):
            # A shard-level bulk op (not issued by this facade, which
            # batches at its own level): the aggregate epoch of each
            # inner delta is unknowable after the fact, so the rows are
            # dropped and the WAL snapshots instead of logging them.
            return replace(event, table=self, epoch=self.epoch, deltas=())
        return replace(event, table=self, epoch=self.epoch)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def shard_of(self, record_id: int) -> int:
        """The shard index owning *record_id* (whether stored or not)."""
        return shard_of(record_id, self.shard_count)

    def shard_for(self, record_id: int) -> Table:
        """The shard table owning *record_id*."""
        return self.shards[self.shard_of(record_id)]

    def shard_sizes(self) -> list[int]:
        """Record count per shard (diagnostics and balance tests)."""
        return [len(shard) for shard in self.shards]

    # ------------------------------------------------------------------
    # scatter execution
    # ------------------------------------------------------------------
    def map_shards(self, task: Callable[[int, Table], T]) -> list[T]:
        """Run ``task(index, shard)`` over every shard, in shard order,
        on the caller's thread; returns the results in shard order.

        Each task's duration feeds the ``repro_shard_scatter_seconds``
        histogram, and inside a traced request each task runs under its
        own ``shard.scatter`` span.
        """
        results: list[T] = []
        for index, shard in enumerate(self.shards):
            started = time.perf_counter()
            try:
                with span("shard.scatter", shard=index, table=self.name):
                    results.append(task(index, shard))
            finally:
                shard_scatter_observe(
                    self.name, index, time.perf_counter() - started
                )
        return results

    # ------------------------------------------------------------------
    # mutation (globally sequential ids, fixed placement)
    # ------------------------------------------------------------------
    def insert(
        self, values: dict[str, object], record_id: int | None = None
    ) -> Record:
        """Validate, assign the next global id, and store on one shard."""
        with self._write_lock:
            if record_id is None:
                record_id = self._next_id
            record = self.shard_for(record_id).insert(
                values, record_id=record_id
            )
            self._next_id = max(self._next_id, record_id + 1)
            return record

    def insert_many(self, rows: Iterable[dict[str, object]]) -> list[Record]:
        """Insert *rows*, notifying facade listeners **once** (the
        :meth:`Table.insert_many` contract; shard epochs still advance
        per row).  The emitted :class:`~repro.db.table.BatchDelta`
        wraps the re-stamped per-row deltas."""
        inserted: list[Record] = []
        with self._write_lock:
            with batch_notifications(self, "insert") as batch:
                for row in rows:
                    inserted.append(self.insert(row))
                    batch.last_id = inserted[-1].record_id
        return inserted

    def delete(self, record_id: int) -> None:
        """Remove *record_id* from its owning shard; raise if absent."""
        with self._write_lock:
            self.shard_for(record_id).delete(record_id)

    def remove_many(self, record_ids: Iterable[int]) -> int:
        """Bulk :meth:`delete` with one facade notification for the batch."""
        removed = 0
        with self._write_lock:
            with batch_notifications(self, "delete") as batch:
                for record_id in record_ids:
                    self.delete(record_id)
                    removed += 1
                    batch.last_id = record_id
        return removed

    def update(self, record_id: int, values: dict[str, object]) -> Record:
        """Merge *values* into the record on its owning shard."""
        with self._write_lock:
            return self.shard_for(record_id).update(record_id, values)

    def _notify(self, event: MutationEvent) -> None:
        if not self._listeners:
            return
        for listener in list(self._listeners):
            listener(event)

    #: How :func:`repro.db.table.batch_notifications` dispatches the
    #: batch event: straight to the facade listeners (suppression is
    #: handled in :meth:`_relay`, which stopped collecting by the time
    #: the batch scope emits).
    _emit_batch = _notify

    # ------------------------------------------------------------------
    # access (gather; ordering matches the single table bit-for-bit)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __iter__(self) -> Iterator[Record]:
        # A single table iterates in insertion order, which — ids being
        # minted monotonically and updates mutating in place — is
        # ascending-id order, so an N-way id merge reproduces the order
        # exactly.  Each shard snapshot is re-sorted first: normally a
        # no-op O(n) pass, but it keeps the facade's documented
        # id-ascending contract even after out-of-order explicit-id
        # inserts (heapq.merge silently mis-orders unsorted inputs).
        return heapq.merge(
            *(
                sorted(shard.snapshot(), key=lambda record: record.record_id)
                for shard in self.shards
            ),
            key=lambda record: record.record_id,
        )

    def get(self, record_id: int) -> Record | None:
        return self.shard_for(record_id).get(record_id)

    def snapshot(self) -> list[Record]:
        """Point-in-time records, ascending by id (see :meth:`__iter__`).

        Each shard's snapshot is individually atomic; the facade-level
        list is assembled from those per-shard copies, so a concurrent
        mutation can never crash the merge (it may land between two
        shard copies, which is the same visibility a single table's
        ``snapshot()`` gives a mutation landing just after the copy).
        """
        return list(self)

    def fetch(self, record_ids: Iterable[int]) -> list[Record]:
        """Records for *record_ids*, sorted by id for determinism."""
        result: list[Record] = []
        for record_id in sorted(record_ids):
            record = self.shard_for(record_id).get(record_id)
            if record is not None:
                result.append(record)
        return result

    def all_ids(self) -> set[int]:
        ids: set[int] = set()
        for shard in self.shards:
            ids |= shard.all_ids()
        return ids

    def null_ids(self, column_name: str) -> set[int]:
        """Ids whose column is NULL, unioned across shards (fresh set)."""
        return self._union(lambda shard: shard.null_ids(column_name))

    # ------------------------------------------------------------------
    # index-backed lookups (scatter to every shard, union the gathers)
    # ------------------------------------------------------------------
    def lookup_equal(self, column_name: str, value: object) -> set[int]:
        return self._union(
            lambda shard: shard.lookup_equal(column_name, value)
        )

    def lookup_substring(self, column_name: str, needle: str) -> set[int]:
        return self._union(
            lambda shard: shard.lookup_substring(column_name, needle)
        )

    def lookup_where(
        self, column_name: str, test: Callable[[str], bool]
    ) -> set[int]:
        return self._union(lambda shard: shard.lookup_where(column_name, test))

    def scan(self, predicate: Callable[[Record], bool]) -> set[int]:
        # Each shard scans its own snapshot (Table.scan), so a
        # concurrent writer cannot resize a record dict mid-predicate.
        return self._union(lambda shard: shard.scan(predicate))

    def _union(self, lookup: Callable[[Table], set[int]]) -> set[int]:
        # Shards partition the records, so the union over per-shard
        # answers is exactly the single-table answer for any
        # per-record predicate.
        ids: set[int] = set()
        for shard in self.shards:
            ids |= lookup(shard)
        return ids

    def distinct_values(self, column_name: str) -> list[object]:
        seen: set[object] = set()
        for shard in self.shards:
            seen.update(shard.distinct_values(column_name))
        return sorted(seen, key=str)
