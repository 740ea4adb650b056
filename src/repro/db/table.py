"""Record storage for one ads domain, with automatic index maintenance.

A :class:`Table` owns the records of one ads domain and keeps two
index families consistent with them (Section 4.1.1 of the paper):

* a :class:`~repro.db.indexes.HashIndex` per Type I column (primary)
  and per Type II column (secondary);
* a :class:`~repro.db.indexes.NullIndex` per column.

Numeric Type III columns get no table-owned index: their ordered
structure is the column window of :mod:`repro.perf.window`, which the
SQL executor answers every numeric leaf from.  Section 4.5's length-3
substring index is not kept either: a hash index's keys are its
column's distinct values, so :meth:`Table.lookup_substring` and every
``LIKE`` shape test each distinct value once and union the matching
buckets (:meth:`Table.lookup_where`).  A categorical column without a
hash index (only a Type III categorical column in a hand-built
schema) scans.  NULL never matches.

Records are plain dicts validated by the schema; each gets a stable
integer id on insert.  A write maintains only what it changes: an
insert or delete indexes each column of its row once, and an update
validates only the values it is given and moves the row between index
entries only for the columns whose stored value changed.

Every mutation (insert/delete/update) builds a *typed row delta* —
:class:`InsertDelta`, :class:`RemoveDelta` or :class:`UpdateDelta`
(which carries the changed columns and their old/new values) — appends
it to the table's **delta log** and bumps the table's monotonically
increasing **epoch** to the delta's.  The log is the table's one copy
of its recent change history: it keeps the last
:data:`DELTA_LOG_LENGTH` deltas, and :meth:`Table.deltas_since` hands
a reader the deltas after the epoch it last saw.  Every derived
structure (column windows, ranking column stores, fragment id-sets)
records the epoch of the last delta it applied and catches up on read
by replaying that tail, or rebuilds when the log cannot bridge the gap
(see ``PERFORMANCE.md``).

Listeners hear each write as it lands; they serve parties outside the
table that must act per write (the WAL, the services' answer-cache
generations, table drops).  A bulk ``insert_many``/``remove_many``
notifies them once, with a :class:`BatchDelta` wrapping the row
deltas.  All events subclass :class:`MutationEvent`.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator

from repro.db.indexes import HashIndex, NullIndex
from repro.db.schema import AttributeType, Column, TableSchema
from repro.errors import RecordNotFoundError, SchemaError

__all__ = [
    "DELTA_LOG_LENGTH",
    "BatchDelta",
    "InsertDelta",
    "MutationEvent",
    "Record",
    "RemoveDelta",
    "Table",
    "UpdateDelta",
]

#: How many row deltas a table's log keeps.  A reader further behind
#: than this rebuilds instead of replaying: by then one rebuild costs
#: less than splicing every delta into every derived structure.
DELTA_LOG_LENGTH = 512


@dataclass(frozen=True)
class MutationEvent:
    """One table mutation, as delivered to listeners.

    ``kind`` is ``"insert"``, ``"delete"`` or ``"update"`` (or
    ``"drop"`` for the catalog's table-drop event); ``epoch`` is the
    table's epoch *after* the mutation.  Listeners run synchronously
    on the mutating thread, after indexes are consistent.

    Concrete row events are always one of the typed subclasses below;
    the base class survives as the common surface (the drop event, and
    hand-built events in tests).
    """

    table: "Table"
    kind: str
    record_id: int
    epoch: int


@dataclass(frozen=True)
class InsertDelta(MutationEvent):
    """A single inserted row; ``record`` is the stored (live) record."""

    record: Record | None = None


@dataclass(frozen=True)
class RemoveDelta(MutationEvent):
    """A single deleted row; ``record`` is the removed record object
    (already popped from the table, so it can no longer change)."""

    record: Record | None = None


@dataclass(frozen=True)
class UpdateDelta(MutationEvent):
    """A single in-place update.

    ``changed_columns`` lists exactly the columns whose normalized
    stored value differs from before; ``old_values``/``new_values``
    hold those columns' values on either side of the update (immutable
    snapshots — unlike ``record``, which is the live object and keeps
    mutating on later updates).  An update that changes nothing still
    bumps the epoch and carries an empty ``changed_columns``.
    """

    changed_columns: tuple[str, ...] = ()
    old_values: dict[str, object] = field(default_factory=dict)
    new_values: dict[str, object] = field(default_factory=dict)
    record: Record | None = None


@dataclass(frozen=True)
class BatchDelta(MutationEvent):
    """The single event a bulk mutation emits for its whole batch.

    ``deltas`` holds the per-row typed deltas in application order
    (each carrying its own post-row epoch, so consumers can replay the
    batch delta-by-delta); ``record_id``/``epoch`` are the last row's
    id and the final epoch, preserving the pre-delta bulk contract.
    """

    deltas: tuple[MutationEvent, ...] = ()

    @property
    def record_ids(self) -> tuple[int, ...]:
        """The affected row ids, in application order."""
        return tuple(delta.record_id for delta in self.deltas)


class _BatchProgress:
    """Mutable cursor a bulk mutation advances row by row; the batch
    scope emits one :class:`BatchDelta` when at least one row landed
    (even when a later row raised)."""

    __slots__ = ("last_id",)

    def __init__(self) -> None:
        self.last_id: int | None = None


@contextmanager
def batch_notifications(table, kind: str):
    """Suppress *table*'s per-row notifications for the scope, then
    emit the collected row deltas as one :class:`BatchDelta`.

    Shared by :meth:`Table.insert_many`/:meth:`Table.remove_many` and
    the :class:`repro.shard.table.ShardedTable` bulk methods — *table*
    only needs the ``_pending_deltas`` list, the
    ``_suppressed_notifications`` counter, an ``_emit_batch(delta)``
    dispatcher and the ``epoch`` property.  The per-row epoch still
    advances inside the scope (and each row is logged); the single
    event carries the last landed id, the final epoch, and the per-row
    deltas.  Nested scopes slice their own rows, and an exception
    mid-batch still announces the rows that landed before it.
    """
    mark = len(table._pending_deltas)
    table._suppressed_notifications += 1
    progress = _BatchProgress()
    try:
        yield progress
    finally:
        table._suppressed_notifications -= 1
        deltas = tuple(table._pending_deltas[mark:])
        del table._pending_deltas[mark:]
        if progress.last_id is not None:
            table._emit_batch(
                BatchDelta(
                    table, kind, progress.last_id, table.epoch, deltas=deltas
                )
            )


class Record(dict):
    """One ad: a dict of column -> value plus a stable ``record_id``."""

    __slots__ = ("record_id",)

    def __init__(self, record_id: int, values: dict[str, object]) -> None:
        super().__init__(values)
        self.record_id = record_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Record(#{self.record_id}, {dict(self)!r})"


class Table:
    """Storage plus indexes for one ads domain."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.name = schema.table_name
        self._records: dict[int, Record] = {}
        self._next_id = 1
        self._epoch = 0
        #: The last DELTA_LOG_LENGTH row deltas, oldest first.
        self._log: deque[MutationEvent] = deque(maxlen=DELTA_LOG_LENGTH)
        self._listeners: list[Callable[[MutationEvent], None]] = []
        self._suppressed_notifications = 0
        #: Row deltas collected while notifications are suppressed
        #: (bulk mutations); the batch emits them as one BatchDelta.
        self._pending_deltas: list[MutationEvent] = []
        #: Per-column NULL-id sets (every schema column), so `!=`
        #: complements and NULL-semantics checks never re-scan.
        self._null_indexes: dict[str, NullIndex] = {
            column.name: NullIndex(column.name) for column in schema.columns
        }
        self._hash_indexes: dict[str, HashIndex] = {
            column.name: HashIndex(column.name)
            for column in schema.columns
            if not column.is_numeric
            and column.attribute_type
            in (AttributeType.TYPE_I, AttributeType.TYPE_II)
        }

    # ------------------------------------------------------------------
    # epoch, delta log and listeners
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonically increasing mutation counter (never reused).

        Any insert, delete or update bumps it, so a structure that
        records the epoch it reflects can tell whether it is current.
        """
        return self._epoch

    def deltas_since(self, epoch: int) -> list[MutationEvent] | None:
        """The row deltas after *epoch*, oldest first.

        ``None`` when the log cannot bridge the gap: it no longer
        reaches back to *epoch*, *epoch* is ahead of the table, or the
        epoch was set directly (as snapshot restore does), so no delta
        leads to the current state.  The caller then rebuilds.

        A delta is logged before the epoch moves to it, so a copy of
        the log taken after reading the epoch holds every delta up to
        it (and perhaps a concurrent writer's next ones, which are cut
        off).  ``list(deque)`` copies in one C-level step, as
        :meth:`snapshot` does.
        """
        current = self._epoch
        if epoch == current:
            return []
        log = list(self._log)
        if epoch > current or not log:
            return None
        stop = len(log) - (log[-1].epoch - current)
        start = stop - (current - epoch)
        if start < 0 or stop > len(log):
            return None
        tail = log[start:stop]
        if tail[0].epoch != epoch + 1 or tail[-1].epoch != current:
            return None
        return tail

    def add_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Call *listener* after every mutation of this table."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Detach *listener*; unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _commit(self, delta: MutationEvent) -> None:
        """Log *delta*, move the epoch to it, then tell the listeners."""
        self._log.append(delta)
        self._epoch = delta.epoch
        if self._listeners:
            self._emit(delta)

    def _emit(self, delta: MutationEvent) -> None:
        """Deliver *delta* to listeners, or queue it for the batch.

        While a bulk mutation suppresses notifications, per-row deltas
        accumulate instead of firing; the bulk method wraps them into
        one :class:`BatchDelta` when it finishes.
        """
        if self._suppressed_notifications:
            self._pending_deltas.append(delta)
            return
        if not self._listeners:
            return
        for listener in list(self._listeners):
            listener(delta)

    #: How :func:`batch_notifications` dispatches the batch event (the
    #: suppression-aware path, so a nested outer batch collects it).
    _emit_batch = _emit

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(
        self, values: dict[str, object], record_id: int | None = None
    ) -> Record:
        """Validate *values*, assign an id, index and store the record.

        ``record_id`` lets a coordinating layer impose externally
        assigned ids — the sharding facade
        (:class:`repro.shard.ShardedTable`) allocates globally
        sequential ids and routes each record to one shard, so shard
        tables must store the global id rather than mint their own.
        The id must be unused; ``_next_id`` advances past it so later
        auto-assigned ids never collide.
        """
        if record_id is None:
            record_id = self._next_id
        elif record_id in self._records:
            raise SchemaError(
                f"table {self.name!r} already has a record #{record_id}"
            )
        normalized = self.schema.validate_record(values)
        record = Record(record_id, normalized)
        self._next_id = max(self._next_id, record_id + 1)
        self._records[record.record_id] = record
        self._index_record(record, add=True)
        self._commit(
            InsertDelta(
                self, "insert", record.record_id, self._epoch + 1, record=record
            )
        )
        return record

    def insert_many(self, rows: Iterable[dict[str, object]]) -> list[Record]:
        """Insert *rows*, notifying listeners **once** for the batch.

        The epoch still advances per row and every row is logged, but
        listeners run once instead of once per row.  The single
        :class:`BatchDelta` carries the last inserted id, the final
        epoch, and the per-row deltas.
        """
        inserted: list[Record] = []
        with batch_notifications(self, "insert") as batch:
            for row in rows:
                inserted.append(self.insert(row))
                batch.last_id = inserted[-1].record_id
        return inserted

    def delete(self, record_id: int) -> None:
        """Remove the record with *record_id*; raise if absent."""
        record = self._records.pop(record_id, None)
        if record is None:
            raise RecordNotFoundError(self.name, record_id, "delete")
        self._index_record(record, add=False)
        self._commit(
            RemoveDelta(self, "delete", record_id, self._epoch + 1, record=record)
        )

    def remove_many(self, record_ids: Iterable[int]) -> int:
        """Delete *record_ids*, notifying listeners **once** for the batch.

        The bulk counterpart of :meth:`insert_many`: the epoch still
        advances per row, but listeners run once for the whole batch
        instead of once per deleted record.
        Unknown ids raise (like :meth:`delete`) after the rows deleted
        so far have been notified.  Returns the number of records
        removed; an empty batch notifies nobody.
        """
        removed = 0
        with batch_notifications(self, "delete") as batch:
            for record_id in record_ids:
                self.delete(record_id)
                removed += 1
                batch.last_id = record_id
        return removed

    def update(self, record_id: int, values: dict[str, object]) -> Record:
        """Merge *values* into an existing record, validate, reindex.

        Only *values* are validated (the stored row passed validation
        when it landed), and only the columns whose normalized value
        changed move between index entries.  The record keeps its id
        and identity (it is mutated in place), so references held
        elsewhere observe the new values.  The logged
        :class:`UpdateDelta` carries exactly the changed columns (with
        old and new values, in record column order), so derived
        structures patch the touched slots instead of rebuilding; a
        missing *record_id* raises
        :class:`~repro.errors.RecordNotFoundError`.
        """
        record = self._records.get(record_id)
        if record is None:
            raise RecordNotFoundError(self.name, record_id, "update")
        normalized = self.schema.validate_values(values)
        changed = [
            column
            for column, value in normalized.items()
            if record.get(column) != value
        ]
        old_values = {column: record.get(column) for column in changed}
        # One C-level update swaps every given value at once: a
        # concurrent snapshot reader (a window or store build) sees the
        # record whole, old or new.  New columns land after the
        # existing ones, in the order *values* names them.
        record.update(normalized)
        if len(changed) > 1:
            # The delta lists columns in record order, new ones last.
            changed = [column for column in record if column in old_values]
            old_values = {column: old_values[column] for column in changed}
        for column in changed:
            self._index_value(column, old_values[column], record_id, add=False)
            self._index_value(column, normalized[column], record_id, add=True)
        self._commit(
            UpdateDelta(
                self,
                "update",
                record_id,
                self._epoch + 1,
                changed_columns=tuple(changed),
                old_values=old_values,
                new_values={column: normalized[column] for column in changed},
                record=record,
            )
        )
        return record

    def _index_record(self, record: Record, add: bool) -> None:
        # Sweep the schema, not the record: a NULL can be an absent
        # key, which record.items() never yields.
        for column_name in self._null_indexes:
            self._index_value(
                column_name, record.get(column_name), record.record_id, add
            )

    def _index_value(
        self, column_name: str, value: object, record_id: int, add: bool
    ) -> None:
        """Add *record_id* to (or drop it from) the index entry of
        *value* in *column_name*: its NULL set, or its hash bucket."""
        if value is None:
            null_index = self._null_indexes[column_name]
            (null_index.add if add else null_index.discard)(record_id)
            return
        hash_index = self._hash_indexes.get(column_name)
        if hash_index is not None:
            (hash_index.add if add else hash_index.remove)(value, record_id)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def get(self, record_id: int) -> Record | None:
        return self._records.get(record_id)

    def snapshot(self) -> list[Record]:
        """A point-in-time list of the records (insertion order).

        ``list(dict.values())`` copies in one C-level step under the
        GIL, so — unlike plain iteration — a concurrent insert/delete
        cannot raise "dictionary changed size during iteration".
        Readers that scan while another thread mutates (the column
        store rebuild) use this instead of ``__iter__``.
        """
        return list(self._records.values())

    def fetch(
        self, record_ids: Iterable[int], limit: int | None = None
    ) -> list[Record]:
        """Records for *record_ids*, sorted by id for determinism;
        absent ids are skipped.  With *limit*, the lookup stops after
        that many present records: ``fetch(ids, n) == fetch(ids)[:n]``."""
        records = self._records
        ordered = sorted(record_ids)
        if limit is None:  # a list comprehension is the faster whole fetch
            return [records[id_] for id_ in ordered if id_ in records]
        return list(islice((records[id_] for id_ in ordered if id_ in records), limit))

    def all_ids(self) -> set[int]:
        return set(self._records.keys())

    def null_ids(self, column_name: str) -> set[int]:
        """Ids whose *column_name* is NULL (absent or ``None``).

        Returns the **live** index set for speed — callers must treat
        it as read-only and copy before mutating or storing it.
        """
        index = self._null_indexes.get(column_name)
        return index.ids() if index is not None else set()

    # ------------------------------------------------------------------
    # index-backed lookups (the SQL executor's categorical leaves)
    # ------------------------------------------------------------------
    def lookup_equal(self, column_name: str, value: object) -> set[int]:
        """Ids with the categorical ``column == value`` via the column's
        hash index, or a scan when it has none (numeric columns are
        answered by the ordered windows of :mod:`repro.perf.window`)."""
        column = self._categorical(column_name, "equality")
        normalized = str(value).lower()
        hash_index = self._hash_indexes.get(column.name)
        if hash_index is not None:
            return hash_index.lookup(normalized)
        return self.scan(lambda record: record.get(column.name) == normalized)

    def lookup_substring(self, column_name: str, needle: str) -> set[int]:
        """Ids whose categorical column contains *needle* (the
        Section 4.5 substring match; NULL never matches)."""
        needle = needle.lower()
        return self.lookup_where(column_name, lambda value: needle in value)

    def lookup_where(
        self, column_name: str, test: Callable[[str], bool]
    ) -> set[int]:
        """Ids whose categorical column holds a value passing *test*.

        A hash-indexed column runs *test* once per distinct value and
        unions the matching buckets; a column without one scans.  NULL
        never passes, and a numeric column raises
        :class:`~repro.errors.SchemaError`.
        """
        name = self._categorical(column_name, "pattern").name
        hash_index = self._hash_indexes.get(name)
        if hash_index is not None:
            return hash_index.lookup_matching(test)
        return self.scan(
            lambda record: (value := record.get(name)) is not None
            and test(value)
        )

    def _categorical(self, column_name: str, lookup: str) -> Column:
        column = self.schema.column(column_name)
        if column.is_numeric:
            raise SchemaError(f"{lookup} lookup on numeric column {column_name!r}")
        return column

    def distinct_values(self, column_name: str) -> list[object]:
        """Distinct values of a column (via index when available)."""
        column = self.schema.column(column_name)
        hash_index = self._hash_indexes.get(column.name)
        if hash_index is not None:
            return sorted(hash_index.distinct_values(), key=str)
        seen = {record.get(column.name) for record in self}
        seen.discard(None)
        return sorted(seen, key=str)

    def scan(self, predicate: Callable[[Record], bool]) -> set[int]:
        """Full scan: ids of records satisfying *predicate*.

        Scans a :meth:`snapshot`, so a concurrent insert or delete
        cannot break the iteration.
        """
        return {record.record_id for record in self.snapshot() if predicate(record)}
