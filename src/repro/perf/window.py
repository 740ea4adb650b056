"""Per-epoch ordered column windows: the one ordered structure a column has.

The SQL executor answers every numeric leaf (equality, ``IN``,
comparisons and BETWEEN), every lexicographic range and every
``record_id`` range from these windows; the table itself keeps no
sorted index.  This module keeps, per table (and per shard of a
:class:`~repro.shard.table.ShardedTable`), a sorted ``array``-backed
``(value, record_id)`` view per column — a *window* — and answers a
leaf with two ``bisect`` calls that delimit a contiguous id
slice.  The slice is wrapped in a lazy :class:`IdWindow` that the SQL
executor's set algebra can intersect against without materializing
(membership is an O(1) record fetch plus a bounds check), so a
selective conjunction never pays for the window's width.

Windows are maintained **incrementally through the typed-delta path**
(the same contract :meth:`repro.perf.colrank.ColumnStore.apply`
honors): a :class:`~repro.db.table.TableWindows` listener buffers each
table's :class:`~repro.db.table.InsertDelta` /
:class:`~repro.db.table.UpdateDelta` /
:class:`~repro.db.table.RemoveDelta` /
:class:`~repro.db.table.BatchDelta` and, on the next window access,
splices them into the sorted arrays via ``bisect`` — no re-sort.  Every
delta must advance a window's epoch by exactly one; a gap (a detached
listener, an unreplayable batch) drops the window and the next access
rebuilds it from a table snapshot, with the rebuild counted per column
(``rebuild_count``) so tests can assert that point mutations patch in
place.

Sharded facades never get a facade-level window: :func:`windows_for`
returns a :class:`ShardedWindows` that delegates to per-shard
:class:`TableWindows` attached directly to the shard tables.  Shard
listeners see the shards' **native** epochs (no facade re-stamping),
so one shard's mutation leaves the other shards' windows untouched —
the same cache locality the fragment cache's ``(shard index, shard
epoch)`` keys buy.

Concurrency stance: window arrays are spliced in place under the
owner's lock while readers go unsynchronized — the guarantees the
table's own hash and substring indexes give (reads racing a write may
see either side of it, never a torn structure thanks to the GIL).  An
:class:`IdWindow` captures its slice bounds at creation and must be
consumed within the evaluating query, like any other index lookup.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from array import array
from typing import Sequence

from repro.db.predicate import CATEGORICAL, NUMERIC, RECORD_ID, Predicate, value_key
from repro.db.table import (
    BatchDelta,
    InsertDelta,
    MutationEvent,
    RemoveDelta,
    Table,
    UpdateDelta,
)
from repro.obs.hooks import cache_event

__all__ = [
    "ColumnWindow",
    "IdWindow",
    "ShardedWindows",
    "TableWindows",
    "windows_for",
]

#: Buffered deltas beyond this many poison the pending queue: folding
#: is O(windows x rows), so past this point dropping the windows and
#: rebuilding lazily (one O(n log n) sort each, only for the columns
#: actually queried again) is strictly cheaper — the window analogue of
#: ``FragmentCache.MAX_ABSORB_ROWS``.
MAX_PENDING_DELTAS = 512


class ColumnWindow:
    """One column's sorted ``(value, record_id)`` view at one epoch.

    Three kinds — the predicate kernel's — share the machinery:

    * ``numeric`` — values in an ``array('d')`` of parsed floats;
    * ``categorical`` — values in a plain list of stored strings
      (already schema-lowercased), for lexicographic ranges;
    * ``record_id`` — no value array at all, just the sorted id array
      (ids *are* the sort key).

    Ids live in an ``array('q')``; within an equal-value run they are
    ascending, so the id array is in ``(value asc, id asc)`` order, the
    executor's single-key sort order.  Values sort by the predicate
    kernel's comparison key (:func:`~repro.db.predicate.value_key`); a
    NULL has no key, so NULL rows are in no window.
    """

    __slots__ = ("column", "kind", "epoch", "values", "ids", "_order_cache")

    def __init__(self, column: str, kind: str, table: Table) -> None:
        self.column = column
        self.kind = kind
        # Epoch read first: a mutation landing mid-build tags the
        # window older, and the next access detects the mismatch and
        # rebuilds (the ColumnStore builds the same way).
        self.epoch = table.epoch
        if kind == RECORD_ID:
            self.values: array | list[str] | None = None
            self.ids = array("q", sorted(table.all_ids()))
        else:
            pairs: list[tuple[float | str, int]] = []
            for record in table.snapshot():
                key = value_key(self.kind, record.get(column))
                if key is not None:
                    pairs.append((key, record.record_id))
            pairs.sort()
            if kind == NUMERIC:
                self.values = array("d", (key for key, _ in pairs))
            else:
                self.values = [key for key, _ in pairs]
            self.ids = array("q", (record_id for _, record_id in pairs))
        self._order_cache: dict[int, int] | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    # ------------------------------------------------------------------
    # bisect splicing (the incremental-maintenance core)
    # ------------------------------------------------------------------
    def _insert_pair(self, value: object, record_id: int) -> None:
        key = value_key(self.kind, value)
        if key is None:
            return
        assert self.values is not None
        low = bisect.bisect_left(self.values, key)
        high = bisect.bisect_right(self.values, key, low)
        # Ids ascend within the equal-value run: bisect there too.
        position = bisect.bisect_left(self.ids, record_id, low, high)
        self.values.insert(position, key)
        self.ids.insert(position, record_id)
        self._order_cache = None

    def _remove_pair(self, value: object, record_id: int) -> None:
        key = value_key(self.kind, value)
        if key is None:
            return
        assert self.values is not None
        low = bisect.bisect_left(self.values, key)
        high = bisect.bisect_right(self.values, key, low)
        position = bisect.bisect_left(self.ids, record_id, low, high)
        if position < high and self.ids[position] == record_id:
            del self.values[position]
            del self.ids[position]
            self._order_cache = None

    def _insert_id(self, record_id: int) -> None:
        position = bisect.bisect_left(self.ids, record_id)
        if position == len(self.ids) or self.ids[position] != record_id:
            self.ids.insert(position, record_id)
            self._order_cache = None

    def _remove_id(self, record_id: int) -> None:
        position = bisect.bisect_left(self.ids, record_id)
        if position < len(self.ids) and self.ids[position] == record_id:
            del self.ids[position]
            self._order_cache = None

    def apply(self, delta: MutationEvent) -> bool:
        """Splice one typed row delta; ``False`` means "rebuild me".

        A delta at or below this window's epoch is already reflected
        (the window was built after it) and is skipped; a delta more
        than one epoch ahead reveals a gap in the stream the splice
        must not paper over.  Every consumed delta advances the epoch
        by one even when it touches nothing (an update to another
        column, an all-NULL insert) — epoch continuity is the
        correctness spine, mirroring ``ColumnStore.apply``.
        """
        if delta.epoch <= self.epoch:
            return True
        if delta.epoch != self.epoch + 1:
            return False
        if self.kind == RECORD_ID:
            if isinstance(delta, InsertDelta):
                self._insert_id(delta.record_id)
            elif isinstance(delta, RemoveDelta):
                self._remove_id(delta.record_id)
            elif not isinstance(delta, UpdateDelta):
                return False
        elif isinstance(delta, InsertDelta):
            if delta.record is None:
                return False
            self._insert_pair(delta.record.get(self.column), delta.record_id)
        elif isinstance(delta, RemoveDelta):
            if delta.record is None:
                return False
            self._remove_pair(delta.record.get(self.column), delta.record_id)
        elif isinstance(delta, UpdateDelta):
            if self.column in delta.changed_columns:
                self._remove_pair(
                    delta.old_values.get(self.column), delta.record_id
                )
                self._insert_pair(
                    delta.new_values.get(self.column), delta.record_id
                )
        else:
            return False
        self.epoch = delta.epoch
        return True

    # ------------------------------------------------------------------
    # range answering
    # ------------------------------------------------------------------
    def bounds(
        self,
        low: object | None,
        high: object | None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> tuple[int, int]:
        """The ``[start, stop)`` slice matching the range — two bisects.

        ``None`` bounds are unbounded on that side.
        """
        sequence = self.ids if self.kind == RECORD_ID else self.values
        assert sequence is not None
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(sequence, low)
        else:
            start = bisect.bisect_right(sequence, low)
        if high is None:
            stop = len(sequence)
        elif include_high:
            stop = bisect.bisect_right(sequence, high)
        else:
            stop = bisect.bisect_left(sequence, high)
        return start, max(start, stop)

    def order_positions(self) -> dict[int, int]:
        """``record_id -> window position`` for window-assisted ORDER BY.

        Cached until the next content splice; position order is
        ``(value asc, id asc)``, the executor's exact single-key sort
        order for present values.
        """
        cache = self._order_cache
        if cache is None:
            cache = {
                record_id: position
                for position, record_id in enumerate(self.ids)
            }
            self._order_cache = cache
        return cache


class IdWindow:
    """A lazy union of contiguous window slices — one range leaf's ids.

    One segment per plain table, one per shard for a facade.  The
    executor's set algebra keeps it unmaterialized: ``count()`` is
    arithmetic on the slice bounds, membership is one record fetch plus
    the leaf's own interval test (:meth:`Predicate.within
    <repro.db.predicate.Predicate.within>`, exact because a window
    indexes every non-NULL value), and only a forced
    :meth:`materialize` pays for the width.
    """

    __slots__ = ("table", "leaf", "segments")

    def __init__(
        self, table, leaf: Predicate, windows: Sequence[ColumnWindow]
    ) -> None:
        self.table = table
        self.leaf = leaf
        self.segments = [
            (window,)
            + window.bounds(
                leaf.low, leaf.high, leaf.include_low, leaf.include_high
            )
            for window in windows
        ]

    def count(self) -> int:
        return sum(stop - start for _, start, stop in self.segments)

    def materialize(self) -> set[int]:
        ids: set[int] = set()
        for window, start, stop in self.segments:
            ids.update(window.ids[start:stop])
        return ids

    def outside(self) -> set[int]:
        """The windowed (non-NULL) ids *outside* the range (complement
        building block; callers add the NULL ids themselves)."""
        ids: set[int] = set()
        for window, start, stop in self.segments:
            ids.update(window.ids[:start])
            ids.update(window.ids[stop:])
        return ids

    def __contains__(self, record_id: int) -> bool:
        record = self.table.get(record_id)
        if record is None:
            return False
        leaf = self.leaf
        if leaf.kind == RECORD_ID:
            return leaf.within(record_id)
        return leaf.within(record.get(leaf.column))


class TableWindows:
    """All of one plain table's column windows, delta-maintained.

    Windows build lazily per column on first request; a mutation
    listener (attached at construction) buffers the table's typed
    deltas, and :meth:`window` folds them into every built window —
    bisect splices, no re-sort — before returning.  Any unreplayable
    stream (epoch gap, payload-less batch, pending overflow) drops the
    affected windows; the next request rebuilds from a snapshot and
    bumps that column's rebuild counter, which is how tests pin "a
    point update patches in place".

    Holds its table weakly: the process-wide registry
    (:func:`windows_for`) keys on the table, and a strong back-edge
    would keep dropped tables alive forever.
    """

    def __init__(self, table: Table) -> None:
        self._table_ref = weakref.ref(table)
        self._lock = threading.RLock()
        self._windows: dict[str, ColumnWindow] = {}
        self._pending: list[MutationEvent] = []
        self._overflowed = False
        #: Full builds per column (the first build counts as 1).
        self._rebuilds: dict[str, int] = {}
        table.add_listener(self._on_delta)

    # ------------------------------------------------------------------
    def _on_delta(self, event: MutationEvent) -> None:
        with self._lock:
            if not self._windows or self._overflowed:
                return  # nothing built (or already poisoned): rebuild lazily
            self._pending.append(event)
            if len(self._pending) > MAX_PENDING_DELTAS:
                self._pending.clear()
                self._overflowed = True

    def _fold(self) -> None:
        """Drain the pending deltas into every built window (locked)."""
        if self._overflowed:
            self._windows.clear()
            self._pending.clear()
            self._overflowed = False
            return
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        row_deltas: list[MutationEvent] = []
        for event in pending:
            if isinstance(event, BatchDelta):
                if not event.deltas:
                    # A batch without row payloads cannot be replayed;
                    # drop everything and rebuild on demand.
                    self._windows.clear()
                    return
                row_deltas.extend(event.deltas)
            else:
                row_deltas.append(event)
        stale = [
            column
            for column, window in self._windows.items()
            if not all(window.apply(delta) for delta in row_deltas)
        ]
        for column in stale:
            del self._windows[column]

    # ------------------------------------------------------------------
    def window(self, column: str) -> ColumnWindow:
        """The live window for *column*, folding pending deltas first."""
        table = self._table_ref()
        if table is None:
            raise RuntimeError("table was garbage-collected")
        with self._lock:
            self._fold()
            window = self._windows.get(column)
            hit = window is not None and window.epoch == table.epoch
            cache_event("window", hit)
            if not hit:
                window = self._build(table, column)
                self._windows[column] = window
            return window

    def _build(self, table: Table, column: str) -> ColumnWindow:
        self._rebuilds[column] = self._rebuilds.get(column, 0) + 1
        if column == RECORD_ID:
            kind = RECORD_ID
        elif table.schema.column(column).is_numeric:
            kind = NUMERIC
        else:
            kind = CATEGORICAL
        return ColumnWindow(column, kind, table)

    def column_windows(self, column: str) -> list[ColumnWindow]:
        """Uniform surface with :class:`ShardedWindows` (one segment)."""
        return [self.window(column)]

    def rebuild_count(self, column: str) -> int:
        """How many times *column*'s window was built from scratch."""
        with self._lock:
            return self._rebuilds.get(column, 0)


class ShardedWindows:
    """Per-shard windows behind a :class:`ShardedTable` facade.

    Never builds a facade-level window: each shard's
    :class:`TableWindows` listens on the shard table directly, so its
    deltas carry the shard's **native** epochs and one shard's
    mutation leaves every sibling's windows live.  A facade range leaf
    is an :class:`IdWindow` with one segment per shard.
    """

    def __init__(self, table) -> None:
        self._shard_windows = [windows_for(shard) for shard in table.shards]

    def column_windows(self, column: str) -> list[ColumnWindow]:
        return [windows.window(column) for windows in self._shard_windows]

    def rebuild_count(self, column: str) -> int:
        return sum(
            windows.rebuild_count(column) for windows in self._shard_windows
        )


#: Process-wide table -> windows registry.  Weak keys let dropped
#: tables (and their windows) be collected; executors are constructed
#: per call all over the codebase, so the registry — not the executor —
#: is what keeps windows warm across questions.
_REGISTRY: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_REGISTRY_LOCK = threading.RLock()


def windows_for(table) -> TableWindows | ShardedWindows:
    """The (shared) window set for *table*, created on first use.

    Dispatches on the sharding facade's ``shards`` attribute exactly
    like :func:`repro.perf.subplan.unit_id_sets` does; the lock is
    re-entrant because a facade's :class:`ShardedWindows` registers its
    shards through this same function.
    """
    with _REGISTRY_LOCK:
        windows = _REGISTRY.get(table)
        if windows is None:
            if getattr(table, "shards", None) is not None:
                windows = ShardedWindows(table)
            else:
                windows = TableWindows(table)
            _REGISTRY[table] = windows
        return windows
