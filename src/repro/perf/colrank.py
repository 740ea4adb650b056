"""The columnar top-k ranking engine (Eq. 5, fast path).

The legacy :class:`~repro.ranking.rank_sim.RankSimRanker` walks every
pooled record with nested per-record/per-condition Python loops — a
dict lookup, a string lowering and a method-call chain per check — and
then fully sorts the pool even though the pipeline presents at most 30
answers.  This module restructures that work around the table, not the
record:

* :class:`ColumnStore` materializes contiguous per-column arrays:
  stored categorical strings, parsed floats for numeric columns, and
  the Type I key tuple per row.  It records the table epoch it
  reflects; the next ranking call after a mutation catches it up from
  the table's delta log (:meth:`ColumnStore.apply`, one delta at a
  time) or rebuilds it when the log cannot bridge the gap (see
  :mod:`repro.db.table`) — no manual invalidation.
* :func:`columnar_rank_units` scores a pool **by column**: each scoring
  slot (a condition, or a whole "any" unit) produces a satisfied/
  contribution array over the pool in one tight loop, with per-distinct
  -value memos cached on the store so repeated criteria across
  questions ("make = toyota", "price < 10000") are evaluated once per
  table state.  Scores accumulate slot-by-slot in the legacy addition
  order, so every float is bit-identical to the per-record path.
* the result is a :class:`RankedPool`: scores and slot satisfaction
  columns are computed up front, but the order and each
  :class:`~repro.ranking.rank_sim.ScoredRecord` only when a position
  is read.  The first read selects the prefix it needs with a bounded
  heap (``heapq.nsmallest`` on the legacy ``(-score, record_id)`` key
  — documented to equal the full sort truncated), a later read past
  that prefix orders the pool once, and every row is built once.  A
  question presents at most 30 answers, so a pool of thousands of
  rows builds 30 ``ScoredRecord`` objects unless a caller pages
  further.
* a single-unit question relaxes to the whole table, and is ranked by
  **score class** instead (:func:`class_rank_unit`): a record's score
  there depends only on its values in the unit's class columns, so
  the store keeps its record ids grouped by those values
  (:meth:`ColumnStore.classes`), one representative row per class is
  scored, and a :class:`ClassRankedPool` reads the classes best first
  — equal-score classes merged by record id — without listing,
  scoring or heap-selecting the table's rows.

Both engines take satisfaction from the predicate kernel
(:func:`~repro.qa.sql_generation.condition_predicate`) and failure
similarities from the same ``TIMatrix``/``WSMatrix``/``Num_Sim`` code.
Anything the planner does not recognize (a condition on an unknown
column, a mixed "any" unit from hand-built inputs, a record outside
the store) returns ``None`` so the caller falls back to the legacy
engine wholesale.  ``tests/test_ranking_parity.py`` holds the
bit-identical guarantee across a generated question battery, and
``tests/test_ranked_pool.py`` holds the class ranking to the row
ranking for every single-unit shape.
"""

from __future__ import annotations

import bisect
import heapq
import threading
from itertools import chain, islice, repeat
from typing import Iterator, Sequence

from repro.db.schema import AttributeType
from repro.db.table import InsertDelta, MutationEvent, Record, Table, UpdateDelta
from repro.db.predicate import NUMERIC, parse_numeric
from repro.qa.conditions import Condition
from repro.qa.sql_generation import condition_predicate
from repro.ranking.num_sim import condition_num_sim
from repro.ranking.rank_sim import (
    Key,
    RankingResources,
    ScoredRecord,
    ScoringUnit,
)
from repro.structures.lazylist import LazyList

__all__ = [
    "ClassRankedPool",
    "ColumnStore",
    "RankedPool",
    "class_rank_unit",
    "columnar_rank_units",
    "sharded_rank_units",
]

#: Failure-similarity labels by attribute type (Table 2's right-most
#: column); negated conditions always label "negation".
_KIND_BY_TYPE = {
    AttributeType.TYPE_I: "TI_Sim",
    AttributeType.TYPE_II: "Feat_Sim",
    AttributeType.TYPE_III: "Num_Sim",
}


class ColumnStore:
    """A columnar image of one table at one epoch.

    Rows are ordered by ``record_id``; ``row_of`` maps an id to its
    row.  ``categorical[column][row]`` is the stored string (``None``
    when absent), ``numeric[column][row]`` the parsed float (``None``
    when absent or unparseable), ``keys[row]`` the Type I key tuple —
    the same tuple :meth:`RankingResources.record_key` builds.

    ``_slot_memo`` caches, per condition (and per Type I constraint
    fingerprint), the distinct-value → ``(satisfied, contribution)``
    mapping, so the expensive similarity machinery runs once per
    distinct stored value per criterion, across every question asked
    against this epoch.
    """

    def __init__(self, table: Table, type_i_columns: Sequence[str]) -> None:
        # Epoch read first: if a mutation lands mid-build, the store is
        # tagged with the older epoch and the next access rebuilds it.
        # snapshot() copies the record list atomically, so a concurrent
        # insert/delete cannot crash the scan.
        self.epoch = table.epoch
        self.table_name = table.name
        records = sorted(table.snapshot(), key=lambda record: record.record_id)
        self.records = records
        self.row_of = {
            record.record_id: row for row, record in enumerate(records)
        }
        self.type_i_columns = list(type_i_columns)
        self._type_i_index = {
            column: index for index, column in enumerate(self.type_i_columns)
        }
        self.keys: list[Key] = [
            tuple(
                str(record.get(column, "") or "")
                for column in self.type_i_columns
            )
            for record in records
        ]
        self.categorical: dict[str, list[str | None]] = {}
        self.numeric: dict[str, list[float | None]] = {}
        for column in table.schema.columns:
            name = column.name
            if column.is_numeric:
                self.numeric[name] = [
                    parse_numeric(record.get(name)) for record in records
                ]
            else:
                self.categorical[name] = [
                    None if value is None else str(value)
                    for value in (record.get(name) for record in records)
                ]
        self._slot_memo: dict[object, dict] = {}
        #: Class-column set -> {class values: record ids, ascending}
        #: (see :meth:`classes`).  Id tuples are never mutated; a
        #: grouping dict is this store's own unless ``_cow_aliased``.
        self._groupings: dict[tuple, dict[tuple, tuple[int, ...]]] = {}
        #: Serializes grouping builds with the in-place append, the one
        #: patch that mutates this store rather than a clone.
        self._lock = threading.Lock()
        #: True when this store was produced by a copy-on-write update
        #: and still *shares* list objects (and grouping dicts) with
        #: its predecessor — the in-place append fast path must not
        #: mutate those, or the predecessor's snapshot tears (see
        #: :meth:`_apply_insert`).
        self._cow_aliased = False

    #: Distinct scoring slots memoized per store before the memo map is
    #: reset.  A slot's inner dict is bounded by the column's distinct
    #: values, but arbitrary user-supplied criteria could otherwise
    #: grow the outer map forever on a never-mutated table.
    MAX_SLOT_MEMOS = 512

    def memo(self, memo_key: object) -> dict:
        """The distinct-value memo for one scoring slot."""
        memo = self._slot_memo.get(memo_key)
        if memo is None:
            if len(self._slot_memo) >= self.MAX_SLOT_MEMOS:
                self._slot_memo = {}  # cheap reset; memos rebuild on use
            memo = self._slot_memo[memo_key] = {}
        return memo

    def classes(self, columns: tuple) -> list[tuple[tuple, tuple[int, ...]]]:
        """This store's record ids grouped by their values in *columns*.

        ``(values, ids)`` pairs, ids ascending; ``None`` in *columns*
        stands for the Type I key.  The grouping is built on first use
        and patched by :meth:`apply` from then on.
        """
        with self._lock:
            grouping = self._groupings.get(columns)
            if grouping is None:
                arrays = [self._array(column) for column in columns]
                lists: dict[tuple, list[int]] = {}
                for record, values in zip(self.records, zip(*arrays)):
                    lists.setdefault(values, []).append(record.record_id)
                grouping = {values: tuple(ids) for values, ids in lists.items()}
                self._groupings[columns] = grouping
            return list(grouping.items())

    def _array(self, column: str | None) -> list:
        if column is None:
            return self.keys
        values = self.numeric.get(column)
        return self.categorical[column] if values is None else values

    def _class_of(self, columns: tuple, row: int) -> tuple:
        return tuple(self._array(column)[row] for column in columns)

    def _regrouped(
        self,
        after: "ColumnStore",
        record_id: int,
        before_row: int | None,
        after_row: int | None,
    ) -> dict:
        """*after*'s groupings: this store's, with *record_id* moved
        from its class at *before_row* here to its class at
        *after_row* in *after* (``None``: absent).  Groupings the move
        leaves alone are shared."""
        with self._lock:
            groupings = list(self._groupings.items())
        patched = {}
        for columns, grouping in groupings:
            old = None if before_row is None else self._class_of(columns, before_row)
            new = None if after_row is None else after._class_of(columns, after_row)
            if old != new:
                grouping = dict(grouping)
                if old is not None:
                    ids = grouping.pop(old)
                    at = bisect.bisect_left(ids, record_id)
                    if len(ids) > 1:
                        grouping[old] = ids[:at] + ids[at + 1 :]
                if new is not None:
                    ids = grouping.get(new, ())
                    at = bisect.bisect_left(ids, record_id)
                    grouping[new] = ids[:at] + (record_id,) + ids[at:]
            patched[columns] = grouping
        return patched

    # ------------------------------------------------------------------
    # incremental maintenance (delta patching)
    # ------------------------------------------------------------------
    def apply(self, delta: MutationEvent) -> "ColumnStore | None":
        """Apply one row delta of the table's log; ``None`` = rebuild.

        Returns the store reflecting the post-delta table state, tagged
        with the delta's epoch — the slot memos are value-keyed, so
        they survive every patch:

        * an :class:`~repro.db.table.UpdateDelta` returns a
          copy-on-write clone that re-slots only the changed columns'
          arrays (and the key list when a Type I column moved),
          sharing every untouched array — concurrent readers of this
          store keep a fully consistent pre-update image;
        * an :class:`~repro.db.table.InsertDelta` with the table's
          usual monotonic id appends in place (append-only is safe
          under readers: existing slots never move); a mid-array
          insert and every :class:`~repro.db.table.RemoveDelta` return
          a patched **shallow copy** (C-level list copies — no
          re-parsing, no re-stringifying) sharing the memos, so
          concurrent readers never see rows shift under their indices.

        The groupings (:meth:`classes`) follow the same rules: the
        in-place append adds the id to its class in this store's own
        dicts, every other delta gives the new store copies of the
        dicts whose class it moves (id tuples are never mutated).

        ``None`` comes back when the store does not hold the row the
        way the delta expects (an insert of a row it already holds, a
        remove or update of one it lacks: a build that raced the
        write).  The caller then rebuilds.
        """
        if isinstance(delta, UpdateDelta):
            return self._apply_update(delta, delta.epoch)
        if isinstance(delta, InsertDelta):
            return self._apply_insert(delta.record, delta.epoch)
        return self._apply_remove(delta.record_id, delta.epoch)

    def _apply_update(
        self, delta: UpdateDelta, target: int
    ) -> "ColumnStore | None":
        """Copy-on-write per changed column: the clone shares every
        untouched array (and the records/row_of/memos) with this store,
        and only the changed columns' lists — plus the key list when a
        Type I column moved — are copied and re-slotted.  Concurrent
        readers holding the old store keep a fully consistent
        pre-update image (the snapshot isolation the rebuild path
        gives), at the cost of O(rows) pointer copies per changed
        column instead of O(1) slot writes."""
        row = self.row_of.get(delta.record_id)
        if row is None:
            return None
        if not all(
            column in self.numeric or column in self.categorical
            for column in delta.changed_columns
        ):
            return None  # schema drift: never patch half a row
        clone = self._shared_clone()
        clone.records = self.records
        clone.row_of = self.row_of
        clone.numeric = dict(self.numeric)
        clone.categorical = dict(self.categorical)
        for column in delta.changed_columns:
            value = delta.new_values.get(column)
            if column in clone.numeric:
                patched = list(clone.numeric[column])
                patched[row] = parse_numeric(value)
                clone.numeric[column] = patched
            else:
                patched = list(clone.categorical[column])
                patched[row] = None if value is None else str(value)
                clone.categorical[column] = patched
        touched_keys = [
            column
            for column in delta.changed_columns
            if column in self._type_i_index
        ]
        if touched_keys:
            key = list(self.keys[row])
            for column in touched_keys:
                key[self._type_i_index[column]] = str(
                    delta.new_values.get(column) or ""
                )
            keys = list(self.keys)
            keys[row] = tuple(key)
            clone.keys = keys
        else:
            clone.keys = self.keys
        clone._groupings = self._regrouped(clone, delta.record_id, row, row)
        clone._cow_aliased = True
        clone.epoch = target
        return clone

    def _apply_insert(self, record: Record, target: int) -> "ColumnStore | None":
        record_id = record.record_id
        if record_id in self.row_of:
            return None
        if self.records and self.records[-1].record_id > record_id:
            # Out-of-order explicit id: splice a patched copy so rows
            # never shift under a concurrent reader of this store.
            position = bisect.bisect_left(
                self.records, record_id, key=lambda rec: rec.record_id
            )
            return self._spliced(position, record, target)
        if self._cow_aliased:
            # This store still shares lists with the pre-update store a
            # concurrent reader may hold; appending in place would grow
            # the shared arrays while the reader's copied (changed)
            # column stays short — a torn snapshot.  Append via a full
            # copy instead (and the copy owns every list, so later
            # appends take the fast path again).
            return self._spliced(len(self.records), record, target)
        with self._lock:
            row = len(self.records)
            self.records.append(record)
            self.keys.append(
                tuple(
                    str(record.get(column, "") or "")
                    for column in self.type_i_columns
                )
            )
            for name, column in self.numeric.items():
                column.append(parse_numeric(record.get(name)))
            for name, column in self.categorical.items():
                value = record.get(name)
                column.append(None if value is None else str(value))
            self.row_of[record_id] = row
            # The largest id so far: it ends its class.
            for columns, grouping in self._groupings.items():
                values = self._class_of(columns, row)
                grouping[values] = grouping.get(values, ()) + (record_id,)
            self.epoch = target
        return self

    def _apply_remove(self, record_id: int, target: int) -> "ColumnStore | None":
        position = self.row_of.get(record_id)
        if position is None:
            return None
        return self._spliced(position, None, target)

    def _shared_clone(self) -> "ColumnStore":
        """A new store sharing this one's immutable/value-keyed parts:
        the schema metadata and the slot memos (distinct-value keyed,
        hence membership-independent).  Callers fill in the arrays."""
        clone = ColumnStore.__new__(ColumnStore)
        clone.table_name = self.table_name
        clone.type_i_columns = self.type_i_columns
        clone._type_i_index = self._type_i_index
        clone._slot_memo = self._slot_memo
        clone._lock = threading.Lock()
        clone._cow_aliased = False
        return clone

    def _spliced(
        self, position: int, record: Record | None, target: int
    ) -> "ColumnStore":
        """A shallow copy with *record* inserted at *position* (or the
        row there removed when ``record is None``), sharing the slot
        memos (value-keyed, hence membership-independent)."""

        def splice(values: list, inserted) -> list:
            if record is None:
                return values[:position] + values[position + 1 :]
            return values[:position] + [inserted] + values[position:]

        clone = self._shared_clone()
        clone.records = splice(self.records, record)
        clone.keys = splice(
            self.keys,
            None
            if record is None
            else tuple(
                str(record.get(column, "") or "")
                for column in self.type_i_columns
            ),
        )
        clone.numeric = {
            name: splice(
                values, None if record is None else parse_numeric(record.get(name))
            )
            for name, values in self.numeric.items()
        }
        clone.categorical = {}
        for name, values in self.categorical.items():
            value = None if record is None else record.get(name)
            clone.categorical[name] = splice(
                values, None if value is None else str(value)
            )
        clone.row_of = {
            rec.record_id: row for row, rec in enumerate(clone.records)
        }
        if record is None:
            moved = (self.records[position].record_id, position, None)
        else:
            moved = (record.record_id, None, position)
        clone._groupings = self._regrouped(clone, *moved)
        clone.epoch = target
        return clone


# ----------------------------------------------------------------------
# planning: which shapes the columnar evaluators cover
# ----------------------------------------------------------------------
def _is_numeric_style(condition: Condition) -> bool:
    """Whether the kernel compiles *condition* over a numeric column,
    so its slot reads the parsed-float column."""
    return condition_predicate(condition).kind == NUMERIC


def _condition_supported(store: ColumnStore, condition: Condition) -> bool:
    if _is_numeric_style(condition):
        # The failed similarity is Num_Sim, or zero for a negation.
        return condition.column in store.numeric
    if condition.column not in store.categorical:
        return False
    if condition.negated or condition.attribute_type is not AttributeType.TYPE_I:
        return True  # violated negations contribute 0.0; Type II Feat_Sim
    return condition.column in store._type_i_index


def _supports(store: ColumnStore, units: Sequence[ScoringUnit]) -> bool:
    for unit in units:
        if unit.mode == "any" and len(unit.conditions) > 1:
            # Multi-branch "any" units must be numeric branches that are
            # all positive (Num_Sim, what relaxation_units produces) or
            # all negated (every violated branch scores 0.0), so the
            # failed kind is static; exotic hand-built mixes keep their
            # legacy best-kind bookkeeping.
            negated = unit.conditions[0].negated
            if not all(
                condition.negated == negated and _is_numeric_style(condition)
                for condition in unit.conditions
            ):
                return False
        for condition in unit.conditions:
            if not _condition_supported(store, condition):
                return False
    return True


# ----------------------------------------------------------------------
# per-slot evaluation: one (satisfied, contribution) pair per pool row
# ----------------------------------------------------------------------
def _condition_arrays(
    store: ColumnStore,
    resources: RankingResources,
    condition: Condition,
    rows: list[int],
    type_i_fp: tuple,
    query_keys: list[Key],
) -> tuple[list[bool], list[float]]:
    if _is_numeric_style(condition):
        return _numeric_arrays(store, resources, condition, rows)
    if condition.attribute_type is AttributeType.TYPE_I and not condition.negated:
        return _type_i_arrays(
            store, resources, condition, rows, type_i_fp, query_keys
        )
    return _categorical_arrays(store, resources, condition, rows)


def _categorical_arrays(
    store: ColumnStore,
    resources: RankingResources,
    condition: Condition,
    rows: list[int],
) -> tuple[list[bool], list[float]]:
    """Type II similarity slots and violated-negation slots."""
    memo = store.memo(condition)
    memo_get = memo.get
    column = store.categorical[condition.column]
    test = condition_predicate(condition).test
    target_raw = str(condition.value)
    negated = condition.negated
    type_ii = condition.attribute_type is AttributeType.TYPE_II
    value_similarity = resources.ws_matrix.value_similarity
    sat_out: list[bool] = []
    contrib_out: list[float] = []
    for row in rows:
        value = column[row]
        entry = memo_get(value)
        if entry is None:
            sat = test(value)
            if sat:
                contrib = 1.0
            elif negated or not type_ii or value is None:
                contrib = 0.0
            else:
                contrib = value_similarity(target_raw, value)
            entry = memo[value] = (sat, contrib)
        sat_out.append(entry[0])
        contrib_out.append(entry[1])
    return sat_out, contrib_out


def _type_i_arrays(
    store: ColumnStore,
    resources: RankingResources,
    condition: Condition,
    rows: list[int],
    type_i_fp: tuple,
    query_keys: list[Key],
) -> tuple[list[bool], list[float]]:
    """Type I slots: satisfaction from the key column, TI_Sim failure
    similarity from the whole key — one memo entry per distinct key."""
    memo = store.memo((condition, type_i_fp))
    memo_get = memo.get
    keys = store.keys
    index = store._type_i_index[condition.column]
    test = condition_predicate(condition).test
    normalized = resources.ti_matrix.normalized
    sat_out: list[bool] = []
    contrib_out: list[float] = []
    for row in rows:
        key = keys[row]
        entry = memo_get(key)
        if entry is None:
            # "" in the key means the value was absent (NULL).
            sat = test(key[index] or None)
            if sat:
                contrib = 1.0
            elif not query_keys:
                contrib = 0.0
            else:
                contrib = max(
                    normalized(query_key, key) for query_key in query_keys
                )
            entry = memo[key] = (sat, contrib)
        sat_out.append(entry[0])
        contrib_out.append(entry[1])
    return sat_out, contrib_out


def _numeric_arrays(
    store: ColumnStore,
    resources: RankingResources,
    condition: Condition,
    rows: list[int],
) -> tuple[list[bool], list[float]]:
    """Type III slots over the pre-parsed float column."""
    column = store.numeric[condition.column]
    numbers = [column[row] for row in rows]
    sat_out = condition_predicate(condition).test_keys(numbers)
    if condition.negated:
        # A violated negation has no "close" reading: it scores 0.0.
        return sat_out, [1.0 if sat else 0.0 for sat in sat_out]
    value_range = resources.value_ranges.get(condition.column, 0.0)
    contrib_out = [
        1.0
        if sat
        else 0.0
        if number is None
        else condition_num_sim(condition, number, value_range)
        for sat, number in zip(sat_out, numbers)
    ]
    return sat_out, contrib_out


def _any_unit_arrays(
    store: ColumnStore,
    resources: RankingResources,
    unit: ScoringUnit,
    rows: list[int],
    type_i_fp: tuple,
    query_keys: list[Key],
) -> tuple[list[bool], list[float]]:
    """A multi-branch "any" unit: satisfied when any branch is, else
    the best branch similarity carries the unit (Section 4.2.2)."""
    branches = [
        _condition_arrays(store, resources, condition, rows, type_i_fp, query_keys)
        for condition in unit.conditions
    ]
    sat_out: list[bool] = []
    contrib_out: list[float] = []
    for i in range(len(rows)):
        if any(branch_sat[i] for branch_sat, _ in branches):
            sat_out.append(True)
            contrib_out.append(1.0)
            continue
        # All branches failed, so each branch array holds its failure
        # similarity at this row; similarities are non-negative, so the
        # legacy ">= best" running max is a plain max.
        best = 0.0
        for _, branch_contrib in branches:
            value = branch_contrib[i]
            if value >= best:
                best = value
        sat_out.append(False)
        contrib_out.append(best)
    return sat_out, contrib_out


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
_Slots = list[tuple[tuple[Condition, ...], str, list[bool]]]


def _query_fingerprint(
    resources: RankingResources, units: Sequence[ScoringUnit]
) -> tuple[tuple, list[Key]]:
    """The question's Type I constraint fingerprint and product keys."""
    type_i_values = {
        condition.column: str(condition.value)
        for unit in units
        for condition in unit.conditions
        if condition.attribute_type is AttributeType.TYPE_I
        and not condition.negated
    }
    return tuple(sorted(type_i_values.items())), resources.query_keys(
        type_i_values
    )


def _score_rows(
    store: ColumnStore,
    resources: RankingResources,
    rows: list[int],
    units: Sequence[ScoringUnit],
    type_i_fp: tuple,
    query_keys: list[Key],
) -> tuple[list[float], _Slots]:
    """Slot arrays and accumulated scores for one store's pool rows.

    Slots come in the legacy slot order: each condition of an "all"
    unit is its own slot, a multi-branch "any" unit is one slot.
    Accumulating slot-by-slot reproduces the legacy per-record
    addition order, so scores are bit-identical — and per-record, so
    the same floats come out whichever store (whole-table or
    per-shard) the record is scored through.
    """
    scores = [0.0] * len(rows)
    slots: _Slots = []
    for unit in units:
        if unit.mode == "any" and len(unit.conditions) > 1:
            sat, contrib = _any_unit_arrays(
                store, resources, unit, rows, type_i_fp, query_keys
            )
            # _supports() guaranteed homogeneous numeric branches, so
            # the legacy best-kind bookkeeping always lands on one kind.
            kind = "negation" if unit.conditions[0].negated else "Num_Sim"
            slot_list = [(unit.conditions, kind, sat, contrib)]
        else:
            slot_list = []
            for condition in unit.conditions:
                sat, contrib = _condition_arrays(
                    store, resources, condition, rows, type_i_fp, query_keys
                )
                kind = (
                    "negation"
                    if condition.negated
                    else _KIND_BY_TYPE[condition.attribute_type]
                )
                slot_list.append(((condition,), kind, sat, contrib))
        for conditions, kind, sat, contrib in slot_list:
            slots.append((conditions, kind, sat))
            for i, value in enumerate(contrib):
                scores[i] += value
    return scores, slots


def _select(scores: list[float], record_ids: list[int], k: int) -> list[int]:
    """The first *k* pool indices in the legacy presentation order.

    nsmallest on the legacy ``(-score, record_id)`` key is documented
    as ``sorted(...)[:k]``, ties (equal scores) included, and sorts
    outright once *k* reaches the pool size.
    """

    def sort_key(index: int) -> tuple[float, int]:
        return (-scores[index], record_ids[index])

    return heapq.nsmallest(k, range(len(scores)), key=sort_key)


def _emit(
    record: Record, score: float, slots: _Slots, index: int
) -> ScoredRecord:
    """Materialize one ScoredRecord from its slot satisfaction column."""
    failed: list[Condition] = []
    kinds: set[str] = set()
    for conditions, kind, sat in slots:
        if sat[index]:
            continue
        failed.extend(conditions)
        kinds.add(kind)
    if not failed:
        kind = "exact"
    elif len(kinds) == 1:
        kind = next(iter(kinds))
    else:
        kind = "mixed"
    return ScoredRecord(
        record=record, score=score, failed=tuple(failed), similarity_kind=kind
    )


class RankedPool(LazyList[ScoredRecord]):
    """A scored pool that orders and builds its rows only when read.

    The pool of a multi-unit question, or of any record list a caller
    ranks (a single-unit question is ranked by score class,
    :class:`ClassRankedPool`).  Holds, per pool row, the record, its
    Eq. 5 score and one satisfaction entry per scoring slot —
    everything the ranking decided.  Position *i* is the *i*-th row by
    the legacy ``(-score, record_id)`` key.  The first read (an index
    or a slice) selects the prefix up to the furthest position it asks
    for with a bounded heap, a later read past that prefix orders the
    pool once, and each position's
    :class:`~repro.ranking.rank_sim.ScoredRecord` is built once (see :class:`~repro.structures.lazylist.LazyList`
    for the list behaviour and thread safety).  ``top_k`` only caps
    the length.

    Scores, kinds and failed conditions are fixed at ranking time:
    later table mutations do not change what a read returns.
    """

    def __init__(
        self,
        records: list[Record],
        scores: list[float],
        slots: _Slots,
        top_k: int | None,
    ) -> None:
        size = len(records)
        super().__init__(size if top_k is None else min(top_k, size))
        self._records = records
        self._record_ids = [record.record_id for record in records]
        self._scores = scores
        self._slots = slots
        self._order: list[int] = []

    def _build_all(self, positions: list[int]) -> list[ScoredRecord]:
        furthest = max(positions)
        if furthest >= len(self._order):
            self._order = _select(
                self._scores,
                self._record_ids,
                len(self) if self._order else furthest + 1,
            )
        records, scores, slots = self._records, self._scores, self._slots
        return [
            _emit(records[index], scores[index], slots, index)
            for index in map(self._order.__getitem__, positions)
        ]


def columnar_rank_units(
    resources: RankingResources,
    records: list[Record],
    units: Sequence[ScoringUnit],
    top_k: int | None,
) -> RankedPool | None:
    """Rank *records* columnar-ly; ``None`` means "use the legacy path".

    Reads exactly like the legacy ``rank_units`` result (full sort,
    then ``[:top_k]``): same records, same float scores, same failed
    tuples, same kinds, same order — but as a :class:`RankedPool`,
    which orders and builds only the positions read.  When the
    resources' table is a :class:`repro.shard.table.ShardedTable` the
    scoring scatters across per-shard column stores (see
    :func:`sharded_rank_units`).
    """
    table = resources.table
    if table is not None and getattr(table, "shards", None) is not None:
        return sharded_rank_units(resources, table, records, units, top_k)
    store = resources.column_store()
    if store is None:
        return None
    if not records:
        return RankedPool([], [], [], top_k)
    if not _supports(store, units):
        return None
    try:
        rows = [store.row_of[record.record_id] for record in records]
    except KeyError:
        return None  # a record outside the store (foreign table?)

    type_i_fp, query_keys = _query_fingerprint(resources, units)
    scores, slots = _score_rows(
        store, resources, rows, units, type_i_fp, query_keys
    )
    return RankedPool(records, scores, slots, top_k)


def sharded_rank_units(
    resources: RankingResources,
    table: Table,
    records: list[Record],
    units: Sequence[ScoringUnit],
    top_k: int | None,
) -> RankedPool | None:
    """Scatter-gather scoring over a sharded table's pool.

    The pool partitions by record placement; each shard's slice is
    scored against that shard's own per-epoch column store, and the
    shards' scores and slot satisfaction columns are gathered into one
    :class:`RankedPool`.  Selection then runs once over the gathered
    rows: the ``(-score, record_id)`` key is a total order (ids are
    unique) and scores are accumulated per record in the same order
    whichever store scores it, so the pool reads bit-for-bit like the
    single-store ranking.

    Shard tasks run through :meth:`ShardedTable.map_shards`, one shard
    after another on the caller's thread.

    Consistency under concurrent mutation: each shard's store pins the
    shard's epoch *before* copying its snapshot, so a mid-flight
    insert is either absent from that store or irrelevant (it cannot
    be in the pool, which was gathered earlier); a pool record that
    vanished from its shard makes this function return ``None`` and
    the caller re-scores the live records on the legacy path.
    """
    if not records:
        return RankedPool([], [], [], top_k)
    stores = resources.shard_column_stores()
    if stores is None:
        return None
    # Support is schema-determined, hence identical across shards.
    if not _supports(stores[0], units):
        return None
    groups: list[list[Record]] = [[] for _ in stores]
    for record in records:
        groups[table.shard_of(record.record_id)].append(record)
    type_i_fp, query_keys = _query_fingerprint(resources, units)

    def score_shard(index: int, _shard: Table):
        store = stores[index]
        try:
            rows = [store.row_of[record.record_id] for record in groups[index]]
        except KeyError:
            return None  # pool record mutated away mid-flight
        return _score_rows(store, resources, rows, units, type_i_fp, query_keys)

    gathered = table.map_shards(score_shard)
    if any(result is None for result in gathered):
        return None
    shard_scores = [scores for scores, _slots in gathered]
    shard_slots = [slots for _scores, slots in gathered]
    # Every shard scores the same slots in the same order; only the
    # satisfaction columns differ, and they concatenate like the rows.
    slots: _Slots = [
        (
            conditions,
            kind,
            list(chain.from_iterable(each[slot][2] for each in shard_slots)),
        )
        for slot, (conditions, kind, _sat) in enumerate(shard_slots[0])
    ]
    return RankedPool(
        list(chain.from_iterable(groups)),
        list(chain.from_iterable(shard_scores)),
        slots,
        top_k,
    )


# ----------------------------------------------------------------------
# single-unit questions: rank score classes, not rows
# ----------------------------------------------------------------------
def _class_columns(unit: ScoringUnit) -> tuple:
    """The columns *unit*'s score reads, ``None`` for the Type I key:
    records with equal values there score alike (:func:`_condition_arrays`
    reads the key for a positive Type I condition, else the column)."""
    return tuple(
        dict.fromkeys(
            None
            if condition.attribute_type is AttributeType.TYPE_I
            and not condition.negated
            and not _is_numeric_style(condition)
            else condition.column
            for condition in unit.conditions
        )
    )


#: One class's share of one store: the store, the class's score, and
#: the scored representative's slot columns and index in them.
_Entry = tuple[ColumnStore, float, _Slots, int]


def _by_class(
    heap: list[tuple[float, int]],
    members: list[list[tuple[_Entry, tuple[int, ...]]]],
    exclude: set[int],
) -> Iterator[tuple[int, _Entry]]:
    """``(record_id, entry)`` best first: classes by descending score,
    equal-score classes merged by id, *exclude* skipped.  Holds no
    reference to the pool that reads it, so reference counting alone
    frees both."""
    while heap:
        tier = [heapq.heappop(heap)]
        while heap and heap[0][0] == tier[0][0]:
            tier.append(heapq.heappop(heap))
        runs = [
            zip(ids, repeat(entry))
            for _, index in tier
            for entry, ids in members[index]
        ]
        for item in runs[0] if len(runs) == 1 else heapq.merge(*runs):
            if item[0] not in exclude:
                yield item


class ClassRankedPool(LazyList[ScoredRecord]):
    """A single-unit pool ranked by score class (:func:`class_rank_unit`).

    Reads exactly like a :class:`RankedPool` of the same rows: position
    *i* is the *i*-th record by the legacy ``(-score, record_id)`` key.
    Reads advance one lazy walk over the classes (:func:`_by_class`), so
    the first 30 answers cost O(classes + 30·log classes) however large
    the table.  ``classes`` is the number of distinct score classes.

    What a read returns was fixed at ranking time: id tuples are never
    mutated, and each entry pins the column store it was ranked on.
    """

    def __init__(
        self, size: int, ranked: Iterator[tuple[int, _Entry]], classes: int
    ) -> None:
        super().__init__(size)
        self.classes = classes
        self._ranked = ranked
        self._order: list[tuple[int, _Entry]] = []

    def _build_all(self, positions: list[int]) -> list[ScoredRecord]:
        order = self._order
        wanted = max(positions) + 1 - len(order)
        if wanted > 0:
            order.extend(islice(self._ranked, wanted))
        built = []
        for record_id, (store, score, slots, index) in map(
            order.__getitem__, positions
        ):
            record = store.records[store.row_of[record_id]]
            built.append(_emit(record, score, slots, index))
        return built


def class_rank_unit(
    resources: RankingResources,
    unit: ScoringUnit,
    exclude: set[int],
    top_k: int | None,
) -> ClassRankedPool | None:
    """Rank the whole table but *exclude* on one relaxation unit.

    A one-unit question relaxes to the whole table (Section 4.3.1), and
    a record's Eq. 5 score there depends only on its values in the
    unit's class columns (:func:`_class_columns`).  So each store's
    grouping by those values (:meth:`ColumnStore.classes`; one store
    per shard, gathered through ``map_shards``) is scored one
    representative row per class through :func:`_score_rows` — every
    float, failed tuple and kind is the row engine's — and the classes
    are read best first by :class:`ClassRankedPool`.  Its length is the
    pool size, capped at *top_k*.  ``None`` means the columnar engine
    cannot rank *unit* (no table attached, or an unplanned shape).
    """
    table = resources.table
    stores = resources.shard_column_stores()
    if stores is None:
        store = resources.column_store()
        stores = None if store is None else [store]
    if stores is None or not _supports(stores[0], [unit]):
        return None
    columns = _class_columns(unit)
    if len(stores) == 1:
        gathered = [stores[0].classes(columns)]
    else:
        gathered = table.map_shards(
            lambda index, _shard: stores[index].classes(columns)
        )
    # Class values -> (store, ids) for each store holding the class.
    holders: dict[tuple, list[tuple[ColumnStore, tuple[int, ...]]]] = {}
    for store, classes in zip(stores, gathered):
        for values, ids in classes:
            holders.setdefault(values, []).append((store, ids))
    held = list(holders.values())
    # One representative row per class, scored in the first store
    # holding it: scores are per record, whichever store scores it.
    represented: dict[ColumnStore, list[int]] = {}
    for index, holding in enumerate(held):
        represented.setdefault(holding[0][0], []).append(index)
    type_i_fp, query_keys = _query_fingerprint(resources, [unit])
    members: list = [None] * len(held)
    heap: list[tuple[float, int]] = []
    for store, indexes in represented.items():
        rows = [store.row_of[held[index][0][1][0]] for index in indexes]
        scores, slots = _score_rows(
            store, resources, rows, [unit], type_i_fp, query_keys
        )
        for position, (index, score) in enumerate(zip(indexes, scores)):
            members[index] = [
                ((holder, score, slots, position), ids)
                for holder, ids in held[index]
            ]
            heap.append((-score, index))
    heapq.heapify(heap)
    size = sum(len(ids) for holding in held for _, ids in holding) - sum(
        record_id in store.row_of for store in stores for record_id in exclude
    )
    return ClassRankedPool(
        size if top_k is None else min(top_k, size),
        _by_class(heap, members, exclude),
        len(held),
    )
