"""The columnar top-k ranking engine (Eq. 5).

Written from the paper, Eq. 5 is a loop over the pool's records and,
inside it, over the question's conditions — a dict lookup and a
similarity call per check — followed by a full sort, although the
pipeline presents at most 30 answers (``tests/reference_rank.py``
keeps that statement).  This module does the work around the table,
not the record:

* :class:`ColumnStore` materializes contiguous per-column arrays:
  stored categorical strings, parsed floats for numeric columns, and
  the Type I key tuple per row.  It records the table epoch it
  reflects; the next ranking call after a mutation catches it up from
  the table's delta log (:meth:`ColumnStore.caught_up`: written rows
  are appended, never rewritten, and each catch-up returns a new
  version that owns its ``row_of``) or rebuilds it when the log cannot
  bridge the gap (see :mod:`repro.db.table`) or dead rows would
  outnumber live ones — no manual invalidation.
* :func:`columnar_rank_units` scores a pool **by column**: each scoring
  slot (a condition, or a whole "any" unit) produces a satisfied/
  contribution array over the pool in one tight loop, with per-distinct
  -value memos cached on the store so repeated criteria across
  questions ("make = toyota", "price < 10000") are evaluated once per
  table state.  Scores accumulate slot-by-slot in Eq. 5's order (unit
  by unit, condition by condition), so every float is bit-identical to
  the per-record sum.
* the result is a :class:`RankedPool`: scores and slot satisfaction
  columns are computed up front, but the order and each
  :class:`~repro.ranking.rank_sim.ScoredRecord` only when a position
  is read.  The first read selects the prefix it needs with a bounded
  heap (``heapq.nsmallest`` on the presentation key ``(-score,
  record_id)`` — documented to equal the full sort truncated), a later
  read past
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

Satisfaction comes from the predicate kernel
(:func:`~repro.qa.sql_generation.condition_predicate`) and failure
similarities from the ``TIMatrix``/``WSMatrix``/``Num_Sim`` code.  A
ranking this module cannot give raises
:class:`~repro.errors.RankingError`: resources with no table attached,
or a unit outside the planner (a condition on a column the store
lacks, a mixed "any" unit from hand-built inputs).  A pool record the
caught-up store no longer holds was deleted after the pool was listed;
the pool is a snapshot, so the record is dropped.  The tests hold the
engine to ``tests/reference_rank.py`` bit for bit: a generated
question battery (``tests/test_ranking_parity.py``), every single-unit
shape on the class path (``tests/test_ranked_pool.py``) and the golden
corpus (``tests/test_reference_rank.py``).
"""

from __future__ import annotations

import bisect
import copy
import heapq
from itertools import chain, islice, repeat
from typing import Iterator, Sequence

from repro.db.predicate import NUMERIC, parse_numeric
from repro.db.schema import AttributeType
from repro.db.table import InsertDelta, MutationEvent, Record, Table, UpdateDelta
from repro.errors import RankingError
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
    """One version of a table's append-only columnar image.

    ``row_of`` maps each record id of the table at ``epoch`` to its
    row.  ``records[row]`` is the record, ``categorical[column][row]``
    the stored string (``None`` when absent), ``numeric[column][row]``
    the parsed float (``None`` when absent or unparseable) and
    ``keys[row]`` the Type I key tuple (each Type I column's value as
    a string, ``""`` when absent).

    Rows are never rewritten.  :meth:`caught_up` makes the next
    version, which shares every array and owns a copy of ``row_of``:
    an insert appends the record's row, an update appends a copy of
    the record's row with its changed columns replaced, and a remove
    only drops the id from the new ``row_of``.  A version reaches rows
    only through its own ``row_of``, and no later write touches those
    rows, so an older version (held by a pool paged after writes, or
    by another thread) keeps a whole image for as long as it is read.
    Rows outside the newest ``row_of`` are dead; the rebuild that
    :meth:`caught_up` asks for once they would outnumber the live
    rows drops them.

    ``_slot_memo`` caches, per condition (and per Type I constraint
    fingerprint), the distinct-value → ``(satisfied, contribution)``
    mapping, so the expensive similarity machinery runs once per
    distinct stored value per criterion, across every question asked
    against this table.  The memos are value-keyed, hence
    membership-independent, and every version shares them.
    """

    def __init__(self, table: Table, type_i_columns: Sequence[str]) -> None:
        # Epoch read first: if a mutation lands mid-build, the store is
        # tagged with the older epoch and the next access replays that
        # mutation or rebuilds.  snapshot() copies the record list
        # atomically, so a concurrent insert/delete cannot crash the scan.
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
        self.keys: list[Key] = [self._key(record) for record in records]
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
        #: (see :meth:`classes`).  Each version owns its dict; the
        #: grouping dicts and id tuples in it are never mutated once a
        #: version is published.
        self._groupings: dict[tuple, dict[tuple, tuple[int, ...]]] = {}

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
        """This version's record ids grouped by their values in *columns*.

        ``(values, ids)`` pairs, ids ascending; ``None`` in *columns*
        stands for the Type I key.  The grouping is built on first use
        from ``row_of`` in id order, and :meth:`caught_up` carries it
        into later versions.  Two threads may both build it; they
        build the same grouping and ``setdefault`` keeps one.
        """
        grouping = self._groupings.get(columns)
        if grouping is None:
            row_of = self.row_of
            ids = sorted(row_of)
            rows = [row_of[record_id] for record_id in ids]
            arrays = [self._array(column) for column in columns]
            lists: dict[tuple, list[int]] = {}
            for record_id, values in zip(
                ids, zip(*([array[row] for row in rows] for array in arrays))
            ):
                lists.setdefault(values, []).append(record_id)
            grouping = self._groupings.setdefault(
                columns, {values: tuple(members) for values, members in lists.items()}
            )
        return list(grouping.items())

    def _key(self, record: Record) -> Key:
        return tuple(
            str(record.get(column, "") or "") for column in self.type_i_columns
        )

    def _array(self, column: str | None) -> list:
        if column is None:
            return self.keys
        values = self.numeric.get(column)
        return self.categorical[column] if values is None else values

    def _class_of(self, columns: tuple, row: int) -> tuple:
        return tuple(self._array(column)[row] for column in columns)

    # ------------------------------------------------------------------
    # incremental maintenance: one new version per catch-up
    # ------------------------------------------------------------------
    def caught_up(self, deltas: Sequence[MutationEvent]) -> "ColumnStore | None":
        """The version after *deltas*, the table's log tail since this
        version's epoch (oldest first); ``None`` asks for a rebuild.

        The new version shares the arrays and slot memos, owns a copy
        of ``row_of`` (one C-level ``dict`` copy) and is tagged with the
        last delta's epoch.  Its groupings are this version's, with a
        grouping dict copied the first time a delta moves an id between
        its classes.

        ``None`` comes back when the store does not hold a row the way
        a delta expects (an insert of a row it already holds, a remove
        or update of one it lacks: a build that raced the write), when
        an update changes a column the store lacks, and when dead rows
        would outnumber live ones: the arrays stay within about twice
        the live rows, and each rebuild is paid for by the writes that
        made rows dead.  Catch-ups append to the shared arrays, so the
        caller serializes them (:class:`RankingResources` holds its
        store lock).
        """
        if not deltas:
            return self
        records, keys = self.records, self.keys
        arrays = [
            (name, values, parse_numeric) for name, values in self.numeric.items()
        ] + [(name, values, _text) for name, values in self.categorical.items()]
        # dict.copy() clones the hash table even after a remove left a
        # hole in it; dict(row_of) re-inserts every key then (5x slower).
        row_of = self.row_of.copy()
        groupings = self._groupings.copy()
        copied: set[tuple] = set()
        for delta in deltas:
            record_id = delta.record_id
            old = row_of.get(record_id)
            if isinstance(delta, InsertDelta):
                if old is not None:
                    return None
                record = delta.record
                key = self._key(record)
                row = [convert(record.get(name)) for name, _, convert in arrays]
            elif isinstance(delta, UpdateDelta):
                changed = delta.changed_columns
                if old is None or not all(
                    column in self.numeric or column in self.categorical
                    for column in changed
                ):
                    return None  # a raced build, or schema drift
                if not changed:
                    continue
                new_values = delta.new_values
                record, key = records[old], keys[old]
                if any(column in self._type_i_index for column in changed):
                    parts = list(key)
                    for column in changed:
                        index = self._type_i_index.get(column)
                        if index is not None:
                            parts[index] = str(new_values.get(column) or "")
                    key = tuple(parts)
                row = [
                    convert(new_values.get(name)) if name in changed else values[old]
                    for name, values, convert in arrays
                ]
            else:
                if old is None:
                    return None
                del row_of[record_id]
                self._regroup(groupings, copied, record_id, old, None)
                continue
            # Every value is computed before the first append, so the
            # arrays always grow together.
            new = len(records)
            records.append(record)
            keys.append(key)
            for (_, values, _), value in zip(arrays, row):
                values.append(value)
            row_of[record_id] = new
            self._regroup(groupings, copied, record_id, old, new)
        if len(records) - len(row_of) > len(row_of):
            return None
        version = copy.copy(self)
        version.row_of = row_of
        version._groupings = groupings
        version.epoch = deltas[-1].epoch
        return version

    def _regroup(
        self,
        groupings: dict,
        copied: set,
        record_id: int,
        before: int | None,
        after: int | None,
    ) -> None:
        """Move *record_id* in *groupings* from its class at row
        *before* to its class at row *after* (``None``: absent).  A
        grouping dict is copied the first time it changes in this
        catch-up (*copied* holds the class-column sets already copied);
        id tuples are replaced, never mutated."""
        for columns in list(groupings):
            old = None if before is None else self._class_of(columns, before)
            new = None if after is None else self._class_of(columns, after)
            if old == new:
                continue
            grouping = groupings[columns]
            if columns not in copied:
                grouping = groupings[columns] = grouping.copy()
                copied.add(columns)
            if old is not None:
                ids = grouping.pop(old)
                at = bisect.bisect_left(ids, record_id)
                if len(ids) > 1:
                    grouping[old] = ids[:at] + ids[at + 1 :]
            if new is not None:
                ids = grouping.get(new, ())
                at = bisect.bisect_left(ids, record_id)
                grouping[new] = ids[:at] + (record_id,) + ids[at:]


def _text(value: object) -> str | None:
    """A categorical column's stored string (``None`` when absent)."""
    return None if value is None else str(value)


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


def _check_planned(store: ColumnStore, units: Sequence[ScoringUnit]) -> None:
    """Raise :class:`RankingError` for a unit no slot evaluator covers."""
    for unit in units:
        if unit.mode == "any" and len(unit.conditions) > 1:
            # Multi-branch "any" units must be numeric branches that are
            # all positive (Num_Sim, what relaxation_units produces) or
            # all negated (every violated branch scores 0.0), so the
            # failed kind is static.
            negated = unit.conditions[0].negated
            if not all(
                condition.negated == negated and _is_numeric_style(condition)
                for condition in unit.conditions
            ):
                raise RankingError(
                    "an 'any' unit ranks only all-positive or all-negated "
                    "numeric branches, got "
                    + " OR ".join(c.describe() for c in unit.conditions)
                )
        for condition in unit.conditions:
            if not _condition_supported(store, condition):
                raise RankingError(
                    f"table {store.table_name!r} has no rankable column "
                    f"for {condition.describe()!r}"
                )


def _stores(resources: RankingResources) -> list[ColumnStore]:
    """The column stores to rank on: one per shard of a sharded table,
    else one; :class:`RankingError` when no table is attached."""
    stores = resources.shard_column_stores()
    if stores is None:
        store = resources.column_store()
        if store is None:
            raise RankingError(
                "the ranking resources have no table attached "
                "(RankingResources.attach_table)"
            )
        stores = [store]
    return stores


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
        # best branch is a plain running max from 0.0.
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

    Slots come in Eq. 5's order: each condition of an "all" unit is its
    own slot, a multi-branch "any" unit is one slot.  Accumulating
    slot-by-slot reproduces the per-record addition order, so scores
    are bit-identical to a record-by-record sum — and per-record, so
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
            # _check_planned() guaranteed homogeneous numeric branches,
            # so the best branch's kind is the same for every row.
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
    """The first *k* pool indices in presentation order.

    nsmallest on the ``(-score, record_id)`` key is documented
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
    the ``(-score, record_id)`` key.  The first read (an index
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
) -> RankedPool:
    """Rank *records* by Eq. 5 over *units*, best first.

    Reads like the full sort by ``(-score, record_id)`` cut to
    ``top_k``, but as a :class:`RankedPool`, which orders and builds
    only the positions read.  A record the caught-up store no longer
    holds is dropped; :class:`RankingError` when no table is attached
    or a unit is outside the planner.  When the resources' table is a
    :class:`repro.shard.table.ShardedTable` the scoring scatters across
    per-shard column stores (see :func:`sharded_rank_units`).
    """
    table = resources.table
    if table is not None and getattr(table, "shards", None) is not None:
        return sharded_rank_units(resources, table, records, units, top_k)
    (store,) = _stores(resources)
    _check_planned(store, units)
    row_of = store.row_of
    records = [record for record in records if record.record_id in row_of]
    rows = [row_of[record.record_id] for record in records]
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
) -> RankedPool:
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
    vanished from its shard is dropped, like on a plain table.
    """
    stores = _stores(resources)
    # Planning is schema-determined, hence identical across shards.
    _check_planned(stores[0], units)
    groups: list[list[Record]] = [[] for _ in stores]
    for record in records:
        index = table.shard_of(record.record_id)
        if record.record_id in stores[index].row_of:
            groups[index].append(record)
    type_i_fp, query_keys = _query_fingerprint(resources, units)

    def score_shard(index: int, _shard: Table):
        store = stores[index]
        rows = [store.row_of[record.record_id] for record in groups[index]]
        return _score_rows(store, resources, rows, units, type_i_fp, query_keys)

    gathered = table.map_shards(score_shard)
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
    *i* is the *i*-th record by the ``(-score, record_id)`` key.
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
) -> ClassRankedPool:
    """Rank the whole table but *exclude* on one relaxation unit.

    A one-unit question relaxes to the whole table (Section 4.3.1), and
    a record's Eq. 5 score there depends only on its values in the
    unit's class columns (:func:`_class_columns`).  So each store's
    grouping by those values (:meth:`ColumnStore.classes`; one store
    per shard, gathered through ``map_shards``) is scored one
    representative row per class through :func:`_score_rows` — every
    float, failed tuple and kind is the row engine's — and the classes
    are read best first by :class:`ClassRankedPool`.  Its length is the
    pool size, capped at *top_k*.  :class:`RankingError` when no table
    is attached or *unit* is outside the planner.
    """
    table = resources.table
    stores = _stores(resources)
    _check_planned(stores[0], [unit])
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
