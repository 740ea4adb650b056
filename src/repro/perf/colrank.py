"""The columnar top-k ranking engine (Eq. 5, fast path).

The legacy :class:`~repro.ranking.rank_sim.RankSimRanker` walks every
pooled record with nested per-record/per-condition Python loops — a
dict lookup, a string lowering and a method-call chain per check — and
then fully sorts the pool even though the pipeline presents at most 30
answers.  This module restructures that work around the table, not the
record:

* :class:`ColumnStore` materializes, once per **table epoch**,
  contiguous per-column arrays: stored categorical strings, parsed
  floats for numeric columns, and the Type I key tuple per row.  A
  mutation bumps the epoch (see :mod:`repro.db.table`) and the next
  ranking call rebuilds the store — no manual invalidation.
* :func:`columnar_rank_units` scores a pool **by column**: each scoring
  slot (a condition, or a whole "any" unit) produces a satisfied/
  contribution array over the pool in one tight loop, with per-distinct
  -value memos cached on the store so repeated criteria across
  questions ("make = toyota", "price < 10000") are evaluated once per
  table state.  Scores accumulate slot-by-slot in the legacy addition
  order, so every float is bit-identical to the per-record path.
* selection is a bounded heap (``heapq.nsmallest`` on the legacy
  ``(-score, record_id)`` key — documented to equal the full sort
  truncated), and :class:`~repro.ranking.rank_sim.ScoredRecord`
  objects are only constructed for the rows actually returned.

Parity is structural: satisfaction uses the same comparisons, failure
similarities call the same ``TIMatrix``/``WSMatrix``/``Num_Sim`` code,
and anything the planner does not recognize (a condition on an
unknown column, a mixed-type "any" unit from hand-built inputs, a
record outside the store) returns ``None`` so the caller falls back to
the legacy engine wholesale.  ``tests/test_ranking_parity.py`` holds
the bit-identical guarantee across a generated question battery.

One deliberate divergence: a stored non-numeric value in a numeric
comparison is treated as NULL throughout (contribution 0.0), where the
legacy failure path would raise ``ValueError``; schema validation
makes such values unstorable, so the case is unreachable from tables.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Sequence

from repro.db.schema import AttributeType
from repro.db.table import (
    BatchDelta,
    InsertDelta,
    MutationEvent,
    Record,
    RemoveDelta,
    Table,
    UpdateDelta,
)
from repro.perf.window import parse_numeric
from repro.qa.conditions import Condition, ConditionOp
from repro.ranking.num_sim import condition_num_sim
from repro.ranking.rank_sim import (
    Key,
    RankingResources,
    ScoredRecord,
    ScoringUnit,
)

__all__ = ["ColumnStore", "columnar_rank_units", "sharded_rank_units"]

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
                    self._parse_numeric(record.get(name)) for record in records
                ]
            else:
                self.categorical[name] = [
                    None if value is None else str(value)
                    for value in (record.get(name) for record in records)
                ]
        self._slot_memo: dict[object, dict] = {}
        #: True when this store was produced by a copy-on-write update
        #: and still *shares* list objects with its predecessor — the
        #: in-place append fast path must not mutate those shared
        #: lists, or the predecessor's snapshot tears (see
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

    # ------------------------------------------------------------------
    # incremental maintenance (delta patching)
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_numeric(value: object) -> float | None:
        """Exactly the build-time float parse, for bit-identical slots.

        Delegates to :func:`repro.perf.window.parse_numeric` — the one
        definition the ordered windows also use, so "what counts as a
        numeric value" cannot drift between the two accelerators.
        """
        return parse_numeric(value)

    def apply(
        self, delta: MutationEvent, epoch: int | None = None
    ) -> "ColumnStore | None":
        """Absorb one typed mutation delta; ``None`` = rebuild instead.

        Returns the store reflecting the post-delta table state — the
        slot memos are value-keyed, so they survive every patch:

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
          concurrent readers never see rows shift under their indices;
        * a :class:`~repro.db.table.BatchDelta` folds its row deltas.

        *epoch* overrides the target epoch tag (per-shard stores are
        patched from facade-stamped deltas using the shard's own
        epoch).  ``None`` comes back for anything else: an epoch gap
        (the store missed deltas — e.g. a listener detach window), an
        unknown row, or an untyped event.  The caller then falls back
        to the epoch-rebuild path, which stays the parity oracle.
        """
        if isinstance(delta, BatchDelta):
            if epoch is not None:
                return None  # per-shard replay needs per-row epochs
            if not delta.deltas:
                return None
            store: "ColumnStore | None" = self
            for sub in delta.deltas:
                store = store.apply(sub)
                if store is None:
                    return None
            return store
        target = delta.epoch if epoch is None else epoch
        if target != self.epoch + 1:
            return None
        if isinstance(delta, UpdateDelta):
            return self._apply_update(delta, target)
        if isinstance(delta, InsertDelta):
            if delta.record is None:
                return None
            return self._apply_insert(delta.record, target)
        if isinstance(delta, RemoveDelta):
            return self._apply_remove(delta.record_id, target)
        return None

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
                patched[row] = self._parse_numeric(value)
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
        row = len(self.records)
        self.records.append(record)
        self.keys.append(
            tuple(
                str(record.get(column, "") or "")
                for column in self.type_i_columns
            )
        )
        for name, column in self.numeric.items():
            column.append(self._parse_numeric(record.get(name)))
        for name, column in self.categorical.items():
            value = record.get(name)
            column.append(None if value is None else str(value))
        self.row_of[record_id] = row
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
                values, None if record is None else self._parse_numeric(record.get(name))
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
        clone.epoch = target
        return clone


# ----------------------------------------------------------------------
# planning: which shapes the columnar evaluators cover
# ----------------------------------------------------------------------
def _is_numeric_style(condition: Condition) -> bool:
    """Mirror of the legacy satisfaction dispatch: numeric comparison
    when the target is a number or a BETWEEN range, string otherwise."""
    return condition.op is ConditionOp.BETWEEN or isinstance(
        condition.value, (int, float)
    )


def _condition_supported(store: ColumnStore, condition: Condition) -> bool:
    if _is_numeric_style(condition):
        # Numeric comparisons need the parsed-float column; the failed
        # similarity is Num_Sim (Type III) or zero (negation).
        return condition.column in store.numeric and (
            condition.negated
            or condition.attribute_type is AttributeType.TYPE_III
        )
    if condition.column not in store.categorical:
        return False
    if condition.negated:
        return True  # violated negations contribute 0.0, any type
    if condition.attribute_type is AttributeType.TYPE_I:
        return condition.column in store._type_i_index
    # Type II string similarity; a Type III condition with a string
    # target would send a non-float into Num_Sim — legacy territory.
    return condition.attribute_type is AttributeType.TYPE_II


def _supports(store: ColumnStore, units: Sequence[ScoringUnit]) -> bool:
    for unit in units:
        if unit.mode == "any" and len(unit.conditions) > 1:
            # Multi-branch "any" units must be homogeneous Num_Sim
            # branches (what relaxation_units produces) so the failed
            # kind is statically "Num_Sim"; exotic hand-built mixes
            # keep their legacy best-kind bookkeeping.
            if not all(
                condition.attribute_type is AttributeType.TYPE_III
                and not condition.negated
                and _is_numeric_style(condition)
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
    target = str(condition.value).lower()
    target_raw = str(condition.value)
    negated = condition.negated
    is_ne = condition.op is ConditionOp.NE
    type_ii = condition.attribute_type is AttributeType.TYPE_II
    value_similarity = resources.ws_matrix.value_similarity
    sat_out: list[bool] = []
    contrib_out: list[float] = []
    for row in rows:
        value = column[row]
        entry = memo_get(value)
        if entry is None:
            if value is None:
                sat = negated
            else:
                text = value.lower()
                matches = (text != target) if is_ne else (text == target)
                sat = matches != negated
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
    target = str(condition.value).lower()
    is_ne = condition.op is ConditionOp.NE
    normalized = resources.ti_matrix.normalized
    sat_out: list[bool] = []
    contrib_out: list[float] = []
    for row in rows:
        key = keys[row]
        entry = memo_get(key)
        if entry is None:
            raw = key[index]
            # "" in the key means the value was absent: a missing value
            # fails a positive condition (this path is never negated).
            if raw == "":
                sat = False
            else:
                text = raw.lower()
                sat = (text != target) if is_ne else (text == target)
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
    negated = condition.negated
    op = condition.op
    value_range = resources.value_ranges.get(condition.column, 0.0)
    sat_out: list[bool] = []
    contrib_out: list[float] = []
    if op is ConditionOp.BETWEEN:
        low, high = condition.value  # type: ignore[misc]
        low_f, high_f = float(low), float(high)
        for row in rows:
            number = column[row]
            if number is None:
                sat = negated
            else:
                sat = (low_f <= number <= high_f) != negated
            if sat:
                contrib = 1.0
            elif negated or number is None:
                contrib = 0.0
            else:
                contrib = condition_num_sim(condition, number, value_range)
            sat_out.append(sat)
            contrib_out.append(contrib)
        return sat_out, contrib_out
    target = float(condition.value)  # type: ignore[arg-type]
    for row in rows:
        number = column[row]
        if number is None:
            sat = negated
        else:
            if op is ConditionOp.EQ:
                raw_sat = number == target
            elif op is ConditionOp.NE:
                raw_sat = number != target
            elif op is ConditionOp.LT:
                raw_sat = number < target
            elif op is ConditionOp.LE:
                raw_sat = number <= target
            elif op is ConditionOp.GT:
                raw_sat = number > target
            else:
                raw_sat = number >= target
            sat = raw_sat != negated
        if sat:
            contrib = 1.0
        elif negated or number is None:
            contrib = 0.0
        else:
            contrib = condition_num_sim(condition, number, value_range)
        sat_out.append(sat)
        contrib_out.append(contrib)
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
            # _supports() guaranteed homogeneous Type III branches, so
            # the legacy best-kind bookkeeping always lands on Num_Sim.
            slot_list = [(unit.conditions, "Num_Sim", sat, contrib)]
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


def _select(
    scores: list[float], record_ids: list[int], top_k: int | None
) -> list[int]:
    """Pool indices in the legacy presentation order, bounded by top_k.

    nsmallest on the legacy ``(-score, record_id)`` key is documented
    as ``sorted(...)[:k]``, ties (equal scores) included.
    """

    def sort_key(index: int) -> tuple[float, int]:
        return (-scores[index], record_ids[index])

    if top_k is None:
        return sorted(range(len(scores)), key=sort_key)
    return heapq.nsmallest(top_k, range(len(scores)), key=sort_key)


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


def columnar_rank_units(
    resources: RankingResources,
    records: list[Record],
    units: Sequence[ScoringUnit],
    top_k: int | None,
) -> list[ScoredRecord] | None:
    """Rank *records* columnar-ly; ``None`` means "use the legacy path".

    Returns exactly what the legacy ``rank_units`` (full sort, then
    ``[:top_k]``) returns: same records, same float scores, same failed
    tuples, same kinds, same order.  When the resources' table is a
    :class:`repro.shard.table.ShardedTable` the work scatters:
    per-shard column stores score each shard's slice of the pool and
    per-shard top-k selections merge into the global bounded result
    (see :func:`sharded_rank_units`).
    """
    table = resources.table
    if table is not None and getattr(table, "shards", None) is not None:
        return sharded_rank_units(resources, table, records, units, top_k)
    store = resources.column_store()
    if store is None:
        return None
    if not records:
        return []
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
    record_ids = [record.record_id for record in records]
    order = _select(scores, record_ids, top_k)
    return [_emit(records[i], scores[i], slots, i) for i in order]


def sharded_rank_units(
    resources: RankingResources,
    table: Table,
    records: list[Record],
    units: Sequence[ScoringUnit],
    top_k: int | None,
) -> list[ScoredRecord] | None:
    """Scatter-gather ranking over a sharded table's pool.

    The pool partitions by record placement; each shard's slice is
    scored against that shard's own per-epoch column store and reduced
    to a local ``top_k`` selection, and the local selections merge on
    the legacy ``(-score, record_id)`` key into the global bounded
    result.  The merge is exact: any record in the global top-k is by
    definition within its own shard's top-k, and the key is a total
    order (ids are unique), so the merged prefix equals the
    single-store selection bit-for-bit.

    Shard tasks run through :meth:`ShardedTable.map_shards` — inline on
    a single-core box, fanned out on the facade's dedicated scatter
    executor otherwise (never a shared service pool, so a scatter
    issued from inside ``answer_batch`` cannot deadlock it).

    Consistency under concurrent mutation: each shard's store pins the
    shard's epoch *before* copying its snapshot, so a mid-flight
    insert is either absent from that store or irrelevant (it cannot
    be in the pool, which was gathered earlier); a pool record that
    vanished from its shard makes this function return ``None`` and
    the caller re-scores the live records on the legacy path.
    """
    if not records:
        return []
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
        group = groups[index]
        if not group:
            return ()
        store = stores[index]
        try:
            rows = [store.row_of[record.record_id] for record in group]
        except KeyError:
            return None  # pool record mutated away mid-flight
        scores, slots = _score_rows(
            store, resources, rows, units, type_i_fp, query_keys
        )
        order = _select(scores, [record.record_id for record in group], top_k)
        return group, scores, slots, order

    gathered = table.map_shards(score_shard)
    if any(result is None for result in gathered):
        return None
    merged: list[tuple[float, int, int, int]] = []
    for shard_index, result in enumerate(gathered):
        if not result:
            continue
        group, scores, _slots, order = result
        for local in order:
            merged.append(
                (-scores[local], group[local].record_id, shard_index, local)
            )
    merged.sort()
    if top_k is not None:
        merged = merged[:top_k]
    results: list[ScoredRecord] = []
    for _neg_score, _record_id, shard_index, local in merged:
        group, scores, slots, _order = gathered[shard_index]
        results.append(_emit(group[local], scores[local], slots, local))
    return results
