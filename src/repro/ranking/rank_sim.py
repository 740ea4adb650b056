"""Rank_Sim: ordering partially-matched answers (Eq. 5 of the paper).

For a question with conditions C1..CN and a partially-matched record
r, every satisfied condition contributes 1 (the "(N-1)" term of Eq. 5
— with the N-1 relaxation exactly one condition fails) and every
failed condition contributes its type-specific similarity:

* Type I   — TI_Sim from the query-log matrix, normalized by the
  matrix maximum;
* Type II  — Feat_Sim from the WS-matrix, normalized likewise;
* Type III — Num_Sim (Eq. 4) against the attribute's value range.

Records are then presented in descending Rank_Sim order, which is the
ordering of the paper's Table 2.

Whether a condition is satisfied is never decided here:
:func:`condition_satisfied` asks the predicate kernel
(:mod:`repro.db.predicate`) through the condition's SQL rendering, so
a record is an exact match for Rank_Sim exactly when the SQL executor
returns it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.db.schema import AttributeType
from repro.db.table import BatchDelta, MutationEvent, Record, Table, UpdateDelta
from repro.qa.conditions import Condition
from repro.qa.sql_generation import condition_predicate
from repro.ranking.num_sim import condition_num_sim
from repro.ranking.ti_matrix import TIMatrix
from repro.ranking.ws_matrix import WSMatrix

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycle
    from repro.perf.colrank import ColumnStore

__all__ = [
    "condition_satisfied",
    "RankingResources",
    "RankSimRanker",
    "ScoredRecord",
    "ScoringUnit",
]

Key = tuple[str, ...]


@dataclass(frozen=True)
class ScoringUnit:
    """One relaxable criterion of a question (Section 4.3.1).

    ``mode`` is ``"all"`` for ordinary criteria (a Type I anchor's
    make+model both count, per Table 2) and ``"any"`` for the
    alternative readings of an incomplete number (Section 4.2.2),
    where the best branch carries the unit.
    """

    conditions: tuple[Condition, ...]
    mode: str = "all"  # "all" | "any"

    def __hash__(self) -> int:
        # Same memoization (and pickle hygiene) as Condition: units are
        # fragment-cache keys, hashed dozens of times per question.
        cached = self.__dict__.get("_cached_hash")
        if cached is None:
            cached = hash((self.conditions, self.mode))
            object.__setattr__(self, "_cached_hash", cached)
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        return state


def condition_satisfied(condition: Condition, record: Record) -> bool:
    """Does *record* satisfy *condition* exactly?

    The verdict is the predicate kernel's
    (:func:`~repro.qa.sql_generation.condition_predicate`), so it
    always agrees with the SQL executor's answer to the condition.
    """
    return condition_predicate(condition).matches(record)


@dataclass
class RankingResources:
    """The similarity resources of one domain.

    ``value_ranges`` maps each numeric column to its
    ``Attribute_Value_Range`` (Eq. 4); ``type_i_columns`` is the
    ordered identity-column list; ``product_keys`` enumerates the known
    product identities so partial Type I matches ("any Honda") can be
    resolved against the TI-matrix.
    """

    ti_matrix: TIMatrix
    ws_matrix: WSMatrix
    value_ranges: dict[str, float]
    type_i_columns: list[str]
    product_keys: list[Key] = field(default_factory=list)
    #: Per-record Type I key memo (keyed by the table's stable
    #: ``record_id``, evicted on updates and deletes, see
    #: PERFORMANCE.md).  Shared across questions so ``rank_units`` stops
    #: re-stringifying every record per question; dict writes are atomic
    #: under the GIL and racing writers store equal values, so the
    #: memo is safe under ``answer_batch`` concurrency.
    _record_keys: dict[int, Key] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: The backing table, attached by :meth:`attach_table` when the
    #: domain is registered.  Enables the columnar ranking engine
    #: (:mod:`repro.perf.colrank`): without a table, rankers fall back
    #: to the per-record legacy path.
    table: Table | None = None
    _column_store: "ColumnStore | None" = field(
        default=None, repr=False, compare=False
    )
    #: Per-shard column stores when the attached table is a
    #: :class:`repro.shard.table.ShardedTable` — one store per shard,
    #: each keyed on its shard's **own** epoch, so a point mutation
    #: rebuilds one store of N instead of the whole-table image.
    _shard_stores: "list[ColumnStore | None] | None" = field(
        default=None, repr=False, compare=False
    )
    #: Cross-question memo of :meth:`query_keys` results, keyed by the
    #: sorted Type I constraint items.  ``product_keys`` is static for
    #: the life of the resources object, so entries never go stale.
    _query_keys_memo: dict[tuple, list[Key]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Row deltas received since the stores last caught up, drained
    #: under ``_store_lock`` by :meth:`column_store` /
    #: :meth:`shard_column_stores`.  Overflow (or an un-replayable
    #: event) poisons the buffer and forces one rebuild.
    _pending_deltas: list[MutationEvent] = field(
        default_factory=list, repr=False, compare=False
    )
    _pending_overflow: bool = field(default=False, repr=False, compare=False)
    _store_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    #: Buffered deltas beyond this force a rebuild instead — a bulk
    #: load patched row-by-row would do more work than one rebuild.
    MAX_PENDING_DELTAS = 256

    def attach_table(self, table: Table) -> None:
        """Bind these resources to their backing *table*.

        Turns on the columnar engine (``column_store``) and subscribes
        to the table's mutation epochs so the per-record key memo cannot
        serve values from before an update.
        """
        if self.table is table:
            return
        if self.table is not None:
            self.table.remove_listener(self._on_mutation)
        # Mutations that happened while detached (or against a previous
        # table) fired no listener here — start the per-record memo
        # clean so a re-attach can never resurrect pre-update values.
        # The delta buffer starts clean too: any store epoch gap left
        # by the detach window falls back to a rebuild (the deltas to
        # bridge it were never delivered).
        self._record_keys.clear()
        self.table = table
        self._shard_stores = None
        with self._store_lock:
            self._pending_deltas.clear()
            self._pending_overflow = False
        table.add_listener(self._on_mutation)

    def detach_table(self) -> None:
        """Unsubscribe from the table and drop the column stores.

        Rankers fall back to the legacy engine until a re-attach
        (:meth:`repro.qa.pipeline.CQAds.context` re-attaches lazily on
        next use).  Idempotent.
        """
        if self.table is not None:
            self.table.remove_listener(self._on_mutation)
            self.table = None
        self._column_store = None
        self._shard_stores = None
        with self._store_lock:
            self._pending_deltas.clear()
            self._pending_overflow = False

    def _on_mutation(self, event: MutationEvent) -> None:
        # Inserts never touch existing ids and deletes merely leave
        # dead entries, but an update changes the values behind a
        # cached id — evict that record's key.  A typed UpdateDelta
        # says *which* columns moved, so the key goes only when a
        # Type I column did; an untyped update event evicts it always.
        if isinstance(event, BatchDelta) and not event.deltas:
            # A batch stripped of its row payloads (a shard-level bulk
            # issued past the facade): the affected ids are unknowable,
            # so evict the per-record memo wholesale — the resurrection
            # guard below cannot cover rows it never saw.
            self._record_keys.clear()
        row_deltas = (
            event.deltas
            if isinstance(event, BatchDelta) and event.deltas
            else (event,)
        )
        dead_ids: set[int] = set()
        for delta in row_deltas:
            if delta.kind == "insert":
                continue  # a fresh id holds no memos... unless reused —
                # reused ids are handled by the delete eviction below.
            if delta.kind == "update" and isinstance(delta, UpdateDelta):
                changed = delta.changed_columns
                if any(column in self.type_i_columns for column in changed):
                    self._record_keys.pop(delta.record_id, None)
            else:
                # Deletes (and untyped update events) evict the record
                # wholesale: ids are normally never reused, but
                # Table.insert(record_id=) may resurrect one, and a
                # ghost memo must not score the new record with the
                # dead record's key.
                dead_ids.add(delta.record_id)
        for record_id in dead_ids:
            self._record_keys.pop(record_id, None)
        # Buffer the row deltas for the lazy column-store catch-up.
        # An event that cannot be replayed (a batch stripped of its
        # rows) or a buffer past the rebuild-is-cheaper threshold
        # poisons the buffer; the next store access rebuilds once.
        with self._store_lock:
            if self._pending_overflow:
                return
            if isinstance(event, BatchDelta) and not event.deltas:
                self._pending_deltas.clear()
                self._pending_overflow = True
                return
            if (
                len(self._pending_deltas) + len(row_deltas)
                > self.MAX_PENDING_DELTAS
            ):
                self._pending_deltas.clear()
                self._pending_overflow = True
                return
            self._pending_deltas.extend(row_deltas)

    def column_store(self) -> "ColumnStore | None":
        """The columnar image of the attached table at its current epoch.

        Caught up lazily whenever the table's epoch has moved: the
        buffered typed deltas are folded into the existing store via
        :meth:`~repro.perf.colrank.ColumnStore.apply` — per-slot
        patches instead of re-deriving every row — and only a delta
        the store cannot absorb (epoch gap, untyped event, overflow)
        falls back to the epoch rebuild.  ``None`` when no table is
        attached.  Catch-up runs under ``_store_lock`` so concurrent
        ``answer_batch`` threads never double-apply a delta.
        """
        table = self.table
        if table is None:
            return None
        store = self._column_store
        if store is not None and store.epoch == table.epoch:
            return store
        from repro.perf.colrank import ColumnStore

        with self._store_lock:
            table = self.table
            if table is None:
                return None
            store = self._column_store
            if store is not None and store.epoch == table.epoch:
                return store
            if store is not None and not self._pending_overflow:
                for delta in self._pending_deltas:
                    if delta.epoch <= store.epoch:
                        continue  # already reflected (post-rebuild replay)
                    patched = store.apply(delta)
                    if patched is None:
                        store = None
                        break
                    store = patched
            else:
                store = None
            if store is None or store.epoch != table.epoch:
                store = ColumnStore(table, self.type_i_columns)
            self._column_store = store
            self._pending_deltas.clear()
            self._pending_overflow = False
            return store

    def shard_column_stores(self) -> "list[ColumnStore] | None":
        """One columnar image per shard of an attached sharded table.

        ``None`` when no table is attached or the table is unsharded.
        Each store is keyed on its shard's own epoch and rebuilt
        independently, so a mutation to one shard leaves the sibling
        stores warm — the whole-table :meth:`column_store` would
        rebuild all N-shards' worth of rows instead.  List-slot writes
        are atomic under the GIL; racing rebuilds each produce an
        equally valid store.
        """
        table = self.table
        if table is None:
            return None
        shards = getattr(table, "shards", None)
        if shards is None:
            return None
        # Lock-free fast path (mirroring column_store): read-only
        # streams with every store current and nothing buffered never
        # touch the mutex.  A racing mutation makes an epoch mismatch
        # or a pending delta visible, sending us to the locked path.
        stores = self._shard_stores
        if (
            stores is not None
            and not self._pending_deltas
            and not self._pending_overflow
        ):
            current = list(stores)
            if all(
                store is not None and store.epoch == shard.epoch
                for store, shard in zip(current, shards)
            ):
                return current  # type: ignore[return-value]
        from repro.perf.colrank import ColumnStore

        with self._store_lock:
            stores = self._shard_stores
            if stores is None:
                stores = [None] * len(shards)
                self._shard_stores = stores
            if not self._pending_overflow:
                # Fold the buffered facade-stamped deltas into each
                # owning shard's store, using the shard's own epoch as
                # the version tag; any delta that cannot land leaves
                # its shard's store stale, and only that shard rebuilds
                # below — siblings stay warm either way.
                for delta in self._pending_deltas:
                    index = delta.shard_index
                    if index is None or delta.shard_epoch is None:
                        continue
                    store = stores[index]
                    if store is None or delta.shard_epoch <= store.epoch:
                        continue
                    patched = store.apply(delta, epoch=delta.shard_epoch)
                    if patched is not None:
                        stores[index] = patched
            self._pending_deltas.clear()
            self._pending_overflow = False
            current: list["ColumnStore"] = []
            for index, shard in enumerate(shards):
                store = stores[index]
                if store is None or store.epoch != shard.epoch:
                    store = ColumnStore(shard, self.type_i_columns)
                    stores[index] = store
                current.append(store)
            return current

    def record_key(self, record: Record) -> Key:
        key = self._record_keys.get(record.record_id)
        if key is None:
            key = tuple(
                str(record.get(column, "") or "") for column in self.type_i_columns
            )
            self._record_keys[record.record_id] = key
        return key

    def query_keys(self, type_i_values: dict[str, str]) -> list[Key]:
        """Product keys consistent with the question's Type I values.

        A question naming only a make matches every model of that make;
        the TI similarity of a record is the best over the candidates.
        Results are memoized across questions (the key product for
        "honda accord" is the same whoever asks); callers must treat
        the returned list as read-only.
        """
        fingerprint = tuple(sorted(type_i_values.items()))
        cached = self._query_keys_memo.get(fingerprint)
        if cached is not None:
            return cached
        constraints = [
            (self.type_i_columns.index(column), value)
            for column, value in type_i_values.items()
            if column in self.type_i_columns
        ]
        keys = [
            key
            for key in self.product_keys
            if all(key[index] == value for index, value in constraints)
        ]
        if len(self._query_keys_memo) >= 1024:
            self._query_keys_memo = {}  # bound arbitrary user criteria
        self._query_keys_memo[fingerprint] = keys
        return keys


@dataclass(frozen=True)
class ScoredRecord:
    """A record with its Rank_Sim score and the failing conditions."""

    record: Record
    score: float
    failed: tuple[Condition, ...]
    similarity_kind: str  # "exact" | "TI_Sim" | "Feat_Sim" | "Num_Sim" | "mixed"


class RankSimRanker:
    """Scores and orders partially-matched records per Eq. 5.

    Two engines produce bit-identical output
    (``tests/test_ranking_parity.py``):

    * ``"columnar"`` (default) — scores through the table's per-epoch
      :class:`~repro.perf.colrank.ColumnStore` (array lookups instead
      of per-record dict walking) and returns a
      :class:`~repro.perf.colrank.RankedPool`, which orders and builds
      only the positions read.  Falls back to the legacy path
      automatically when no table is attached to the resources or a
      condition shape is outside the columnar planner.
    * ``"legacy"`` — the original per-record scoring and full sort,
      kept as the parity oracle.
    """

    ENGINES = ("columnar", "legacy")

    def __init__(
        self, resources: RankingResources, engine: str = "columnar"
    ) -> None:
        if engine not in self.ENGINES:
            raise ValueError(
                f"engine must be one of {self.ENGINES}, got {engine!r}"
            )
        self.resources = resources
        self.engine = engine

    def _resolve_engine(self, engine: str | None) -> str:
        if engine is None:
            return self.engine
        if engine not in self.ENGINES:
            raise ValueError(
                f"engine must be one of {self.ENGINES}, got {engine!r}"
            )
        return engine

    def _columnar(
        self,
        records: list[Record],
        units: list[ScoringUnit],
        top_k: int | None,
    ) -> Sequence[ScoredRecord] | None:
        # Imported here: colrank needs ScoredRecord/ScoringUnit from
        # this module, so a top-level import would cycle.
        from repro.perf.colrank import columnar_rank_units

        return columnar_rank_units(self.resources, records, units, top_k)

    # ------------------------------------------------------------------
    def score(
        self, record: Record, conditions: list[Condition]
    ) -> ScoredRecord:
        """Rank_Sim(record, Q) for a question's exact conditions."""
        type_i_values = {
            condition.column: str(condition.value)
            for condition in conditions
            if condition.attribute_type is AttributeType.TYPE_I
            and not condition.negated
        }
        query_keys = self.resources.query_keys(type_i_values)
        score = 0.0
        failed: list[Condition] = []
        kinds: set[str] = set()
        for condition in conditions:
            if condition_satisfied(condition, record):
                score += 1.0
                continue
            failed.append(condition)
            similarity, kind = self._failed_similarity(
                condition, record, query_keys, {}
            )
            score += similarity
            kinds.add(kind)
        if not failed:
            kind = "exact"
        elif len(kinds) == 1:
            kind = kinds.pop()
        else:
            kind = "mixed"
        return ScoredRecord(
            record=record, score=score, failed=tuple(failed), similarity_kind=kind
        )

    def rank(
        self,
        records: list[Record],
        conditions: list[Condition],
        top_k: int | None = None,
        engine: str | None = None,
    ) -> Sequence[ScoredRecord]:
        """Order *records* by descending Rank_Sim (ties by record id).

        Per-condition scoring is the degenerate unit case (every
        condition its own slot), so the columnar engine serves it too.
        """
        if self._resolve_engine(engine) == "columnar":
            units = [
                ScoringUnit(conditions=(condition,)) for condition in conditions
            ]
            selected = self._columnar(records, units, top_k)
            if selected is not None:
                return selected
        scored = [self.score(record, conditions) for record in records]
        scored.sort(key=lambda item: (-item.score, item.record.record_id))
        if top_k is not None:
            scored = scored[:top_k]
        return scored

    # ------------------------------------------------------------------
    def score_units(
        self, record: Record, units: list[ScoringUnit]
    ) -> ScoredRecord:
        """Eq. 5 over relaxation units instead of raw conditions.

        An "all" unit scores its leaves individually (satisfied leaves
        contribute 1, failed ones their similarity — Table 2's
        treatment of make+model).  An "any" unit contributes the best
        of its branches: 1 when some branch is satisfied, otherwise the
        maximum branch similarity.
        """
        query_keys = self._query_keys_for_units(units)
        return self._score_units_with_keys(record, units, query_keys, {})

    def _query_keys_for_units(self, units: list[ScoringUnit]) -> list[Key]:
        all_conditions = [
            condition for unit in units for condition in unit.conditions
        ]
        type_i_values = {
            condition.column: str(condition.value)
            for condition in all_conditions
            if condition.attribute_type is AttributeType.TYPE_I
            and not condition.negated
        }
        return self.resources.query_keys(type_i_values)

    def _score_units_with_keys(
        self,
        record: Record,
        units: list[ScoringUnit],
        query_keys: list[Key],
        ti_cache: dict[Key, float],
    ) -> ScoredRecord:
        score = 0.0
        failed: list[Condition] = []
        kinds: set[str] = set()
        for unit in units:
            if unit.mode == "any":
                if any(
                    condition_satisfied(condition, record)
                    for condition in unit.conditions
                ):
                    score += 1.0
                    continue
                best = 0.0
                best_kind = "Num_Sim"
                for condition in unit.conditions:
                    similarity, kind = self._failed_similarity(
                        condition, record, query_keys, ti_cache
                    )
                    if similarity >= best:
                        best, best_kind = similarity, kind
                score += best
                failed.extend(unit.conditions)
                kinds.add(best_kind)
                continue
            for condition in unit.conditions:
                if condition_satisfied(condition, record):
                    score += 1.0
                    continue
                failed.append(condition)
                similarity, kind = self._failed_similarity(
                    condition, record, query_keys, ti_cache
                )
                score += similarity
                kinds.add(kind)
        if not failed:
            kind = "exact"
        elif len(kinds) == 1:
            kind = kinds.pop()
        else:
            kind = "mixed"
        return ScoredRecord(
            record=record, score=score, failed=tuple(failed), similarity_kind=kind
        )

    def rank_units(
        self,
        records: list[Record],
        units: list[ScoringUnit],
        top_k: int | None = None,
        engine: str | None = None,
    ) -> Sequence[ScoredRecord]:
        """Order *records* by unit-based Rank_Sim, best first.

        The legacy engine scores and sorts everything and returns a
        list cut to ``top_k``.  The columnar engine scores everything
        up front but returns a read-only
        :class:`~repro.perf.colrank.RankedPool` that reads the same:
        it orders and builds a ``ScoredRecord`` only for the positions
        read (a bounded heap for the first read), and ``top_k`` only
        caps its length.
        """
        if self._resolve_engine(engine) == "columnar":
            selected = self._columnar(records, units, top_k)
            if selected is not None:
                return selected
        query_keys = self._query_keys_for_units(units)
        # Pool records share a handful of distinct product identities;
        # memoize the TI-matrix lookup per identity.
        ti_cache: dict[Key, float] = {}
        scored = [
            self._score_units_with_keys(record, units, query_keys, ti_cache)
            for record in records
        ]
        scored.sort(key=lambda item: (-item.score, item.record.record_id))
        if top_k is not None:
            scored = scored[:top_k]
        return scored

    # ------------------------------------------------------------------
    def _failed_similarity(
        self,
        condition: Condition,
        record: Record,
        query_keys: list[Key],
        ti_cache: dict[Key, float],
    ) -> tuple[float, str]:
        if condition.negated:
            # A violated negation has no "close" reading: the record
            # has exactly what the user excluded.
            return 0.0, "negation"
        if condition.attribute_type is AttributeType.TYPE_I:
            return self._type_i_similarity(record, query_keys, ti_cache), "TI_Sim"
        if condition.attribute_type is AttributeType.TYPE_II:
            return self._type_ii_similarity(condition, record), "Feat_Sim"
        return self._type_iii_similarity(condition, record), "Num_Sim"

    def _type_i_similarity(
        self, record: Record, query_keys: list[Key], ti_cache: dict[Key, float]
    ) -> float:
        if not query_keys:
            return 0.0
        record_key = self.resources.record_key(record)
        cached = ti_cache.get(record_key)
        if cached is not None:
            return cached
        similarity = max(
            self.resources.ti_matrix.normalized(query_key, record_key)
            for query_key in query_keys
        )
        ti_cache[record_key] = similarity
        return similarity

    def _type_ii_similarity(self, condition: Condition, record: Record) -> float:
        value = record.get(condition.column)
        if value is None:
            return 0.0
        return self.resources.ws_matrix.value_similarity(
            str(condition.value), str(value)
        )

    def _type_iii_similarity(self, condition: Condition, record: Record) -> float:
        value = record.get(condition.column)
        if value is None:
            return 0.0
        value_range = self.resources.value_ranges.get(condition.column, 0.0)
        return condition_num_sim(condition, float(value), value_range)
