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

A domain's :class:`RankingResources` hold the columnar ranker's column
stores (:mod:`repro.perf.colrank`), which follow the attached table's
delta log on read like every other derived structure
(:meth:`~repro.db.table.Table.deltas_since`).  Nothing here listens to
the table, and nothing is cached per record: the per-record engine
computes a record's Type I key (:meth:`RankingResources.record_key`)
when it scores the record.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.db.schema import AttributeType
from repro.db.table import Record, Table
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
    #: each caught up from its shard's **own** delta log, so a point
    #: mutation patches one store of N.  Replaced wholesale, never
    #: mutated in place, so a caller may keep the list it was handed.
    _shard_stores: "list[ColumnStore] | None" = field(
        default=None, repr=False, compare=False
    )
    #: Cross-question memo of :meth:`query_keys` results, keyed by the
    #: sorted Type I constraint items.  ``product_keys`` is static for
    #: the life of the resources object, so entries never go stale.
    _query_keys_memo: dict[tuple, list[Key]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Serializes store catch-up, so requests answered on several
    #: threads never apply one delta twice.
    _store_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def attach_table(self, table: Table) -> None:
        """Bind these resources to their backing *table*.

        Turns on the columnar engine (``column_store``).  Stores of a
        previously attached table are dropped: their epochs say
        nothing about this one.
        """
        if self.table is table:
            return
        with self._store_lock:
            self.table = table
            self._column_store = None
            self._shard_stores = None

    def detach_table(self) -> None:
        """Forget the table and drop the column stores.

        Rankers fall back to the legacy engine until a re-attach
        (:meth:`repro.qa.pipeline.CQAds.context` re-attaches lazily on
        next use).  Idempotent.
        """
        with self._store_lock:
            self.table = None
            self._column_store = None
            self._shard_stores = None

    def column_store(self) -> "ColumnStore | None":
        """The columnar image of the attached table at its current epoch.

        Caught up lazily whenever the table's epoch has moved: the
        table's delta log since the store's epoch is applied through
        :meth:`~repro.perf.colrank.ColumnStore.apply` — per-slot
        patches instead of re-deriving every row — and the store is
        rebuilt only when the log cannot bridge the gap.  ``None`` when
        no table is attached or the table is sharded (its stores are
        per shard, :meth:`shard_column_stores`).  Catch-up runs under
        ``_store_lock``.
        """
        table = self.table
        if table is None or getattr(table, "shards", None) is not None:
            return None
        store = self._column_store
        if store is not None and store.epoch == table.epoch:
            return store
        with self._store_lock:
            table = self.table
            if table is None or getattr(table, "shards", None) is not None:
                return None
            store = self._caught_up(self._column_store, table)
            self._column_store = store
            return store

    def shard_column_stores(self) -> "list[ColumnStore] | None":
        """One columnar image per shard of an attached sharded table.

        ``None`` when no table is attached or the table is unsharded.
        Each store follows its own shard's delta log, so a mutation to
        one shard leaves the sibling stores untouched (returned by
        identity).
        """
        table = self.table
        if table is None:
            return None
        shards = getattr(table, "shards", None)
        if shards is None:
            return None
        stores = self._shard_stores
        if stores is not None and all(
            store.epoch == shard.epoch for store, shard in zip(stores, shards)
        ):
            return stores
        with self._store_lock:
            shards = getattr(self.table, "shards", None)
            if shards is None:
                return None
            previous = self._shard_stores or [None] * len(shards)
            stores = [
                self._caught_up(store, shard)
                for store, shard in zip(previous, shards)
            ]
            self._shard_stores = stores
            return stores

    def _caught_up(
        self, store: "ColumnStore | None", table: Table
    ) -> "ColumnStore":
        """*store* brought to *table*'s epoch from its delta log, or a
        fresh build when there is no store or the log cannot bridge
        the gap (caller holds ``_store_lock``)."""
        from repro.perf.colrank import ColumnStore

        if store is not None and store.epoch != table.epoch:
            deltas = table.deltas_since(store.epoch)
            if deltas is None:
                store = None
            else:
                for delta in deltas:
                    store = store.apply(delta)
                    if store is None:
                        break
        if store is None:
            store = ColumnStore(table, self.type_i_columns)
        return store

    def record_key(self, record: Record) -> Key:
        """The record's Type I key tuple (the TI-matrix coordinate)."""
        return tuple(
            str(record.get(column, "") or "") for column in self.type_i_columns
        )

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
      only the positions read (a single-unit question's whole-table
      pool is ranked by score class instead,
      :func:`~repro.perf.colrank.class_rank_unit`).  Falls back to
      the legacy path automatically when no table is attached to the
      resources or a condition shape is outside the columnar planner.
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
