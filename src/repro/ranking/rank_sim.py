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
ordering of the paper's Table 2.  :class:`RankSimRanker` scores by
column over the attached table's column store
(:mod:`repro.perf.colrank`); ``tests/reference_rank.py`` writes Eq. 5
down as plain loops over records, and the tests hold the ranker to it.

Whether a condition is satisfied is never decided here:
:func:`condition_satisfied` asks the predicate kernel
(:mod:`repro.db.predicate`) through the condition's SQL rendering, so
a record is an exact match for Rank_Sim exactly when the SQL executor
returns it.

A domain's :class:`RankingResources` hold the column stores, which
follow the attached table's delta log on read like every other derived
structure (:meth:`~repro.db.table.Table.deltas_since`).  Nothing here
listens to the table, and nothing is cached per record.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.db.table import Record, Table
from repro.qa.conditions import Condition
from repro.qa.sql_generation import condition_predicate
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
    #: domain is registered.  The ranker scores through its column
    #: stores (:mod:`repro.perf.colrank`); without a table, ranking
    #: raises :class:`~repro.errors.RankingError`.
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
    #: Serializes store catch-up: requests answered on several threads
    #: must not append rows to the arrays a store's versions share at
    #: once, nor replay one delta twice.
    _store_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def attach_table(self, table: Table) -> None:
        """Bind these resources to their backing *table*.

        The ranker reads the table through :meth:`column_store` (or
        :meth:`shard_column_stores`).  Stores of a previously attached
        table are dropped: their epochs say nothing about this one.
        """
        if self.table is table:
            return
        with self._store_lock:
            self.table = table
            self._column_store = None
            self._shard_stores = None

    def detach_table(self) -> None:
        """Forget the table and drop the column stores.

        Ranking raises :class:`~repro.errors.RankingError` until a
        re-attach (:meth:`repro.qa.pipeline.CQAds.context` re-attaches
        lazily on next use).  Idempotent.
        """
        with self._store_lock:
            self.table = None
            self._column_store = None
            self._shard_stores = None

    def column_store(self) -> "ColumnStore | None":
        """The columnar image of the attached table at its current epoch.

        Caught up lazily whenever the table's epoch has moved: the
        table's delta log since the store's epoch goes to
        :meth:`~repro.perf.colrank.ColumnStore.caught_up`, which
        appends the written rows and returns a new version (a version
        handed out earlier keeps its image), and the store is rebuilt
        only when the log cannot bridge the gap or dead rows would
        outnumber live ones.  ``None`` when no table is attached or the
        table is sharded (its stores are per shard,
        :meth:`shard_column_stores`).  Catch-up runs under
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
        fresh build when there is no store, the log cannot bridge the
        gap or the store asks for one (caller holds ``_store_lock``)."""
        from repro.perf.colrank import ColumnStore

        if store is not None and store.epoch != table.epoch:
            deltas = table.deltas_since(store.epoch)
            store = None if deltas is None else store.caught_up(deltas)
        if store is None:
            store = ColumnStore(table, self.type_i_columns)
        return store

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

    Scoring runs by column over the attached table's column stores
    (:func:`~repro.perf.colrank.columnar_rank_units`) and returns a
    :class:`~repro.perf.colrank.RankedPool`, which orders and builds
    only the positions read.  A ranking the column stores cannot give
    raises :class:`~repro.errors.RankingError`: resources with no table
    attached, or a unit outside the columnar planner.  A pool record
    the table no longer holds was deleted after the pool was listed,
    and is dropped.
    """

    def __init__(self, resources: RankingResources) -> None:
        self.resources = resources

    def rank(
        self,
        records: list[Record],
        conditions: list[Condition],
        top_k: int | None = None,
    ) -> Sequence[ScoredRecord]:
        """Order *records* by descending Rank_Sim (ties by record id),
        every condition its own scoring unit: the baselines' signature,
        under which the Figure 5 bench times it."""
        units = [ScoringUnit(conditions=(condition,)) for condition in conditions]
        return self.rank_units(records, units, top_k)

    def rank_units(
        self,
        records: list[Record],
        units: list[ScoringUnit],
        top_k: int | None = None,
        engine: str = "columnar",
    ) -> Sequence[ScoredRecord]:
        """Order *records* by unit-based Rank_Sim, best first.

        An "all" unit scores its conditions one by one; an "any" unit
        scores 1 when a branch is satisfied, else its best branch.  The
        scores are computed up front, but the returned
        :class:`~repro.perf.colrank.RankedPool` orders and builds a
        ``ScoredRecord`` only for the positions read (a bounded heap
        for the first read).  ``top_k`` only caps its length, and must
        be positive.  ``engine`` accepts only ``"columnar"``: it stays
        because ``perfbench/replay.py`` passes ``CQAds.ranking_engine``.
        """
        if engine != "columnar":
            raise ValueError(f"engine must be 'columnar', got {engine!r}")
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
        # Imported here: colrank needs ScoredRecord/ScoringUnit from
        # this module, so a top-level import would cycle.
        from repro.perf.colrank import columnar_rank_units

        return columnar_rank_units(self.resources, records, units, top_k)
