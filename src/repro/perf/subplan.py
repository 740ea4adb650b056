"""The shared-subplan N-1 relaxation engine (Section 4.3.1, fast path).

The paper's N-1 relaxation answers a question with N relaxable units
by running N relaxed queries, each dropping one unit.  The legacy
implementation evaluated every relaxed WHERE tree independently, so
each unit's predicate was executed N-1 times — ~N× redundant index
work per question.

This module evaluates each unit's matching id-set **once** and derives
every N-1 pool by set intersection:

1. :func:`unit_id_sets` turns each
   :class:`~repro.ranking.rank_sim.ScoringUnit` into one WHERE
   expression (AND over its conditions; OR for an "any" unit) and
   evaluates it through the same
   :meth:`~repro.db.sql.executor.SQLExecutor.eval_where` the legacy
   path used, so leaf semantics are identical by construction;
2. :func:`drop_intersections` combines the cached sets with
   prefix/suffix intersections — 3N set operations total instead of
   the legacy N×(N-2);
3. :func:`shared_partial_candidates` finalizes each pool exactly like
   :func:`~repro.qa.sql_generation.evaluate_interpretation` did —
   id-ordered fetch, the superlative ORDER BY + extreme filter when
   present (via :meth:`~repro.db.sql.executor.SQLExecutor.execute_with_ids`,
   the executor's own ordering code), the per-query budget, and the
   first-drop-wins candidate union.

Every step preserves the paper's Type I→II→III evaluation order
story: ordering only ever affected *how fast* the conjunction is
intersected, never which ids survive, and the executor now orders
leaves by selectivity internally.  ``tests/test_perf_parity.py`` holds
the bit-identical guarantee against the legacy path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.db.database import Database
from repro.db.sql.builder import QueryBuilder
from repro.db.sql.executor import SQLExecutor
from repro.db.table import Record, Table
from repro.obs import cache_event, span
from repro.qa.conditions import Interpretation
from repro.qa.domain import AdsDomain
from repro.qa.sql_generation import (
    apply_superlative,
    condition_to_expr,
    generate_sql,
)
from repro.ranking.rank_sim import ScoringUnit

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.perf.fragment_cache import FragmentCache

__all__ = [
    "unit_expression",
    "unit_id_sets",
    "drop_intersections",
    "shared_partial_candidates",
]


def unit_expression(builder: QueryBuilder, unit: ScoringUnit):
    """One relaxation unit as a WHERE expression.

    Mirrors :meth:`repro.qa.pipeline.CQAds._units_to_interpretation`:
    an "any" unit with several branches is an OR group, everything
    else an AND over the unit's conditions.
    """
    expressions = [
        condition_to_expr(builder, condition) for condition in unit.conditions
    ]
    if unit.mode == "any" and len(expressions) > 1:
        return builder.or_(*expressions)
    return builder.and_(*expressions)


def unit_id_sets(
    executor: SQLExecutor,
    table: Table,
    units: Sequence[ScoringUnit],
    fragment_cache: "FragmentCache | None" = None,
) -> list[set[int]]:
    """Each unit's matching id-set, evaluated once against *table*.

    With a :class:`~repro.perf.fragment_cache.FragmentCache`, id-sets
    are memoized across questions keyed on the table's mutation epoch,
    so a criterion repeated by a later question ("price < 10000") is
    never re-evaluated until the table changes — and under delta
    maintenance (the default) not even then: the engine's mutation
    listener patches the cached sets forward to the new epoch
    (:meth:`~repro.perf.fragment_cache.FragmentCache.absorb`), so this
    function keeps hitting warm entries through point mutations
    without knowing how they were maintained.  Cached sets are
    shared — neither this module nor its callers may mutate them.

    A :class:`~repro.shard.table.ShardedTable` scatters instead: each
    unit is evaluated per shard and the per-shard sets are unioned
    (shards partition the records, so the union is exactly the
    single-table set).  Per-shard fragments key on the owning shard's
    **own** epoch — a mutation to one shard leaves the other shards'
    cached fragments live, which is the cache-locality payoff of
    sharding (see ``PERFORMANCE.md``).
    """
    shards = getattr(table, "shards", None)
    if shards is not None:
        return _sharded_unit_id_sets(
            executor, table, shards, units, fragment_cache
        )
    builder = QueryBuilder(table.name)
    epoch = table.epoch
    sets: list[set[int]] = []
    for unit in units:
        ids = (
            fragment_cache.get(table.name, epoch, unit)
            if fragment_cache is not None
            else None
        )
        if fragment_cache is not None:
            cache_event("fragment", ids is not None)
        if ids is None:
            expression = unit_expression(builder, unit)
            assert expression is not None  # units always carry >= 1 condition
            ids = executor.eval_where(table, expression)
            if fragment_cache is not None:
                fragment_cache.put(table.name, epoch, unit, ids)
        sets.append(ids)
    return sets


def _sharded_unit_id_sets(
    executor: SQLExecutor,
    table: Table,
    shards: Sequence[Table],
    units: Sequence[ScoringUnit],
    fragment_cache: "FragmentCache | None",
) -> list[set[int]]:
    """Scatter-gather :func:`unit_id_sets` over a sharded table.

    Fragment keys are ``(facade name, (shard index, shard epoch),
    unit)`` — the facade name keeps the eager invalidation sweep
    addressable per table, while the shard's own epoch versions the
    entry, so sibling-shard mutations never stale it.  The gathered
    union is always a fresh set, so cached per-shard sets stay
    unshared-mutable exactly like the single-table path's.
    """
    builder = QueryBuilder(table.name)
    epochs = [shard.epoch for shard in shards]
    sets: list[set[int]] = []
    for unit in units:
        expression = None
        merged: set[int] = set()
        for index, shard in enumerate(shards):
            shard_epoch = (index, epochs[index])
            ids = (
                fragment_cache.get(table.name, shard_epoch, unit)
                if fragment_cache is not None
                else None
            )
            if fragment_cache is not None:
                cache_event("fragment", ids is not None)
            if ids is None:
                if expression is None:
                    expression = unit_expression(builder, unit)
                    assert expression is not None
                # This scatter is sequential (the executor's set algebra
                # gathers in place); a traced request still sees one
                # span per shard evaluation, like map_shards' spans.
                with span("shard.scatter", shard=index, table=table.name):
                    ids = executor.eval_where(shard, expression)
                if fragment_cache is not None:
                    fragment_cache.put(table.name, shard_epoch, unit, ids)
            merged |= ids
        sets.append(merged)
    return sets


def drop_intersections(unit_sets: Sequence[set[int]]) -> list[set[int]]:
    """For each index i, the intersection of every set except the i-th.

    Prefix/suffix running intersections make this linear in the number
    of units instead of quadratic.
    """
    count = len(unit_sets)
    if count == 0:
        return []
    if count == 1:
        # Dropping the only unit leaves an unconstrained query; callers
        # handle that case separately (whole-table fallback).
        return [set()]
    prefix: list[set[int] | None] = [None] * count
    running: set[int] | None = None
    for index in range(count):
        prefix[index] = running
        running = (
            unit_sets[index] if running is None else running & unit_sets[index]
        )
    suffix: list[set[int] | None] = [None] * count
    running = None
    for index in range(count - 1, -1, -1):
        suffix[index] = running
        running = (
            unit_sets[index] if running is None else running & unit_sets[index]
        )
    pools: list[set[int]] = []
    for index in range(count):
        before, after = prefix[index], suffix[index]
        if before is None:
            assert after is not None
            pools.append(after)
        elif after is None:
            pools.append(before)
        else:
            pools.append(before & after)
    return pools


def shared_partial_candidates(
    database: Database,
    domain: AdsDomain,
    units: Sequence[ScoringUnit],
    interpretation: Interpretation,
    exclude: set[int],
    pool_cap: int | None,
    fragment_cache: "FragmentCache | None" = None,
    executor: SQLExecutor | None = None,
) -> dict[int, Record]:
    """The N-1 candidate pool via shared subplans.

    Returns the same ``record_id -> Record`` mapping (same membership,
    same insertion order) the legacy per-drop evaluation produced: the
    drops run in unit order, every pool is finalized with the
    executor's own ordering code, and earlier drops win ties.
    ``fragment_cache`` short-circuits unit evaluation across questions
    (see :func:`unit_id_sets`).  Passing ``executor`` lets callers pin
    an access-path mode or collect its ``plan_trace``; by default a
    fresh (adaptive) executor is built, which shares the module-level
    plan cache and selectivity planner anyway.
    """
    table = database.table(domain.schema.table_name)
    if executor is None:
        executor = SQLExecutor(database)
    pools = drop_intersections(
        unit_id_sets(executor, table, units, fragment_cache)
    )
    budget = pool_cap + len(exclude) if pool_cap is not None else None
    superlative = interpretation.superlative
    order_statement = None
    if superlative is not None:
        # WHERE-less statement carrying only the superlative's ORDER BY;
        # the executor applies it to each precomputed pool.
        order_statement = generate_sql(
            table.name,
            Interpretation(tree=None, superlative=superlative),
            limit=None,
            subquery_style=False,
        )
    candidates: dict[int, Record] = {}
    for pool_ids in pools:
        if superlative is None:
            records = table.fetch(pool_ids)
        else:
            assert order_statement is not None
            records = executor.execute_with_ids(order_statement, pool_ids).records
            records = apply_superlative(records, superlative)
        if budget is not None:
            records = records[:budget]
        for record in records:
            if record.record_id not in exclude:
                candidates.setdefault(record.record_id, record)
    return candidates
