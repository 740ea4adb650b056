"""The shared-subplan N-1 relaxation engine (Section 4.3.1).

The paper's N-1 relaxation answers a question with N relaxable units
by running N relaxed queries, each dropping one unit.  Evaluating every
relaxed WHERE tree independently would execute each unit's predicate
N-1 times — ~N× redundant index work per question.

This module evaluates each unit's matching id-set **once** and derives
every N-1 pool by set intersection:

1. :func:`unit_id_sets` turns each
   :class:`~repro.ranking.rank_sim.ScoringUnit` into one WHERE
   expression (AND over its conditions; OR for an "any" unit) and
   evaluates it through
   :meth:`~repro.db.sql.executor.SQLExecutor.eval_where`, so leaf
   semantics are the SQL executor's — unless the cross-question
   :mod:`~repro.perf.fragment_cache` holds the set, which it catches
   up from the table's delta log on lookup;
2. :func:`drop_intersections` combines the cached sets with
   prefix/suffix intersections — 3N set operations total instead of
   the N×(N-2) of evaluating each relaxed query;
3. :func:`shared_partial_candidates` finalizes each pool exactly like
   :func:`~repro.qa.sql_generation.evaluate_interpretation` does for a
   relaxed query — id-ordered fetch, the superlative ORDER BY +
   extreme filter when
   present (via :meth:`~repro.db.sql.executor.SQLExecutor.execute_with_ids`,
   the executor's own ordering code), the per-query budget, and the
   first-drop-wins candidate union.

Every step preserves the paper's Type I→II→III evaluation order
story: ordering only ever affected *how fast* the conjunction is
intersected, never which ids survive, and the executor now orders
leaves by selectivity internally.  ``tests/test_perf_parity.py`` holds
the result bit-identical to the N-relaxed-queries definition written
out there, and ``tests/golden/`` pins the answers end to end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.db.database import Database
from repro.db.sql.builder import QueryBuilder
from repro.db.sql.executor import SQLExecutor
from repro.db.table import Record, Table
from repro.obs import span
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

    An "any" unit with several branches (an incomplete number's
    alternatives) is the OR of its conditions; every other unit is the
    AND of its conditions, so a question's relaxed query is the AND of
    its kept units.
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
    are memoized across questions, so a criterion repeated by a later
    question ("price < 10000") is not re-evaluated — not even after
    point mutations: the cache catches a stored set up from the
    table's delta log on lookup, and only a gap the log cannot bridge
    sends the unit back through ``eval_where``.  Cached sets are
    shared — neither this module nor its callers may mutate them.

    A :class:`~repro.shard.table.ShardedTable` scatters instead: each
    unit is evaluated per shard and the per-shard sets are unioned
    (shards partition the records, so the union is exactly the
    single-table set, and always a fresh set).  Per-shard fragments
    follow their own shard's log and epoch — a mutation to one shard
    leaves the other shards' cached fragments current, which is the
    cache-locality payoff of sharding (see ``PERFORMANCE.md``).
    """
    builder = QueryBuilder(table.name)
    shards = getattr(table, "shards", None)
    if shards is None:
        return [
            _fragment(executor, table, None, unit, builder, fragment_cache)
            for unit in units
        ]
    sets: list[set[int]] = []
    for unit in units:
        merged: set[int] = set()
        for index in range(len(shards)):
            merged |= _fragment(
                executor, table, index, unit, builder, fragment_cache
            )
        sets.append(merged)
    return sets


def _fragment(
    executor: SQLExecutor,
    table: Table,
    shard: int | None,
    unit: ScoringUnit,
    builder: QueryBuilder,
    fragment_cache: "FragmentCache | None",
) -> set[int]:
    """*unit*'s id-set over *table*, or over its shard *shard*: from
    the cache when it can catch up, else evaluated (and cached)."""
    if fragment_cache is not None:
        ids = fragment_cache.get(table, shard, unit)
        if ids is not None:
            return ids
    source = table if shard is None else table.shards[shard]
    epoch = source.epoch
    expression = unit_expression(builder, unit)
    assert expression is not None  # units always carry >= 1 condition
    if shard is None:
        ids = executor.eval_where(table, expression)
    else:
        # This scatter is sequential (the executor's set algebra
        # gathers in place); a traced request still sees one span per
        # shard evaluation, like map_shards' spans.
        with span("shard.scatter", shard=shard, table=table.name):
            ids = executor.eval_where(source, expression)
    if fragment_cache is not None:
        fragment_cache.put(table, shard, unit, epoch, ids)
    return ids


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
) -> dict[int, Record]:
    """The N-1 candidate pool via shared subplans.

    Returns the ``record_id -> Record`` mapping (membership and
    insertion order) of running one relaxed query per dropped unit:
    the drops run in unit order, every pool is finalized with the
    executor's own ordering code, and earlier drops win ties.
    ``fragment_cache`` short-circuits unit evaluation across questions
    (see :func:`unit_id_sets`).
    """
    table = database.table(domain.schema.table_name)
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
            records = table.fetch(pool_ids, budget)
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
