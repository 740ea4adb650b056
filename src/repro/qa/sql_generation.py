"""Interpretation → SQL translation and evaluation (Sections 4.3, 4.5).

``generate_sql`` renders an :class:`~repro.qa.conditions.Interpretation`
into the dialect of :mod:`repro.db.sql`.  Flat conjunctions take the
paper's Example 7 shape — one ``record_id IN (SELECT record_id …)``
subquery per criterion, ANDed — while Boolean trees render directly.

``evaluate_interpretation`` runs the statement with the paper's
evaluation order (Section 4.3):

1. Type I values first (primary index),
2. Type II values next (secondary indexes),
3. Type III boundaries,
4. superlatives last, on the surviving records — evaluating
   "cheapest" before "Honda" would wrongly return no Hondas when
   Toyotas are cheaper, the paper's own example.

Steps 1-3 are a performance ordering (ANDs are commutative); step 4 is
a correctness requirement, so superlatives never enter the WHERE
clause and are applied to the result set.
"""

from __future__ import annotations

from repro.db.database import Database
from repro.db.predicate import CATEGORICAL, NUMERIC, Predicate
from repro.db.schema import AttributeType
from repro.db.sql.ast import Expr, OrderBy, SelectStatement
from repro.db.sql.builder import QueryBuilder
from repro.db.sql.executor import SQLExecutor, compile_leaf
from repro.db.table import Record
from repro.qa.conditions import (
    BooleanOperator,
    Condition,
    ConditionGroup,
    ConditionNode,
    ConditionOp,
    Interpretation,
    Superlative,
)
from repro.qa.domain import AdsDomain

__all__ = [
    "condition_predicate",
    "condition_to_expr",
    "tree_to_expr",
    "generate_sql",
    "apply_superlative",
    "evaluate_interpretation",
]


def condition_to_expr(builder: QueryBuilder, condition: Condition) -> Expr:
    """Render one condition as a WHERE expression."""
    column = condition.column
    op = condition.op
    if op is ConditionOp.BETWEEN:
        low, high = condition.value  # type: ignore[misc]
        expr: Expr = builder.between(column, float(low), float(high))
    elif op is ConditionOp.EQ:
        expr = builder.eq(column, condition.value)
    elif op is ConditionOp.NE:
        expr = builder.ne(column, condition.value)
    elif op is ConditionOp.LT:
        expr = builder.lt(column, float(condition.value))  # type: ignore[arg-type]
    elif op is ConditionOp.LE:
        expr = builder.le(column, float(condition.value))  # type: ignore[arg-type]
    elif op is ConditionOp.GT:
        expr = builder.gt(column, float(condition.value))  # type: ignore[arg-type]
    else:
        expr = builder.ge(column, float(condition.value))  # type: ignore[arg-type]
    if condition.negated:
        expr = builder.not_(expr)
    return expr


def condition_predicate(condition: Condition) -> Predicate:
    """*condition* compiled into the predicate kernel, exactly as the
    executor compiles its :func:`condition_to_expr` rendering, and
    memoized on the (immutable) condition.

    A condition carries no schema, so the column kind comes from the
    attribute type: Type III columns are the numeric ones (every
    schema the system builds declares them so).
    """
    predicate = condition.__dict__.get("_predicate")
    if predicate is None:
        kind = (
            NUMERIC
            if condition.attribute_type is AttributeType.TYPE_III
            else CATEGORICAL
        )
        expr = condition_to_expr(QueryBuilder(""), condition)
        predicate = compile_leaf(expr, condition.column, kind)
        object.__setattr__(condition, "_predicate", predicate)
    return predicate


def tree_to_expr(
    builder: QueryBuilder, node: ConditionNode, ordered: bool = True
) -> Expr:
    """Render a condition tree, optionally applying the Section 4.3
    evaluation order to AND groups (Type I, then II, then III)."""
    if isinstance(node, Condition):
        return condition_to_expr(builder, node)
    children = list(node.children)
    if ordered and node.operator is BooleanOperator.AND:
        children.sort(key=_evaluation_rank)
    expressions = [tree_to_expr(builder, child, ordered) for child in children]
    if node.operator is BooleanOperator.AND:
        combined = builder.and_(*expressions)
    else:
        combined = builder.or_(*expressions)
    assert combined is not None
    return combined


def _evaluation_rank(node: ConditionNode) -> int:
    if isinstance(node, Condition):
        return node.sort_rank()
    ranks = [condition.sort_rank() for condition in node.iter_conditions()]
    return min(ranks) if ranks else 3


def generate_sql(
    table_name: str,
    interpretation: Interpretation,
    limit: int | None = None,
    ordered: bool = True,
    subquery_style: bool = True,
) -> SelectStatement:
    """Render *interpretation* as a SELECT statement.

    With ``subquery_style`` (the default) a flat AND of criteria takes
    the paper's Example 7 shape; Boolean trees and single conditions
    render as a direct WHERE expression.  A superlative contributes an
    ORDER BY (the paper's Table 1 ``group by price`` idiom) — the
    extreme-value *filtering* happens in
    :func:`evaluate_interpretation`, after the WHERE.
    """
    builder = QueryBuilder(table_name)
    where: Expr | None = None
    tree = interpretation.tree
    if tree is not None:
        flat_and = (
            isinstance(tree, ConditionGroup)
            and tree.operator is BooleanOperator.AND
            and all(isinstance(child, Condition) for child in tree.children)
        )
        if subquery_style and flat_and:
            children = sorted(
                (child for child in tree.children if isinstance(child, Condition)),
                key=_evaluation_rank if ordered else (lambda _c: 0),
            )
            criteria = [condition_to_expr(builder, child) for child in children]
            statement = builder.select_conjunction(criteria, limit=limit)
            return _with_superlative_order(statement, interpretation.superlative)
        where = tree_to_expr(builder, tree, ordered)
    statement = builder.select(where=where, limit=limit)
    return _with_superlative_order(statement, interpretation.superlative)


def _with_superlative_order(
    statement: SelectStatement, superlative: Superlative | None
) -> SelectStatement:
    if superlative is None:
        return statement
    order = (OrderBy(QueryBuilder(statement.table).column(superlative.column),
                     descending=superlative.maximum),)
    return SelectStatement(
        table=statement.table,
        select_items=statement.select_items,
        alias=statement.alias,
        where=statement.where,
        group_by=statement.group_by,
        order_by=order,
        limit=statement.limit,
    )


def apply_superlative(
    records: list[Record], superlative: Superlative
) -> list[Record]:
    """Keep the records holding the extreme value (Section 4.3, step 4)."""
    values = [
        float(record[superlative.column])
        for record in records
        if record.get(superlative.column) is not None
    ]
    if not values:
        return []
    extreme = max(values) if superlative.maximum else min(values)
    return [
        record
        for record in records
        if record.get(superlative.column) is not None
        and float(record[superlative.column]) == extreme
    ]


def evaluate_interpretation(
    database: Database,
    domain: AdsDomain,
    interpretation: Interpretation,
    limit: int | None = None,
    ordered: bool = True,
    executor: "SQLExecutor | None" = None,
) -> list[Record]:
    """Execute *interpretation* with the paper's evaluation order.

    The WHERE (steps 1-3) runs without a LIMIT so the superlative
    (step 4) sees every qualifying record; the limit applies to the
    final answer list.  ``executor`` lets callers reuse one executor
    across calls — the answer path does this to read the accumulated
    access-path ``plan_trace`` afterwards.
    """
    # Internal evaluation uses the direct-expression rendering: the
    # Example 7 subquery shape is semantically identical but
    # materializes one intermediate result per criterion; the direct
    # tree lets the executor intersect id sets without projection.
    statement = generate_sql(
        domain.schema.table_name,
        interpretation,
        limit=None,
        ordered=ordered,
        subquery_style=False,
    )
    if executor is None:
        executor = SQLExecutor(database)
    result = executor.execute(statement)
    records = result.records
    if interpretation.superlative is not None:
        records = apply_superlative(records, interpretation.superlative)
    if limit is not None:
        records = records[:limit]
    return records
