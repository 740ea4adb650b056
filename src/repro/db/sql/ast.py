"""Abstract syntax tree for the SQL subset.

The dialect covers exactly what CQAds emits (Section 4.5 and
Example 7 of the paper):

.. code-block:: sql

    SELECT * FROM car_ads WHERE record_id IN
        (SELECT record_id FROM car_ads c WHERE c.transmission = 'automatic')
    AND record_id IN
        (SELECT record_id FROM car_ads c WHERE c.color = 'blue')

plus the pieces the identifier rules of Table 1 generate: comparison
operators (=, !=, <, <=, >, >=), ``BETWEEN``, ``LIKE`` (substring
match), ``GROUP BY``/``ORDER BY`` with ``DESC`` (superlatives),
``LIMIT`` and ``MIN``/``MAX`` aggregates (valid-range probing for
incomplete questions).

Every node renders back to SQL text via ``to_sql()`` so generated
queries are inspectable and round-trippable through the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "Expr",
    "Literal",
    "ColumnRef",
    "Comparison",
    "BetweenExpr",
    "InExpr",
    "LikeExpr",
    "NotExpr",
    "BinaryExpr",
    "BooleanExpr",
    "Aggregate",
    "OrderBy",
    "SelectStatement",
]

COMPARISON_OPERATORS = ("=", "!=", "<>", "<", "<=", ">", ">=")


def _quote_string(value: str) -> str:
    escaped = value.replace("'", "''")
    return f"'{escaped}'"


@dataclass(frozen=True)
class Literal:
    """A constant: number, string or NULL."""

    value: Union[int, float, str, None]

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return _quote_string(self.value)
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly alias-qualified) column reference."""

    name: str
    qualifier: str | None = None

    def to_sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Comparison:
    """``column <op> literal`` with op in =, !=, <>, <, <=, >, >=."""

    column: ColumnRef
    operator: str
    value: Literal

    def __post_init__(self) -> None:
        if self.operator not in COMPARISON_OPERATORS:
            raise ValueError(f"unknown comparison operator {self.operator!r}")

    def to_sql(self) -> str:
        return f"{self.column.to_sql()} {self.operator} {self.value.to_sql()}"


@dataclass(frozen=True)
class BetweenExpr:
    """``column BETWEEN low AND high`` (inclusive both ends)."""

    column: ColumnRef
    low: Literal
    high: Literal

    def to_sql(self) -> str:
        return (
            f"{self.column.to_sql()} BETWEEN {self.low.to_sql()} "
            f"AND {self.high.to_sql()}"
        )


@dataclass(frozen=True)
class LikeExpr:
    """``column LIKE pattern`` with % wildcards only.

    Section 4.5's substring matching; the executor tests each
    distinct value of the column's hash index once, and special-cases
    the ``'%needle%'`` shape as a plain substring test.
    """

    column: ColumnRef
    pattern: str

    def to_sql(self) -> str:
        return f"{self.column.to_sql()} LIKE {_quote_string(self.pattern)}"


@dataclass(frozen=True)
class InExpr:
    """``column IN (subquery)`` or ``column IN (v1, v2, ...)``."""

    column: ColumnRef
    subquery: "SelectStatement | None" = None
    values: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        if (self.subquery is None) == (not self.values):
            raise ValueError("InExpr needs exactly one of subquery or values")

    def to_sql(self) -> str:
        if self.subquery is not None:
            return f"{self.column.to_sql()} IN ({self.subquery.to_sql()})"
        inner = ", ".join(value.to_sql() for value in self.values)
        return f"{self.column.to_sql()} IN ({inner})"


@dataclass(frozen=True)
class NotExpr:
    operand: "Expr"

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"


@dataclass(frozen=True)
class BinaryExpr:
    """``left AND right`` / ``left OR right``."""

    operator: str  # "AND" | "OR"
    left: "Expr"
    right: "Expr"

    def __post_init__(self) -> None:
        if self.operator not in ("AND", "OR"):
            raise ValueError(f"unknown boolean operator {self.operator!r}")

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.operator} {self.right.to_sql()})"


BooleanExpr = BinaryExpr  # historical alias kept for the public API

Expr = Union[Comparison, BetweenExpr, LikeExpr, InExpr, NotExpr, BinaryExpr]


@dataclass(frozen=True)
class Aggregate:
    """``MIN(column)`` / ``MAX(column)`` in a select list."""

    function: str  # "MIN" | "MAX"
    column: ColumnRef

    def __post_init__(self) -> None:
        if self.function not in ("MIN", "MAX"):
            raise ValueError(f"unsupported aggregate {self.function!r}")

    def to_sql(self) -> str:
        return f"{self.function}({self.column.to_sql()})"


@dataclass(frozen=True)
class OrderBy:
    """One ORDER BY / GROUP BY key with direction."""

    column: ColumnRef
    descending: bool = False

    def to_sql(self) -> str:
        direction = " DESC" if self.descending else ""
        return f"{self.column.to_sql()}{direction}"


@dataclass(frozen=True)
class SelectStatement:
    """A full SELECT.

    ``select_items`` is either ``["*"]``, a list of :class:`ColumnRef`,
    or a list of :class:`Aggregate`.  ``group_by`` captures the paper's
    Table 1 ``group by price`` idiom for superlatives — the executor
    treats it as ORDER BY (the paper uses it purely to surface extreme
    values first).
    """

    table: str
    select_items: tuple[object, ...] = ("*",)
    alias: str | None = None
    where: Expr | None = None
    group_by: tuple[OrderBy, ...] = ()
    order_by: tuple[OrderBy, ...] = ()
    limit: int | None = None

    def to_sql(self) -> str:
        parts = ["SELECT"]
        rendered_items = []
        for item in self.select_items:
            if item == "*":
                rendered_items.append("*")
            else:
                rendered_items.append(item.to_sql())  # type: ignore[union-attr]
        parts.append(", ".join(rendered_items))
        parts.append("FROM")
        parts.append(self.table if self.alias is None else f"{self.table} {self.alias}")
        if self.where is not None:
            parts.append("WHERE")
            parts.append(self.where.to_sql())
        if self.group_by:
            parts.append("GROUP BY")
            parts.append(", ".join(key.to_sql() for key in self.group_by))
        if self.order_by:
            parts.append("ORDER BY")
            parts.append(", ".join(key.to_sql() for key in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


def conjoin(expressions: list[Expr]) -> Expr | None:
    """AND together *expressions* (left-deep); None for empty input."""
    result: Expr | None = None
    for expression in expressions:
        result = expression if result is None else BinaryExpr("AND", result, expression)
    return result


def disjoin(expressions: list[Expr]) -> Expr | None:
    """OR together *expressions* (left-deep); None for empty input."""
    result: Expr | None = None
    for expression in expressions:
        result = expression if result is None else BinaryExpr("OR", result, expression)
    return result
