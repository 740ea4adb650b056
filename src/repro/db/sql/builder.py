"""Programmatic query construction.

The question pipeline never concatenates question text into SQL
strings; it assembles ASTs through this builder.  The builder mirrors
the shapes the paper generates: one ``record_id IN (subquery)`` clause
per selection criterion, ANDed (or ORed, for the N-1 partial pass and
Boolean rules) together — see Example 7 and footnote 4 of the paper.
"""

from __future__ import annotations

from repro.db.sql.ast import (
    BetweenExpr,
    ColumnRef,
    Comparison,
    Expr,
    InExpr,
    LikeExpr,
    Literal,
    NotExpr,
    OrderBy,
    SelectStatement,
    conjoin,
    disjoin,
)

__all__ = ["QueryBuilder"]

RECORD_ID = "record_id"


class QueryBuilder:
    """Builds SELECT statements for one table.

    Usage::

        builder = QueryBuilder("car_ads")
        statement = builder.select(
            where=builder.and_(
                builder.eq("make", "honda"),
                builder.lt("price", 15000),
            ),
            limit=30,
        )
    """

    def __init__(self, table: str) -> None:
        self.table = table

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def column(self, name: str) -> ColumnRef:
        return ColumnRef(name.lower())

    def eq(self, column: str, value: object) -> Comparison:
        return Comparison(self.column(column), "=", Literal(value))  # type: ignore[arg-type]

    def ne(self, column: str, value: object) -> Comparison:
        return Comparison(self.column(column), "!=", Literal(value))  # type: ignore[arg-type]

    def lt(self, column: str, value: float) -> Comparison:
        return Comparison(self.column(column), "<", Literal(value))

    def le(self, column: str, value: float) -> Comparison:
        return Comparison(self.column(column), "<=", Literal(value))

    def gt(self, column: str, value: float) -> Comparison:
        return Comparison(self.column(column), ">", Literal(value))

    def ge(self, column: str, value: float) -> Comparison:
        return Comparison(self.column(column), ">=", Literal(value))

    def between(self, column: str, low: float, high: float) -> BetweenExpr:
        return BetweenExpr(self.column(column), Literal(low), Literal(high))

    def contains(self, column: str, needle: str) -> LikeExpr:
        """Substring match, served by the column's hash index."""
        return LikeExpr(self.column(column), f"%{needle}%")

    def not_(self, expr: Expr) -> NotExpr:
        return NotExpr(expr)

    def and_(self, *expressions: Expr | None) -> Expr | None:
        return conjoin([e for e in expressions if e is not None])

    def or_(self, *expressions: Expr | None) -> Expr | None:
        return disjoin([e for e in expressions if e is not None])

    def in_subquery(self, where: Expr) -> InExpr:
        """The paper's ``record_id IN (SELECT record_id ... WHERE crit)``."""
        subquery = SelectStatement(
            table=self.table,
            select_items=(ColumnRef(RECORD_ID),),
            where=where,
        )
        return InExpr(ColumnRef(RECORD_ID), subquery=subquery)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def select(
        self,
        where: Expr | None = None,
        order_by: list[tuple[str, bool]] | None = None,
        limit: int | None = None,
    ) -> SelectStatement:
        """SELECT * with optional WHERE / ORDER BY / LIMIT.

        *order_by* entries are ``(column, descending)`` pairs.
        """
        keys = tuple(
            OrderBy(self.column(name), descending)
            for name, descending in (order_by or [])
        )
        return SelectStatement(
            table=self.table,
            select_items=("*",),
            where=where,
            order_by=keys,
            limit=limit,
        )

    def select_conjunction(
        self, criteria: list[Expr], limit: int | None = None
    ) -> SelectStatement:
        """The paper's Example 7 shape: AND of per-criterion subqueries."""
        clauses: list[Expr] = [self.in_subquery(criterion) for criterion in criteria]
        return self.select(where=conjoin(clauses), limit=limit)

    def select_disjunction(
        self, criteria: list[Expr], limit: int | None = None
    ) -> SelectStatement:
        """Footnote 4 of the paper: the N-1 pass swaps AND for OR."""
        clauses: list[Expr] = [self.in_subquery(criterion) for criterion in criteria]
        return self.select(where=disjoin(clauses), limit=limit)

    def select_min_max(self, column: str) -> SelectStatement:
        """``SELECT MIN(col), MAX(col)`` — valid-range probing."""
        from repro.db.sql.ast import Aggregate

        return SelectStatement(
            table=self.table,
            select_items=(
                Aggregate("MIN", self.column(column)),
                Aggregate("MAX", self.column(column)),
            ),
        )
