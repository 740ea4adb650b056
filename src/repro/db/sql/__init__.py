"""SQL subsystem: the dialect CQAds generates and evaluates.

The paper translates every question into a SQL statement (Example 7)
with nested ``IN`` subqueries, one per selection criterion, and ships
it to MySQL.  This subpackage provides the equivalent machinery:

* :mod:`repro.db.sql.lexer` / :mod:`repro.db.sql.parser` — tokenize and
  parse the dialect into the AST of :mod:`repro.db.sql.ast`;
* :mod:`repro.db.sql.executor` — evaluate an AST against a
  :class:`~repro.db.database.Database`, using the table's hash
  indexes for categorical equality and ``LIKE``, and the ordered
  column windows for numeric and range predicates;
* :mod:`repro.db.sql.builder` — a small programmatic query builder the
  question pipeline uses so it never does string concatenation of
  untrusted question text into SQL.
"""

from repro.db.sql.ast import (
    Aggregate,
    BetweenExpr,
    BinaryExpr,
    BooleanExpr,
    ColumnRef,
    Comparison,
    InExpr,
    LikeExpr,
    Literal,
    NotExpr,
    OrderBy,
    SelectStatement,
)
from repro.db.sql.builder import QueryBuilder
from repro.db.sql.executor import SQLExecutor, execute
from repro.db.sql.lexer import SQLToken, tokenize_sql
from repro.db.sql.parser import parse_select

__all__ = [
    "Aggregate",
    "BetweenExpr",
    "BinaryExpr",
    "BooleanExpr",
    "ColumnRef",
    "Comparison",
    "InExpr",
    "LikeExpr",
    "Literal",
    "NotExpr",
    "OrderBy",
    "SelectStatement",
    "QueryBuilder",
    "SQLExecutor",
    "execute",
    "SQLToken",
    "tokenize_sql",
    "parse_select",
]
