"""Relational database substrate.

The paper runs CQAds on MySQL with one table per ads domain, a primary
index on Type I attributes, secondary indexes on Type II attributes and
a substring index of length 3 on all attributes (Sections 4.1 and 4.5).
This subpackage is a from-scratch, in-memory reimplementation of that
substrate:

* :mod:`repro.db.schema` — typed columns carrying the paper's
  Type I/II/III attribute classification;
* :mod:`repro.db.table` — record storage with validation and automatic
  index maintenance;
* :mod:`repro.db.indexes` — hash (primary/secondary) and NULL
  indexes; the hash index also answers Section 4.5's substring
  matching;
* :mod:`repro.db.database` — the named-table catalog;
* :mod:`repro.db.sql` — lexer, parser, AST and executor for the SQL
  subset CQAds generates (nested ``IN`` subqueries, ``BETWEEN``,
  ``LIKE``, ``ORDER BY``/``GROUP BY``, ``LIMIT``, ``MIN``/``MAX``).
"""

from repro.db.database import Database
from repro.db.schema import AttributeType, Column, ColumnKind, TableSchema
from repro.db.table import (
    BatchDelta,
    InsertDelta,
    MutationEvent,
    Record,
    RemoveDelta,
    Table,
    UpdateDelta,
)

__all__ = [
    "AttributeType",
    "BatchDelta",
    "Column",
    "ColumnKind",
    "InsertDelta",
    "MutationEvent",
    "RemoveDelta",
    "TableSchema",
    "Record",
    "Table",
    "UpdateDelta",
    "Database",
]
