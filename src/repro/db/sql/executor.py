"""Set-algebra evaluation of SELECT statements over the ads database.

The executor turns a WHERE tree into record-id sets: AND is
intersection, OR is union, NOT is complement against the table, and
leaf predicates are answered by one structure per column kind —

* categorical equality via the table's hash indexes (the paper's
  primary/secondary indexes),
* every other comparison and BETWEEN leaf — numeric equality and
  ``IN`` lists, numeric, lexicographic and ``record_id`` ranges — via
  the ordered column windows (:mod:`repro.perf.window`),
* every ``LIKE`` pattern via the hash index's distinct values, each
  tested once, the matching buckets unioned (Section 4.5's substring
  matching; see :mod:`repro.db.indexes`).

The tree compiles before it runs (:func:`compile_where`): every
comparison and BETWEEN leaf, NOTs folded in, becomes a
:class:`~repro.db.predicate.Predicate` of the predicate kernel, which
holds the one definition of what a leaf accepts — NULLs included —
and checks its literals, so a malformed leaf raises even when
evaluation would skip it.  The executor answers each leaf's accepted
interval from a hash index or a window, adds the NULL ids when the
leaf's NULL verdict asks for them, and complements when the leaf is
complemented.

Three performance devices keep the WHERE evaluation cheap without
changing any result set (all pure set algebra — see
``PERFORMANCE.md``):

* **lazy complements** — ``NOT`` and ``!=`` produce a
  :class:`_IdSet` carrying a *complemented* flag instead of
  materializing ``all_ids() - ids``; complements combine with AND/OR
  symbolically and are subtracted from the table at most once, at the
  top of the tree;
* **selectivity-ordered conjunctions** — AND (and OR) chains are
  flattened and evaluated cheapest-leaf-first (indexed equality before
  ranges before substring scans before complements), short-circuiting
  as soon as the accumulated intersection is empty (or the union
  covers the table);
* **ordered windows** — numeric equality, range, comparison and
  BETWEEN leaves are answered by bisecting a delta-maintained sorted
  column window (:mod:`repro.perf.window`) into a lazy
  :class:`_WindowSet` that intersects by membership instead of
  materializing; a leaf whose window holds more than
  ``COMPLEMENT_THRESHOLD`` of the table's rows is carried as its
  *complement* instead, whatever the table's size.  The choice is
  made from the leaf's own count, so it depends only on the leaf and
  the table, and is recorded on the executor's ``plan_trace`` for
  explain output.

The pseudo-column ``record_id`` is available on every table; CQAds uses
it for the paper's ``Car_ID IN (subquery)`` idiom (Example 7).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Union

from repro.db.database import Database
from repro.db.predicate import (
    CATEGORICAL,
    NUMERIC,
    RECORD_ID,
    Predicate,
    between,
    comparison,
    literal_number,
    parse_numeric,
)
from repro.db.sql.ast import (
    Aggregate,
    BetweenExpr,
    BinaryExpr,
    ColumnRef,
    Comparison,
    Expr,
    InExpr,
    LikeExpr,
    NotExpr,
    SelectStatement,
)
from repro.db.sql.parser import parse_select
from repro.db.table import Record, Table
from repro.errors import SQLExecutionError
from repro.obs.registry import get_default_registry
from repro.obs.trace import current_span
from repro.perf.window import IdWindow, windows_for

__all__ = [
    "AccessDecision",
    "SQLExecutor",
    "SQLResult",
    "compile_leaf",
    "compile_where",
    "execute",
]

#: A range leaf is carried as its *complement* when its window holds
#: more than this fraction of the table's rows (a wide range has a
#: small outside, so carrying the complement keeps AND chains cheap).
COMPLEMENT_THRESHOLD = 0.5

#: Window-assisted ORDER BY only pays off once the sort is big enough
#: to beat Timsort on a cached position map.
WINDOW_ORDER_MIN_ROWS = 512

#: ``plan_trace`` length cap; the oldest half is dropped when hit so
#: long-lived executors cannot leak unbounded trace memory.
MAX_PLAN_TRACE = 4096


@dataclass(frozen=True)
class AccessDecision:
    """One recorded access-path choice for one WHERE leaf (or sort).

    ``shape`` names the leaf family (``equal``, ``range``,
    ``between``, ``lex-range``, ``id-range``, ``id-between``,
    ``order-by``); ``path`` is what was chosen (``window``,
    ``window-complement``, ``window-order``); ``observed`` is the
    fraction of the table's ``rows`` the leaf matched, which chose the
    path (``None`` for an ORDER BY).
    """

    table: str
    column: str
    shape: str
    path: str
    observed: float | None
    rows: int


class _IdSet:
    """A possibly-complemented record-id set.

    ``ids`` holds the matching ids when ``complemented`` is False, and
    the *non*-matching ids otherwise (relative to the table's full id
    set).  Leaf sets are always subsets of the table, so flipping the
    flag is an exact lazy NOT.
    """

    __slots__ = ("ids", "complemented")

    def __init__(self, ids: set[int], complemented: bool = False) -> None:
        self.ids = ids
        self.complemented = complemented

    def negated(self) -> "_IdSet":
        return _IdSet(self.ids, not self.complemented)

    def intersect(self, other: "_IdSet | _WindowSet") -> "_IdSet":
        if isinstance(other, _WindowSet):
            return other.intersect(self)  # intersection commutes
        if not self.complemented and not other.complemented:
            return _IdSet(self.ids & other.ids)
        if not self.complemented:
            return _IdSet(self.ids - other.ids)
        if not other.complemented:
            return _IdSet(other.ids - self.ids)
        return _IdSet(self.ids | other.ids, True)

    def union(self, other: "_IdSet | _WindowSet") -> "_IdSet":
        if isinstance(other, _WindowSet):
            return other.union(self)  # union commutes
        if not self.complemented and not other.complemented:
            return _IdSet(self.ids | other.ids)
        if not self.complemented:
            return _IdSet(other.ids - self.ids, True)
        if not other.complemented:
            return _IdSet(self.ids - other.ids, True)
        return _IdSet(self.ids & other.ids, True)

    def is_empty(self) -> bool:
        """Definitely matches nothing (complements are never empty
        without consulting the table, so they report False)."""
        return not self.complemented and not self.ids

    def is_universal(self) -> bool:
        """Definitely matches the whole table."""
        return self.complemented and not self.ids

    def materialize(self, table: Table) -> set[int]:
        if self.complemented:
            return table.all_ids() - self.ids
        return self.ids


class _WindowSet:
    """A lazy range-leaf result: an :class:`~repro.perf.window.IdWindow`
    participating in the :class:`_IdSet` algebra without materializing.

    As long as it only meets plain (non-complemented) sets it stays a
    window: emptiness/universality are slice arithmetic, and an
    intersection probes membership (one record fetch + bounds check
    per candidate) when the other side is smaller than the window —
    the payoff case, since a selective AND chain evaluates its cheap
    equality leaves first.  Any operation that genuinely needs the
    ids (union, complement-vs-complement) forces a one-time
    materialization into a plain :class:`_IdSet`.
    """

    __slots__ = ("window", "complemented")

    def __init__(self, window: IdWindow, complemented: bool = False) -> None:
        self.window = window
        self.complemented = complemented

    def negated(self) -> "_WindowSet":
        return _WindowSet(self.window, not self.complemented)

    def _plain(self) -> _IdSet:
        return _IdSet(self.window.materialize(), self.complemented)

    def is_empty(self) -> bool:
        return not self.complemented and self.window.count() == 0

    def is_universal(self) -> bool:
        # The complement of an empty window is every id (NULL rows,
        # being in no window, included).
        return self.complemented and self.window.count() == 0

    def intersect(self, other: "_IdSet | _WindowSet") -> _IdSet:
        if isinstance(other, _WindowSet):
            other = other._plain()
        if not other.complemented:
            if not self.complemented:
                if self.window.count() <= len(other.ids):
                    return _IdSet(self.window.materialize() & other.ids)
                return _IdSet(
                    {rid for rid in other.ids if rid in self.window}
                )
            # complemented window ∩ plain set: keep the ids *outside*
            # the range (NULL rows are in no window, so outside).
            return _IdSet({rid for rid in other.ids if rid not in self.window})
        if not self.complemented:
            return _IdSet(self.window.materialize() - other.ids)
        return _IdSet(self.window.materialize() | other.ids, True)

    def union(self, other: "_IdSet | _WindowSet") -> _IdSet:
        if isinstance(other, _WindowSet):
            other = other._plain()
        return self._plain().union(other)

    def materialize(self, table: Table) -> set[int]:
        ids = self.window.materialize()
        if self.complemented:
            return table.all_ids() - ids
        return ids


def _flatten_chain(expr: BinaryExpr) -> list[Expr]:
    """Flatten a left-deep AND/OR chain into its operand list."""
    operator = expr.operator
    operands: list[Expr] = []
    stack: list[Expr] = [expr.right, expr.left]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryExpr) and node.operator == operator:
            stack.append(node.right)
            stack.append(node.left)
        else:
            operands.append(node)
    return operands


def _static_cost(expr: Expr) -> int:
    """Rough evaluation-cost rank of a WHERE leaf (lower = cheaper).

    Equality (a hash lookup or a one-key window slice) is the cheapest
    and typically the most selective; numeric window ranges come next;
    substring/IN lookups and lexicographic ranges after; NULL tests
    and complements (``!=``, NOT) last.  AND chains cost what their
    cheapest operand costs (they can short-circuit there); OR chains
    cost their dearest operand.
    """
    if isinstance(expr, Comparison):
        if expr.value.value is None:
            return 4  # NULL tests: the null index, complemented for != NULL
        if expr.operator == "=":
            return 0
        if expr.operator in ("!=", "<>"):
            return 4
        if isinstance(expr.value.value, str):
            return 3  # lexicographic range: a string-keyed window
        return 1
    if isinstance(expr, BetweenExpr):
        return 1
    if isinstance(expr, LikeExpr):
        return 2
    if isinstance(expr, InExpr):
        return 5 if expr.subquery is not None else 2
    if isinstance(expr, NotExpr):
        return 4 + _static_cost(expr.operand)
    if isinstance(expr, BinaryExpr):
        left, right = _static_cost(expr.left), _static_cost(expr.right)
        base = min(left, right) if expr.operator == "AND" else max(left, right)
        return base + 1
    return 6


@dataclass
class SQLResult:
    """Outcome of a SELECT.

    ``records`` always holds the matching records in output order;
    ``rows`` holds the projected rows (dicts) when the select list was
    not ``*``; ``scalars`` holds aggregate values keyed by their SQL
    rendering (e.g. ``"MIN(price)"``).
    """

    records: list[Record] = field(default_factory=list)
    rows: list[dict[str, object]] = field(default_factory=list)
    scalars: dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records) if not self.scalars else len(self.rows)

    def record_ids(self) -> list[int]:
        return [record.record_id for record in self.records]

    def column_values(self, column: str) -> list[object]:
        """Values of *column* across the result, in output order."""
        column = column.lower()
        if column == RECORD_ID:
            return [record.record_id for record in self.records]
        return [record.get(column) for record in self.records]


class SQLExecutor:
    """Evaluates parsed SELECT statements against a database.

    Each evaluated windowed leaf appends an :class:`AccessDecision` to
    ``plan_trace``, which the explain pipeline surfaces.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self.plan_trace: list[AccessDecision] = []
        #: Decisions evicted by the ``MAX_PLAN_TRACE`` cap — surfaced in
        #: :meth:`plan_summary` so a truncated trace is never mistaken
        #: for a complete one.
        self.plan_dropped = 0

    def _record(self, decision: AccessDecision) -> None:
        if len(self.plan_trace) >= MAX_PLAN_TRACE:
            evicted = MAX_PLAN_TRACE // 2
            del self.plan_trace[:evicted]
            self.plan_dropped += evicted
            get_default_registry().counter(
                "repro_plan_trace_dropped_total"
            ).value += evicted
            current = current_span()
            if current is not None:
                current.add_event(
                    "plan_trace_dropped", evicted=evicted, total=self.plan_dropped
                )
        self.plan_trace.append(decision)

    def plan_summary(self) -> str:
        """Compact ``path xN`` rendering of ``plan_trace`` for explain.

        Reports ``dropped N`` when the trace cap evicted decisions, so
        the counts are known to be a floor rather than exact.
        """
        counts: dict[str, int] = {}
        for decision in self.plan_trace:
            counts[decision.path] = counts.get(decision.path, 0) + 1
        if not counts and not self.plan_dropped:
            return "no planned leaves"
        summary = ", ".join(
            f"{path} x{count}" for path, count in sorted(counts.items())
        )
        if self.plan_dropped:
            suffix = f"dropped {self.plan_dropped}"
            summary = f"{summary}, {suffix}" if summary else suffix
        return summary

    # ------------------------------------------------------------------
    def execute(self, statement: SelectStatement) -> SQLResult:
        """Run *statement* and return a :class:`SQLResult`."""
        table = self.database.table(statement.table)
        if statement.where is None:
            ids = table.all_ids()
        else:
            ids = self.eval_where(table, statement.where)
        return self._finish(table, statement, ids)

    def execute_with_ids(
        self, statement: SelectStatement, ids: Iterable[int]
    ) -> SQLResult:
        """Run *statement*'s post-WHERE phases over a precomputed id set.

        The shared-subplan relaxation engine derives each N-1 pool's id
        set by intersecting cached per-unit sets; this entry point runs
        the identical ordering/limit/projection code on them, so the
        two paths cannot drift apart.
        """
        table = self.database.table(statement.table)
        return self._finish(table, statement, ids)

    def _finish(
        self, table: Table, statement: SelectStatement, ids: Iterable[int]
    ) -> SQLResult:
        records = table.fetch(ids)
        sort_keys = list(statement.order_by) + list(statement.group_by)
        if sort_keys:
            records = self._sort(table, records, sort_keys)
        if statement.limit is not None:
            records = records[: statement.limit]
        return self._project(table, statement, records)

    def execute_sql(self, sql: str) -> SQLResult:
        """Parse and run a SQL string."""
        return self.execute(parse_select(sql))

    # ------------------------------------------------------------------
    # projection and ordering
    # ------------------------------------------------------------------
    def _sort(
        self, table: Table, records: list[Record], keys: list
    ) -> list[Record]:
        def sort_key(record: Record):
            parts = []
            for key in keys:
                value = self._record_value(record, key.column)
                # None sorts after everything, regardless of direction.
                missing = value is None
                if isinstance(value, str):
                    ordinal: object = value
                else:
                    ordinal = value if value is not None else 0
                if key.descending and isinstance(ordinal, (int, float)):
                    ordinal = -ordinal
                parts.append((missing, ordinal))
            parts.append(record.record_id)
            return tuple(parts)

        # String columns with DESC need a separate pass since strings
        # cannot be negated; handle the common single-key case directly.
        if len(keys) == 1:
            key = keys[0]
            column = key.column.name

            def single(record: Record):
                value = self._record_value(record, key.column)
                return (value is None, value if value is not None else 0, record.record_id)

            ordered = self._window_sorted(table, records, column)
            if ordered is None:
                ordered = sorted(records, key=single)
            if key.descending:
                present = [r for r in ordered if r.get(column) is not None or column == RECORD_ID]
                absent = [r for r in ordered if r.get(column) is None and column != RECORD_ID]
                present.reverse()
                return present + absent
            return ordered
        return sorted(records, key=sort_key)

    def _window_sorted(
        self, table: Table, records: list[Record], column: str
    ) -> list[Record] | None:
        """Order *records* via the column window's cached position map.

        The window's id array is already ``(value asc, id asc)`` —
        exactly the single-key sort order for present values — so a
        big enough sort becomes a position lookup per record plus one
        integer sort, instead of Timsort over tuple keys.  Declines
        (``None``) for small inputs, sharded facades (per-shard
        positions don't merge), non-numeric keys and ``record_id``
        (already id-sorted by ``fetch``).
        """
        if column == RECORD_ID or getattr(table, "shards", None) is not None:
            return None
        if len(records) < WINDOW_ORDER_MIN_ROWS:
            return None
        if not table.schema.has_column(column):
            return None
        if not table.schema.column(column).is_numeric:
            return None
        positions = windows_for(table).window(column).order_positions()
        present: list[tuple[int, Record]] = []
        absent: list[Record] = []
        for record in records:  # fetch() order: id-ascending
            position = positions.get(record.record_id)
            if position is None:
                absent.append(record)  # NULL sorts last, id-ascending
            else:
                present.append((position, record))
        present.sort(key=lambda pair: pair[0])
        self._record(
            AccessDecision(
                table.name, column, "order-by", "window-order", None, len(records)
            )
        )
        return [record for _, record in present] + absent

    def _record_value(self, record: Record, column: ColumnRef) -> object:
        if column.name == RECORD_ID:
            return record.record_id
        return record.get(column.name)

    def _project(
        self, table: Table, statement: SelectStatement, records: list[Record]
    ) -> SQLResult:
        items = statement.select_items
        if items == ("*",) or items == ["*"]:
            return SQLResult(records=records)
        aggregates = [item for item in items if isinstance(item, Aggregate)]
        if aggregates:
            if len(aggregates) != len(items):
                raise SQLExecutionError(
                    "cannot mix aggregates and plain columns in a select list"
                )
            scalars: dict[str, object] = {}
            for aggregate in aggregates:
                values = [
                    self._record_value(record, aggregate.column)
                    for record in records
                ]
                values = [value for value in values if value is not None]
                if not values:
                    scalars[aggregate.to_sql()] = None
                elif aggregate.function == "MIN":
                    scalars[aggregate.to_sql()] = min(values)  # type: ignore[type-var]
                else:
                    scalars[aggregate.to_sql()] = max(values)  # type: ignore[type-var]
            return SQLResult(records=records, scalars=scalars)
        rows = []
        for record in records:
            row: dict[str, object] = {}
            for item in items:
                assert isinstance(item, ColumnRef)
                if item.name != RECORD_ID and not table.schema.has_column(item.name):
                    raise SQLExecutionError(
                        f"unknown column {item.name!r} in select list of "
                        f"{table.name!r}"
                    )
                row[item.name] = self._record_value(record, item)
            rows.append(row)
        return SQLResult(records=records, rows=rows)

    # ------------------------------------------------------------------
    # WHERE evaluation
    # ------------------------------------------------------------------
    def eval_where(self, table: Table, expr: Expr) -> set[int]:
        """The id set matching a WHERE expression against *table*.

        The whole tree compiles (:func:`compile_where`) before any of it
        runs, so a malformed leaf raises even when short-circuiting
        would skip it.
        """
        compiled = compile_where(table, expr, self.database)
        return self._eval(table, compiled).materialize(table)

    def _eval(self, table: Table, node: "Compiled") -> "_IdSet | _WindowSet":
        if isinstance(node, Predicate):
            return self._eval_leaf(table, node)
        if isinstance(node, _Chain):
            accumulated: _IdSet | _WindowSet | None = None
            for operand in node.operands:
                if accumulated is not None and (
                    accumulated.is_empty()
                    if node.operator == "AND"
                    else accumulated.is_universal()
                ):
                    break  # short-circuit: the outcome is decided
                evaluated = self._eval(table, operand)
                if accumulated is None:
                    accumulated = evaluated
                elif node.operator == "AND":
                    accumulated = accumulated.intersect(evaluated)
                else:
                    accumulated = accumulated.union(evaluated)
            assert accumulated is not None  # chains have >= 2 operands
            return accumulated
        if isinstance(node, _Not):
            return self._eval(table, node.operand).negated()
        if isinstance(node, LikeExpr):
            return _IdSet(self._eval_like(table, node))
        return _IdSet(self._eval_in(table, node))

    def _eval_leaf(self, table: Table, leaf: Predicate) -> "_IdSet | _WindowSet":
        """A compiled leaf's id set: the ids whose key lies in its
        interval, joined by the NULL ids when the NULL verdict sides
        with the interval, complemented when the leaf is."""
        ids = self._interval_ids(table, leaf)
        if leaf.null_verdict != leaf.complement:
            # union() allocates: the live null index never escapes.
            ids = ids.union(_IdSet(table.null_ids(leaf.column)))
        return ids.negated() if leaf.complement else ids

    def _interval_ids(self, table: Table, leaf: Predicate) -> "_IdSet | _WindowSet":
        """The ids whose key lies in *leaf*'s accepted interval."""
        shape = leaf.shape
        if shape == "empty":
            return _IdSet(set())
        if shape == "all":
            return _IdSet(table.all_ids())
        if shape == "equal" and leaf.kind == CATEGORICAL:
            return _IdSet(table.lookup_equal(leaf.column, leaf.low))
        if shape == "equal" and leaf.kind == RECORD_ID:
            # A non-integral literal equals no id.
            record_id = _integral(leaf.low)  # type: ignore[arg-type]
            if record_id is None or table.get(record_id) is None:
                return _IdSet(set())
            return _IdSet({record_id})
        return self._eval_range(table, leaf)

    def _eval_range(self, table: Table, leaf: Predicate) -> "_IdSet | _WindowSet":
        """Answer one interval leaf through the window layer.

        Builds the column's :class:`~repro.perf.window.IdWindow` — one
        segment per shard — and counts it: a leaf matching more than
        ``COMPLEMENT_THRESHOLD`` of the table's rows is returned as its
        complement, a plain set of the outside ids, and any other leaf
        as the lazy window.  Every outcome lands on ``plan_trace``.
        """
        name, shape = leaf.column, leaf.shape
        rows = len(table)
        window = IdWindow(table, leaf, windows_for(table).column_windows(name))
        observed = (window.count() / rows) if rows else 0.0
        if observed > COMPLEMENT_THRESHOLD:
            # Wide: carry the (small) complement instead — the windowed
            # ids outside the range plus the unwindowed NULL rows.
            outside = window.outside()
            if leaf.kind != RECORD_ID:
                outside |= table.null_ids(name)
            path, ids = "window-complement", _IdSet(outside, complemented=True)
        else:
            path, ids = "window", _WindowSet(window)
        self._record(AccessDecision(table.name, name, shape, path, observed, rows))
        return ids

    def _eval_like(self, table: Table, expr: LikeExpr) -> set[int]:
        name = expr.column.name
        pattern = expr.pattern.lower()
        stripped = pattern.strip("%")
        if "%" not in stripped and pattern.startswith("%") and pattern.endswith("%"):
            # The common '%needle%' shape: a plain substring test.
            return table.lookup_substring(name, stripped)
        regex = re.compile(
            "^" + ".*".join(re.escape(part) for part in pattern.split("%")) + "$"
        )
        return table.lookup_where(
            name, lambda value: regex.match(value) is not None
        )

    def _eval_in(self, table: Table, expr: InExpr) -> set[int]:
        name = expr.column.name
        if expr.subquery is not None:
            sub_result = self.execute(expr.subquery)
            column = expr.subquery.select_items[0]
            assert isinstance(column, ColumnRef)  # checked at compile
            values = set(sub_result.column_values(column.name))
        else:
            values = {literal.value for literal in expr.values}
        if name == RECORD_ID:
            wanted = {_integral(literal_number(value)) for value in values}
            return table.all_ids() & wanted
        result: set[int] = set()
        if table.schema.column(name).is_numeric:
            # The union of one window slice per value (and per shard).
            windows = windows_for(table).column_windows(name)
            for number in {parse_numeric(value) for value in values} - {None}:
                for window in windows:
                    start, stop = window.bounds(number, number)
                    result.update(window.ids[start:stop])
            return result
        for value in values:
            if value is not None:
                result |= table.lookup_equal(name, str(value).lower())
        return result


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
class _Chain(NamedTuple):
    """A compiled AND/OR chain, operands cheapest-first."""

    operator: str
    operands: tuple

    def matches(self, record: Record) -> bool:
        if self.operator == "AND":
            return all(operand.matches(record) for operand in self.operands)
        return any(operand.matches(record) for operand in self.operands)


class _Not(NamedTuple):
    """NOT over a compiled chain, LIKE or IN (leaves fold their NOT)."""

    operand: object

    def matches(self, record: Record) -> bool:
        return not self.operand.matches(record)  # type: ignore[attr-defined]


#: A compiled WHERE node: a kernel leaf, a chain, a NOT, or a checked
#: LIKE / IN node.  Trees built from comparisons, BETWEEN, AND, OR and
#: NOT (every relaxation unit's) answer ``matches(record)``.
Compiled = Union[Predicate, _Chain, _Not, LikeExpr, InExpr]


def compile_leaf(expr: Expr, column: str, kind: str) -> Predicate:
    """A comparison or BETWEEN leaf, under any NOTs, as a kernel
    :class:`~repro.db.predicate.Predicate` over a column of *kind*."""
    if isinstance(expr, NotExpr):
        return compile_leaf(expr.operand, column, kind).negated()
    if isinstance(expr, BetweenExpr):
        return between(column, kind, expr.low.value, expr.high.value)
    assert isinstance(expr, Comparison)
    return comparison(column, kind, expr.operator, expr.value.value)


def _column_kind(table: Table, column: ColumnRef) -> tuple[str, str]:
    """The canonical column name and its kernel kind (unknown columns
    raise)."""
    if column.name == RECORD_ID:
        return RECORD_ID, RECORD_ID
    resolved = table.schema.column(column.name)
    return resolved.name, NUMERIC if resolved.is_numeric else CATEGORICAL


def compile_where(
    table: Table, expr: Expr, database: Database | None = None
) -> Compiled:
    """Compile a WHERE tree against *table*'s schema.

    Leaves become kernel predicates with their NOTs folded in, AND/OR
    chains flatten and order their operands cheapest-first, and LIKE
    and IN nodes are checked.  Every error a malformed tree can raise
    is raised here.  *database* resolves IN-subquery tables.
    """
    if isinstance(expr, BinaryExpr):
        operands = sorted(_flatten_chain(expr), key=_static_cost)
        return _Chain(
            expr.operator,
            tuple(compile_where(table, operand, database) for operand in operands),
        )
    if isinstance(expr, NotExpr):
        operand = compile_where(table, expr.operand, database)
        return operand.negated() if isinstance(operand, Predicate) else _Not(operand)
    if isinstance(expr, (Comparison, BetweenExpr)):
        name, kind = _column_kind(table, expr.column)
        return compile_leaf(expr, name, kind)
    if isinstance(expr, LikeExpr):
        name, kind = _column_kind(table, expr.column)
        if kind == RECORD_ID:
            raise SQLExecutionError("LIKE is not supported on record_id")
        if kind == NUMERIC:
            raise SQLExecutionError(
                f"LIKE requires a categorical column, got {name!r}"
            )
        return LikeExpr(ColumnRef(name), expr.pattern)
    if isinstance(expr, InExpr):
        name, _kind = _column_kind(table, expr.column)
        subquery = expr.subquery
        if subquery is not None:
            items = subquery.select_items
            if items == ("*",) or items == ["*"]:
                raise SQLExecutionError(
                    "IN subquery must select a single column, not *"
                )
            if len(items) != 1 or not isinstance(items[0], ColumnRef):
                raise SQLExecutionError(
                    "IN subquery must select exactly one plain column"
                )
            if database is None:
                raise SQLExecutionError("IN subqueries need a database")
            if subquery.where is not None:
                compile_where(database.table(subquery.table), subquery.where, database)
        return InExpr(ColumnRef(name), subquery, expr.values)
    raise SQLExecutionError(f"unsupported expression node {expr!r}")


def _integral(number: int | float | None) -> int | None:
    """The record id equal to *number*; ``None`` when there is none."""
    if isinstance(number, float):
        return int(number) if number.is_integer() else None
    return number


def execute(database: Database, sql: str) -> SQLResult:
    """Convenience one-shot: parse and execute *sql* against *database*."""
    return SQLExecutor(database).execute_sql(sql)
