"""Set-algebra evaluation of SELECT statements over the ads database.

The executor turns a WHERE tree into record-id sets: AND is
intersection, OR is union, NOT is complement against the table, and
leaf predicates are answered by the table's indexes —

* equality on Type I/II columns via the hash indexes (the paper's
  primary/secondary indexes),
* numeric comparisons, BETWEEN and superlative extremes via the sorted
  indexes,
* ``LIKE '%needle%'`` via the length-3 substring index (Section 4.5).

NULL handling is two-valued: a NULL value simply fails every predicate
except ``IS NULL``, which is the behaviour CQAds relies on (an ad that
omits a property never matches a constraint on it).

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
* **ordered windows + adaptive access-path planning** — range,
  comparison and BETWEEN leaves are answered by bisecting a
  delta-maintained sorted column window
  (:mod:`repro.perf.window`) into a lazy :class:`_WindowSet` that
  intersects by membership instead of materializing, and a
  per-``(table, column, shape)`` :class:`AccessPlanner` tracks
  observed selectivity to choose between the window and its
  *complement* (when the range matches most of the table) per leaf;
  tables below :data:`MIN_WINDOW_ROWS` rows take the sorted index
  instead.  Every choice is recorded on the executor's ``plan_trace``
  for explain output.

The pseudo-column ``record_id`` is available on every table; CQAds uses
it for the paper's ``Car_ID IN (subquery)`` idiom (Example 7).
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.db.database import Database
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
from repro.db.sql.plan_cache import DEFAULT_PLAN_CACHE, PlanCache
from repro.db.table import Record, Table
from repro.errors import SQLExecutionError
from repro.obs.registry import get_default_registry
from repro.obs.trace import current_span
from repro.perf.window import ColumnWindow, IdWindow, parse_numeric, windows_for

__all__ = [
    "AccessDecision",
    "AccessPlanner",
    "DEFAULT_ACCESS_PLANNER",
    "SQLExecutor",
    "SQLResult",
    "execute",
]

RECORD_ID = "record_id"

#: A range leaf flips to the *complement* representation when its
#: predicted selectivity exceeds this fraction (a wide range has a
#: small outside, so carrying the complement keeps AND chains cheap).
COMPLEMENT_THRESHOLD = 0.5

#: Below this many rows the executor skips windows entirely: the
#: sorted index materializes tiny sets faster than window bookkeeping.
MIN_WINDOW_ROWS = 64

#: Window-assisted ORDER BY only pays off once the sort is big enough
#: to beat Timsort on a cached position map.
WINDOW_ORDER_MIN_ROWS = 512

#: ``plan_trace`` length cap; the oldest half is dropped when hit so
#: long-lived executors cannot leak unbounded trace memory.
MAX_PLAN_TRACE = 4096


@dataclass(frozen=True)
class AccessDecision:
    """One recorded access-path choice for one WHERE leaf (or sort).

    ``shape`` names the leaf family the planner keys on (``range``,
    ``between``, ``lex-range``, ``id-range``, ``id-between``,
    ``order-by``); ``path`` is what was chosen (``window``,
    ``window-complement``, ``index``, ``window-order``);
    ``predicted``/``observed`` are the planner's selectivity estimate
    before the leaf ran and the fraction actually matched (``None``
    when the leaf never consulted a window).
    """

    table: str
    column: str
    shape: str
    path: str
    predicted: float | None
    observed: float | None
    rows: int


class AccessPlanner:
    """Running per-``(table, column, shape)`` selectivity estimates.

    An exponentially weighted moving average (``ALPHA = 0.5``) over
    the observed match fractions: heavy enough smoothing to ignore one
    odd query, fast enough to flip the access path after a couple of
    consistently wide (or narrow) ranges.  Thread-safe; the module
    shares one :data:`DEFAULT_ACCESS_PLANNER` across executors for the
    same reason the plan cache is shared — executors are built per
    call, and a per-instance planner would never learn anything.
    """

    ALPHA = 0.5
    DEFAULT_SELECTIVITY = 0.25

    def __init__(self) -> None:
        self._stats: dict[tuple[str, str, str], float] = {}
        self._lock = threading.Lock()

    def predict(self, key: tuple[str, str, str]) -> float:
        """The current selectivity estimate for *key* (default prior)."""
        return self._stats.get(key, self.DEFAULT_SELECTIVITY)

    def observe(self, key: tuple[str, str, str], selectivity: float) -> None:
        """Fold one observed match fraction into the estimate."""
        with self._lock:
            prior = self._stats.get(key)
            if prior is None:
                self._stats[key] = selectivity
            else:
                self._stats[key] = prior + self.ALPHA * (selectivity - prior)


#: Shared planner instance (see :class:`AccessPlanner`); tests pass a
#: private planner to keep their selectivity history isolated.
DEFAULT_ACCESS_PLANNER = AccessPlanner()


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
        # The complement of an empty window is every id, NULLs included.
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
            # the range (NULL values are outside by definition).
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

    Indexed equality is the cheapest and typically the most selective;
    sorted-index ranges come next; substring/IN lookups after; scans
    and complements (``!=``, NULL tests, NOT) last.  AND chains cost
    what their cheapest operand costs (they can short-circuit there);
    OR chains cost their dearest operand.
    """
    if isinstance(expr, Comparison):
        if expr.value.value is None:
            return 4  # NULL tests scan the table
        if expr.operator == "=":
            return 0
        if expr.operator in ("!=", "<>"):
            return 4
        if isinstance(expr.value.value, str):
            return 3  # lexicographic range on a categorical: full scan
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

    ``plan_cache`` backs :meth:`execute_sql`; the module-wide
    :data:`~repro.db.sql.plan_cache.DEFAULT_PLAN_CACHE` is shared when
    none is given (executors are routinely constructed per call, so a
    per-instance cache would never get warm).

    ``planner`` supplies the selectivity stats that choose each range
    leaf's access path (shared :data:`DEFAULT_ACCESS_PLANNER` when
    omitted).  Each evaluated range leaf appends an
    :class:`AccessDecision` to ``plan_trace``, which the explain
    pipeline surfaces.
    """

    def __init__(
        self,
        database: Database,
        plan_cache: PlanCache | None = None,
        planner: AccessPlanner | None = None,
    ) -> None:
        self.database = database
        self.plan_cache = plan_cache if plan_cache is not None else DEFAULT_PLAN_CACHE
        self.planner = planner if planner is not None else DEFAULT_ACCESS_PLANNER
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
        """Run a SQL string through the plan cache."""
        return self.execute(self.plan_cache.get(sql))

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
                table.name,
                column,
                "order-by",
                "window-order",
                None,
                None,
                len(records),
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
        """The id set matching a WHERE expression against *table*."""
        return self._eval_lazy(table, expr).materialize(table)

    def _eval_lazy(self, table: Table, expr: Expr) -> _IdSet:
        if isinstance(expr, BinaryExpr):
            operands = sorted(_flatten_chain(expr), key=_static_cost)
            accumulated: _IdSet | None = None
            for index, operand in enumerate(operands):
                if accumulated is not None and (
                    accumulated.is_empty()
                    if expr.operator == "AND"
                    else accumulated.is_universal()
                ):
                    # Short-circuit: the outcome is decided.  Still
                    # validate the skipped operands so a malformed
                    # query raises deterministically instead of
                    # depending on which leaf happened to be empty.
                    for skipped in operands[index:]:
                        self._validate_expr(table, skipped)
                    break
                evaluated = self._eval_lazy(table, operand)
                if accumulated is None:
                    accumulated = evaluated
                elif expr.operator == "AND":
                    accumulated = accumulated.intersect(evaluated)
                else:
                    accumulated = accumulated.union(evaluated)
            assert accumulated is not None  # chains have >= 2 operands
            return accumulated
        if isinstance(expr, NotExpr):
            return self._eval_lazy(table, expr.operand).negated()
        if isinstance(expr, Comparison):
            return self._eval_comparison(table, expr)
        if isinstance(expr, BetweenExpr):
            return self._eval_between(table, expr)
        if isinstance(expr, LikeExpr):
            return _IdSet(self._eval_like(table, expr))
        if isinstance(expr, InExpr):
            return _IdSet(self._eval_in(table, expr))
        raise SQLExecutionError(f"unsupported expression node {expr!r}")

    def _validate_expr(self, table: Table, expr: Expr) -> None:
        """Raise exactly the errors evaluating *expr* would, sans work.

        Mirrors each leaf evaluator's error conditions (unknown
        columns, NULL with an ordering operator, numeric columns vs
        non-numbers, BETWEEN/LIKE type constraints, IN-subquery shape)
        so short-circuited operands still surface malformed queries.
        """
        if isinstance(expr, BinaryExpr):
            self._validate_expr(table, expr.left)
            self._validate_expr(table, expr.right)
            return
        if isinstance(expr, NotExpr):
            self._validate_expr(table, expr.operand)
            return
        if isinstance(expr, Comparison):
            name = self._check_column(table, expr.column)
            value = expr.value.value
            operator = "!=" if expr.operator == "<>" else expr.operator
            if value is None:
                if operator not in ("=", "!="):
                    raise SQLExecutionError(
                        "NULL only supports = / != comparisons"
                    )
                return
            if name != RECORD_ID and table.schema.column(name).is_numeric:
                try:
                    float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    raise SQLExecutionError(
                        f"numeric column {name!r} compared to non-number "
                        f"{value!r}"
                    ) from None
            return
        if isinstance(expr, BetweenExpr):
            name = self._check_column(table, expr.column)
            if name != RECORD_ID and not table.schema.column(name).is_numeric:
                raise SQLExecutionError(
                    f"BETWEEN requires a numeric column, got {name!r}"
                )
            _between_bounds(expr)
            return
        if isinstance(expr, LikeExpr):
            name = self._check_column(table, expr.column)
            if name == RECORD_ID:
                raise SQLExecutionError("LIKE is not supported on record_id")
            if table.schema.column(name).is_numeric:
                raise SQLExecutionError(
                    f"LIKE requires a categorical column, got {name!r}"
                )
            return
        if isinstance(expr, InExpr):
            self._check_column(table, expr.column)
            if expr.subquery is not None:
                sub_items = expr.subquery.select_items
                if sub_items == ("*",) or sub_items == ["*"]:
                    raise SQLExecutionError(
                        "IN subquery must select a single column, not *"
                    )
                if len(sub_items) != 1 or not isinstance(sub_items[0], ColumnRef):
                    raise SQLExecutionError(
                        "IN subquery must select exactly one plain column"
                    )
                sub_table = self.database.table(expr.subquery.table)
                if expr.subquery.where is not None:
                    self._validate_expr(sub_table, expr.subquery.where)
            return
        raise SQLExecutionError(f"unsupported expression node {expr!r}")

    def _check_column(self, table: Table, column: ColumnRef) -> str:
        if column.name == RECORD_ID:
            return RECORD_ID
        return table.schema.column(column.name).name

    # Operator -> (low?, high?, include_low, include_high) for the
    # window/index range translation; `=`/`!=` are handled separately.
    _RANGE_BOUNDS = {
        "<": (False, True, True, False),
        "<=": (False, True, True, True),
        ">": (True, False, False, True),
        ">=": (True, False, True, True),
    }

    def _eval_range(
        self,
        table: Table,
        name: str,
        kind: str,
        low: object | None,
        high: object | None,
        include_low: bool,
        include_high: bool,
        shape: str,
    ) -> "_IdSet | _WindowSet | None":
        """Answer one range leaf through the window layer (or decline).

        Returns ``None`` when the index path should run instead (a
        table too small for windows to pay off); otherwise builds the
        column's :class:`~repro.perf.window.IdWindow` — one segment per
        shard — observes its selectivity, and returns either the lazy
        window or (predicted-wide ranges) its complement as a plain
        outside-ids set.  Every outcome lands on ``plan_trace``.
        """
        rows = len(table)
        if rows < MIN_WINDOW_ROWS:
            self._record(
                AccessDecision(table.name, name, shape, "index", None, None, rows)
            )
            return None
        windows = windows_for(table).column_windows(name)
        window = IdWindow(
            table, name, kind, low, high, include_low, include_high, windows
        )
        observed = (window.count() / rows) if rows else 0.0
        key = (table.name, name, shape)
        predicted = self.planner.predict(key)
        self.planner.observe(key, observed)
        if predicted > COMPLEMENT_THRESHOLD:
            # Predicted wide: carry the (small) complement instead.
            # The complement of "in range" is "outside the range or
            # NULL", so the NULL ids join the outside set.
            outside = window.outside()
            if kind != ColumnWindow.RECORD_ID:
                outside |= table.null_ids(name)
            self._record(
                AccessDecision(
                    table.name,
                    name,
                    shape,
                    "window-complement",
                    predicted,
                    observed,
                    rows,
                )
            )
            return _IdSet(outside, complemented=True)
        self._record(
            AccessDecision(
                table.name, name, shape, "window", predicted, observed, rows
            )
        )
        return _WindowSet(window)

    def _eval_comparison(
        self, table: Table, expr: Comparison
    ) -> "_IdSet | _WindowSet":
        name = self._check_column(table, expr.column)
        value = expr.value.value
        operator = "!=" if expr.operator == "<>" else expr.operator
        if value is None:
            if operator not in ("=", "!="):
                raise SQLExecutionError("NULL only supports = / != comparisons")
            if name != RECORD_ID:
                # Delta-maintained null index; copied because _IdSet
                # results can escape into caches.
                null_ids = set(table.null_ids(name))
            else:
                # The record_id pseudo-column: `record.get(...)` is
                # always None, so `= NULL` matches every record (a
                # quirk callers rely on).
                null_ids = table.scan(lambda record: record.get(name) is None)
            if operator == "=":
                return _IdSet(null_ids)
            return _IdSet(null_ids, complemented=True)
        if name == RECORD_ID:
            target = _literal_number(value)
            if target is None:
                return _IdSet(set())
            if operator in ("=", "!="):
                # A non-integral literal equals no id.
                record_id = _integral(target)
                ids: set[int] = set()
                if record_id is not None and table.get(record_id) is not None:
                    ids.add(record_id)
                return _IdSet(ids, complemented=operator == "!=")
            bounds = self._RANGE_BOUNDS[operator]
            result = self._eval_range(
                table,
                RECORD_ID,
                ColumnWindow.RECORD_ID,
                target if bounds[0] else None,
                target if bounds[1] else None,
                bounds[2],
                bounds[3],
                "id-range",
            )
            if result is not None:
                return result
            return _IdSet(
                {
                    record_id
                    for record_id in table.all_ids()
                    if _compare(record_id, operator, target)
                }
            )
        column = table.schema.column(name)
        if column.is_numeric:
            try:
                number = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise SQLExecutionError(
                    f"numeric column {name!r} compared to non-number {value!r}"
                ) from None
            if operator == "=":
                return _IdSet(table.lookup_range(name, number, number))
            if operator == "!=":
                return _IdSet(
                    table.lookup_range(name, number, number), complemented=True
                )
            bounds = self._RANGE_BOUNDS[operator]
            result = self._eval_range(
                table,
                name,
                ColumnWindow.NUMERIC,
                number if bounds[0] else None,
                number if bounds[1] else None,
                bounds[2],
                bounds[3],
                "range",
            )
            if result is not None:
                return result
            if operator == "<":
                return _IdSet(
                    table.lookup_range(name, None, number, include_high=False)
                )
            if operator == "<=":
                return _IdSet(table.lookup_range(name, None, number))
            if operator == ">":
                return _IdSet(
                    table.lookup_range(name, number, None, include_low=False)
                )
            return _IdSet(table.lookup_range(name, number, None))
        text = str(value).lower()
        if operator == "=":
            return _IdSet(table.lookup_equal(name, text))
        if operator == "!=":
            # NULLs fail every predicate, != included: complement the
            # matches *and* the NULLs.  The delta-maintained null
            # index replaces what used to be a full-table re-scan; the
            # `|` allocates a fresh set, leaving the live index alone.
            matched = table.lookup_equal(name, text)
            return _IdSet(matched | table.null_ids(name), complemented=True)
        # Lexicographic comparisons on categorical columns: the sorted
        # categorical window (string-keyed) replaces the full scan.
        bounds = self._RANGE_BOUNDS[operator]
        result = self._eval_range(
            table,
            name,
            ColumnWindow.CATEGORICAL,
            text if bounds[0] else None,
            text if bounds[1] else None,
            bounds[2],
            bounds[3],
            "lex-range",
        )
        if result is not None:
            return result
        return _IdSet(
            table.scan(
                lambda record: record.get(name) is not None
                and _compare(str(record.get(name)), operator, text)
            )
        )

    def _eval_between(
        self, table: Table, expr: BetweenExpr
    ) -> "_IdSet | _WindowSet":
        name = self._check_column(table, expr.column)
        if name == RECORD_ID:
            low, high = _between_bounds(expr)
            result = self._eval_range(
                table,
                RECORD_ID,
                ColumnWindow.RECORD_ID,
                low,
                high,
                True,
                True,
                "id-between",
            )
            if result is not None:
                return result
            return _IdSet(
                {rid for rid in table.all_ids() if low <= rid <= high}
            )
        column = table.schema.column(name)
        if not column.is_numeric:
            raise SQLExecutionError(
                f"BETWEEN requires a numeric column, got {name!r}"
            )
        low_f, high_f = map(float, _between_bounds(expr))
        result = self._eval_range(
            table,
            name,
            ColumnWindow.NUMERIC,
            low_f,
            high_f,
            True,
            True,
            "between",
        )
        if result is not None:
            return result
        return _IdSet(table.lookup_range(name, low_f, high_f))

    def _eval_like(self, table: Table, expr: LikeExpr) -> set[int]:
        name = self._check_column(table, expr.column)
        if name == RECORD_ID:
            raise SQLExecutionError("LIKE is not supported on record_id")
        column = table.schema.column(name)
        if column.is_numeric:
            raise SQLExecutionError(
                f"LIKE requires a categorical column, got {name!r}"
            )
        pattern = expr.pattern.lower()
        stripped = pattern.strip("%")
        if "%" not in stripped and pattern.startswith("%") and pattern.endswith("%"):
            # The common '%needle%' shape: answered by the substring
            # index directly.
            return table.lookup_substring(name, stripped)
        regex = re.compile(
            "^" + ".*".join(re.escape(part) for part in pattern.split("%")) + "$"
        )
        return table.scan(
            lambda record: record.get(name) is not None
            and regex.match(str(record.get(name))) is not None
        )

    def _eval_in(self, table: Table, expr: InExpr) -> set[int]:
        name = self._check_column(table, expr.column)
        if expr.subquery is not None:
            sub_result = self.execute(expr.subquery)
            sub_items = expr.subquery.select_items
            if sub_items == ("*",) or sub_items == ["*"]:
                raise SQLExecutionError(
                    "IN subquery must select a single column, not *"
                )
            if len(sub_items) != 1 or not isinstance(sub_items[0], ColumnRef):
                raise SQLExecutionError(
                    "IN subquery must select exactly one plain column"
                )
            values = set(sub_result.column_values(sub_items[0].name))
        else:
            values = {literal.value for literal in expr.values}
        if name == RECORD_ID:
            wanted = {_integral(_literal_number(value)) for value in values}
            return table.all_ids() & wanted
        column = table.schema.column(name)
        result: set[int] = set()
        for value in values:
            if value is None:
                continue
            if column.is_numeric:
                try:
                    result |= table.lookup_range(name, float(value), float(value))  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    continue
            else:
                result |= table.lookup_equal(name, str(value).lower())
        return result


def _literal_number(value: object) -> int | float | None:
    """A literal's numeric value; ``None`` for NULL, non-numbers and NaN.

    Integers stay exact and everything else takes the canonical float
    parse (:func:`~repro.perf.window.parse_numeric`), so ``2.5`` stays
    2.5 instead of truncating to 2.
    """
    if isinstance(value, int):
        return value
    number = parse_numeric(value)
    if number is None or math.isnan(number):
        return None
    return number


def _integral(number: int | float | None) -> int | None:
    """The record id equal to *number*; ``None`` when there is none."""
    if isinstance(number, float):
        return int(number) if number.is_integer() else None
    return number


def _between_bounds(expr: BetweenExpr) -> tuple[int | float, int | float]:
    """BETWEEN's bounds as numbers; a NULL or non-numeric bound raises."""
    if expr.low.value is None or expr.high.value is None:
        raise SQLExecutionError("BETWEEN bounds must not be NULL")
    low, high = _literal_number(expr.low.value), _literal_number(expr.high.value)
    if low is None or high is None:
        raise SQLExecutionError(
            f"BETWEEN bounds must be numbers, got {expr.low.value!r} "
            f"and {expr.high.value!r}"
        )
    return low, high


def _compare(left, operator: str, right) -> bool:
    if operator == "=":
        return left == right
    if operator == "!=":
        return left != right
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise SQLExecutionError(f"unknown operator {operator!r}")


def execute(database: Database, sql: str) -> SQLResult:
    """Convenience one-shot: parse and execute *sql* against *database*."""
    return SQLExecutor(database).execute_sql(sql)
