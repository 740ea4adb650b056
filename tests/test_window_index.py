"""Ordered window indexes + selectivity-adaptive planning.

Three batteries:

* **mutation-storm parity** — a seeded storm of inserts, updates,
  deletes and bulk batches (duplicate values, NULL columns, empty
  windows included) over a plain table and sharded facades
  (shards ∈ {1, 2, 4}); after every round, each query of a range-heavy
  battery must return exactly the records its written-down predicate
  selects, and the delta-maintained per-column null index must agree
  with a fresh scan.  The storm starts once from the 8-row table and
  once from an 80-row one; at either size every interval leaf takes a
  window or its complement;
* **planner decisions** — observed selectivity flips a leaf from the
  lazy window to its complement representation, with identical
  results, and every choice lands on the executor's ``plan_trace``;
* **delta maintenance** — an instrumented rebuild counter proves a
  point update splices the window in place (no rebuild); after every
  storm round each built window, caught up from the table's delta log,
  equals a fresh build (no duplicate or dead ids).  The gaps the log
  cannot bridge are pinned once for every consumer in
  ``tests/test_delta_log.py``.
"""

from __future__ import annotations

import random

import pytest

from tests.conftest import SMALL_CAR_ROWS, small_car_schema
from repro.db.database import Database
from repro.db.sql.executor import AccessPlanner, SQLExecutor
from repro.perf.window import ColumnWindow, windows_for

MAKES = ("honda", "toyota", "ford", "bmw", "chevy", "kia")
MODELS = ("accord", "civic", "camry", "corolla", "focus", "malibu", "rio")
COLORS = ("blue", "red", "white", "black", "silver", None)
TRANSMISSIONS = ("automatic", "manual", None)

SELECT = "SELECT * FROM car_ads WHERE "


def _has(record, column: str, test) -> bool:
    """A stored value passing *test*: NULL fails every comparison."""
    value = record.get(column)
    return value is not None and test(value)


#: Range-heavy battery, each WHERE clause with the predicate that
#: defines its answer: numeric ranges (incl. an empty window and a
#: nearly-universal one), numeric = and IN (non-numbers and NULL in an
#: IN list match nothing), BETWEEN, record_id ranges/BETWEEN/IN (ids
#: compare by numeric value, so no id equals 2.5), string-lex
#: comparisons, != and NOT = with NULLs in play (numeric != complements
#: =, so NULLs pass; categorical != fails NULLs), NULL tests, and
#: combinations.
BATTERY = (
    ("price < 8000", lambda r: _has(r, "price", lambda v: v < 8000)),
    ("price <= 8500", lambda r: _has(r, "price", lambda v: v <= 8500)),
    ("price > 900000", lambda r: _has(r, "price", lambda v: v > 900000)),
    ("price >= 500", lambda r: _has(r, "price", lambda v: v >= 500)),
    ("mileage > 120000", lambda r: _has(r, "mileage", lambda v: v > 120000)),
    ("year = 2004", lambda r: _has(r, "year", lambda v: v == 2004)),
    ("price = 9000", lambda r: _has(r, "price", lambda v: v == 9000)),
    ("NOT year = 2004", lambda r: r.get("year") != 2004),
    (
        "price IN (4500, 9000, 'x', NULL)",
        lambda r: _has(r, "price", lambda v: v in (4500, 9000)),
    ),
    (
        "price BETWEEN 4000 AND 9000",
        lambda r: _has(r, "price", lambda v: 4000 <= v <= 9000),
    ),
    (
        "year BETWEEN 2000 AND 2006",
        lambda r: _has(r, "year", lambda v: 2000 <= v <= 2006),
    ),
    ("record_id BETWEEN 3 AND 17", lambda r: 3 <= r.record_id <= 17),
    ("record_id > 5", lambda r: r.record_id > 5),
    ("record_id <= 10", lambda r: r.record_id <= 10),
    ("record_id = 2.5", lambda r: False),
    ("record_id >= 2.5", lambda r: r.record_id >= 2.5),
    ("record_id < 2.5", lambda r: r.record_id < 2.5),
    ("record_id BETWEEN 2.5 AND 4", lambda r: 2.5 <= r.record_id <= 4),
    ("record_id IN (2.5, 3)", lambda r: r.record_id == 3),
    ("year != 2004", lambda r: r.get("year") != 2004),
    ("color != 'blue'", lambda r: _has(r, "color", lambda v: v != "blue")),
    ("color > 'blue'", lambda r: _has(r, "color", lambda v: v > "blue")),
    ("color < 'silver'", lambda r: _has(r, "color", lambda v: v < "silver")),
    ("color IS NULL", lambda r: r.get("color") is None),
    ("transmission IS NOT NULL", lambda r: r.get("transmission") is not None),
    (
        "make = 'honda' AND price < 9000",
        lambda r: r.get("make") == "honda"
        and _has(r, "price", lambda v: v < 9000),
    ),
    (
        "make = 'honda' AND year IN (2004, 2005)",
        lambda r: r.get("make") == "honda"
        and _has(r, "year", lambda v: v in (2004, 2005)),
    ),
    (
        "price < 5000 OR mileage > 150000",
        lambda r: _has(r, "price", lambda v: v < 5000)
        or _has(r, "mileage", lambda v: v > 150000),
    ),
    (
        "NOT (price BETWEEN 4000 AND 9000)",
        lambda r: not _has(r, "price", lambda v: 4000 <= v <= 9000),
    ),
    (
        "make = 'honda' AND price BETWEEN 3000 AND 12000 AND mileage < 150000",
        lambda r: r.get("make") == "honda"
        and _has(r, "price", lambda v: 3000 <= v <= 12000)
        and _has(r, "mileage", lambda v: v < 150000),
    ),
)


def _fresh_database(shards: int | None, rows=SMALL_CAR_ROWS):
    database = Database()
    table = database.create_table(small_car_schema(), shards=shards)
    table.insert_many(rows)
    return database, table


def _random_row(rng: random.Random) -> dict[str, object]:
    # price quantized to 500s to force duplicate values in the window.
    return {
        "make": rng.choice(MAKES),
        "model": rng.choice(MODELS),
        "color": rng.choice(COLORS),
        "transmission": rng.choice(TRANSMISSIONS),
        "year": rng.choice((None, rng.randint(1990, 2011))),
        "price": rng.choice((None, float(rng.randrange(500, 20000, 500)))),
        "mileage": rng.choice((None, rng.randint(0, 250000))),
    }


def _mutate(table, rng: random.Random, live: list[int]) -> None:
    roll = rng.random()
    if roll < 0.40 or not live:
        live.append(table.insert(_random_row(rng)).record_id)
    elif roll < 0.60:
        victim = rng.choice(live)
        column = rng.choice(("color", "transmission", "year", "price", "mileage"))
        table.update(victim, {column: _random_row(rng)[column]})
    elif roll < 0.75:
        victim = live.pop(rng.randrange(len(live)))
        table.delete(victim)
    elif roll < 0.90:
        for record in table.insert_many(
            [_random_row(rng) for _ in range(3)]
        ):
            live.append(record.record_id)
    else:
        count = min(len(live), 2)
        victims = [live.pop(rng.randrange(len(live))) for _ in range(count)]
        if victims:
            table.remove_many(victims)


def _assert_battery(executor: SQLExecutor, table) -> None:
    records = table.snapshot()
    for where, predicate in BATTERY:
        expected = sorted(r.record_id for r in records if predicate(r))
        got = sorted(executor.execute_sql(SELECT + where).record_ids())
        assert got == expected, f"wrong records for {where!r}"


def _assert_null_index_parity(table) -> None:
    for column in ("make", "color", "transmission", "year", "price", "mileage"):
        expected = table.scan(lambda record: record.get(column) is None)
        assert set(table.null_ids(column)) == expected


def _assert_windows_match_fresh(table) -> None:
    """Every built window, caught up, equals a fresh build of its table
    or shard: same ``(value, id)`` pairs, no duplicate or dead ids."""
    for source in getattr(table, "shards", None) or [table]:
        source_windows = windows_for(source)
        for column in list(source_windows._windows):
            window = source_windows.window(column)
            fresh = ColumnWindow(column, window.kind, source)
            assert list(window.ids) == list(fresh.ids), column
            assert window.values == fresh.values, column


def _storm(shards: int | None, rows) -> set[str]:
    """Run the storm from *rows*; the access paths its leaves took."""
    database, table = _fresh_database(shards, rows)
    # A private planner keeps selectivity history isolated per test.
    executor = SQLExecutor(database, planner=AccessPlanner())
    rng = random.Random(2026_08_08 + (shards or 0))
    live = sorted(table.all_ids())
    _assert_battery(executor, table)
    for _ in range(6):
        for _ in range(12):
            _mutate(table, rng, live)
        _assert_battery(executor, table)
        _assert_null_index_parity(table)
        _assert_windows_match_fresh(table)
    return {decision.path for decision in executor.plan_trace}


@pytest.mark.parametrize("shards", [None, 1, 2, 4])
def test_mutation_storm_parity(shards):
    """From the 8-row table: even tiny tables take the windows."""
    paths = _storm(shards, SMALL_CAR_ROWS)
    assert "window" in paths
    assert paths <= {"window", "window-complement"}


@pytest.mark.parametrize("shards", [None, 1, 2, 4])
def test_mutation_storm_parity_from_large_table(shards):
    """From an 80-row table: leaves take windows or their complements."""
    rng = random.Random(2026_08_09)
    rows = [_random_row(rng) for _ in range(80)]
    paths = _storm(shards, rows)
    assert "window" in paths
    assert paths <= {"window", "window-complement"}


def test_empty_table_and_empty_window():
    database = Database()
    database.create_table(small_car_schema())
    executor = SQLExecutor(database, planner=AccessPlanner())
    for where, _ in BATTERY:
        assert executor.execute_sql(SELECT + where).record_ids() == []


def test_record_id_between_bisects_not_scans():
    """record_id BETWEEN answers from the id window, holes included."""
    database, table = _bulk_database()
    table.delete(3)  # a hole inside the range
    executor = SQLExecutor(database, planner=AccessPlanner())
    sql = SELECT + "record_id BETWEEN 2 AND 6"
    assert sorted(executor.execute_sql(sql).record_ids()) == [2, 4, 5, 6]
    decision = executor.plan_trace[-1]
    assert (decision.shape, decision.path) == ("id-between", "window")


# ----------------------------------------------------------------------
# planner decisions
# ----------------------------------------------------------------------
def _bulk_database(rows: int = 400):
    rng = random.Random(99)
    database = Database()
    table = database.create_table(small_car_schema())
    table.insert_many(
        {
            "make": rng.choice(MAKES),
            "model": rng.choice(MODELS),
            "color": rng.choice(COLORS),
            "transmission": rng.choice(TRANSMISSIONS),
            "year": rng.randint(1990, 2011),
            "price": float(rng.randrange(500, 40000, 100)),
            "mileage": rng.randint(0, 250000),
        }
        for _ in range(rows)
    )
    return database, table


def test_selectivity_flip_switches_access_path():
    database, table = _bulk_database()
    planner = AccessPlanner()
    adaptive = SQLExecutor(database, planner=planner)

    narrow = "SELECT * FROM car_ads WHERE price < 600"
    adaptive.execute_sql(narrow)
    first = adaptive.plan_trace[-1]
    assert first.path == "window"
    assert first.shape == "range"
    assert first.table == "car_ads" and first.column == "price"
    assert first.rows == len(table)
    assert first.observed is not None and 0.0 <= first.observed <= 1.0

    # Consistently wide ranges drive the EWMA past the complement
    # threshold; the decision flips and the answers must not move.
    wide = "SELECT * FROM car_ads WHERE price > 0"
    expected = sorted(r.record_id for r in table if r["price"] > 0)
    paths = []
    for _ in range(4):
        assert sorted(adaptive.execute_sql(wide).record_ids()) == expected
        paths.append(adaptive.plan_trace[-1].path)
    assert paths[0] == "window"
    assert paths[-1] == "window-complement"


def test_plan_trace_records_window_path_on_tiny_tables():
    database, _ = _fresh_database(None)  # 8 rows
    adaptive = SQLExecutor(database, planner=AccessPlanner())
    adaptive.execute_sql("SELECT * FROM car_ads WHERE price < 8000")
    assert adaptive.plan_trace[-1].path == "window"
    assert adaptive.plan_summary() == "window x1"


def test_plan_summary_counts_paths():
    database, _ = _bulk_database()
    executor = SQLExecutor(database, planner=AccessPlanner())
    assert executor.plan_summary() == "no planned leaves"
    executor.execute_sql("SELECT * FROM car_ads WHERE price < 600")
    executor.execute_sql("SELECT * FROM car_ads WHERE price < 600")
    assert "window x2" in executor.plan_summary()


def test_window_assisted_order_by_matches_sort():
    database, table = _bulk_database(rows=600)
    # Sprinkle NULL prices so the absent-last rule is exercised.
    for record_id in list(table.all_ids())[:25]:
        table.update(record_id, {"price": None})
    adaptive = SQLExecutor(database, planner=AccessPlanner())
    # Present prices by (price, id); DESC reverses them; NULLs last by id.
    present = _window_ids_by_price(table)
    absent = sorted(r.record_id for r in table if r.get("price") is None)
    for sql, expected in (
        ("SELECT * FROM car_ads ORDER BY price", present + absent),
        ("SELECT * FROM car_ads ORDER BY price DESC", present[::-1] + absent),
        ("SELECT * FROM car_ads ORDER BY price LIMIT 40", present[:40]),
    ):
        assert adaptive.execute_sql(sql).record_ids() == expected
    assert any(d.path == "window-order" for d in adaptive.plan_trace)


# ----------------------------------------------------------------------
# delta maintenance (instrumented rebuild counter)
# ----------------------------------------------------------------------
def _window_ids_by_price(table) -> list[int]:
    records = sorted(
        (record for record in table if record.get("price") is not None),
        key=lambda record: (float(record["price"]), record.record_id),
    )
    return [record.record_id for record in records]


def test_point_update_patches_window_in_place():
    database, table = _fresh_database(None)
    table_windows = windows_for(table)
    window = table_windows.window("price")
    assert table_windows.rebuild_count("price") == 1
    table.update(1, {"price": 9100.0})
    table.update(2, {"color": "black"})  # untouched column: epoch-only
    patched = table_windows.window("price")
    assert patched is window  # same object, spliced — no re-sort
    assert table_windows.rebuild_count("price") == 1
    assert list(patched.ids) == _window_ids_by_price(table)
    assert patched.epoch == table.epoch


def test_batch_deltas_splice_without_rebuild():
    database, table = _fresh_database(None)
    table_windows = windows_for(table)
    table_windows.window("price")
    table.insert_many(
        [
            {"make": "kia", "model": "rio", "price": 9000.0},
            {"make": "kia", "model": "rio", "price": 100.0},
            {"make": "kia", "model": "rio", "price": None},
        ]
    )
    table.remove_many([1, 2])
    window = table_windows.window("price")
    assert table_windows.rebuild_count("price") == 1
    assert list(window.ids) == _window_ids_by_price(table)


def test_sharded_windows_stay_live_across_sibling_mutations():
    database, facade = _fresh_database(4)
    windows = windows_for(facade)
    segments = {id(w): w.epoch for w in windows.column_windows("price")}
    # Mutate one record: exactly one shard's window should move.
    victim = min(facade.all_ids())
    facade.update(victim, {"price": 123.0})
    moved = 0
    for window in windows.column_windows("price"):
        if window.epoch != segments[id(window)]:
            moved += 1
    assert moved == 1
    assert windows.rebuild_count("price") == 4  # one initial build per shard
