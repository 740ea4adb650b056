"""The write path: a write maintains exactly what it changes.

An update validates only the values it is given and moves the row
between index entries only for the columns whose stored value changed;
inserts and deletes index each column of their row once.  Three things
are held here:

* **index storms** — seeded mutation streams against a plain and a
  4-shard table, comparing every hash bucket and every NULL set with a
  table built fresh over the same rows (ids preserved) after every
  step;
* **the update contract** — each update's record column order and its
  :class:`~repro.db.table.UpdateDelta` (changed columns, old and new
  values, in order) equal the written-out full-row merge that
  :meth:`Table.update` performed before it re-indexed only the changed
  columns;
* **substring lookups** — a numeric column raises, and NULL never
  matches (``str(None)`` contains "one").
"""

from __future__ import annotations

import random

import pytest

from repro.db.database import Database
from repro.db.schema import AttributeType, Column, TableSchema
from repro.db.table import UpdateDelta
from repro.errors import SchemaError
from tests.conftest import small_car_schema

SHARD_LAYOUTS = {"plain": None, "4-shard": 4}
STORM_STEPS = 300

MAKES = [("honda", "accord"), ("honda", "civic"), ("toyota", "corolla"),
         ("mazda", "mx5"), ("ford", "focus")]
COLORS = ["blue", "red", "green", "silver"]
TRANSMISSIONS = ["automatic", "manual"]
NOTES = ["one owner", "garaged", "new tires"]


def storm_schema() -> TableSchema:
    """The small cars schema plus ``note``, a categorical Type III
    column, which gets a NULL index but no hash index."""
    schema = small_car_schema()
    return TableSchema(
        table_name=schema.table_name,
        columns=[*schema.columns, Column("note", AttributeType.TYPE_III)],
    )


def index_image(table) -> list:
    """Every hash bucket and NULL set, per shard (one entry for a plain
    table)."""
    return [
        (
            {
                name: {value: set(ids) for value, ids in index._buckets.items()}
                for name, index in shard._hash_indexes.items()
            },
            {name: set(index.ids()) for name, index in shard._null_indexes.items()},
        )
        for shard in getattr(table, "shards", [table])
    ]


def fresh_image(table) -> list:
    """:func:`index_image` of a table built fresh over *table*'s rows."""
    fresh = Database().create_table(
        table.schema, shards=getattr(table, "shard_count", None)
    )
    for record in table.snapshot():
        fresh.insert(dict(record), record_id=record.record_id)
    return index_image(fresh)


def merged_update(schema, record, values) -> tuple:
    """The full-row merge an update is held to, written out: merge
    *values* over the stored row, validate the whole row, and report
    the columns whose normalized value differs, in row order."""
    merged = dict(record)
    merged.update(values)
    normalized = schema.validate_record(merged)
    changed = tuple(
        column for column, value in normalized.items()
        if record.get(column) != value
    )
    return (
        list(normalized.items()),
        changed,
        [(column, record.get(column)) for column in changed],
        [(column, normalized[column]) for column in changed],
    )


def random_row(rng: random.Random) -> dict:
    """A row with NULLs, some of them absent keys."""
    make, model = rng.choice(MAKES)
    row = {
        "make": make,
        "model": model,
        "color": rng.choice(COLORS + [None]),
        "transmission": rng.choice(TRANSMISSIONS + [None]),
        "year": rng.choice([None, rng.randint(1990, 2011)]),
        "price": rng.choice([None, rng.randint(500, 40000)]),
        "mileage": rng.choice([None, rng.randint(0, 200000)]),
        "note": rng.choice(NOTES + [None]),
    }
    for column in ("color", "transmission", "mileage", "note"):
        if rng.random() < 0.3:
            del row[column]  # absent, not just None
    return row


def random_update(rng: random.Random, record) -> dict:
    """Updates of Type I, II and III columns, to and from NULL, absent
    to present, and no-ops after normalization."""
    shape = rng.choice(
        ["type_i", "type_ii", "type_iii", "null", "absent", "noop", "mixed"]
    )
    if shape == "type_i":
        make, model = rng.choice(MAKES)
        return rng.choice([{"make": make}, {"model": model.upper()}])
    if shape == "type_ii":
        return {rng.choice(["color", "transmission"]): rng.choice(COLORS)}
    if shape == "type_iii":
        return rng.choice(
            [{"price": rng.randint(500, 40000)}, {"year": str(rng.randint(1990, 2011))},
             {"note": rng.choice(NOTES)}, {"mileage": rng.randint(0, 5) * 1.5}]
        )
    if shape == "null":
        column = rng.choice(["color", "transmission", "price", "note", "year"])
        return {column: None}
    if shape == "absent":
        missing = [
            column for column in ("color", "transmission", "mileage", "note")
            if column not in record
        ]
        if not missing:
            return {}
        column = rng.choice(missing)
        present = {"color": COLORS, "transmission": TRANSMISSIONS,
                   "mileage": [1000, 20000], "note": NOTES}
        return {column: rng.choice(present[column])}
    if shape == "noop":
        column = rng.choice(["make", "color", "price", "note"])
        value = record.get(column)
        # "Blue" over "blue" normalizes to the stored value.
        return {column.upper(): value.title() if isinstance(value, str) else value}
    return {
        "Color": rng.choice(COLORS + [None]),
        "price": rng.choice([None, rng.randint(500, 40000)]),
        "make": record["make"],
        "note": rng.choice(NOTES),
    }


REJECTED_UPDATES = [{"make": ""}, {"model": None}, {"price": "nan"},
                    {"color": "red", "year": "soon"}, {"wheels": 4}]


@pytest.mark.parametrize("layout", list(SHARD_LAYOUTS))
def test_indexes_equal_a_fresh_build_after_every_write(layout):
    rng = random.Random(2407)
    table = Database().create_table(storm_schema(), shards=SHARD_LAYOUTS[layout])
    events: list = []
    table.add_listener(events.append)
    for _ in range(20):
        table.insert(random_row(rng))
    deleted: list[int] = []
    for step in range(STORM_STEPS):
        live = sorted(table.all_ids())
        roll = rng.random()
        if roll < 0.15 or len(live) < 5:
            table.insert(random_row(rng))
        elif roll < 0.2:
            # Explicit ids: reuse a deleted one, or skip ahead.
            record_id = deleted.pop() if deleted else table._next_id + 3
            table.insert(random_row(rng), record_id=record_id)
        elif roll < 0.32:
            record_id = rng.choice(live)
            table.delete(record_id)
            deleted.append(record_id)
        elif roll < 0.37:
            record_id = rng.choice(live)
            before = (dict(table.get(record_id)), index_image(table), table.epoch)
            with pytest.raises(SchemaError):
                table.update(record_id, rng.choice(REJECTED_UPDATES))
            after = (dict(table.get(record_id)), index_image(table), table.epoch)
            assert after == before, f"step {step}: a rejected update wrote"
        else:
            record_id = rng.choice(live)
            record = table.get(record_id)
            values = random_update(rng, record)
            expected = merged_update(table.schema, dict(record), values)
            table.update(record_id, values)
            delta = events[-1]
            assert isinstance(delta, UpdateDelta)
            assert (
                list(record.items()),
                delta.changed_columns,
                list(delta.old_values.items()),
                list(delta.new_values.items()),
            ) == expected, f"step {step}: update {values!r}"
        assert index_image(table) == fresh_image(table), f"step {step}"


@pytest.mark.parametrize("layout", list(SHARD_LAYOUTS))
class TestSubstringLookup:
    def make_table(self, layout):
        table = Database().create_table(storm_schema(), shards=SHARD_LAYOUTS[layout])
        table.insert({"make": "honda", "model": "accord", "note": "one owner"})
        table.insert({"make": "honda", "model": "civic", "note": None})
        table.insert({"make": "ford", "model": "focus"})  # note absent
        return table

    def test_numeric_column_raises(self, layout):
        table = self.make_table(layout)
        with pytest.raises(SchemaError, match="numeric column 'price'"):
            table.lookup_substring("price", "one")

    def test_null_never_matches(self, layout):
        table = self.make_table(layout)
        # str(None) == "None" holds "one"; only the stored value counts.
        assert table.lookup_substring("note", "one") == {1}
        assert table.lookup_substring("note", "") == {1}
        assert table.lookup_substring("color", "") == set()
        assert table.lookup_substring("model", "C") == {1, 2, 3}
