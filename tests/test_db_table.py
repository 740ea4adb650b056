"""Tests for the table layer with automatic index maintenance."""

from __future__ import annotations

import pytest

from repro.db.database import Database
from repro.db.sql.executor import execute
from repro.db.table import (
    DELTA_LOG_LENGTH,
    BatchDelta,
    InsertDelta,
    MutationEvent,
    RemoveDelta,
    UpdateDelta,
)
from repro.errors import RecordNotFoundError, SchemaError, UnknownTableError
from tests.conftest import SMALL_CAR_ROWS, small_car_schema


def _select_ids(database, where: str) -> list[int]:
    """Ids of the ``car_ads`` rows matching *where*, through SQL."""
    return execute(database, f"SELECT * FROM car_ads WHERE {where}").record_ids()


class TestInsert:
    def test_insert_assigns_sequential_ids(self, car_table):
        assert [record.record_id for record in car_table] == list(
            range(1, len(SMALL_CAR_ROWS) + 1)
        )

    def test_len(self, car_table):
        assert len(car_table) == len(SMALL_CAR_ROWS)

    def test_invalid_record_rejected(self, car_table):
        with pytest.raises(SchemaError):
            car_table.insert({"make": "honda"})  # model missing

    @pytest.mark.parametrize(
        "nan", ["nan", "NaN", float("nan")], ids=["text", "mixed-case", "float"]
    )
    def test_nan_numeric_value_rejected(self, car_table, nan):
        # NaN is no number: bisect would misplace it in every sorted
        # structure, so it is never stored.
        with pytest.raises(SchemaError):
            car_table.insert({"make": "honda", "model": "fit", "price": nan})
        assert len(car_table) == len(SMALL_CAR_ROWS)

    def test_get_and_fetch(self, car_table):
        record = car_table.get(1)
        assert record["make"] == "honda"
        assert car_table.get(999) is None
        fetched = car_table.fetch([3, 1, 999])
        assert [r.record_id for r in fetched] == [1, 3]


class TestConcurrentReads:
    def test_scan_survives_an_insert_during_the_scan(self, car_table):
        inserted = []

        def predicate(record):
            if not inserted:
                inserted.append(car_table.insert(dict(SMALL_CAR_ROWS[0])))
            return record["make"] == "honda"

        # The scan reads a snapshot taken before the insert.
        assert car_table.scan(predicate) == {1, 2, 3}
        assert len(car_table) == len(SMALL_CAR_ROWS) + 1


class TestDelete:
    def test_delete_removes_from_indexes(self, car_table):
        before = car_table.lookup_equal("make", "honda")
        assert 1 in before
        car_table.delete(1)
        assert 1 not in car_table.lookup_equal("make", "honda")
        assert car_table.get(1) is None

    def test_delete_missing_raises(self, car_table):
        with pytest.raises(SchemaError):
            car_table.delete(999)

    def test_delete_then_range(self, car_database, car_table):
        car_table.delete(8)  # the 22000 bmw
        assert _select_ids(car_database, "price >= 20000") == []


class TestIndexedLookups:
    def test_lookup_equal_type_i(self, car_table):
        assert car_table.lookup_equal("make", "honda") == {1, 2, 3}

    def test_lookup_equal_case_insensitive(self, car_table):
        assert car_table.lookup_equal("make", "HONDA") == {1, 2, 3}

    def test_lookup_equal_on_numeric_raises(self, car_table):
        # Numeric columns are answered by the ordered column windows.
        with pytest.raises(SchemaError):
            car_table.lookup_equal("price", 9000)

    def test_lookup_substring(self, car_table):
        ids = car_table.lookup_substring("model", "cor")
        models = {car_table.get(record_id)["model"] for record_id in ids}
        assert models == {"accord", "corolla"}

    def test_distinct_values(self, car_table):
        assert car_table.distinct_values("make") == [
            "bmw", "chevy", "ford", "honda", "toyota",
        ]

    def test_scan(self, car_table):
        ids = car_table.scan(lambda record: record["color"] == "blue")
        assert ids == {1, 3, 4, 6}


class TestDatabase:
    def test_create_and_lookup(self):
        database = Database()
        database.create_table(small_car_schema())
        assert database.has_table("car_ads")
        assert database.table("car_ads").name == "car_ads"

    def test_table_name_canonicalization(self):
        database = Database()
        database.create_table(small_car_schema())
        # the paper's "Car Ads" resolves to car_ads
        assert database.table("Car Ads").name == "car_ads"

    def test_duplicate_table_rejected(self):
        database = Database()
        database.create_table(small_car_schema())
        with pytest.raises(ValueError):
            database.create_table(small_car_schema())

    def test_unknown_table(self):
        database = Database()
        with pytest.raises(UnknownTableError):
            database.table("nothing")

    def test_drop_table(self):
        database = Database()
        database.create_table(small_car_schema())
        database.drop_table("car_ads")
        assert not database.has_table("car_ads")
        with pytest.raises(UnknownTableError):
            database.drop_table("car_ads")

    def test_table_names_and_iter(self):
        database = Database()
        database.create_table(small_car_schema())
        assert database.table_names() == ["car_ads"]
        assert len(list(database)) == 1
        assert len(database) == 1


class TestMutationEpochs:
    def test_insert_delete_update_bump_epoch(self, car_table):
        baseline = car_table.epoch
        assert baseline == len(SMALL_CAR_ROWS)  # one bump per seed insert
        record = car_table.insert(dict(car_table.get(1)))
        assert car_table.epoch == baseline + 1
        car_table.update(record.record_id, {"color": "green"})
        assert car_table.epoch == baseline + 2
        car_table.delete(record.record_id)
        assert car_table.epoch == baseline + 3

    def test_listeners_receive_events_in_order(self, car_table):
        events = []
        car_table.add_listener(
            lambda event: events.append(
                (event.kind, event.record_id, event.epoch)
            )
        )
        record = car_table.insert(dict(car_table.get(1)))
        car_table.update(record.record_id, {"color": "green"})
        car_table.delete(record.record_id)
        kinds = [kind for kind, _, _ in events]
        assert kinds == ["insert", "update", "delete"]
        assert [epoch for _, _, epoch in events] == [
            car_table.epoch - 2,
            car_table.epoch - 1,
            car_table.epoch,
        ]
        assert all(rid == record.record_id for _, rid, _ in events)

    def test_deltas_since_returns_the_tail_oldest_first(self, car_table):
        start = car_table.epoch
        record = car_table.insert(dict(car_table.get(1)))
        car_table.update(record.record_id, {"color": "green"})
        car_table.delete(record.record_id)
        tail = car_table.deltas_since(start)
        assert [type(delta) for delta in tail] == [
            InsertDelta,
            UpdateDelta,
            RemoveDelta,
        ]
        assert [delta.epoch for delta in tail] == [start + 1, start + 2, start + 3]
        assert car_table.deltas_since(start + 2) == tail[2:]
        assert car_table.deltas_since(car_table.epoch) == []
        # Bulk writes log every row, though listeners hear one batch.
        car_table.insert_many([dict(SMALL_CAR_ROWS[0]), dict(SMALL_CAR_ROWS[1])])
        assert len(car_table.deltas_since(start + 3)) == 2

    def test_deltas_since_is_none_when_the_log_cannot_bridge(self, car_table):
        # Ahead of the table.
        assert car_table.deltas_since(car_table.epoch + 1) is None
        # The log no longer reaches back.
        start = car_table.epoch
        for price in range(DELTA_LOG_LENGTH + 1):
            car_table.update(1, {"price": 1000 + price})
        assert car_table.deltas_since(start) is None
        assert len(car_table.deltas_since(start + 1)) == DELTA_LOG_LENGTH
        # The epoch set directly, as snapshot restore does: no delta
        # leads to the current state.
        logged = car_table.epoch
        car_table._epoch += 5
        assert car_table.deltas_since(logged) is None
        # The next write is logged against the set epoch.
        car_table.update(1, {"price": 1})
        (delta,) = car_table.deltas_since(logged + 5)
        assert delta.epoch == logged + 6 == car_table.epoch
        assert car_table.deltas_since(logged) is None

    def test_hand_emitted_event_never_enters_the_log(self, car_table):
        heard = []
        car_table.add_listener(heard.append)
        start = car_table.epoch
        car_table._emit(MutationEvent(car_table, "insert", 999, start + 1))
        assert len(heard) == 1
        assert car_table.epoch == start
        assert car_table.deltas_since(start) == []

    def test_remove_listener(self, car_table):
        events = []
        listener = lambda event: events.append(event)  # noqa: E731
        car_table.add_listener(listener)
        car_table.remove_listener(listener)
        car_table.remove_listener(listener)  # unknown: ignored
        car_table.insert(dict(car_table.get(1)))
        assert events == []

    def test_update_revalidates_and_reindexes(self, car_database, car_table):
        record = car_table.get(1)  # blue honda accord
        assert record.record_id in car_table.lookup_equal("color", "blue")
        car_table.update(1, {"color": "Green", "price": 4321})
        assert record["color"] == "green"  # normalized in place, same object
        assert record["price"] == 4321
        assert record.record_id not in car_table.lookup_equal("color", "blue")
        assert record.record_id in car_table.lookup_equal("color", "green")
        assert record.record_id in _select_ids(
            car_database, "price BETWEEN 4000 AND 5000"
        )

    def test_update_unknown_or_invalid(self, car_table):
        with pytest.raises(RecordNotFoundError) as excinfo:
            car_table.update(999, {"color": "red"})
        assert excinfo.value.record_id == 999
        assert excinfo.value.action == "update"
        # Still a SchemaError subclass, so pre-existing catches hold.
        assert isinstance(excinfo.value, SchemaError)
        with pytest.raises(RecordNotFoundError):
            car_table.delete(999)
        with pytest.raises(SchemaError):
            car_table.update(1, {"model": None})  # Type I required
        # A failed validation must not have unindexed the record.
        assert 1 in car_table.lookup_equal("make", "honda")

    def test_update_to_nan_rejected(self, car_database, car_table):
        epoch = car_table.epoch
        with pytest.raises(SchemaError):
            car_table.update(1, {"price": "nan"})
        assert car_table.get(1)["price"] == 9000
        assert car_table.epoch == epoch
        assert 1 in _select_ids(car_database, "price = 9000")

    def test_typed_deltas_carry_payloads(self, car_table):
        events = []
        car_table.add_listener(events.append)
        before = car_table.epoch
        record = car_table.insert(dict(car_table.get(1)))
        car_table.update(record.record_id, {"color": "green", "price": 7500})
        car_table.delete(record.record_id)
        inserted, updated, removed = events
        assert isinstance(inserted, InsertDelta)
        assert inserted.record is record
        # The log holds the very deltas the listeners heard.
        assert car_table.deltas_since(before) == events
        assert isinstance(updated, UpdateDelta)
        assert sorted(updated.changed_columns) == ["color", "price"]
        assert updated.old_values["color"] == "blue"
        assert updated.new_values == {"color": "green", "price": 7500}
        assert isinstance(removed, RemoveDelta)
        assert removed.record is record  # popped object, safe snapshot

    def test_update_delta_reports_only_changed_columns(self, car_table):
        events = []
        car_table.add_listener(events.append)
        # Same stored value (normalization included): no changed columns,
        # but the epoch still advances and the delta still fires.
        before = car_table.epoch
        car_table.update(1, {"color": "Blue"})  # normalizes to stored "blue"
        assert car_table.epoch == before + 1
        assert events[-1].changed_columns == ()

    def test_bulk_deltas_wrap_per_row_deltas(self, car_table):
        events = []
        car_table.add_listener(events.append)
        inserted = car_table.insert_many(
            [dict(SMALL_CAR_ROWS[0]), dict(SMALL_CAR_ROWS[1])]
        )
        assert len(events) == 1
        batch = events[0]
        assert isinstance(batch, BatchDelta)
        assert batch.record_ids == tuple(r.record_id for r in inserted)
        assert [delta.epoch for delta in batch.deltas] == [
            batch.epoch - 1,
            batch.epoch,
        ]
        assert all(isinstance(d, InsertDelta) for d in batch.deltas)
        car_table.remove_many([r.record_id for r in inserted])
        removal = events[-1]
        assert isinstance(removal, BatchDelta) and removal.kind == "delete"
        assert all(isinstance(d, RemoveDelta) for d in removal.deltas)
        assert removal.record_ids == tuple(r.record_id for r in inserted)

    def test_database_listener_covers_future_tables(self):
        database = Database()
        events = []
        database.add_listener(lambda event: events.append(event.table.name))
        table = database.create_table(small_car_schema())  # created *after*
        table.insert(dict(SMALL_CAR_ROWS[0]))
        assert events == ["car_ads"]
        database.remove_listener(events.append)  # unknown: ignored


class TestBulkAndExplicitIds:
    def test_remove_many_notifies_once(self, car_table):
        events = []
        car_table.add_listener(events.append)
        baseline = car_table.epoch
        removed = car_table.remove_many([2, 4, 6])
        assert removed == 3
        assert len(car_table) == len(SMALL_CAR_ROWS) - 3
        assert all(car_table.get(record_id) is None for record_id in (2, 4, 6))
        # Epoch advanced per row, listeners heard one batched event.
        assert car_table.epoch == baseline + 3
        assert len(events) == 1
        assert events[0].kind == "delete" and events[0].record_id == 6
        assert events[0].epoch == car_table.epoch

    def test_remove_many_empty_is_silent(self, car_table):
        events = []
        car_table.add_listener(events.append)
        assert car_table.remove_many([]) == 0
        assert events == []

    def test_remove_many_unknown_id_raises_after_notifying(self, car_table):
        events = []
        car_table.add_listener(events.append)
        with pytest.raises(SchemaError):
            car_table.remove_many([1, 999])
        # The successful prefix was applied and announced.
        assert car_table.get(1) is None
        assert len(events) == 1 and events[0].record_id == 1

    def test_insert_with_explicit_id(self, car_table):
        record = car_table.insert(dict(SMALL_CAR_ROWS[0]), record_id=50)
        assert record.record_id == 50
        assert car_table.get(50) is record
        assert record.record_id in car_table.lookup_equal("make", "honda")
        # The mint advances past explicit ids — no later collision.
        follow = car_table.insert(dict(SMALL_CAR_ROWS[1]))
        assert follow.record_id == 51

    def test_insert_with_taken_id_raises(self, car_table):
        with pytest.raises(SchemaError):
            car_table.insert(dict(SMALL_CAR_ROWS[0]), record_id=1)


class TestDeduplicateBulkDelete:
    def test_deduplicate_notifies_once_per_sweep(self):
        from repro.db.dedup import deduplicate

        database = Database()
        table = database.create_table(small_car_schema())
        table.insert_many(SMALL_CAR_ROWS)
        table.insert_many([dict(SMALL_CAR_ROWS[0]), dict(SMALL_CAR_ROWS[0])])
        events = []
        table.add_listener(events.append)
        removed = deduplicate(table)
        assert removed == 2
        assert len(events) == 1 and events[0].kind == "delete"
