"""The delta log's one replay rule, held for every consumer.

Each table keeps a bounded log of its row deltas
(:meth:`~repro.db.table.Table.deltas_since`); a sharded table's
consumers read each shard's own log.  Every derived structure — a
column window, a ranking column store, a fragment id-set — records the
epoch of the last delta it applied and, on read, either replays the
log's tail or rebuilds when the log cannot bridge the gap.  This file
pins that rule once for all three consumers, on a plain and a 4-shard
table:

* a point write patches: no rebuild, state equal to a fresh build;
* each gap the log cannot bridge — more writes than it holds, a
  snapshot restore (which sets the epoch directly), a table dropped
  and re-created under the same name — gives exactly one rebuild per
  gapped shard (siblings untouched) and state equal to a fresh build.

Rebuilds are measured where each consumer exposes them: the windows'
``rebuild_count``, the stores' identity and slot memo (only a rebuild
mints a new memo), and the fragment cache's misses.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.db.database import Database
from repro.db.predicate import NUMERIC
from repro.db.schema import AttributeType
from repro.db.sql.executor import SQLExecutor
from repro.db.table import DELTA_LOG_LENGTH
from repro.obs import MetricsRegistry, set_default_registry
from repro.perf.colrank import ColumnStore
from repro.perf.fragment_cache import FragmentCache
from repro.perf.subplan import unit_id_sets
from repro.perf.window import ColumnWindow, windows_for
from repro.qa.conditions import Condition, ConditionOp
from repro.qa.pipeline import CQAds
from repro.ranking.rank_sim import RankingResources, ScoringUnit
from repro.ranking.ti_matrix import TIMatrix
from repro.ranking.ws_matrix import WSMatrix
from repro.store.codec import restore_table, table_frame
from tests.conftest import small_car_schema, store_image

TYPE_I_COLUMNS = ["make", "model"]
COLUMN = "price"
UNIT = ScoringUnit(
    conditions=(Condition("price", AttributeType.TYPE_III, ConditionOp.LT, 10000),)
)
LAYOUTS = {"plain": None, "4shards": 4}


def _rows(count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            "make": rng.choice(["honda", "toyota", "ford"]),
            "model": rng.choice(["accord", "corolla", "focus"]),
            "color": rng.choice(["blue", "red", None]),
            "price": rng.choice([None, rng.randint(500, 30000)]),
        }
        for _ in range(count)
    ]


def _sources(table) -> list:
    return getattr(table, "shards", None) or [table]


# ----------------------------------------------------------------------
# one probe per consumer: read() returns per-shard state and counts the
# rebuilds the read caused; fresh() is the same state built from scratch
# ----------------------------------------------------------------------
class WindowProbe:
    def __init__(self, database, table) -> None:
        self.table = table
        self.rebuilds = 0

    def retarget(self, table) -> None:
        self.table = table

    def read(self) -> list:
        windows = windows_for(self.table)
        before = windows.rebuild_count(COLUMN)
        segments = windows.column_windows(COLUMN)
        self.rebuilds += windows.rebuild_count(COLUMN) - before
        return [(list(w.ids), list(w.values)) for w in segments]

    def fresh(self) -> list:
        return [
            (list(w.ids), list(w.values))
            for w in (ColumnWindow(COLUMN, NUMERIC, s) for s in _sources(self.table))
        ]


#: Class-column sets the store probe groups by (``None`` is the Type I
#: key), as the single-unit ranking asks for them.
GROUPINGS = ((None,), ("color",), ("price",), ("price", "color"))


def _store_state(store: ColumnStore):
    return store_image(store, GROUPINGS)


class StoreProbe:
    def __init__(self, database, table) -> None:
        self.resources = RankingResources(
            ti_matrix=TIMatrix(),
            ws_matrix=WSMatrix(),
            value_ranges={},
            type_i_columns=list(TYPE_I_COLUMNS),
        )
        self.resources.attach_table(table)
        self.stores: list[ColumnStore] | None = None
        self.rebuilds = 0

    def retarget(self, table) -> None:
        self.resources.attach_table(table)

    def read(self) -> list:
        resources = self.resources
        if getattr(resources.table, "shards", None) is None:
            stores = [resources.column_store()]
        else:
            stores = resources.shard_column_stores()
        if self.stores is not None:
            # Only a rebuild mints a new slot memo; a patch shares it,
            # and must carry every grouping over (or it is built again).
            self.rebuilds += sum(
                store._slot_memo is not old._slot_memo
                or any(columns not in store._groupings for columns in GROUPINGS)
                for store, old in zip(stores, self.stores)
            )
        self.stores = list(stores)
        return [_store_state(store) for store in stores]

    def fresh(self) -> list:
        return [
            _store_state(ColumnStore(s, TYPE_I_COLUMNS))
            for s in _sources(self.resources.table)
        ]


class FragmentProbe:
    def __init__(self, database, table) -> None:
        # A bare cache: no engine sweeps it when a table drops, so the
        # re-created table must be told apart by the cache itself.
        self.cache = FragmentCache()
        self.executor = SQLExecutor(database)
        self.table = table
        self.rebuilds = 0

    def retarget(self, table) -> None:
        self.table = table

    def read(self) -> list:
        misses = self.cache.misses
        ids = unit_id_sets(self.executor, self.table, [UNIT], self.cache)
        self.rebuilds += self.cache.misses - misses
        return ids

    def fresh(self) -> list:
        return unit_id_sets(self.executor, self.table, [UNIT], None)


PROBES = {"window": WindowProbe, "store": StoreProbe, "fragment": FragmentProbe}


def _warm_table(layout: str):
    database = Database()
    table = database.create_table(small_car_schema(), shards=LAYOUTS[layout])
    table.insert_many(_rows(40, seed=5))
    return database, table


# ----------------------------------------------------------------------
# the gaps
# ----------------------------------------------------------------------
def _overflow(table) -> int:
    """More writes than the log holds, all on one record: only its
    shard gaps."""
    victim = min(table.all_ids())
    for price in range(DELTA_LOG_LENGTH + 1):
        table.update(victim, {"price": 500 + price})
    return 1


def _restore(table, probe_factory):
    """A snapshot restore: the probe warms on the freshly created (empty)
    table, then the codec inserts the image and sets every epoch
    directly.  Every record of the image was updated once, so no shard's
    epoch equals its insert count and every shard gaps."""
    for record in table.snapshot():
        table.update(record.record_id, {"color": "silver"})
    frame = table_frame(table)
    target = Database()
    create = target.create_table
    probes = []

    def create_and_warm(*args, **kwargs):
        created = create(*args, **kwargs)
        probe = probe_factory(target, created)
        probe.read()
        probes.append(probe)
        return created

    target.create_table = create_and_warm
    restore_table(target, frame)
    restored = target.table(table.name)
    return restored, probes[0], len(_sources(restored))


def _recreate(database, table, probe):
    """Drop the table and create one of the same name with different
    rows, written past the old table's epoch: every shard of the new
    table builds once."""
    rows = [dict(record) for record in table.snapshot()][1:] + _rows(8, seed=7)
    database.drop_table(table.name)
    recreated = database.create_table(
        table.schema, shards=getattr(table, "shard_count", None)
    )
    recreated.insert_many(rows)
    probe.retarget(recreated)
    return recreated, len(_sources(recreated))


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("consumer", list(PROBES))
def test_point_write_patches_without_rebuild(consumer, layout):
    database, table = _warm_table(layout)
    probe = PROBES[consumer](database, table)
    probe.read()
    built = probe.rebuilds
    ids = sorted(table.all_ids())
    table.update(ids[0], {"price": 1234})
    table.delete(ids[1])
    inserted = table.insert(_rows(1, seed=6)[0])
    table.update(inserted.record_id, {"price": 4321})
    # A Type I update moves a record between classes; an explicit id
    # below the largest lands mid-array.
    moved = table.snapshot()[2]
    table.update(moved.record_id, {"make": "saab", "model": "9-3"})
    table.delete(ids[5])
    table.insert(_rows(1, seed=8)[0], record_id=ids[5])
    state = probe.read()
    assert probe.rebuilds == built
    assert state == probe.fresh()


@pytest.mark.parametrize("gap", ["overflow", "restore", "recreate"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("consumer", list(PROBES))
def test_gap_rebuilds_once(consumer, layout, gap):
    database, table = _warm_table(layout)
    factory = PROBES[consumer]
    if gap == "restore":
        table, probe, gapped = _restore(table, factory)
    else:
        probe = factory(database, table)
        probe.read()
        if gap == "overflow":
            gapped = _overflow(table)
        else:
            table, gapped = _recreate(database, table, probe)
    before = probe.rebuilds
    state = probe.read()
    assert probe.rebuilds - before == gapped
    assert state == probe.fresh()
    # The rebuilt state is current: the next read rebuilds nothing.
    assert probe.read() == state
    assert probe.rebuilds - before == gapped


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_fragment_the_log_cannot_bring_forward_is_a_miss(layout):
    """An entry behind by more writes than the log holds is a miss —
    in the cache's counters and in ``repro_cache_requests_total`` —
    once per unit per shard, and its rebuilt set is a fresh one."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        database, table = _warm_table(layout)
        cache = CQAds(database).fragment_cache
        executor = SQLExecutor(database)
        units = [
            UNIT,
            ScoringUnit(conditions=(
                Condition("color", AttributeType.TYPE_II, ConditionOp.EQ, "blue"),
            )),
        ]
        unit_id_sets(executor, table, units, cache)
        for source in _sources(table):
            victim = min(source.all_ids())
            for price in range(DELTA_LOG_LENGTH + 1):
                table.update(victim, {"price": 500 + price})
        hits, misses = cache.hits, cache.misses
        before = registry.snapshot()
        rebuilt = unit_id_sets(executor, table, units, cache)
        after = registry.snapshot()
    finally:
        set_default_registry(previous)
    expected = len(units) * len(_sources(table))
    assert cache.misses - misses == expected
    assert cache.hits == hits
    for outcome, count in (("miss", expected), ("hit", 0)):
        assert after.counter_value(
            "repro_cache_requests_total", cache="fragment", outcome=outcome
        ) - before.counter_value(
            "repro_cache_requests_total", cache="fragment", outcome=outcome
        ) == count
    assert rebuilt == unit_id_sets(executor, table, units, None)


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_concurrent_readers_settle_on_fresh_state(layout):
    """Readers catch every consumer up while a writer inserts, updates
    and deletes, with a short switch interval; once the writer stops,
    each consumer equals a fresh build (no lost or torn update)."""
    database, table = _warm_table(layout)
    probes = [factory(database, table) for factory in PROBES.values()]
    for probe in probes:
        probe.read()
    stop = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                for probe in probes:
                    probe.read()
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    rng = random.Random(9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for step in range(300):
            ids = sorted(table.all_ids())
            roll = rng.random()
            if roll < 0.4:
                table.insert(_rows(1, seed=step)[0])
            elif roll < 0.8:
                table.update(
                    rng.choice(ids),
                    {"price": rng.randint(500, 30000), "color": rng.choice(["blue", "red"])},
                )
            else:
                table.delete(rng.choice(ids))
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors
    for probe in probes:
        assert probe.read() == probe.fresh()
