"""Delta-based incremental cache maintenance: patch ≡ rebuild.

The acceptance bar for delta maintenance is **bit-identical cache
state**: after any stream of inserts/updates/removes, a column store
and a fragment cache caught up from the table's delta log
(:meth:`~repro.db.table.Table.deltas_since`) must hold exactly what a
from-scratch rebuild at the same epoch would hold.  Three layers are
proved here:

* **column-store storms** — randomized mutation streams against plain
  and sharded (1/2/4) tables, comparing the patched store(s) to a
  fresh :class:`ColumnStore` build after every single step;
* **fragment-cache storms** — the same streams with a warm fragment
  cache, comparing every patched bitmap fragment, decoded, to a fresh
  ``eval_where`` evaluation after every step (and asserting the
  entries were *patched*, i.e. served as hits, not recomputed);
* **the 8-domain churn battery** — full ``AnswerService`` runs over
  every domain with one point mutation per question, each answer
  compared, complete result surface included, with an engine built
  from scratch over the rows the churn left
  (:func:`tests.conftest.fresh_engine`).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.api.requests import AnswerRequest
from repro.api.service import AnswerService
from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.db.database import Database
from repro.db.schema import AttributeType
from repro.db.sql.executor import SQLExecutor
from repro.perf.colrank import ColumnStore
from repro.perf.subplan import unit_id_sets
from repro.qa.conditions import Condition, ConditionOp
from repro.qa.pipeline import CQAds
from repro.ranking.rank_sim import RankingResources, ScoringUnit
from repro.ranking.ti_matrix import TIMatrix
from repro.ranking.ws_matrix import WSMatrix
from repro.system import build_system
from tests.conftest import (
    fresh_engine,
    run_together,
    small_car_schema,
    store_image,
)

TYPE_I_COLUMNS = ["make", "model"]
SHARD_COUNTS = (1, 2, 4)
STORM_STEPS = 120

MAKES = [("honda", "accord"), ("honda", "civic"), ("toyota", "corolla"),
         ("mazda", "mx5"), ("ford", "focus")]
COLORS = ["blue", "red", "green", "silver", None]
TRANSMISSIONS = ["automatic", "manual", None]


def _random_row(rng: random.Random) -> dict:
    make, model = rng.choice(MAKES)
    return {
        "make": make,
        "model": model,
        "color": rng.choice(COLORS),
        "transmission": rng.choice(TRANSMISSIONS),
        "year": rng.choice([None, rng.randint(1990, 2011)]),
        "price": rng.choice([None, rng.randint(500, 30000)]),
        "mileage": rng.choice([None, rng.randint(0, 200000)]),
    }


def _random_update(rng: random.Random) -> dict:
    """A partial update touching 1-3 random columns (Type I stays
    non-empty, per the schema's validation)."""
    pool = {
        "make": lambda: rng.choice(MAKES)[0],
        "model": lambda: rng.choice(MAKES)[1],
        "color": lambda: rng.choice(COLORS),
        "transmission": lambda: rng.choice(TRANSMISSIONS),
        "year": lambda: rng.choice([None, rng.randint(1990, 2011)]),
        "price": lambda: rng.choice([None, rng.randint(500, 30000)]),
        "mileage": lambda: rng.choice([None, rng.randint(0, 200000)]),
    }
    columns = rng.sample(sorted(pool), rng.randint(1, 3))
    return {column: pool[column]() for column in columns}


def _mutate(rng: random.Random, table) -> None:
    """One random mutation step: insert, update, remove or a small
    bulk batch (exercising the BatchDelta path)."""
    ids = sorted(table.all_ids())
    roll = rng.random()
    if not ids or roll < 0.35:
        table.insert(_random_row(rng))
    elif roll < 0.75:
        table.update(rng.choice(ids), _random_update(rng))
    elif roll < 0.90:
        table.delete(rng.choice(ids))
    elif roll < 0.95:
        table.insert_many([_random_row(rng) for _ in range(rng.randint(2, 4))])
    else:
        table.remove_many(rng.sample(ids, min(len(ids), rng.randint(1, 3))))


#: Class-column sets the store signature groups by (``None`` is the
#: Type I key), so every storm step also checks the groupings a
#: catch-up carries forward.
GROUPINGS = ((None,), ("color",), ("price",), ("price", "color"))


def _store_signature(store: ColumnStore):
    return store_image(store, GROUPINGS)


def _resources_for(table) -> RankingResources:
    resources = RankingResources(
        ti_matrix=TIMatrix(),
        ws_matrix=WSMatrix(),
        value_ranges={},
        type_i_columns=list(TYPE_I_COLUMNS),
    )
    resources.attach_table(table)
    return resources


# ----------------------------------------------------------------------
# column-store storms: patched ≡ rebuilt after every step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [11, 12])
def test_column_store_storm_plain_table(seed):
    table = Database().create_table(small_car_schema())
    table.insert_many([_random_row(random.Random(seed * 977))
                       for _ in range(20)])
    resources = _resources_for(table)
    rng = random.Random(seed)
    patch_survivals = 0
    for _ in range(STORM_STEPS):
        before = resources.column_store()
        _mutate(rng, table)
        patched = resources.column_store()
        fresh = ColumnStore(table, TYPE_I_COLUMNS)
        assert _store_signature(patched) == _store_signature(fresh)
        # Every caught-up version shares the old store's value-keyed
        # slot memos; only a rebuild mints a fresh memo dict.  Count
        # the survivals to prove the delta path actually runs.
        patch_survivals += patched._slot_memo is before._slot_memo
    assert patch_survivals > STORM_STEPS // 2


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_column_store_storm_sharded(shard_count):
    table = Database().create_table(small_car_schema(), shards=shard_count)
    table.insert_many([_random_row(random.Random(shard_count * 31))
                       for _ in range(20)])
    resources = _resources_for(table)
    rng = random.Random(40 + shard_count)
    for _ in range(STORM_STEPS):
        _mutate(rng, table)
        patched = resources.shard_column_stores()
        assert patched is not None and len(patched) == shard_count
        for shard, store in zip(table.shards, patched):
            fresh = ColumnStore(shard, TYPE_I_COLUMNS)
            assert _store_signature(store) == _store_signature(fresh)


def test_detach_window_falls_back_to_rebuild():
    """A store never outlives a detach: re-attaching rebuilds it, and
    the rebuild sees the writes made while detached."""
    table = Database().create_table(small_car_schema())
    table.insert_many([_random_row(random.Random(7)) for _ in range(10)])
    resources = _resources_for(table)
    resources.column_store()
    resources.detach_table()
    table.update(1, {"color": "green"})  # while detached
    resources.attach_table(table)
    store = resources.column_store()
    assert _store_signature(store) == _store_signature(
        ColumnStore(table, TYPE_I_COLUMNS)
    )
    row = store.row_of[1]
    assert store.categorical["color"][row] == "green"


def _car(make: str, model: str, color: str, price: int) -> dict:
    return {"make": make, "model": model, "color": color,
            "transmission": "manual", "price": price}


def test_out_of_order_insert_leaves_old_version_whole():
    """An explicit low id after higher ids appends a row to a new
    version; the old version, read through its own ``row_of``, still
    holds exactly its one record."""
    table = Database().create_table(small_car_schema())
    table.insert(_random_row(random.Random(8)), record_id=10)
    resources = _resources_for(table)
    before = resources.column_store()
    image = _store_signature(before)
    table.insert(_random_row(random.Random(9)), record_id=3)
    after = resources.column_store()
    assert after is not before and after.row_of is not before.row_of
    assert sorted(after.row_of) == [3, 10]
    assert _store_signature(after) == _store_signature(
        ColumnStore(table, TYPE_I_COLUMNS)
    )
    assert before.row_of == {10: 0}
    assert _store_signature(before) == image  # the old image is untouched


def test_update_keeps_old_store_image_consistent():
    """An update appends the record's new row to a new version that
    shares every array: a reader holding the pre-update version sees
    the old values through its own ``row_of``."""
    table = Database().create_table(small_car_schema())
    table.insert(_car("honda", "accord", "blue", 9000))
    resources = _resources_for(table)
    before = resources.column_store()
    image = _store_signature(before)
    table.update(1, {"color": "green", "price": 1234})
    after = resources.column_store()
    assert after is not before  # readers of the old object are safe
    assert _store_signature(before) == image  # old image frozen
    row = before.row_of[1]
    assert before.categorical["color"][row] == "blue"
    assert before.numeric["price"][row] == 9000.0
    row = after.row_of[1]
    assert after.categorical["color"][row] == "green"
    assert after.numeric["price"][row] == 1234.0
    assert after.keys[row] == ("honda", "accord")
    assert _store_signature(after) == _store_signature(
        ColumnStore(table, TYPE_I_COLUMNS)
    )
    # The arrays are shared, not copied; each version owns its row_of.
    assert after.categorical["transmission"] is before.categorical["transmission"]
    assert after.keys is before.keys
    assert after.records is before.records
    assert after.row_of is not before.row_of


def test_append_after_update_does_not_tear_old_snapshot():
    """Each version keeps its image while later versions append to the
    arrays they share: after an update, an insert, an out-of-order
    insert and a delete, every earlier version still reads exactly
    what it read when it was made."""
    table = Database().create_table(small_car_schema())
    table.insert(_car("honda", "accord", "blue", 9000))
    resources = _resources_for(table)
    versions = [resources.column_store()]
    images = [_store_signature(versions[0])]
    writes = [
        lambda: table.update(1, {"color": "green"}),
        lambda: table.insert(_car("mazda", "mx5", "red", 7000), record_id=5),
        lambda: table.insert(_car("ford", "focus", "silver", 6000), record_id=3),
        lambda: table.delete(1),
    ]
    for write in writes:
        write()
        store = resources.column_store()
        assert all(store is not version for version in versions)
        assert _store_signature(store) == _store_signature(
            ColumnStore(table, TYPE_I_COLUMNS)
        )
        versions.append(store)
        images.append(_store_signature(store))
        assert [_store_signature(version) for version in versions] == images
    first = versions[0]
    assert first.row_of == {1: 0}
    assert first.categorical["color"][0] == "blue"
    assert sorted(versions[-1].row_of) == [3, 5]


def test_held_versions_stay_whole_under_concurrent_catch_up():
    """Readers hold store versions while a writer inserts, updates and
    deletes and the readers themselves catch the store up, appending
    to the arrays the versions share (and rebuilding once dead rows
    outnumber live ones): every held version reads, to the end, exactly
    what it read when it was handed out."""
    table = Database().create_table(small_car_schema())
    table.insert_many([_random_row(random.Random(81)) for _ in range(30)])
    resources = _resources_for(table)
    resources.column_store()
    written = threading.Event()
    caught = threading.Event()
    epochs: list[int] = []

    def write() -> None:
        rng = random.Random(82)
        try:
            for _ in range(300):
                caught.clear()
                _mutate(rng, table)
                caught.wait(timeout=0.05)  # pace: let a reader catch up
        finally:
            written.set()

    def read() -> None:
        held = []
        while not written.is_set():
            store = resources.column_store()
            caught.set()
            epochs.append(store.epoch)
            held.append((store, _store_signature(store)))
            for version, image in held[-8:]:
                assert _store_signature(version) == image
        for version, image in held:
            assert _store_signature(version) == image

    run_together(
        lambda role: role(), [(write,), (read,), (read,), (read,)],
        switch_interval=1e-5,
    )
    assert len(set(epochs)) > 100  # the readers held many versions
    assert _store_signature(resources.column_store()) == _store_signature(
        ColumnStore(table, TYPE_I_COLUMNS)
    )


def test_dead_rows_outnumbering_live_ones_rebuild():
    """Rows are appended, never rewritten, so updates and deletes leave
    dead rows behind; once dead rows would outnumber the live ones the
    catch-up rebuilds (a fresh slot memo, arrays back to the live
    rows), and until then it shares the memo."""
    table = Database().create_table(small_car_schema())
    table.insert_many([_car("honda", "accord", "blue", 1000 + n) for n in range(4)])
    resources = _resources_for(table)
    store = resources.column_store()
    store.memo("warm")["value"] = (True, 1.0)
    for step in range(4):
        table.update(1, {"price": 2000 + step})
        caught = resources.column_store()
        assert len(caught.records) == 5 + step  # dead rows: step + 1
        assert caught._slot_memo is store._slot_memo
    table.update(1, {"price": 9999})  # dead rows 5 > live rows 4
    rebuilt = resources.column_store()
    assert rebuilt._slot_memo is not store._slot_memo
    assert "warm" not in rebuilt._slot_memo
    assert len(rebuilt.records) == len(rebuilt.row_of) == 4
    assert _store_signature(rebuilt) == _store_signature(
        ColumnStore(table, TYPE_I_COLUMNS)
    )
    # Deletes count too: the live rows shrink as the dead ones grow.
    table.delete(2)
    table.delete(3)
    kept = resources.column_store()
    assert kept._slot_memo is rebuilt._slot_memo
    table.delete(4)  # dead rows 3 > live rows 1
    assert resources.column_store()._slot_memo is not rebuilt._slot_memo


# ----------------------------------------------------------------------
# fragment-cache storms: patched id-sets ≡ fresh eval_where
# ----------------------------------------------------------------------
def _storm_units() -> list[ScoringUnit]:
    c = Condition
    return [
        ScoringUnit(conditions=(
            c("make", AttributeType.TYPE_I, ConditionOp.EQ, "honda"),
            c("model", AttributeType.TYPE_I, ConditionOp.EQ, "accord"),
        )),
        ScoringUnit(conditions=(
            c("color", AttributeType.TYPE_II, ConditionOp.EQ, "blue"),
        )),
        ScoringUnit(conditions=(
            c("color", AttributeType.TYPE_II, ConditionOp.NE, "red"),
        )),
        ScoringUnit(conditions=(
            c("price", AttributeType.TYPE_III, ConditionOp.LT, 10000),
        )),
        ScoringUnit(conditions=(
            c("price", AttributeType.TYPE_III, ConditionOp.BETWEEN,
              (4000.0, 12000.0)),
        )),
        ScoringUnit(conditions=(
            c("mileage", AttributeType.TYPE_III, ConditionOp.GE, 100000),
        )),
        ScoringUnit(conditions=(
            c("price", AttributeType.TYPE_III, ConditionOp.EQ, 2000),
            c("year", AttributeType.TYPE_III, ConditionOp.EQ, 2000),
        ), mode="any"),
    ]


def _decoded(fragments) -> list[list[int]]:
    """Each fragment's member ids, ascending."""
    return [fragment.ids() for fragment in fragments]


@pytest.mark.parametrize("shard_count", [None, 1, 2, 4])
def test_fragment_cache_storm(shard_count):
    database = Database()
    table = database.create_table(small_car_schema(), shards=shard_count)
    table.insert_many([_random_row(random.Random(61))
                       for _ in range(20)])
    # CQAds wires the delta-absorbing mutation listener (delta mode is
    # the default); no domains needed for cache maintenance itself.
    cqads = CQAds(database)
    cache = cqads.fragment_cache
    assert cache is not None
    executor = SQLExecutor(database)
    units = _storm_units()
    rng = random.Random(62)
    unit_id_sets(executor, table, units, cache)  # warm the cache
    for step in range(STORM_STEPS):
        _mutate(rng, table)
        hits_before, misses_before = cache.hits, cache.misses
        cached = unit_id_sets(executor, table, units, cache)
        assert cache.misses == misses_before, f"recompute at step {step}"
        assert cache.hits > hits_before
        fresh = unit_id_sets(executor, table, units, None)
        assert _decoded(cached) == _decoded(fresh), (
            f"patched fragments diverged at step {step}"
        )
        # Every stored fragment, per shard too, against its own source.
        sources = table.shards if shard_count is not None else [table]
        for (stored_table, shard, unit), (epoch, stored) in zip(
            cache._entries.keys(), cache._entries.values()
        ):
            source = sources[0] if shard is None else sources[shard]
            assert stored_table is table and epoch == source.epoch
            (own,) = unit_id_sets(executor, source, [unit], None)
            assert stored.ids() == own.ids(), f"shard {shard} at step {step}"


def test_lexicographic_range_condition_patches_like_executor():
    """condition_to_expr float-coerces range values before the executor
    stringifies them ("2010" -> "2010.0"); the catch-up test must
    compare against the same text or patched fragments silently drop
    boundary rows (regression)."""
    database = Database()
    table = database.create_table(small_car_schema())
    for model in ("2010", "2010.5", "1999"):
        table.insert({"make": "honda", "model": model, "color": "blue"})
    cqads = CQAds(database)
    cache = cqads.fragment_cache
    executor = SQLExecutor(database)
    unit = ScoringUnit(conditions=(
        Condition("model", AttributeType.TYPE_I, ConditionOp.LT, "2010"),
    ))
    (cached,) = unit_id_sets(executor, table, [unit], cache)
    assert cached.ids() == [1, 3]  # "2010" < "2010.0" lexicographically
    # An unrelated update makes the catch-up re-evaluate record 1.
    table.update(1, {"color": "green"})
    (patched,) = unit_id_sets(executor, table, [unit], cache)
    assert patched.ids() == unit_id_sets(executor, table, [unit], None)[0].ids()
    assert patched.ids() == [1, 3]


def test_update_outside_a_units_columns_skips_its_tree(monkeypatch):
    """Catch-up replays an update only for the units that read a column
    it changed: after a ``color`` update a cached price unit's fragment
    comes back by identity without its tree being run, while a color
    unit's fragment follows the update."""
    from repro.db.predicate import Predicate

    database = Database()
    table = database.create_table(small_car_schema())
    table.insert_many([_random_row(random.Random(66)) for _ in range(10)])
    cache = CQAds(database).fragment_cache
    executor = SQLExecutor(database)
    units = [
        ScoringUnit(conditions=(
            Condition("price", AttributeType.TYPE_III, ConditionOp.LT, 10000),
        )),
        ScoringUnit(conditions=(
            Condition("color", AttributeType.TYPE_II, ConditionOp.EQ, "purple"),
        )),
    ]
    held = unit_id_sets(executor, table, units, cache)
    tested: list[str] = []
    matches = Predicate.matches

    def spy(predicate, record):
        tested.append(predicate.column)
        return matches(predicate, record)

    monkeypatch.setattr(Predicate, "matches", spy)
    table.update(1, {"color": "purple"})
    caught = unit_id_sets(executor, table, units, cache)
    assert tested == ["color"]
    assert caught[0] is held[0]
    assert 1 in caught[1]
    assert _decoded(caught) == _decoded(unit_id_sets(executor, table, units, None))


def test_held_fragment_is_unchanged_by_catch_up():
    """Fragments are immutable: a consumer holding a pre-mutation
    fragment must not see it change when the cache catches the entry
    up, and the caught-up fragment is a new one."""
    database = Database()
    table = database.create_table(small_car_schema())
    table.insert_many([_random_row(random.Random(65)) for _ in range(10)])
    cqads = CQAds(database)
    cache = cqads.fragment_cache
    executor = SQLExecutor(database)
    unit = ScoringUnit(conditions=(
        Condition("make", AttributeType.TYPE_I, ConditionOp.EQ, "honda"),
        Condition("model", AttributeType.TYPE_I, ConditionOp.EQ, "accord"),
    ),)
    (held,) = unit_id_sets(executor, table, [unit], cache)
    bits, extra, ids = held.bits, held.extra, held.ids()
    inserted = table.insert(
        {"make": "honda", "model": "accord", "color": "blue", "price": 1000}
    )
    (patched,) = unit_id_sets(executor, table, [unit], cache)
    assert inserted.record_id in patched and patched is not held
    assert inserted.record_id not in held
    assert (held.bits, held.extra, held.ids()) == (bits, extra, ids)


@pytest.mark.parametrize("shard_count", [None, 2])
def test_pool_skips_a_record_deleted_after_the_lookup(monkeypatch, shard_count):
    """A pool yields its first ``pool_cap + len(exclude)`` present
    records by id: a record deleted between the fragment lookup and
    the fetch is skipped and the next present one takes its place,
    the ``Table.fetch(ids, n)`` rule."""
    from types import SimpleNamespace

    from repro.perf import subplan
    from repro.qa.conditions import Interpretation

    database = Database()
    table = database.create_table(small_car_schema(), shards=shard_count)
    table.insert_many([
        {"make": "honda", "model": "accord", "color": "blue", "price": 1000 + i}
        for i in range(12)
    ])
    units = [
        ScoringUnit(conditions=(
            Condition("make", AttributeType.TYPE_I, ConditionOp.EQ, "honda"),
        )),
        ScoringUnit(conditions=(
            Condition("color", AttributeType.TYPE_II, ConditionOp.EQ, "blue"),
        )),
    ]
    lookup = subplan.unit_id_sets

    def lookup_then_delete(*args):
        fragments = lookup(*args)
        table.delete(3)
        return fragments

    monkeypatch.setattr(subplan, "unit_id_sets", lookup_then_delete)
    candidates = subplan.shared_partial_candidates(
        database,
        SimpleNamespace(schema=table.schema),
        units,
        Interpretation(),
        exclude={1},
        pool_cap=4,
    )
    # Budget 5: ids 1, 2, 4, 5, 6 are the first present; 1 is excluded.
    assert list(candidates) == [2, 4, 5, 6]


#: Bytes a fragment may hold beyond one bit per id up to the table's
#: largest dense id: the int and object headers, and a few sparse ids.
FRAGMENT_SLACK = 512


def _relaxed_questions(cqads, generator, count: int) -> list:
    """*count* generated interpretations with two or more relaxation
    units, so each one relaxes through the fragment cache."""
    found = []
    while len(found) < count:
        interpretation = generator.generate().interpretation
        if len(cqads.relaxation_units(interpretation)) >= 2:
            found.append(interpretation)
    return found


def _relaxed(cqads, interpretation) -> tuple:
    """The exact ids, the N-1 pool's ids and the ranked partial answers."""
    from repro.qa.sql_generation import evaluate_interpretation

    exact = evaluate_interpretation(
        cqads.database, cqads.domain("cars"), interpretation
    )
    exclude = {record.record_id for record in exact}
    pool = cqads.partial_candidates("cars", interpretation, exclude)
    answers = cqads.partial_answers("cars", interpretation, exclude)
    return (
        sorted(exclude),
        [record.record_id for record in pool],
        _answer_signature(answers),
    )


def _wholly_read_pool_member(cqads, table, questions) -> int:
    """A non-exact record of a drop pool short enough that its relaxed
    query reads all of it with two more records in it, so clones of it
    reach the N-1 candidates whatever their ids."""
    from repro.perf.subplan import drop_intersections

    executor = SQLExecutor(cqads.database)
    for interpretation in questions:
        if interpretation.superlative is not None:
            continue  # a clone must not fall to the extreme filter
        exact = set(_relaxed(cqads, interpretation)[0])
        units = cqads.relaxation_units(interpretation)
        for pool in drop_intersections(unit_id_sets(executor, table, units, None)):
            members = [record_id for record_id in pool if record_id not in exact]
            if members and len(pool) + 2 <= cqads.partial_pool_per_query:
                return members[0]
    raise AssertionError("no relaxed question has a pool read whole")


@pytest.mark.parametrize("shards", [None, 4], ids=["plain", "shards=4"])
def test_fragments_stay_bitmap_sized_with_sparse_ids(shards):
    """A size tripwire: after a mutation storm on an 8,000-row table
    every cached fragment stays within a bit per id up to the largest
    record id, plus a small constant (a cached set of a few thousand
    ids is tens of KB).  Records then inserted under ids ``10**8`` and
    ``-5`` are answered as a fresh build answers them, and still no
    fragment grows: a bitmap reaching bit ``10**8`` would be 12.5 MB."""
    import sys

    system = build_system(
        ["cars"],
        ads_per_domain=8000,
        sessions_per_domain=40,
        corpus_documents=40,
        train_classifier=False,
        shards=shards,
    )
    cqads = system.cqads
    cache = cqads.fragment_cache
    table = cqads.database.table("car_ads")
    generator = make_generator(system.domain("cars").dataset, seed=401)
    questions = _relaxed_questions(cqads, generator, 24)
    rng = random.Random(402)
    for step in range(240):
        ids = sorted(table.all_ids())
        roll = rng.random()
        if roll < 0.6:
            table.update(rng.choice(ids), {"price": rng.randint(500, 30000)})
        elif roll < 0.8:
            table.insert(dict(table.get(rng.choice(ids))))
        else:
            table.delete(rng.choice(ids))
        _relaxed(cqads, questions[step % len(questions)])
    assert len(cache) > 0
    bound = max(table.all_ids()) // 8 + FRAGMENT_SLACK
    assert max(map(sys.getsizeof, cache.fragments())) <= bound

    # Clone one record of a drop pool the relaxed query reads whole
    # under ids -5 (first in any pool) and 10**8 (last in it): both
    # clones must reach the N-1 candidates.
    donor = _wholly_read_pool_member(cqads, table, questions)
    for sparse_id in (10**8, -5):
        table.insert(dict(table.get(donor)), record_id=sparse_id)
    fresh = fresh_engine(cqads, "cars")
    reached: set[int] = set()
    for interpretation in questions:
        relaxed = _relaxed(cqads, interpretation)
        assert relaxed == _relaxed(fresh, interpretation)
        reached.update(relaxed[1])
    assert {10**8, -5} <= reached
    assert max(map(sys.getsizeof, cache.fragments())) <= bound


# ----------------------------------------------------------------------
# satellites: shard_of, reused record ids
# ----------------------------------------------------------------------
def test_shard_of_matches_actual_placement():
    table = Database().create_table(small_car_schema(), shards=4)
    records = table.insert_many(
        [_random_row(random.Random(71)) for _ in range(25)]
    )
    for record in records:
        index = table.shard_of(record.record_id)
        assert table.shards[index].get(record.record_id) is record
        for other, shard in enumerate(table.shards):
            if other != index:
                assert shard.get(record.record_id) is None


def test_reused_record_id_never_serves_ghost_memos():
    """delete + Table.insert(record_id=) resurrecting the id must not
    score the new record with the dead record's key/values."""
    table = Database().create_table(small_car_schema())
    table.insert(
        {"make": "honda", "model": "accord", "color": "blue", "price": 9000}
    )
    resources = _resources_for(table)

    def image(record_id):
        store = resources.column_store()
        row = store.row_of[record_id]
        return store.keys[row], store.categorical["color"][row]

    assert image(1) == (("honda", "accord"), "blue")
    table.delete(1)
    table.insert(
        {"make": "toyota", "model": "corolla", "color": "red", "price": 4000},
        record_id=1,
    )
    assert image(1) == (("toyota", "corolla"), "red")
    # The bulk path too (remove_many emits one BatchDelta).
    table.remove_many([1])
    table.insert(
        {"make": "mazda", "model": "mx5", "color": "silver"}, record_id=1
    )
    assert image(1) == (("mazda", "mx5"), "silver")


# ----------------------------------------------------------------------
# the 8-domain churn battery: delta maintenance ≡ a fresh build
# ----------------------------------------------------------------------
CHURN_QUESTIONS_PER_DOMAIN = 12


@pytest.fixture(scope="module")
def churn_system():
    """All eight domains, small scale; the battery mutates its tables."""
    return build_system(
        ads_per_domain=100,
        sessions_per_domain=120,
        corpus_documents=120,
        train_classifier=False,
    )


def _answer_signature(answers):
    return [
        (a.record.record_id, a.exact, a.score, a.similarity_kind)
        for a in answers
    ]


def _result_signature(result):
    return (
        result.domain,
        result.sql,
        result.message,
        _answer_signature(result.answers),
        _answer_signature(result.ranked_pool),
    )


@pytest.mark.parametrize("domain", DOMAIN_NAMES)
def test_churn_battery_delta_vs_rebuild(churn_system, domain):
    """One point mutation per question; the engine answers from its
    delta-maintained caches and must agree bit-for-bit with an engine
    rebuilt from scratch over the same rows."""
    cqads = churn_system.cqads
    generator = make_generator(churn_system.domain(domain).dataset, seed=331)
    table = cqads.database.table(cqads.domain(domain).schema.table_name)
    service = churn_system.service()
    rng = random.Random(332)
    numeric = [
        column.name
        for column in cqads.domain(domain).schema.columns
        if column.is_numeric
    ]
    for index in range(CHURN_QUESTIONS_PER_DOMAIN):
        ids = sorted(table.all_ids())
        roll = rng.random()
        if roll < 0.6 and numeric and ids:
            target = rng.choice(ids)
            column = rng.choice(numeric)
            stored = [
                record[column] for record in table if record.get(column) is not None
            ]
            value = rng.randint(int(min(stored)), max(int(max(stored)), 1))
            table.update(target, {column: value})
        elif roll < 0.8 and ids:
            table.insert(dict(table.get(rng.choice(ids))))
        elif ids:
            table.delete(rng.choice(ids))
        question = generator.generate()
        request = AnswerRequest(question=question.text, domain=domain)
        rebuilt = AnswerService(fresh_engine(cqads, domain))
        assert _result_signature(service.answer(request)) == _result_signature(
            rebuilt.answer(request)
        ), f"churn divergence on {question.text!r} (step {index})"


# ----------------------------------------------------------------------
# satellite: partial-batch failure still emits a consistent BatchDelta
# ----------------------------------------------------------------------
def test_insert_many_failure_emits_batch_delta_for_applied_prefix():
    """A mid-batch schema violation leaves the rows before it applied;
    the one BatchDelta that fires must describe exactly that prefix —
    its per-row deltas, the last landed id, the final epoch — so every
    delta consumer (caches, column stores, the WAL) stays consistent
    with the table it just watched mutate."""
    from repro.db.table import BatchDelta, InsertDelta
    from repro.errors import SchemaError

    table = Database().create_table(small_car_schema())
    events = []
    table.add_listener(events.append)
    rows = [
        {"make": "honda", "model": "accord", "price": 9000},
        {"make": "toyota", "model": "corolla", "price": 7000},
        {"make": None, "model": "ghost"},  # Type I violation mid-batch
        {"make": "mazda", "model": "mx5", "price": 11000},
    ]
    with pytest.raises(SchemaError, match="make"):
        table.insert_many(rows)
    # The prefix landed; the failing row and everything after did not.
    assert [record["model"] for record in table.snapshot()] == [
        "accord", "corolla"
    ]
    (delta,) = events
    assert isinstance(delta, BatchDelta) and delta.kind == "insert"
    assert all(isinstance(d, InsertDelta) for d in delta.deltas)
    assert [d.record["model"] for d in delta.deltas] == ["accord", "corolla"]
    assert delta.record_id == 2  # the last row that landed
    assert delta.epoch == table.epoch  # the epoch the table settled at
    assert [d.epoch for d in delta.deltas] == [1, 2]


def test_insert_many_failing_on_first_row_emits_nothing():
    from repro.errors import SchemaError

    table = Database().create_table(small_car_schema())
    events = []
    table.add_listener(events.append)
    before = table.epoch
    with pytest.raises(SchemaError):
        table.insert_many([{"make": None}, {"make": "honda", "model": "x"}])
    assert events == []  # no rows applied -> no delta at all
    assert len(table) == 0 and table.epoch == before


def test_remove_many_unknown_id_notifies_the_deleted_prefix():
    from repro.db.table import BatchDelta, RemoveDelta
    from repro.errors import RecordNotFoundError

    table = Database().create_table(small_car_schema())
    table.insert_many(
        [
            {"make": "honda", "model": "accord"},
            {"make": "toyota", "model": "corolla"},
            {"make": "mazda", "model": "mx5"},
        ]
    )
    events = []
    table.add_listener(events.append)
    with pytest.raises(RecordNotFoundError):
        table.remove_many([1, 999, 3])
    assert sorted(table.all_ids()) == [2, 3]  # 1 deleted, 3 untouched
    (delta,) = events
    assert isinstance(delta, BatchDelta) and delta.kind == "delete"
    assert [d.record.record_id for d in delta.deltas] == [1]
    assert all(isinstance(d, RemoveDelta) for d in delta.deltas)
    assert delta.record_id == 1 and delta.epoch == table.epoch


def test_partial_batch_keeps_fragment_cache_consistent():
    """The applied-prefix BatchDelta must patch a warm fragment cache
    to exactly what a cold evaluation over the settled table returns."""
    from repro.errors import SchemaError

    database = Database()
    table = database.create_table(small_car_schema())
    table.insert_many([_random_row(random.Random(91)) for _ in range(6)])
    cqads = CQAds(database)
    cache = cqads.fragment_cache
    executor = SQLExecutor(database)
    unit = ScoringUnit(conditions=(
        Condition("make", AttributeType.TYPE_I, ConditionOp.EQ, "honda"),
    ))
    unit_id_sets(executor, table, [unit], cache)  # warm
    with pytest.raises(SchemaError):
        table.insert_many(
            [
                {"make": "honda", "model": "prelude", "price": 5000},
                {"make": None, "model": "ghost"},
            ]
        )
    (patched,) = unit_id_sets(executor, table, [unit], cache)
    fresh = sorted(
        record.record_id
        for record in table.snapshot()
        if record["make"] == "honda"
    )
    assert patched.ids() == fresh  # includes the landed prefix row
