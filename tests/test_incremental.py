"""Delta-based incremental cache maintenance: patch ≡ rebuild.

The acceptance bar for delta maintenance is **bit-identical cache
state**: after any stream of inserts/updates/removes, a column store
patched via :meth:`~repro.perf.colrank.ColumnStore.apply` and a
fragment cache patched via
:meth:`~repro.perf.fragment_cache.FragmentCache.absorb` must hold
exactly what a from-scratch rebuild at the same epoch would hold.
Three layers are proved here:

* **column-store storms** — randomized mutation streams against plain
  and sharded (1/2/4) tables, comparing the patched store(s) to a
  fresh :class:`ColumnStore` build after every single step;
* **fragment-cache storms** — the same streams with a warm unit-id-set
  cache, comparing every patched id-set to a fresh
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
from tests.conftest import fresh_engine, small_car_schema

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


def _store_signature(store: ColumnStore):
    return (
        store.epoch,
        [record.record_id for record in store.records],
        store.row_of,
        store.keys,
        store.categorical,
        store.numeric,
    )


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
        # Every patch path (in-place append, copy-on-write update,
        # splice) shares the old store's value-keyed slot memos; only
        # a rebuild mints a fresh memo dict.  Count the survivals to
        # prove the delta path actually runs.
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
    """Mutations during a listener detach window leave an epoch gap the
    patcher must not bridge — the store rebuilds instead."""
    table = Database().create_table(small_car_schema())
    table.insert_many([_random_row(random.Random(7)) for _ in range(10)])
    resources = _resources_for(table)
    resources.column_store()
    resources.detach_table()
    table.update(1, {"color": "green"})  # unheard: no listener attached
    resources.attach_table(table)
    store = resources.column_store()
    assert _store_signature(store) == _store_signature(
        ColumnStore(table, TYPE_I_COLUMNS)
    )
    row = store.row_of[1]
    assert store.categorical["color"][row] == "green"


def test_out_of_order_insert_patches_by_splice():
    """An explicit low id after higher ids splices a copy (rows must
    not shift under concurrent readers of the old store)."""
    table = Database().create_table(small_car_schema())
    table.insert(_random_row(random.Random(8)), record_id=10)
    resources = _resources_for(table)
    before = resources.column_store()
    table.insert(_random_row(random.Random(9)), record_id=3)
    after = resources.column_store()
    assert after is not before  # spliced copy, not an in-place shift
    assert [r.record_id for r in after.records] == [3, 10]
    assert _store_signature(after) == _store_signature(
        ColumnStore(table, TYPE_I_COLUMNS)
    )
    assert before.row_of == {10: 0}  # the old image is untouched


def test_update_keeps_old_store_image_consistent():
    """Copy-on-write updates: a reader holding the pre-update store
    sees a fully consistent old image (no torn mixed-epoch rows), and
    untouched columns share their arrays with the patched clone."""
    table = Database().create_table(small_car_schema())
    table.insert(
        {"make": "honda", "model": "accord", "color": "blue",
         "transmission": "manual", "price": 9000}
    )
    resources = _resources_for(table)
    before = resources.column_store()
    row = before.row_of[1]
    table.update(1, {"color": "green", "price": 1234})
    after = resources.column_store()
    assert after is not before  # readers of the old object are safe
    assert before.categorical["color"][row] == "blue"  # old image frozen
    assert before.numeric["price"][row] == 9000.0
    assert after.categorical["color"][row] == "green"
    assert after.numeric["price"][row] == 1234.0
    # Untouched state is shared, not copied.
    assert after.categorical["transmission"] is before.categorical["transmission"]
    assert after.keys is before.keys  # no Type I column changed
    assert after.records is before.records


def test_append_after_update_does_not_tear_old_snapshot():
    """Regression: an insert folded right after a copy-on-write update
    must not append onto the lists the update clone still shares with
    the pre-update store — every array of the old snapshot keeps its
    pre-update length and values."""
    table = Database().create_table(small_car_schema())
    table.insert(
        {"make": "honda", "model": "accord", "color": "blue",
         "transmission": "manual", "price": 9000}
    )
    resources = _resources_for(table)
    before = resources.column_store()
    table.update(1, {"color": "green"})
    table.insert(
        {"make": "mazda", "model": "mx5", "color": "red", "price": 7000}
    )
    after = resources.column_store()
    assert _store_signature(after) == _store_signature(
        ColumnStore(table, TYPE_I_COLUMNS)
    )
    # The old snapshot is whole: one row everywhere, original values.
    assert len(before.records) == 1
    assert before.row_of == {1: 0}
    assert all(len(values) == 1 for values in before.categorical.values())
    assert all(len(values) == 1 for values in before.numeric.values())
    assert before.categorical["color"] == ["blue"]
    # A second append lands in place again (the copy owns its lists).
    table.insert(
        {"make": "ford", "model": "focus", "color": "silver", "price": 6000}
    )
    final = resources.column_store()
    assert final is after
    assert _store_signature(final) == _store_signature(
        ColumnStore(table, TYPE_I_COLUMNS)
    )


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
        assert cached == fresh, f"patched id-sets diverged at step {step}"


def test_bulk_load_past_cutoff_sweeps_instead_of_patching():
    """A warm cache absorbs small batches but falls back to the O(cache)
    generation sweep for bulk loads (patching is O(entries x rows))."""
    from repro.perf.fragment_cache import MAX_ABSORB_ROWS

    database = Database()
    table = database.create_table(small_car_schema())
    table.insert_many([_random_row(random.Random(66)) for _ in range(20)])
    cqads = CQAds(database)
    cache = cqads.fragment_cache
    executor = SQLExecutor(database)
    units = _storm_units()
    unit_id_sets(executor, table, units, cache)
    table.insert_many(
        [_random_row(random.Random(67))
         for _ in range(MAX_ABSORB_ROWS + 10)]
    )
    assert len(cache) == 0  # swept: bulk patching would cost more
    assert unit_id_sets(executor, table, units, cache) == unit_id_sets(
        executor, table, units, None
    )
    table.insert_many([_random_row(random.Random(68)) for _ in range(5)])
    assert len(cache) == len(units)  # small batch: patched, still warm
    assert unit_id_sets(executor, table, units, cache) == unit_id_sets(
        executor, table, units, None
    )


def test_lexicographic_range_condition_patches_like_executor():
    """condition_to_expr float-coerces range values before the executor
    stringifies them ("2010" -> "2010.0"); the absorb mirror must
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
    assert cached == {1, 3}  # "2010" < "2010.0" lexicographically
    # An unrelated update forces absorb to re-evaluate record 1.
    table.update(1, {"color": "green"})
    (patched,) = unit_id_sets(executor, table, [unit], cache)
    assert patched == unit_id_sets(executor, table, [unit], None)[0]
    assert patched == {1, 3}


def test_record_less_delta_falls_back_to_sweep():
    """A hand-built insert/update delta without its record payload
    cannot be replayed; absorb must refuse so the listener sweeps."""
    from repro.db.table import InsertDelta

    database = Database()
    table = database.create_table(small_car_schema())
    table.insert_many([_random_row(random.Random(69)) for _ in range(10)])
    cqads = CQAds(database)
    cache = cqads.fragment_cache
    executor = SQLExecutor(database)
    units = _storm_units()
    unit_id_sets(executor, table, units, cache)
    assert len(cache) == len(units)
    bare = InsertDelta(table, "insert", 999, table.epoch + 1, record=None)
    assert cache.absorb(bare) is False
    cqads._on_table_mutation(bare)  # listener path: falls back to sweep
    assert len(cache) == 0


def test_absorbed_sets_are_fresh_copies():
    """Copy-on-write: a consumer holding a pre-mutation id-set must not
    see it change under delta absorption."""
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
    snapshot = set(held)
    inserted = table.insert(
        {"make": "honda", "model": "accord", "color": "blue", "price": 1000}
    )
    assert held == snapshot  # the old set object is untouched
    (patched,) = unit_id_sets(executor, table, [unit], cache)
    assert inserted.record_id in patched


# ----------------------------------------------------------------------
# satellites: shard_of, changed-column memo eviction
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
    score the new record with the dead record's memoized key/values."""
    table = Database().create_table(small_car_schema())
    table.insert(
        {"make": "honda", "model": "accord", "color": "blue", "price": 9000}
    )
    resources = _resources_for(table)
    record = table.get(1)
    assert resources.record_key(record) == ("honda", "accord")
    table.delete(1)
    reborn = table.insert(
        {"make": "toyota", "model": "corolla", "color": "red", "price": 4000},
        record_id=1,
    )
    assert resources.record_key(reborn) == ("toyota", "corolla")
    # The bulk path evicts too (remove_many emits one BatchDelta).
    resources.record_key(reborn)
    table.remove_many([1])
    reborn_again = table.insert(
        {"make": "mazda", "model": "mx5", "color": "silver"}, record_id=1
    )
    assert resources.record_key(reborn_again) == ("mazda", "mx5")


def test_update_delta_evicts_only_touched_memos():
    table = Database().create_table(small_car_schema())
    table.insert(
        {"make": "honda", "model": "accord", "color": "blue",
         "transmission": "manual", "price": 9000}
    )
    table.insert_many([_random_row(random.Random(72)) for _ in range(4)])
    resources = _resources_for(table)
    record = table.get(1)
    key = resources.record_key(record)
    # A non-Type-I update keeps the record key.
    table.update(1, {"color": "purple"})
    assert resources._record_keys.get(1) == key
    # A Type I update evicts the record key.
    table.update(1, {"model": "civic"})
    assert 1 not in resources._record_keys
    assert resources.record_key(record)[1] == "civic"


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
    fresh = {
        record.record_id
        for record in table.snapshot()
        if record["make"] == "honda"
    }
    assert patched == fresh  # includes the landed prefix row
