"""Sharded scatter-gather execution: facade semantics and parity.

Four layers:

* **facade** — :class:`~repro.shard.table.ShardedTable` satisfies the
  single-table surface bit-for-bit (ids, iteration order, lookups,
  events, batched bulk notifications) against a plain-table
  oracle loaded with the same rows;
* **parity battery** (the PR's acceptance bar) — 100 generated
  questions per domain across all eight domains, answered through the
  full exact + N-1 relaxation + Rank_Sim path, bit-identical between
  the unsharded build and sharded builds at N in {1, 2, 4};
* **shard-aware caching** — a point mutation invalidates only the
  mutated shard's fragment-cache generation and column store; the
  answer cache still refreshes through the facade's relayed events;
* **concurrency** — scatter-gather answers survive concurrent
  mutation (consistent per-shard snapshots, no half-visible merges),
  and a shard-sized scatter issued from inside ``answer_batch``
  cannot deadlock the service pool (scatters run on the caller's
  thread).
"""

from __future__ import annotations

import threading

import pytest

from repro.api.requests import AnswerRequest
from repro.api.service import AnswerService
from repro.api.builder import SystemBuilder
from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.db.table import Table
from repro.errors import SchemaError
from repro.qa.sql_generation import evaluate_interpretation
from repro.shard import ShardedTable, shard_of
from repro.system import build_system

from tests.conftest import (
    SMALL_CAR_ROWS,
    fresh_engine,
    run_together,
    small_car_schema,
)

QUESTIONS_PER_DOMAIN = 100
PIPELINE_QUESTIONS_PER_DOMAIN = 10
SHARD_COUNTS = (1, 2, 4)

SYSTEM_SCALE = dict(
    ads_per_domain=100,
    sessions_per_domain=120,
    corpus_documents=120,
    train_classifier=False,
)


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_shard_of_is_deterministic_and_total(self):
        for shard_count in (1, 2, 4, 7):
            for record_id in range(1, 500):
                shard = shard_of(record_id, shard_count)
                assert 0 <= shard < shard_count
                assert shard == shard_of(record_id, shard_count)

    def test_shard_of_spreads_sequential_ids(self):
        counts = [0, 0, 0, 0]
        for record_id in range(1, 4001):
            counts[shard_of(record_id, 4)] += 1
        # Every shard within 20% of the even split.
        assert all(800 <= count <= 1200 for count in counts), counts


# ----------------------------------------------------------------------
# the facade vs a plain-table oracle
# ----------------------------------------------------------------------
@pytest.fixture()
def oracle_pair():
    """The same small rows in a plain table and a 3-shard facade."""
    plain = Table(small_car_schema())
    plain.insert_many(SMALL_CAR_ROWS)
    sharded = ShardedTable(small_car_schema(), 3)
    sharded.insert_many(SMALL_CAR_ROWS)
    return plain, sharded


class TestShardedTableFacade:
    def test_global_ids_and_iteration_order(self, oracle_pair):
        plain, sharded = oracle_pair
        assert len(sharded) == len(plain)
        assert [r.record_id for r in sharded] == [r.record_id for r in plain]
        assert sharded.all_ids() == plain.all_ids()
        assert [dict(r) for r in sharded.snapshot()] == [
            dict(r) for r in plain.snapshot()
        ]

    def test_records_actually_partition(self, oracle_pair):
        _plain, sharded = oracle_pair
        sizes = sharded.shard_sizes()
        assert sum(sizes) == len(SMALL_CAR_ROWS)
        assert sum(1 for size in sizes if size > 0) > 1
        for shard_index, shard in enumerate(sharded.shards):
            for record in shard:
                assert sharded.shard_of(record.record_id) == shard_index

    def test_lookups_match_plain_table(self, oracle_pair):
        plain, sharded = oracle_pair
        assert sharded.lookup_equal("make", "honda") == plain.lookup_equal(
            "make", "honda"
        )
        assert sharded.lookup_substring("color", "blu") == (
            plain.lookup_substring("color", "blu")
        )
        assert sharded.scan(lambda r: r.get("color") == "blue") == plain.scan(
            lambda r: r.get("color") == "blue"
        )
        assert sharded.distinct_values("make") == plain.distinct_values("make")

    def test_fetch_and_get_route_through_the_partitioner(self, oracle_pair):
        plain, sharded = oracle_pair
        wanted = [5, 3, 999, 7, 1]
        assert [r.record_id for r in sharded.fetch(wanted)] == [
            r.record_id for r in plain.fetch(wanted)
        ]
        assert sharded.get(4) is sharded.shard_for(4).get(4)
        assert sharded.get(999) is None

    @pytest.mark.parametrize("limit", [0, 1, 3, 5, 100])
    def test_fetch_limit_keeps_the_first_present_records(
        self, oracle_pair, limit
    ):
        """``fetch(ids, n) == fetch(ids)[:n]``, absent ids mixed in."""
        wanted = {999, 7, 0, 3, 5, 1000, 1, 4, -2}
        for table in oracle_pair:
            limited = table.fetch(wanted, limit)
            assert [r.record_id for r in limited] == [
                r.record_id for r in table.fetch(wanted)[:limit]
            ]
            assert all(a is b for a, b in zip(limited, table.fetch(wanted)))

    def test_mutations_route_and_aggregate_epochs(self, oracle_pair):
        plain, sharded = oracle_pair
        assert sharded.epoch == plain.epoch == len(SMALL_CAR_ROWS)
        record = sharded.insert({"make": "kia", "model": "rio", "price": 4000})
        assert record.record_id == len(SMALL_CAR_ROWS) + 1
        owner = sharded.shard_for(record.record_id)
        assert owner.get(record.record_id) is record
        sharded.update(record.record_id, {"color": "green"})
        assert record["color"] == "green"
        sharded.delete(record.record_id)
        assert sharded.get(record.record_id) is None
        assert sharded.epoch == len(SMALL_CAR_ROWS) + 3

    def test_explicit_id_collision_raises(self, oracle_pair):
        _plain, sharded = oracle_pair
        with pytest.raises(SchemaError):
            sharded.insert({"make": "kia", "model": "rio"}, record_id=1)

    def test_events_relay_with_facade_table_and_aggregated_epoch(
        self, oracle_pair
    ):
        _plain, sharded = oracle_pair
        events = []
        sharded.add_listener(events.append)
        record = sharded.insert({"make": "kia", "model": "rio"})
        sharded.update(record.record_id, {"color": "gray"})
        sharded.delete(record.record_id)
        assert [e.kind for e in events] == ["insert", "update", "delete"]
        assert all(e.table is sharded for e in events)
        assert [e.epoch for e in events] == [
            len(SMALL_CAR_ROWS) + 1,
            len(SMALL_CAR_ROWS) + 2,
            len(SMALL_CAR_ROWS) + 3,
        ]
        sharded.remove_listener(events.append)

    def test_bulk_operations_notify_once(self, oracle_pair):
        _plain, sharded = oracle_pair
        events = []
        sharded.add_listener(events.append)
        inserted = sharded.insert_many(
            [{"make": "kia", "model": "rio"}, {"make": "kia", "model": "soul"}]
        )
        assert len(events) == 1 and events[0].kind == "insert"
        assert events[0].record_id == inserted[-1].record_id
        removed = sharded.remove_many([r.record_id for r in inserted])
        assert removed == 2
        assert len(events) == 2 and events[1].kind == "delete"

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ShardedTable(small_car_schema(), 0)


class TestScatter:
    def test_map_shards_runs_on_the_callers_thread_in_shard_order(self):
        sharded = ShardedTable(small_car_schema(), 3)
        sharded.insert_many(SMALL_CAR_ROWS)
        caller = threading.current_thread()
        seen = sharded.map_shards(
            lambda index, shard: (index, shard, threading.current_thread())
        )
        assert [index for index, _shard, _thread in seen] == [0, 1, 2]
        assert [shard for _index, shard, _thread in seen] == sharded.shards
        assert all(thread is caller for _index, _shard, thread in seen)


# ----------------------------------------------------------------------
# the parity battery (acceptance bar)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_builds():
    """The same eight-domain recipe at N in {None, 1, 2, 4} shards."""
    builds = {None: build_system(**SYSTEM_SCALE)}
    for shard_count in SHARD_COUNTS:
        builds[shard_count] = build_system(shards=shard_count, **SYSTEM_SCALE)
    return builds


def _answer_signature(answers):
    return [
        (a.record.record_id, a.exact, a.score, a.similarity_kind, dict(a.record))
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
def test_scatter_gather_parity_per_domain(sharded_builds, domain):
    """100 questions/domain: exact + relaxed + ranked answers identical
    between the unsharded build and every sharded build."""
    base = sharded_builds[None]
    # Determinism check: every build generated the same records.
    base_rows = [
        (r.record_id, dict(r)) for r in base.database.table(
            base.cqads.domain(domain).schema.table_name
        )
    ]
    for shard_count in SHARD_COUNTS:
        build = sharded_builds[shard_count]
        table = build.database.table(
            build.cqads.domain(domain).schema.table_name
        )
        assert isinstance(table, ShardedTable)
        assert table.shard_count == shard_count
        assert [(r.record_id, dict(r)) for r in table] == base_rows

    generator = make_generator(base.domain(domain).dataset, seed=4021)
    compared = 0
    relaxed = 0
    for _ in range(QUESTIONS_PER_DOMAIN):
        question = generator.generate()
        interpretation = question.interpretation
        reference = None
        for shard_count, build in sharded_builds.items():
            cqads = build.cqads
            exact = evaluate_interpretation(
                cqads.database, cqads.domain(domain), interpretation
            )
            exclude = {record.record_id for record in exact}
            units = cqads.relaxation_units(interpretation)
            partial = (
                cqads.partial_answers(domain, interpretation, exclude)
                if units
                else []
            )
            signature = (
                [(r.record_id, dict(r)) for r in exact],
                _answer_signature(partial),
            )
            if reference is None:
                reference = signature
            else:
                assert signature == reference, (
                    f"{shard_count} shards diverged on "
                    f"{question.kind!r}: {question.text!r}"
                )
        compared += 1
        relaxed += bool(reference[1])
    assert compared == QUESTIONS_PER_DOMAIN
    assert relaxed > 0  # the battery must exercise scatter-gather ranking


@pytest.mark.parametrize("domain", DOMAIN_NAMES)
def test_pipeline_parity_per_domain(sharded_builds, domain):
    """Full service answers (classify skipped via explicit domain)
    bit-identical across shard counts, noise included."""
    base = sharded_builds[None]
    generator = make_generator(
        base.domain(domain).dataset, noise_rate=0.3, seed=97
    )
    questions = [
        generator.generate().text
        for _ in range(PIPELINE_QUESTIONS_PER_DOMAIN)
    ]
    services = {
        count: AnswerService(build.cqads)
        for count, build in sharded_builds.items()
    }
    for text in questions:
        request = AnswerRequest(question=text, domain=domain)
        reference = _result_signature(services[None].answer(request))
        for shard_count in SHARD_COUNTS:
            assert _result_signature(services[shard_count].answer(request)) == (
                reference
            ), f"{shard_count} shards diverged on {text!r}"


# ----------------------------------------------------------------------
# shard-aware caching
# ----------------------------------------------------------------------
@pytest.fixture()
def mutable_sharded_system():
    """A small private 4-shard cars build the cache tests may mutate."""
    return build_system(
        ["cars"],
        ads_per_domain=80,
        sessions_per_domain=100,
        corpus_documents=100,
        shards=4,
    )


CARS_QUESTION = "honda accord blue less than 15000 dollars"


class TestShardAwareCaching:
    def test_point_mutation_keeps_every_shard_fragment_warm(
        self, mutable_sharded_system
    ):
        """The mutated shard's fragments catch up from its delta log, so
        the repeat question hits all four shards."""
        cqads = mutable_sharded_system.cqads
        fragments = cqads.fragment_cache
        service = mutable_sharded_system.service()
        request = AnswerRequest(question=CARS_QUESTION, domain="cars")
        service.answer(request)
        warm = len(fragments)
        assert warm > 0 and warm % 4 == 0  # one entry per unit per shard
        table = cqads.database.table("car_ads")
        donor = next(iter(table))
        inserted = table.insert(dict(donor))
        assert len(fragments) == warm  # mutated shard patched, not dropped
        hits_before, misses_before = fragments.hits, fragments.misses
        service.answer(request)
        assert fragments.misses == misses_before
        assert fragments.hits == hits_before + warm  # every shard warm
        assert len(fragments) == warm
        table.delete(inserted.record_id)

    def test_shard_level_bulk_delete_patches_its_shard_fragments(
        self, mutable_sharded_system
    ):
        """A bulk delete issued on one shard, past the facade, lands in
        that shard's delta log like any write: the repeat question
        catches the shard's fragments up, and every shard hits."""
        cqads = mutable_sharded_system.cqads
        fragments = cqads.fragment_cache
        service = mutable_sharded_system.service()
        request = AnswerRequest(question=CARS_QUESTION, domain="cars")
        service.answer(request)
        warm = len(fragments)
        assert warm > 0 and warm % 4 == 0
        table = cqads.database.table("car_ads")
        victim = next(iter(table)).record_id
        table.shards[table.shard_of(victim)].remove_many([victim])
        assert len(fragments) == warm  # nothing dropped
        hits_before, misses_before = fragments.hits, fragments.misses
        answered = service.answer(request)
        assert fragments.misses == misses_before
        assert fragments.hits == hits_before + warm  # every shard warm
        assert len(fragments) == warm
        assert victim not in {a.record.record_id for a in answered.ranked_pool}

    def test_point_mutation_patches_one_column_store(
        self, mutable_sharded_system
    ):
        """Delta maintenance: the insert lands in a new version of the
        owning shard's store; siblings are untouched."""
        cqads = mutable_sharded_system.cqads
        resources = cqads.context("cars").resources
        table = cqads.database.table("car_ads")
        before = resources.shard_column_stores()
        assert before is not None and len(before) == 4
        donor = next(iter(table))
        inserted = table.insert(dict(donor))
        mutated = table.shard_of(inserted.record_id)
        after = resources.shard_column_stores()
        assert inserted.record_id in after[mutated].row_of
        assert after[mutated].epoch == table.shards[mutated].epoch
        for index in range(4):
            if index != mutated:
                assert after[index] is before[index]
                assert inserted.record_id not in after[index].row_of
        table.delete(inserted.record_id)

    def test_answer_cache_invalidates_through_relayed_events(
        self, mutable_sharded_system
    ):
        cqads = mutable_sharded_system.cqads
        service = mutable_sharded_system.service(cache=32)
        reference = AnswerService(cqads)  # cacheless oracle
        request = AnswerRequest(question=CARS_QUESTION, domain="cars")
        table = cqads.database.table("car_ads")

        first = service.answer(request)
        assert _result_signature(service.answer(request)) == (
            _result_signature(first)
        )
        assert service.cache.hits == 1

        inserted = table.insert(
            {"make": "honda", "model": "accord", "color": "blue",
             "price": 14000}
        )
        assert len(service.cache) == 0  # relayed event swept the domain
        fresh = service.answer(request)
        assert inserted.record_id in [
            answer.record.record_id for answer in fresh.answers
        ]
        assert _result_signature(fresh) == _result_signature(
            reference.answer(request)
        )

        table.update(inserted.record_id, {"color": "red", "price": 99000})
        updated = service.answer(request)
        assert inserted.record_id not in [
            a.record.record_id for a in updated.answers if a.exact
        ]
        table.delete(inserted.record_id)
        deleted = service.answer(request)
        assert inserted.record_id not in [
            a.record.record_id for a in deleted.answers
        ]
        assert _result_signature(deleted) == _result_signature(
            reference.answer(request)
        )


# ----------------------------------------------------------------------
# concurrency: mutation storms and scatters inside answer_batch
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_scatter_gather_survives_concurrent_mutation(
        self, mutable_sharded_system
    ):
        """Mid-flight inserts/deletes can neither crash the merge nor
        leave a record half-visible (duplicated or torn) in a result."""
        cqads = mutable_sharded_system.cqads
        service = mutable_sharded_system.service()
        table = cqads.database.table("car_ads")
        donor = dict(next(iter(table)))
        request = AnswerRequest(question=CARS_QUESTION, domain="cars")
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn():
            try:
                while not stop.is_set():
                    record = table.insert(dict(donor))
                    table.update(record.record_id, {"color": "green"})
                    table.delete(record.record_id)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        writers = [threading.Thread(target=churn) for _ in range(2)]
        for writer in writers:
            writer.start()
        try:
            for _ in range(40):
                result = service.answer(request)
                ids = [a.record.record_id for a in result.ranked_pool]
                assert len(ids) == len(set(ids))  # no double-merged record
                assert result.message is None or result.answers == []
        finally:
            stop.set()
            for writer in writers:
                writer.join(timeout=30)
        assert not errors
        assert not any(writer.is_alive() for writer in writers)

        # Post-quiesce, the scatter path agrees with an engine built
        # from scratch over whatever state the storm left behind.
        rebuilt = AnswerService(fresh_engine(cqads, "cars"))
        assert _result_signature(service.answer(request)) == _result_signature(
            rebuilt.answer(request)
        )

    def test_concurrent_answers_on_four_shards_cannot_deadlock(self):
        """No-hang guard: requests answered on several threads at once,
        each scattering over 4 shards, all complete, with the answers
        a serial pass gives."""
        system = build_system(
            ["cars"],
            ads_per_domain=60,
            sessions_per_domain=80,
            corpus_documents=80,
            shards=4,
        )
        generator = make_generator(system.domain("cars").dataset, seed=5)
        requests = [
            AnswerRequest(question=generator.generate().text, domain="cars")
            for _ in range(6)
        ]
        with AnswerService(system.cqads) as service:
            outcome: dict[int, object] = {}

            def answer(index: int) -> None:
                outcome[index] = service.answer(requests[index])

            run_together(answer, [(index,) for index in range(len(requests))])
            for index, request in enumerate(requests):
                assert _result_signature(outcome[index]) == _result_signature(
                    service.answer(request)
                )


# ----------------------------------------------------------------------
# wiring: builder and CLI
# ----------------------------------------------------------------------
class TestWiring:
    def test_system_builder_shards(self):
        system = (
            SystemBuilder()
            .with_domains("cars")
            .ads_per_domain(60)
            .sessions_per_domain(80)
            .corpus_documents(80)
            .shards(2)
            .build()
        )
        assert system.cqads.shards == 2
        table = system.database.table("car_ads")
        assert isinstance(table, ShardedTable)
        assert table.shard_count == 2

    def test_system_builder_shards_none_restores_single_tables(self):
        builder = SystemBuilder().with_domains("cars").ads_per_domain(60)
        builder.sessions_per_domain(80).corpus_documents(80)
        system = builder.shards(2).shards(None).build()
        assert system.cqads.shards is None
        assert isinstance(system.database.table("car_ads"), Table)

    def test_cqads_rejects_non_positive_shards(self):
        from repro.db.database import Database
        from repro.qa.pipeline import CQAds

        with pytest.raises(ValueError):
            CQAds(Database(), shards=0)

    def test_cli_parses_and_forwards_shards(self, monkeypatch):
        import repro.__main__ as cli

        args = cli.build_arg_parser().parse_args(
            ["--shards", "4", "--domain", "cars", "honda"]
        )
        assert args.shards == 4

        calls = {}

        class RecordingBuilder:
            def __getattr__(self, name):
                def record(*call_args, **_kwargs):
                    calls[name] = call_args
                    return self

                return record

        monkeypatch.setattr(cli, "SystemBuilder", RecordingBuilder)
        cli._provision_service(args)
        assert calls["shards"] == (4,)

    def test_cli_rejects_scatter_mode_and_forwards_shard_count_only(
        self, monkeypatch, capsys
    ):
        import repro.__main__ as cli

        parser = cli.build_arg_parser()
        # Thread scatter is the only tier, so there is no mode to pick.
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(
                ["--shards", "2", "--scatter-mode", "process",
                 "--domain", "cars", "honda"]
            )
        assert excinfo.value.code == 2
        assert "--scatter-mode" in capsys.readouterr().err

        args = parser.parse_args(["--shards", "2", "--domain", "cars", "honda"])
        assert not hasattr(args, "scatter_mode")

        calls = {}

        class RecordingBuilder:
            def __getattr__(self, name):
                def record(*call_args, **call_kwargs):
                    calls[name] = (call_args, call_kwargs)
                    return self

                return record

        monkeypatch.setattr(cli, "SystemBuilder", RecordingBuilder)
        cli._provision_service(args)
        # The shard count is the only sharding option the CLI forwards.
        assert calls["shards"] == ((2,), {})
