"""Cache correctness: answer cache, concurrency.

Covers the cache requirements of the perf subsystem:

* answer-cache **auto**-invalidation after a table mutation (the
  service subscribes to mutation epochs — no manual call needed; the
  manual ``invalidate_cache`` stays as a compatible override);
* thread-safety of concurrent ``answer_batch`` calls against a warm
  cache (and of the underlying LRU).
"""

from __future__ import annotations

import threading

import pytest

from repro.api.requests import AnswerRequest
from repro.api.service import AnswerService
from repro.perf.answer_cache import AnswerCache
from repro.perf.lru import LRUCache
from repro.system import build_system
from tests.conftest import run_together


@pytest.fixture(scope="module")
def small_system():
    """A tiny cars-only build; tests that mutate copy state carefully."""
    return build_system(
        ["cars"],
        ads_per_domain=60,
        sessions_per_domain=80,
        corpus_documents=80,
    )


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b, the least recently used
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_pop_where(self):
        cache = LRUCache(8)
        for index in range(5):
            cache.put(index, index * 10)
        dropped = cache.pop_where(lambda key, value: key % 2 == 0)
        assert dropped == 3
        assert len(cache) == 2

    def test_concurrent_hammer_stays_bounded(self):
        cache = LRUCache(32)
        errors: list[Exception] = []

        def worker(offset: int) -> None:
            try:
                for index in range(500):
                    cache.put((offset, index % 64), index)
                    cache.get((offset, (index * 7) % 64))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(offset,)) for offset in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32


def _signature(result):
    return [
        (a.record.record_id, a.exact, a.score, a.similarity_kind)
        for a in result.answers
    ]


class TestAnswerCache:
    QUESTION = "honda accord blue less than 15000 dollars"

    def test_repeat_is_served_from_cache(self, small_system):
        service = AnswerService(small_system.cqads, cache=AnswerCache(16))
        first = service.answer(AnswerRequest(question=self.QUESTION, domain="cars"))
        second = service.answer(
            AnswerRequest(question=self.QUESTION, domain="cars")
        )
        assert service.cache.hits == 1 and service.cache.misses == 1
        assert _signature(first) == _signature(second)

    def test_normalized_question_hits_and_keeps_raw_text(self, small_system):
        service = AnswerService(small_system.cqads, cache=AnswerCache(16))
        service.answer(AnswerRequest(question=self.QUESTION, domain="cars"))
        variant = "  HONDA   accord blue less than 15000 dollars "
        result = service.answer(AnswerRequest(question=variant, domain="cars"))
        assert service.cache.hits == 1
        assert result.question == variant  # raw text restored on hits

    def test_use_cache_false_bypasses(self, small_system):
        service = AnswerService(small_system.cqads, cache=AnswerCache(16))
        request = AnswerRequest(question=self.QUESTION, domain="cars")
        service.answer(request.with_options(use_cache=False))
        assert len(service.cache) == 0
        assert service.cache.hits == 0 and service.cache.misses == 0

    def test_options_change_misses(self, small_system):
        service = AnswerService(small_system.cqads, cache=AnswerCache(16))
        request = AnswerRequest(question=self.QUESTION, domain="cars")
        service.answer(request)
        service.answer(request.with_options(max_answers=5))
        assert service.cache.hits == 0
        assert len(service.cache) == 2

    def test_mutation_auto_invalidates(self, small_system):
        """A table mutation refreshes cached answers by itself — no
        ``invalidate_cache`` call anywhere (the retired contract)."""
        cqads = small_system.cqads
        service = AnswerService(cqads, cache=AnswerCache(16))
        request = AnswerRequest(question=self.QUESTION, domain="cars")
        service.answer(request)
        assert len(service.cache) == 1
        table_name = cqads.domain("cars").schema.table_name
        table = cqads.database.table(table_name)
        donor = next(iter(table))
        inserted = table.insert(dict(donor))
        # The insert's mutation epoch dropped the domain's entries.
        assert len(service.cache) == 0
        fresh = service.answer(request)
        uncached = AnswerService(cqads).answer(request)
        assert _signature(fresh) == _signature(uncached)
        # The delete (cleanup) auto-invalidates again symmetrically.
        table.delete(inserted.record_id)
        assert len(service.cache) == 0
        assert _signature(service.answer(request)) == _signature(
            AnswerService(cqads).answer(request)
        )

    def test_manual_invalidation_still_supported(self, small_system):
        """The manual hook remains a compatible override (by domain
        name, table name, or everything) even though mutations no
        longer require it."""
        cqads = small_system.cqads
        service = AnswerService(cqads, cache=AnswerCache(16))
        service.answer(AnswerRequest(question=self.QUESTION, domain="cars"))
        table_name = cqads.domain("cars").schema.table_name
        assert service.invalidate_cache(table_name) == 1
        service.answer(AnswerRequest(question=self.QUESTION, domain="cars"))
        service.answer(AnswerRequest(question="red honda civic", domain="cars"))
        assert service.invalidate_cache() == 2
        assert len(service.cache) == 0

    def test_concurrent_batches_on_warm_cache(self, small_system):
        service = AnswerService(small_system.cqads, cache=AnswerCache(64))
        questions = [
            "honda accord blue",
            "red honda civic",
            "toyota under 10000 dollars",
            "cheapest honda",
        ]
        requests = [
            AnswerRequest(question=text, domain="cars") for text in questions
        ]
        warm = {
            request.question: _signature(service.answer(request))
            for request in requests
        }

        def worker() -> None:
            for request in requests * 5:
                result = service.answer(request)
                assert _signature(result) == warm[request.question]
            results = service.answer_batch(requests * 5)
            for request, result in zip(requests * 5, results):
                assert _signature(result) == warm[request.question]

        run_together(worker, [()] * 6)
        assert service.cache.hits > 0
        assert len(service.cache) == len(questions)


class TestMutationRaces:
    """Regression tests for the mutation/cache interleavings."""

    def test_stale_store_after_invalidation_is_unreachable(self, small_system):
        """A result computed before a mutation but stored after the
        invalidation sweep (the answer_batch race) must never be
        served: the key's generation component versions it out."""
        from repro.api.requests import ResolvedOptions

        cqads = small_system.cqads
        service = AnswerService(cqads, cache=AnswerCache(16))
        request = AnswerRequest(
            question="honda accord blue less than 15000 dollars", domain="cars"
        )
        options = ResolvedOptions.resolve(request.options, cqads)
        # Simulate the racing thread: key captured, pipeline run...
        stale_key = service._cache_key(request, options)
        stale_result = service.pipeline.run(cqads, request)
        # ... then the mutation lands (bumps generation, sweeps cache),
        table = cqads.database.table("car_ads")
        inserted = table.insert(
            {"make": "honda", "model": "accord", "color": "blue", "price": 100}
        )
        # ... and the racing thread stores its pre-mutation result.
        service.cache.store(stale_key, stale_result.domain, stale_result)
        fresh = service.answer(request)
        assert inserted.record_id in [
            a.record.record_id for a in fresh.ranked_pool
        ]
        table.delete(inserted.record_id)

    def test_insert_many_notifies_listeners_once(self, small_system):
        table = small_system.cqads.database.table("car_ads")
        donor = dict(next(iter(table)))
        events = []
        listener = events.append
        table.add_listener(listener)
        try:
            epoch_before = table.epoch
            inserted = table.insert_many([dict(donor) for _ in range(5)])
            assert table.epoch == epoch_before + 5  # versioning per row
            assert len(events) == 1  # one invalidation sweep per batch
            assert events[0].kind == "insert"
            assert events[0].record_id == inserted[-1].record_id
            assert events[0].epoch == table.epoch
        finally:
            table.remove_listener(listener)
            for record in inserted:
                table.delete(record.record_id)

    def test_cqads_close_detaches_database_listener(self):
        from repro.db.database import Database
        from repro.qa.pipeline import CQAds
        from tests.conftest import small_car_schema

        database = Database()
        engine = CQAds(database)
        assert engine._on_table_mutation in database._listeners
        engine.close()
        engine.close()  # idempotent
        assert engine._on_table_mutation not in database._listeners
        # A table created later must not re-acquire the dead engine.
        table = database.create_table(small_car_schema())
        assert engine._on_table_mutation not in table._listeners

    def test_cqads_close_detaches_resources_listeners(self):
        """The resources never listen to their table (their stores read
        its delta log), and close() leaves no listener of the engine on
        it; the engine stays usable and re-attaches on next use."""
        system = build_system(
            ["cars"],
            ads_per_domain=40,
            sessions_per_domain=40,
            corpus_documents=40,
        )
        cqads = system.cqads
        resources = cqads.context("cars").resources
        table = cqads.database.table("car_ads")
        assert table._listeners == [cqads._on_table_mutation]
        cqads.close()
        assert table._listeners == []
        assert resources.table is None
        # The engine stays usable: context() re-attaches on next use.
        assert cqads.answer("honda", domain="cars").answers
        assert resources.table is table
        assert table._listeners == []

    def test_per_domain_generations_keep_other_domains_cached(self):
        system = build_system(
            ["cars", "motorcycles"],
            ads_per_domain=50,
            sessions_per_domain=60,
            corpus_documents=60,
        )
        service = AnswerService(system.cqads, cache=AnswerCache(32))
        cars = AnswerRequest(question="honda accord blue", domain="cars")
        bikes = AnswerRequest(question="yamaha", domain="motorcycles")
        service.answer(cars)
        service.answer(bikes)
        table = system.cqads.database.table("car_ads")
        donor = dict(next(iter(table)))
        inserted = table.insert(donor)
        # The cars entry is gone; the motorcycles entry is untouched
        # AND still reachable (its domain generation did not move).
        assert len(service.cache) == 1
        hits_before = service.cache.hits
        service.answer(bikes)
        assert service.cache.hits == hits_before + 1
        table.delete(inserted.record_id)

    def test_mutations_while_serving_do_not_crash(self):
        """Concurrent answering + mutating: the snapshot-based column
        store rebuild and listener sweeps must never raise (answers
        during the overlap may reflect either table state)."""
        system = build_system(
            ["cars"],
            ads_per_domain=60,
            sessions_per_domain=60,
            corpus_documents=60,
        )
        service = AnswerService(system.cqads, cache=AnswerCache(32))
        table = system.cqads.database.table("car_ads")
        donor = dict(next(iter(table)))
        errors: list[Exception] = []
        stop = threading.Event()

        def asker() -> None:
            questions = [
                "honda accord blue less than 15000 dollars",
                "red toyota camry",
                "cheapest honda",
            ]
            try:
                while not stop.is_set():
                    for question in questions:
                        service.answer(
                            AnswerRequest(question=question, domain="cars")
                        )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=asker) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(30):
                record = table.insert(donor)
                table.update(record.record_id, {"color": "green"})
                table.delete(record.record_id)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors

    def test_reattach_after_detached_mutation_is_fresh(self):
        """Updates made while an engine is close()d reach it on the lazy
        re-attach: the ranking stores start from the table as it is."""
        system = build_system(
            ["cars"],
            ads_per_domain=40,
            sessions_per_domain=40,
            corpus_documents=40,
        )
        cqads = system.cqads
        resources = cqads.context("cars").resources
        table = cqads.database.table("car_ads")
        record = table.insert(
            {"make": "honda", "model": "accord", "color": "blue", "price": 900}
        )
        store = resources.column_store()
        assert store.keys[store.row_of[record.record_id]] == ("honda", "accord")
        cqads.close()
        table.update(record.record_id, {"model": "civic"})
        # Re-attach (lazily, via context()) and re-read: no stale accord.
        cqads.context("cars")
        store = resources.column_store()
        assert store.keys[store.row_of[record.record_id]] == ("honda", "civic")
        table.delete(record.record_id)
