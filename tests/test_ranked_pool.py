"""The lazy ranked pool behind ``QuestionResult.ranked_pool``.

A question presents at most ``max_answers`` answers, but its ranked
pool can be the whole table (a single relaxation unit).  The pool is
scored when the question is answered and ordered and built only where
it is read.  These tests pin that contract on a plain and a 4-shard
cars build of 2,000 ads:

* answering builds no more ``ScoredRecord``/``Answer`` objects than it
  presents, while the pool still reports its full length;
* ``page_all(..., max_depth=...)`` builds no more than it exports;
* a full read equals the legacy engine's eager list;
* the pool behaves like a read-only list, also under concurrent reads;
* what a late read returns was fixed when the question was ranked.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager

import pytest

from repro.api.requests import AnswerRequest
from repro.api.service import AnswerService
from repro.datagen.questions import make_generator
from repro.qa.pipeline import MAX_ANSWERS, Answer, AnswerView
from repro.ranking.rank_sim import ScoredRecord, condition_satisfied
from repro.system import build_system

ADS = 2000
SCALE = dict(ads_per_domain=ADS, sessions_per_domain=300, corpus_documents=200)
BUILDS = (None, 4)
#: One relaxation unit (make + model), one exact match: the partial
#: pool is the rest of the table.
WHOLE_TABLE = AnswerRequest(question="cheapest honda accord", domain="cars")


def _build(shards, **options):
    return build_system(["cars"], shards=shards, **SCALE, **options)


@pytest.fixture(scope="module", params=BUILDS, ids=lambda n: f"shards={n}")
def system(request):
    built = _build(request.param)
    yield built
    built.close()


@pytest.fixture(scope="module")
def service(system):
    return AnswerService(system.cqads)


@contextmanager
def _counting(cls):
    """Count the instances of *cls* constructed inside the block."""
    built: list[int] = []
    original = cls.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls, "__init__", counted)
        yield built


def _signature(result, answers):
    """Record id, exactness, repr(score), kind and failed conditions."""
    conditions = result.interpretation.conditions()
    return [
        (
            answer.record.record_id,
            answer.exact,
            repr(answer.score),
            answer.similarity_kind,
            [
                index
                for index, condition in enumerate(conditions)
                if not condition_satisfied(condition, answer.record)
            ],
        )
        for answer in answers
    ]


def _values(answers):
    return [
        (a.record.record_id, a.exact, repr(a.score), a.similarity_kind)
        for a in answers
    ]


def test_answering_builds_only_the_presented_answers(system, service):
    with _counting(ScoredRecord) as scored, _counting(Answer) as answers:
        result = service.answer(WHOLE_TABLE)
    assert len(result.answers) == MAX_ANSWERS
    assert len(result.ranked_pool) == len(system.database.table("car_ads")) == ADS
    assert len(scored) <= MAX_ANSWERS
    assert len(answers) <= MAX_ANSWERS


def test_page_all_builds_at_most_the_exported_window(service):
    result = service.answer(WHOLE_TABLE.with_options(max_answers=3))
    exact = len(result.exact_answers)
    with _counting(Answer) as answers:
        pages = service.page_all(result, max_depth=5)
    assert sum(len(page) for page in pages) == exact + 5
    assert len(answers) <= exact + 5
    assert len(result.ranked_pool) == ADS  # the source is untouched


def _questions(system, count):
    generator = make_generator(system.domain("cars").dataset, seed=23)
    texts = [WHOLE_TABLE.question]
    texts += [generator.generate().text for _ in range(count)]
    texts += [generator.generate("superlative").text for _ in range(count // 4)]
    return texts


def test_full_read_equals_the_legacy_engine(system, service):
    legacy_system = _build(system.cqads.shards, ranking_engine="legacy")
    try:
        legacy = AnswerService(legacy_system.cqads)
        relaxed = 0
        for text in _questions(system, 24):
            request = AnswerRequest(question=text, domain="cars")
            lazy = service.answer(request)
            eager = legacy.answer(request)
            assert lazy.message == eager.message, text
            if lazy.interpretation is None:
                continue
            assert _signature(lazy, lazy.ranked_pool) == _signature(
                eager, eager.ranked_pool
            ), text
            relaxed += any(not answer.exact for answer in lazy.ranked_pool)
        assert relaxed >= 5  # the battery really ranks partial pools
    finally:
        legacy_system.close()


def test_pool_behaves_like_a_list(service):
    reference = list(service.answer(WHOLE_TABLE).ranked_pool)
    size = len(reference)
    # Each read on a pool nothing has read past its presented answers.
    reads = [
        lambda pool: pool == reference,
        lambda pool: reference == pool,
        lambda pool: pool == list(pool),
        lambda pool: pool[-1] == reference[-1],
        lambda pool: pool[-size] == reference[0],
        lambda pool: pool[size - 40] == reference[size - 40],
        lambda pool: pool[7:7] == [] and pool[size + 3 :] == [],
        lambda pool: pool[::37] == reference[::37],
        lambda pool: pool[-3:40:-29] == reference[-3:40:-29],
        lambda pool: pool[MAX_ANSWERS : MAX_ANSWERS + 10]
        == reference[MAX_ANSWERS : MAX_ANSWERS + 10],
        lambda pool: list(reversed(pool)) == reference[::-1],
        lambda pool: bool(pool) and len(pool) == size,
    ]
    for read in reads:
        assert read(service.answer(WHOLE_TABLE).ranked_pool)
    pool = service.answer(WHOLE_TABLE).ranked_pool
    with pytest.raises(IndexError):
        pool[size]
    with pytest.raises(IndexError):
        pool[-size - 1]
    with pytest.raises(TypeError):
        pool["0"]
    assert pool != reference[:-1]
    assert pool != tuple(reference)  # a list never equals a tuple


def test_empty_pools_are_falsy(system):
    cqads = system.cqads
    units = cqads.relaxation_units(
        cqads.answer(WHOLE_TABLE.question, domain="cars").interpretation
    )
    ranked = cqads.context("cars").ranker().rank_units([], units)
    assert not ranked and ranked == [] and list(ranked) == []
    assert not AnswerView() and AnswerView() == []
    assert AnswerView.concat([], ranked) == []


def test_concurrent_readers_share_one_sequence(service):
    expected = _values(service.answer(WHOLE_TABLE).ranked_pool)
    pool = service.answer(WHOLE_TABLE).ranked_pool
    size = len(pool)
    threads_count = 8
    seen: list[list] = [[] for _ in range(threads_count)]
    barrier = threading.Barrier(threads_count)

    def read(thread: int) -> None:
        barrier.wait(timeout=30)
        # Interleaved, differently ordered slices, then the whole pool.
        for start in range(thread, size, threads_count * 25):
            pool[start : start + 25]
        pool[thread::threads_count]
        seen[thread] = list(pool)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=read, args=(thread,))
            for thread in range(threads_count)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for thread in range(threads_count):
        assert len(seen[thread]) == size
        assert _values(seen[thread]) == expected
        assert all(a is b for a, b in zip(seen[thread], seen[0]))


@pytest.mark.parametrize("shards", BUILDS, ids=lambda n: f"shards={n}")
def test_late_reads_return_what_was_ranked(shards):
    system = _build(shards)
    try:
        service = AnswerService(system.cqads)
        expected = _values(service.answer(WHOLE_TABLE).ranked_pool)
        pool = service.answer(WHOLE_TABLE).ranked_pool
        # The tail: rows the pool has neither ordered nor built yet.
        tail = [record_id for record_id, *_ in expected[-60:]]
        table = system.database.table("car_ads")
        for record_id in tail[:20]:
            table.update(record_id, {"make": "honda", "model": "accord"})
        for record_id in tail[20:40]:
            table.delete(record_id)
        for _ in range(20):
            table.insert(
                {"make": "honda", "model": "accord", "color": "blue",
                 "transmission": "manual", "doors": 4, "drivetrain": "fwd",
                 "body_style": "sedan", "fuel": "gas", "year": 2001,
                 "price": 1, "mileage": 1000}
            )
        assert _values(pool[-60:]) == expected[-60:]
        assert _values(pool) == expected
    finally:
        system.close()
