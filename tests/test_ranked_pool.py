"""The lazy ranked pool behind ``QuestionResult.ranked_pool``.

A question presents at most ``max_answers`` answers, but its ranked
pool can be the whole table (a single relaxation unit).  A multi-unit
pool is scored when the question is answered; a single-unit question
is ranked by score class instead, one scored row per class.  Either
pool is ordered and built only where it is read.  These tests pin that
contract on a plain and a 4-shard cars build of 2,000 ads:

* answering builds no more ``ScoredRecord``/``Answer`` objects than it
  presents, while the pool still reports its full length;
* answering "cheapest honda accord" scores at most one row per
  distinct Type I key and never lists the table as a pool;
* the class ranking equals the row-by-row ranking of Eq. 5
  (``tests/reference_rank.py``) for every single-unit shape, ties
  between classes included;
* ``page_all(..., max_depth=...)`` builds no more than it exports;
* a full read equals the exact matches followed by the reference's
  ranking of the N-1 pool;
* the pool behaves like a read-only list, also under concurrent reads,
  and reference counting alone frees it;
* what a late read returns was fixed when the question was ranked.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from contextlib import contextmanager

import pytest

from repro.api.requests import AnswerRequest
from repro.api.service import AnswerService
from repro.datagen.questions import make_generator
from repro.db.schema import AttributeType
from repro.perf import colrank
from repro.qa.conditions import (
    BooleanOperator,
    Condition,
    ConditionGroup,
    ConditionOp,
    Interpretation,
)
from repro.qa.pipeline import MAX_ANSWERS, CQAds, Answer, AnswerView
from repro.ranking.rank_sim import ScoredRecord
from repro.system import build_system

from tests import reference_rank

ADS = 2000
SCALE = dict(ads_per_domain=ADS, sessions_per_domain=300, corpus_documents=200)
BUILDS = (None, 4)
#: One relaxation unit (make + model), one exact match: the partial
#: pool is the rest of the table.
WHOLE_TABLE = AnswerRequest(question="cheapest honda accord", domain="cars")


def _build(shards):
    return build_system(["cars"], shards=shards, **SCALE)


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


def test_single_unit_answer_scores_one_row_per_class(system, service):
    """The class path scores a representative per distinct Type I key
    (per class, not per shard) and never lists the table as a pool."""
    scored_rows: list[int] = []
    score_rows = colrank._score_rows

    def counting(store, resources, rows, *args):
        scored_rows.extend(rows)
        return score_rows(store, resources, rows, *args)

    def whole_table(*args, **kwargs):
        raise AssertionError("the single-unit pool was listed")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(colrank, "_score_rows", counting)
        patch.setattr(CQAds, "partial_candidates", whole_table)
        result = service.answer(WHOLE_TABLE)
        assert len(result.answers) == MAX_ANSWERS
    keys = {
        (record["make"], record["model"])
        for record in system.database.table("car_ads").snapshot()
    }
    assert len(result.ranked_pool) == ADS
    assert 0 < len(scored_rows) <= len(keys)


def _leaf(column, op, value, negated=False):
    attribute_type = {
        "make": AttributeType.TYPE_I,
        "model": AttributeType.TYPE_I,
        "color": AttributeType.TYPE_II,
    }.get(column, AttributeType.TYPE_III)
    return Condition(column, attribute_type, op, value, negated=negated)


def _group(operator, *leaves):
    return ConditionGroup(operator, list(leaves))


EQ, LT, BETWEEN = ConditionOp.EQ, ConditionOp.LT, ConditionOp.BETWEEN
#: One relaxation unit each.  "year = 2005" ties 2004 with 2006, so
#: two classes of one score interleave by id.
SINGLE_UNIT_SHAPES = {
    "make+model": _group(
        BooleanOperator.AND, _leaf("make", EQ, "honda"), _leaf("model", EQ, "accord")
    ),
    "make": _leaf("make", EQ, "honda"),
    "type-ii": _leaf("color", EQ, "blue"),
    "numeric-eq": _leaf("year", EQ, 2005),
    "numeric-lt": _leaf("price", LT, 10000),
    "numeric-between": _leaf("price", BETWEEN, (5000, 9000)),
    # An OR-rooted tree is not relaxed; under an AND it is an "any" unit.
    "any": _group(
        BooleanOperator.AND,
        _group(BooleanOperator.OR, _leaf("year", EQ, 2005), _leaf("mileage", LT, 50000)),
    ),
    "negated-any": _group(
        BooleanOperator.AND,
        _group(
            BooleanOperator.OR,
            _leaf("year", EQ, 2005, negated=True),
            _leaf("mileage", LT, 100000, negated=True),
        ),
    ),
}


@pytest.mark.parametrize("top_k", [None, 45], ids=lambda k: f"top_k={k}")
@pytest.mark.parametrize("shape", list(SINGLE_UNIT_SHAPES))
def test_class_ranking_equals_the_row_ranking(system, shape, top_k):
    cqads = system.cqads
    interpretation = Interpretation(tree=SINGLE_UNIT_SHAPES[shape])
    units = cqads.relaxation_units(interpretation)
    assert len(units) == 1
    ids = sorted(system.database.table("car_ads").all_ids())
    exclude = set(ids[::97]) | {ids[-1] + 1000}  # one id the table lacks
    answers = cqads.partial_answers("cars", interpretation, exclude, top_k=top_k)
    assert answers.rank_path == "classes"
    context = cqads.context("cars")
    classed = colrank.class_rank_unit(context.resources, units[0], exclude, top_k)
    rows = reference_rank.reference_partial_answers(
        cqads, "cars", interpretation, exclude, top_k
    )
    expected_size = len(ids) - len(exclude) + 1 if top_k is None else top_k
    assert len(answers) == len(classed) == len(rows) == expected_size
    assert [
        (answer.record.record_id, repr(answer.score), answer.similarity_kind)
        for answer in answers
    ] == [
        (item.record.record_id, repr(item.score), item.similarity_kind)
        for item in rows
    ]
    assert [(item.record.record_id, item.failed) for item in classed] == [
        (item.record.record_id, item.failed) for item in rows
    ]
    if shape == "numeric-eq" and top_k is None:
        tied = [a for a in answers if a.record.get("year") in (2004, 2006)]
        assert len({repr(answer.score) for answer in tied}) == 1
        years = [answer.record["year"] for answer in tied]
        assert sum(a != b for a, b in zip(years, years[1:])) > 1


def test_class_ranked_pool_dies_by_reference_counting(service):
    pools: list = []
    rank = colrank.class_rank_unit

    def keeping(*args):
        pool = rank(*args)
        pools.append(weakref.ref(pool))
        return pool

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(colrank, "class_rank_unit", keeping)
        result = service.answer(WHOLE_TABLE)
    view = weakref.ref(result.ranked_pool)
    result.ranked_pool[MAX_ANSWERS : MAX_ANSWERS + 100]  # past the first tier
    assert len(pools) == 1 and pools[0]() is not None
    gc.disable()
    try:
        del result
        assert view() is None
        assert pools[0]() is None
    finally:
        gc.enable()


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


def test_full_read_equals_the_reference(system, service):
    relaxed = 0
    for text in _questions(system, 24):
        result = service.answer(AnswerRequest(question=text, domain="cars"))
        if result.interpretation is None:
            continue
        exact, partial = reference_rank.reference_answer(
            system.cqads, "cars", result.interpretation
        )
        assert _values(result.ranked_pool) == [
            (record.record_id, True, "inf", "exact") for record in exact
        ] + [
            (item.record.record_id, False, repr(item.score), item.similarity_kind)
            for item in partial
        ], text
        relaxed += bool(partial)
    assert relaxed >= 5  # the battery really ranks partial pools


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
        # The class walk stops inside the first score tier (the other
        # honda accords); the tail is neither ordered nor built yet.
        assert _values(pool[:MAX_ANSWERS]) == expected[:MAX_ANSWERS]
        unread = [record_id for record_id, *_ in expected[MAX_ANSWERS : MAX_ANSWERS + 10]]
        tail = [record_id for record_id, *_ in expected[-60:]]
        table = system.database.table("car_ads")
        accord = {"make": "honda", "model": "accord", "color": "blue",
                  "transmission": "manual", "doors": 4, "drivetrain": "fwd",
                  "body_style": "sedan", "fuel": "gas", "year": 2001,
                  "price": 1, "mileage": 1000}
        for record_id in unread[:5]:  # out of the tier being read
            table.update(record_id, {"make": "saab", "model": "9-3"})
        for record_id in unread[5:]:  # re-inserted below the largest id
            table.delete(record_id)
            table.insert(accord, record_id=record_id)
        for record_id in tail[:20]:  # into the first tier
            table.update(record_id, {"make": "honda", "model": "accord"})
        for record_id in tail[20:40]:
            table.delete(record_id)
        for _ in range(20):
            table.insert(accord)
        assert _values(pool[-60:]) == expected[-60:]
        assert _values(pool) == expected
        # A question asked now ranks the written table.
        assert _values(service.answer(WHOLE_TABLE).ranked_pool) != expected
    finally:
        system.close()
