"""Parity: the columnar top-k ranking engine vs the legacy full sort.

The acceptance bar mirrors PR 2's relaxation parity: *bit-identical*
output — same records, same float scores, same failed-condition
tuples, same similarity kinds, same order (ties included, since the
``(-score, record_id)`` key is a total order).  Three layers:

* **ranker level** — ``rank_units(engine="columnar", top_k=30)`` vs
  the legacy full sort truncated to 30, and the unbounded columnar
  ranking vs the full legacy ranking, on 100 generated questions per
  domain across all eight domains;
* **pipeline level** — full ``AnswerService.answer`` runs with the
  engine flipped between ``ranking_engine`` settings;
* **epoch invalidation** — mutating a table bumps its epoch, so the
  column store rebuilds and the fragment/answer caches miss instead of
  serving pre-mutation state; no manual invalidation anywhere.
"""

from __future__ import annotations

import pytest

from repro.api.requests import AnswerRequest
from repro.api.service import AnswerService
from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.perf.colrank import columnar_rank_units
from repro.qa.sql_generation import evaluate_interpretation
from repro.system import build_system

QUESTIONS_PER_DOMAIN = 100
PIPELINE_QUESTIONS_PER_DOMAIN = 15
TOP_K = 30


@pytest.fixture(scope="module")
def parity_system():
    """All eight domains, small scale (parity is scale-independent)."""
    return build_system(
        ads_per_domain=110,
        sessions_per_domain=150,
        corpus_documents=150,
        train_classifier=False,
    )


def _scored_signature(items):
    return [
        (item.record.record_id, item.score, item.failed, item.similarity_kind)
        for item in items
    ]


def _answer_signature(answers):
    return [
        (a.record.record_id, a.exact, a.score, a.similarity_kind) for a in answers
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
def test_columnar_topk_parity_per_domain(parity_system, domain):
    """Columnar top-30 == legacy full sort truncated, 100 q/domain."""
    cqads = parity_system.cqads
    context = cqads.context(domain)
    ranker = context.ranker()
    assert ranker is not None
    assert context.resources.table is not None  # columnar engine armed
    generator = make_generator(parity_system.domain(domain).dataset, seed=313)
    compared = 0
    nonempty = 0
    attempts = 0
    while compared < QUESTIONS_PER_DOMAIN and attempts < QUESTIONS_PER_DOMAIN * 4:
        attempts += 1
        index = attempts
        question = generator.generate()
        interpretation = question.interpretation
        units = cqads.relaxation_units(interpretation)
        if not units:
            continue
        exact = evaluate_interpretation(
            cqads.database, cqads.domain(domain), interpretation
        )
        exclude = {record.record_id for record in exact}
        pool = cqads.partial_candidates(domain, interpretation, exclude)
        legacy_full = ranker.rank_units(pool, units, engine="legacy")
        columnar_topk = ranker.rank_units(
            pool, units, top_k=TOP_K, engine="columnar"
        )
        assert _scored_signature(columnar_topk) == _scored_signature(
            legacy_full[:TOP_K]
        ), f"top-k divergence on {question.kind!r}: {question.text!r}"
        # The unbounded columnar ranking must equal the full sort too
        # (sampled — it shares every scoring path with the top-k run).
        if index % 5 == 0:
            columnar_full = ranker.rank_units(pool, units, engine="columnar")
            assert _scored_signature(columnar_full) == _scored_signature(
                legacy_full
            ), f"full divergence on {question.kind!r}: {question.text!r}"
        compared += 1
        nonempty += bool(pool)
    assert compared == QUESTIONS_PER_DOMAIN
    assert nonempty > 0  # the battery must exercise actual ranking


@pytest.mark.parametrize("domain", DOMAIN_NAMES[:4])
def test_pipeline_parity_per_domain(parity_system, domain):
    """End-to-end answers are bit-identical under either engine."""
    cqads = parity_system.cqads
    service = parity_system.service()
    generator = make_generator(
        parity_system.domain(domain).dataset, noise_rate=0.3, seed=59
    )
    questions = [
        generator.generate().text for _ in range(PIPELINE_QUESTIONS_PER_DOMAIN)
    ]
    original = cqads.ranking_engine
    try:
        cqads.ranking_engine = "legacy"
        legacy = [
            service.answer(AnswerRequest(question=text, domain=domain))
            for text in questions
        ]
        cqads.ranking_engine = "columnar"
        columnar = [
            service.answer(AnswerRequest(question=text, domain=domain))
            for text in questions
        ]
    finally:
        cqads.ranking_engine = original
    for text, legacy_result, columnar_result in zip(questions, legacy, columnar):
        assert _result_signature(legacy_result) == _result_signature(
            columnar_result
        ), f"pipeline divergence on {text!r}"


#: "not <bare number>" reads as an "any" unit of negated Type III
#: branches ("NOT year = 2005 OR NOT price = 2005").
NEGATED_ANY_QUESTIONS = (
    "toyota camry not 2005",
    "ford focus not 2003 blue",
    "honda accord not 1999",
)


def test_negated_any_units_rank_columnar(mutable_system):
    """All-negated "any" units get a columnar slot of kind "negation",
    bit-identical to the legacy engine's best-branch bookkeeping."""
    cqads = mutable_system.cqads
    context = cqads.context("cars")
    ranker = context.ranker()
    # Violates both branches of "not 2005", so the unit fails outright.
    violator = cqads.database.table("car_ads").insert(
        {"make": "toyota", "model": "camry", "year": 2005, "price": 2005}
    )
    kinds = set()
    for question in NEGATED_ANY_QUESTIONS:
        interpretation = cqads.answer(question, domain="cars").interpretation
        units = cqads.relaxation_units(interpretation)
        assert any(
            unit.mode == "any"
            and all(condition.negated for condition in unit.conditions)
            for unit in units
        ), question
        exact = evaluate_interpretation(
            cqads.database, cqads.domain("cars"), interpretation
        )
        exclude = {record.record_id for record in exact}
        pool = cqads.partial_candidates("cars", interpretation, exclude)
        columnar = columnar_rank_units(context.resources, pool, units, None)
        assert columnar is not None, question  # no legacy fallback
        legacy = ranker.rank_units(pool, units, engine="legacy")
        assert _scored_signature(columnar) == _scored_signature(legacy), question
        kinds.update(item.similarity_kind for item in columnar)
        if question == NEGATED_ANY_QUESTIONS[0]:
            assert violator.record_id in [item.record.record_id for item in columnar]
    assert "negation" in kinds


def test_top_k_option_bounds_ranked_pool(parity_system):
    """AnswerOptions.top_k caps the ranked pool, identically to slicing."""
    service = parity_system.service()
    request = AnswerRequest(question="honda", domain="cars")
    unbounded = service.answer(request)
    assert len(unbounded.ranked_pool) > TOP_K
    bounded = service.answer(request.with_options(top_k=TOP_K))
    exact_count = len([a for a in bounded.ranked_pool if a.exact])
    assert len(bounded.ranked_pool) == exact_count + TOP_K
    assert _answer_signature(bounded.answers) == _answer_signature(
        unbounded.answers
    )
    partial_bounded = [a for a in bounded.ranked_pool if not a.exact]
    partial_full = [a for a in unbounded.ranked_pool if not a.exact]
    assert _answer_signature(partial_bounded) == _answer_signature(
        partial_full[:TOP_K]
    )


# ----------------------------------------------------------------------
# epoch invalidation: mutate -> caches miss, no manual calls anywhere
# ----------------------------------------------------------------------
@pytest.fixture()
def mutable_system():
    """A small private build the epoch tests may freely mutate."""
    return build_system(
        ["cars"],
        ads_per_domain=80,
        sessions_per_domain=100,
        corpus_documents=100,
    )


def test_mutation_bumps_epoch_and_refreshes_column_store(mutable_system):
    """A mutation moves the store to the new epoch — patched in place
    under delta maintenance (PR 5), never served stale."""
    cqads = mutable_system.cqads
    resources = cqads.context("cars").resources
    table = cqads.database.table("car_ads")
    store = resources.column_store()
    assert store is not None and store.epoch == table.epoch
    assert resources.column_store() is store  # cached while epoch holds
    donor = next(iter(table))
    inserted = table.insert(dict(donor))
    fresh = resources.column_store()
    assert fresh.epoch == table.epoch
    assert inserted.record_id in fresh.row_of


def test_mutation_patches_fragment_cache(mutable_system):
    """Under delta maintenance a point mutation *patches* the cached
    unit id-sets forward — the repeat question still hits warm
    fragments instead of re-running every unit's index scan."""
    cqads = mutable_system.cqads
    fragments = cqads.fragment_cache
    assert fragments is not None
    service = mutable_system.service()
    request = AnswerRequest(
        question="honda accord blue less than 15000 dollars", domain="cars"
    )
    service.answer(request)
    populated = len(fragments)
    assert populated > 0
    hits_before = fragments.hits
    service.answer(request)
    assert fragments.hits > hits_before  # warm repeat shares fragments
    table = cqads.database.table("car_ads")
    donor = next(iter(table))
    inserted = table.insert(dict(donor))
    assert len(fragments) == populated  # patched forward, not dropped
    misses_before = fragments.misses
    hits_before = fragments.hits
    service.answer(request)
    assert fragments.hits > hits_before  # patched entries still serve
    assert fragments.misses == misses_before
    table.delete(inserted.record_id)


def test_mutation_auto_invalidates_answer_cache(mutable_system):
    """Insert, update and delete each refresh cached answers by
    themselves — the manual ``invalidate_cache`` contract is retired."""
    cqads = mutable_system.cqads
    service = mutable_system.service(cache=32)
    request = AnswerRequest(
        question="honda accord blue less than 15000 dollars", domain="cars"
    )
    table = cqads.database.table("car_ads")
    reference = AnswerService(cqads)  # cacheless oracle

    def assert_fresh():
        assert _result_signature(service.answer(request)) == _result_signature(
            reference.answer(request)
        )

    first = service.answer(request)
    assert _answer_signature(service.answer(request).answers) == (
        _answer_signature(first.answers)
    )
    assert service.cache.hits == 1

    # Insert a strong match: the cached answer must refresh unprompted.
    inserted = table.insert(
        {
            "make": "honda",
            "model": "accord",
            "color": "blue",
            "price": 14000,
        }
    )
    assert len(service.cache) == 0
    fresh = service.answer(request)
    assert inserted.record_id in [
        answer.record.record_id for answer in fresh.answers
    ]
    assert_fresh()

    # Update: the record stops matching, answers follow automatically.
    table.update(inserted.record_id, {"color": "red", "price": 99000})
    updated = service.answer(request)
    top_exact = [a.record.record_id for a in updated.answers if a.exact]
    assert inserted.record_id not in top_exact
    assert_fresh()

    # Delete: the record disappears from answers automatically.
    table.delete(inserted.record_id)
    deleted = service.answer(request)
    assert inserted.record_id not in [
        answer.record.record_id for answer in deleted.answers
    ]
    assert_fresh()


def test_update_refreshes_ranking_caches(mutable_system):
    """An in-place update is visible to the columnar ranker (the
    per-record key/lowered caches and column store cannot go stale)."""
    cqads = mutable_system.cqads
    resources = cqads.context("cars").resources
    table = cqads.database.table("car_ads")
    donor = next(iter(table))
    record = table.insert({**dict(donor), "color": "blue"})
    store = resources.column_store()
    row = store.row_of[record.record_id]
    assert store.categorical["color"][row] == "blue"
    key_before = resources.record_key(record)
    table.update(record.record_id, {"color": "green", "model": donor["model"]})
    store = resources.column_store()
    assert store.categorical["color"][store.row_of[record.record_id]] == "green"
    assert resources.record_key(record) == key_before  # rebuilt, same identity
    table.delete(record.record_id)
