"""Parity: the columnar top-k ranking engine vs Eq. 5 as written.

The oracle is ``tests/reference_rank.py``, Eq. 5 and the N-1 pool as
plain loops over records.  The bar is *bit-identical* output — same
records, same float scores, same failed-condition tuples, same
similarity kinds, same order (ties included, since the ``(-score,
record_id)`` key is a total order).  Four layers:

* **ranker level** — ``rank_units(top_k=30)`` vs the reference cut to
  30, and the unbounded ranking vs the whole reference ranking, on 100
  generated questions per domain across all eight domains;
* **pipeline level** — full ``AnswerService.answer`` runs against the
  exact matches followed by the reference's ranked N-1 pool;
* **typed answers** — a pool record deleted after the pool was listed
  is dropped (plain and sharded), resources without a table and a unit
  outside the planner raise :class:`~repro.errors.RankingError`;
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
from repro.db.schema import AttributeType
from repro.errors import RankingError
from repro.perf.colrank import class_rank_unit
from repro.qa.conditions import Condition, ConditionOp
from repro.qa.sql_generation import evaluate_interpretation
from repro.ranking.rank_sim import RankingResources, RankSimRanker, ScoringUnit
from repro.system import build_system

from tests import reference_rank

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
    """Columnar top-30 == the reference cut to 30, 100 q/domain."""
    cqads = parity_system.cqads
    context = cqads.context(domain)
    ranker = context.ranker()
    assert ranker is not None
    assert context.resources.table is not None
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
        reference = reference_rank.rank(context.resources, pool, units)
        columnar_topk = ranker.rank_units(pool, units, top_k=TOP_K)
        assert _scored_signature(columnar_topk) == _scored_signature(
            reference[:TOP_K]
        ), f"top-k divergence on {question.kind!r}: {question.text!r}"
        # The unbounded ranking must equal the whole reference too
        # (sampled — it shares every scoring path with the top-k run).
        if index % 5 == 0:
            columnar_full = ranker.rank_units(pool, units)
            assert _scored_signature(columnar_full) == _scored_signature(
                reference
            ), f"full divergence on {question.kind!r}: {question.text!r}"
        compared += 1
        nonempty += bool(pool)
    assert compared == QUESTIONS_PER_DOMAIN
    assert nonempty > 0  # the battery must exercise actual ranking


def reference_ranked_pool(cqads, domain, interpretation):
    """``(record id, exact, score, kind)`` per entry of the reference's
    answer: what ``QuestionResult.ranked_pool`` must read."""
    exact, partial = reference_rank.reference_answer(cqads, domain, interpretation)
    return [(record.record_id, True, float("inf"), "exact") for record in exact] + [
        (item.record.record_id, False, item.score, item.similarity_kind)
        for item in partial
    ]


@pytest.mark.parametrize("domain", DOMAIN_NAMES[:4])
def test_pipeline_parity_per_domain(parity_system, domain):
    """End-to-end ranked pools equal the exact matches followed by the
    reference's ranking of the N-1 pool, and answers are its prefix."""
    cqads = parity_system.cqads
    service = parity_system.service()
    generator = make_generator(
        parity_system.domain(domain).dataset, noise_rate=0.3, seed=59
    )
    relaxed = 0
    for _ in range(PIPELINE_QUESTIONS_PER_DOMAIN):
        text = generator.generate().text
        result = service.answer(AnswerRequest(question=text, domain=domain))
        if result.interpretation is None:
            continue
        expected = reference_ranked_pool(cqads, domain, result.interpretation)
        assert _answer_signature(result.ranked_pool) == expected, text
        assert _answer_signature(result.answers) == expected[: cqads.max_answers]
        relaxed += any(not answer.exact for answer in result.ranked_pool)
    assert relaxed > 0  # the battery really ranks partial pools


#: "not <bare number>" reads as an "any" unit of negated Type III
#: branches ("NOT year = 2005 OR NOT price = 2005").
NEGATED_ANY_QUESTIONS = (
    "toyota camry not 2005",
    "ford focus not 2003 blue",
    "honda accord not 1999",
)


def test_negated_any_units_rank_columnar(mutable_system):
    """All-negated "any" units get a columnar slot of kind "negation",
    bit-identical to the reference's best branch."""
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
        columnar = ranker.rank_units(pool, units)
        reference = reference_rank.rank(context.resources, pool, units)
        assert _scored_signature(columnar) == _scored_signature(reference), question
        kinds.update(item.similarity_kind for item in columnar)
        if question == NEGATED_ANY_QUESTIONS[0]:
            assert violator.record_id in [item.record.record_id for item in columnar]
    assert "negation" in kinds


# ----------------------------------------------------------------------
# typed answers: what the engine does with a pool or unit it cannot rank
# ----------------------------------------------------------------------
TII, TIII = AttributeType.TYPE_II, AttributeType.TYPE_III
BLUE_UNDER_15000 = [
    ScoringUnit(conditions=(Condition("color", TII, ConditionOp.EQ, "blue"),)),
    ScoringUnit(conditions=(Condition("price", TIII, ConditionOp.LT, 15000),)),
]


@pytest.mark.parametrize("shards", [None, 4], ids=lambda n: f"shards={n}")
def test_pool_record_deleted_mid_flight_is_dropped(shards):
    """A pool is a snapshot: a record deleted after it was listed is
    dropped from the ranking, and the rest rank like the reference."""
    system = build_system(
        ["cars"],
        ads_per_domain=80,
        sessions_per_domain=100,
        corpus_documents=100,
        shards=shards,
    )
    try:
        resources = system.cqads.context("cars").resources
        ranker = RankSimRanker(resources)
        table = system.database.table("car_ads")
        pool = sorted(table.snapshot(), key=lambda record: record.record_id)
        assert len(ranker.rank_units(pool, BLUE_UNDER_15000)) == len(pool)
        gone = {record.record_id for record in pool[::7]}
        for record_id in gone:
            table.delete(record_id)
        ranked = ranker.rank_units(pool, BLUE_UNDER_15000)
        kept = [record for record in pool if record.record_id not in gone]
        assert len(ranked) == len(pool) - len(gone)
        assert _scored_signature(ranked) == _scored_signature(
            reference_rank.rank(resources, kept, BLUE_UNDER_15000)
        )
    finally:
        system.close()


def test_resources_without_a_table_raise(mutable_system):
    attached = mutable_system.cqads.context("cars").resources
    resources = RankingResources(
        ti_matrix=attached.ti_matrix,
        ws_matrix=attached.ws_matrix,
        value_ranges=dict(attached.value_ranges),
        type_i_columns=list(attached.type_i_columns),
        product_keys=list(attached.product_keys),
    )
    ranker = RankSimRanker(resources)
    pool = mutable_system.database.table("car_ads").snapshot()[:10]
    conditions = [unit.conditions[0] for unit in BLUE_UNDER_15000]
    with pytest.raises(RankingError, match="no table attached"):
        ranker.rank_units(pool, BLUE_UNDER_15000)
    with pytest.raises(RankingError, match="no table attached"):
        ranker.rank(pool, conditions)
    with pytest.raises(RankingError, match="no table attached"):
        class_rank_unit(resources, BLUE_UNDER_15000[0], set(), None)


#: Units no columnar slot covers: "any" units whose branches mix
#: kinds or signs (relaxation_units never builds them), and conditions
#: on columns the table lacks.
UNPLANNED_UNITS = {
    "mixed-any": ScoringUnit(
        conditions=(
            Condition("price", TIII, ConditionOp.LT, 9000),
            Condition("color", TII, ConditionOp.EQ, "blue"),
        ),
        mode="any",
    ),
    "half-negated-any": ScoringUnit(
        conditions=(
            Condition("year", TIII, ConditionOp.EQ, 2005),
            Condition("price", TIII, ConditionOp.EQ, 2005, negated=True),
        ),
        mode="any",
    ),
    "unknown-numeric": ScoringUnit(
        conditions=(Condition("horsepower", TIII, ConditionOp.GT, 200),)
    ),
    "unknown-categorical": ScoringUnit(
        conditions=(Condition("trim", TII, ConditionOp.EQ, "sport"),)
    ),
}


@pytest.mark.parametrize("shape", list(UNPLANNED_UNITS))
def test_unplanned_units_raise(mutable_system, shape):
    unit = UNPLANNED_UNITS[shape]
    resources = mutable_system.cqads.context("cars").resources
    pool = mutable_system.database.table("car_ads").snapshot()
    with pytest.raises(RankingError):
        RankSimRanker(resources).rank_units(pool, [BLUE_UNDER_15000[0], unit])
    with pytest.raises(RankingError):
        class_rank_unit(resources, unit, set(), None)


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
    column store's values and Type I keys cannot go stale)."""
    cqads = mutable_system.cqads
    resources = cqads.context("cars").resources
    table = cqads.database.table("car_ads")
    donor = next(iter(table))
    record = table.insert({**dict(donor), "color": "blue"})
    store = resources.column_store()
    row = store.row_of[record.record_id]
    assert store.categorical["color"][row] == "blue"
    key_before = store.keys[row]
    table.update(record.record_id, {"color": "green", "model": donor["model"]})
    store = resources.column_store()
    row = store.row_of[record.record_id]
    assert store.categorical["color"][row] == "green"
    assert store.keys[row] == key_before  # same identity after the update
    table.update(record.record_id, {"model": "zz-unknown"})
    store = resources.column_store()
    assert store.keys[store.row_of[record.record_id]] == (
        donor["make"],
        "zz-unknown",
    )
    table.delete(record.record_id)
