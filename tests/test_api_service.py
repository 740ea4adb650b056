"""Tests for the service layer: requests, stages, batching, paging."""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    AnswerOptions,
    AnswerRequest,
    AnswerService,
    QueryPipeline,
    SystemBuilder,
    page_result,
)
from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.errors import ClassificationError, ServiceClosedError
from repro.perf.answer_cache import AnswerCache
from repro.qa.pipeline import MAX_ANSWERS, SERVICE_TIMING_KEYS
from repro.system import build_system

TABLE2_QUESTION = "Find Honda Accord blue less than 15000 dollars"
STAGE_NAMES = ["classify", "tag", "interpret", "execute", "relax"]


@pytest.fixture(scope="module")
def service(cars_system):
    return AnswerService(cars_system.cqads)


@pytest.fixture(scope="module")
def eight_domain_system():
    """All eight domains at unit-test scale (fixed seed)."""
    return build_system(
        ads_per_domain=50,
        sessions_per_domain=40,
        corpus_documents=120,
    )


def _signature(result):
    return [
        (a.record.record_id, a.exact, a.score, a.similarity_kind)
        for a in result.answers
    ]


class TestRequestOptions:
    def test_default_request_matches_legacy(self, cars_system, service):
        legacy = cars_system.cqads.answer(TABLE2_QUESTION, domain="cars")
        result = service.answer(
            AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        )
        assert _signature(result) == _signature(legacy)
        assert result.sql == legacy.sql
        assert result.domain == legacy.domain

    def test_max_answers_override_beats_engine_default(
        self, cars_system, service
    ):
        default = service.answer(
            AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        )
        assert len(default.answers) > 5
        capped = service.answer(
            AnswerRequest(
                question=TABLE2_QUESTION,
                domain="cars",
                options=AnswerOptions(max_answers=5),
            )
        )
        assert len(capped.answers) == 5
        # The override is a prefix of the default ranking, and the
        # engine default is untouched for the next request.
        assert _signature(capped) == _signature(default)[:5]
        assert cars_system.cqads.max_answers == MAX_ANSWERS
        again = service.answer(
            AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        )
        assert len(again.answers) == len(default.answers)

    def test_relax_partial_override(self, service):
        result = service.answer(
            AnswerRequest(
                question=TABLE2_QUESTION,
                domain="cars",
                options=AnswerOptions(relax_partial=False),
            )
        )
        assert result.partial_answers == []
        assert service.cqads.relax_partial is True

    def test_correct_spelling_override(self, service):
        request = AnswerRequest(
            question="honda accorr", domain="cars",
            options=AnswerOptions(correct_spelling=False),
        )
        assert service.answer(request).corrections == []
        corrected = service.answer(
            AnswerRequest(question="honda accorr", domain="cars")
        )
        assert corrected.corrections

    def test_ask_keyword_convenience(self, service):
        result = service.ask(
            TABLE2_QUESTION, domain="cars", max_answers=3, explain=True
        )
        assert len(result.answers) == 3
        assert result.trace is not None

    def test_unknown_domain_raises(self, service):
        with pytest.raises(ClassificationError):
            service.answer(AnswerRequest(question="honda", domain="boats"))

    def test_max_answers_override_keeps_explicit_engine_pool(
        self, car_database
    ):
        from repro.api.requests import ResolvedOptions
        from repro.qa.pipeline import CQAds

        explicit = CQAds(car_database, partial_pool_per_query=500)
        resolved = ResolvedOptions.resolve(
            AnswerOptions(max_answers=5), explicit
        )
        assert resolved.partial_pool_per_query == 500
        derived = CQAds(car_database)
        resolved = ResolvedOptions.resolve(
            AnswerOptions(max_answers=5), derived
        )
        assert resolved.partial_pool_per_query == 15

    def test_non_positive_overrides_rejected(self, service):
        with pytest.raises(ValueError):
            service.ask("honda", domain="cars", max_answers=0)
        with pytest.raises(ValueError):
            service.ask("honda", domain="cars", partial_pool_per_query=0)

    def test_non_positive_engine_defaults_rejected(self, car_database):
        """The engine-level defaults fail as the per-request values do,
        at construction, instead of answering nothing."""
        from repro.qa.pipeline import CQAds

        for name, value in (
            ("max_answers", 0),
            ("max_answers", -3),
            ("partial_pool_per_query", 0),
            ("partial_pool_per_query", -1),
        ):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                CQAds(car_database, **{name: value})
        builder = SystemBuilder().with_domains("cars").max_answers(0)
        with pytest.raises(ValueError, match="max_answers must be positive"):
            builder.build()


class TestParityAcrossDomains:
    def test_service_matches_legacy_on_all_eight_domains(
        self, eight_domain_system
    ):
        service = eight_domain_system.service()
        for name in DOMAIN_NAMES:
            generator = make_generator(
                eight_domain_system.domain(name).dataset, seed=97
            )
            for _ in range(3):
                question = generator.generate().text
                legacy = eight_domain_system.cqads.answer(
                    question, domain=name
                )
                result = service.answer(
                    AnswerRequest(question=question, domain=name)
                )
                assert _signature(result) == _signature(legacy)
                assert result.sql == legacy.sql
                assert result.message == legacy.message


class TestBatch:
    QUESTIONS = [
        TABLE2_QUESTION,
        "honda",
        "cheapest blue honda accord",
        "honda accord not blue",
        TABLE2_QUESTION,  # duplicate on purpose
        "toyota camry automatic",
    ]

    def test_results_in_input_order_matching_serial(self, service):
        requests = [
            AnswerRequest(question=q, domain="cars") for q in self.QUESTIONS
        ]
        serial = [service.answer(r) for r in requests]
        batched = service.answer_batch(requests)
        assert len(batched) == len(requests)
        for serial_result, batch_result in zip(serial, batched):
            assert batch_result.question == serial_result.question
            assert _signature(batch_result) == _signature(serial_result)

    def test_duplicate_requests_share_one_result(self, service):
        requests = [
            AnswerRequest(question=q, domain="cars") for q in self.QUESTIONS
        ]
        batched = service.answer_batch(requests)
        assert batched[0] is batched[4]

    def test_accepts_bare_strings(self, service):
        results = service.answer_batch(["honda", "toyota camry"])
        assert [r.question for r in results] == ["honda", "toyota camry"]

    def test_single_worker_path(self, cars_system):
        """A batch answers each distinct request once, in input order,
        on the caller's own thread."""
        recording = AnswerService(cars_system.cqads)
        answered = []
        answer = recording.answer

        def record(request):
            answered.append((request.question, threading.get_ident()))
            return answer(request)

        recording.answer = record
        requests = [
            AnswerRequest(question=q, domain="cars") for q in self.QUESTIONS
        ]
        batched = recording.answer_batch(requests)
        distinct = list(dict.fromkeys(self.QUESTIONS))
        assert answered == [(q, threading.get_ident()) for q in distinct]
        serial = [recording.answer(r) for r in requests]
        for serial_result, batch_result in zip(serial, batched):
            assert _signature(batch_result) == _signature(serial_result)


class TestPagination:
    @pytest.fixture(scope="class")
    def broad_result(self, service):
        # A broad single-criterion question: the partial pool is the
        # whole table, so the full ranking far exceeds the 30-cap.
        result = service.answer(AnswerRequest(question="honda", domain="cars"))
        assert len(result.ranked_pool) > MAX_ANSWERS
        return result

    def test_capped_answers_prefix_of_pool(self, broad_result):
        assert broad_result.answers == broad_result.ranked_pool[:MAX_ANSWERS]

    def test_pages_are_stable_and_non_overlapping(self, service, broad_result):
        seen: list[int] = []
        offset = 0
        while True:
            window = service.page(broad_result, offset=offset, limit=10)
            assert window.total == len(broad_result.ranked_pool)
            seen.extend(a.record.record_id for a in window)
            if window.next_offset is None:
                break
            offset = window.next_offset
        assert len(seen) == len(set(seen))  # non-overlapping
        assert seen == [
            a.record.record_id for a in broad_result.ranked_pool
        ]
        # Stability: the same window twice is identical.
        first = service.page(broad_result, offset=10, limit=10)
        second = service.page(broad_result, offset=10, limit=10)
        assert first == second

    def test_walks_past_the_thirty_answer_cap(self, service, broad_result):
        beyond = service.page(broad_result, offset=MAX_ANSWERS, limit=10)
        assert len(beyond) > 0
        capped_ids = {a.record.record_id for a in broad_result.answers}
        assert all(a.record.record_id not in capped_ids for a in beyond)

    def test_page_all_covers_everything(self, service, broad_result):
        pages = service.page_all(broad_result, page_size=7)
        assert sum(len(p) for p in pages) == len(broad_result.ranked_pool)

    def test_validation(self, broad_result):
        with pytest.raises(ValueError):
            page_result(broad_result, offset=-1)
        with pytest.raises(ValueError):
            page_result(broad_result, limit=-1)
        # limit=0 would make next_offset == offset: an endless cursor.
        with pytest.raises(ValueError):
            page_result(broad_result, limit=0)

    def test_offset_beyond_end_is_empty(self, service, broad_result):
        window = service.page(broad_result, offset=10_000, limit=10)
        assert len(window) == 0
        assert not window.has_more
        assert window.next_offset is None


class TestBoundedRequestPaging:
    """``page``/``page_all`` on a *request* propagate ``top_k`` so deep
    pages pay a bounded-heap selection instead of a full re-sort."""

    # Few exacts, deep partial pool: the paging actually walks ranked
    # partial candidates past the 30-cap.
    REQUEST = AnswerRequest(question="blue car less than 8000 dollars", domain="cars")

    @pytest.fixture(scope="class")
    def full_ranking(self, service):
        result = service.answer(self.REQUEST)
        assert len(result.ranked_pool) > MAX_ANSWERS + 20
        assert len([a for a in result.ranked_pool if not a.exact]) > MAX_ANSWERS
        return result.ranked_pool

    def test_deep_page_equals_full_ranking_window(self, service, full_ranking):
        for offset, limit in ((0, 10), (MAX_ANSWERS, 10), (45, 7)):
            window = service.page(self.REQUEST, offset=offset, limit=limit)
            assert _signature_answers(window.answers) == _signature_answers(
                full_ranking[offset : offset + limit]
            )

    def test_bounded_page_ranked_with_bounded_pool(self, service):
        # The served result's pool stops at the derived bound — the
        # bounded-heap path really ran (plus the has_more sentinel).
        window = service.page(self.REQUEST, offset=40, limit=10)
        exacts = len(
            service.answer(self.REQUEST.with_options(relax_partial=False)).answers
        )
        assert window.total <= exacts + 40 + 10 + 1

    def test_cursor_stays_exact_at_the_bound(self, service, full_ranking):
        offset = 20
        window = service.page(self.REQUEST, offset=offset, limit=10)
        assert window.has_more == (len(full_ranking) > offset + 10)
        assert window.next_offset == offset + 10

    def test_request_top_k_is_honoured_as_given(self, service, full_ranking):
        bounded = self.REQUEST.with_options(top_k=5)
        window = service.page(bounded, offset=0, limit=30)
        exacts = len([a for a in full_ranking if a.exact])
        assert window.total == exacts + 5

    def test_bare_string_source(self, service, full_ranking):
        window = service.page(self.REQUEST.question, offset=0, limit=10)
        # Classified route: same question, same first page.
        assert _signature_answers(window.answers) == _signature_answers(
            full_ranking[:10]
        )

    def test_page_all_with_max_depth(self, service, full_ranking):
        exacts = len([a for a in full_ranking if a.exact])
        pages = service.page_all(self.REQUEST, page_size=10, max_depth=25)
        flattened = [answer for page in pages for answer in page]
        assert _signature_answers(flattened) == _signature_answers(
            full_ranking[: exacts + 25]
        )

    def test_page_all_without_depth_is_complete(self, service, full_ranking):
        pages = service.page_all(self.REQUEST, page_size=17)
        assert sum(len(page) for page in pages) == len(full_ranking)

    def test_page_all_max_depth_caps_computed_results_too(
        self, service, full_ranking
    ):
        result = service.answer(self.REQUEST)
        exacts = len([a for a in full_ranking if a.exact])
        pages = service.page_all(result, page_size=10, max_depth=25)
        flattened = [answer for page in pages for answer in page]
        assert _signature_answers(flattened) == _signature_answers(
            full_ranking[: exacts + 25]
        )
        assert len(result.ranked_pool) == len(full_ranking)  # source untouched
        with pytest.raises(ValueError):
            service.page_all(result, max_depth=0)

    def test_request_path_validation(self, service):
        with pytest.raises(ValueError):
            service.page(self.REQUEST, offset=-1)
        with pytest.raises(ValueError):
            service.page(self.REQUEST, limit=0)


def _signature_answers(answers):
    return [
        (a.record.record_id, a.exact, a.score, a.similarity_kind)
        for a in answers
    ]


class TestExplainAndTimings:
    def test_trace_lists_all_executed_stages(self, service):
        result = service.answer(
            AnswerRequest(
                question=TABLE2_QUESTION,
                domain="cars",
                options=AnswerOptions(explain=True),
            )
        )
        assert result.trace is not None
        assert [entry.stage for entry in result.trace] == STAGE_NAMES
        assert all(not entry.skipped for entry in result.trace)
        assert set(result.timings) == set(STAGE_NAMES)

    def test_contradiction_marks_downstream_stages_skipped(self, service):
        result = service.answer(
            AnswerRequest(
                question="honda cheaper than 2000 and more expensive than 7000",
                domain="cars",
                options=AnswerOptions(explain=True),
            )
        )
        assert result.message is not None and "no results" in result.message
        by_stage = {entry.stage: entry for entry in result.trace}
        assert not by_stage["interpret"].skipped
        assert by_stage["execute"].skipped
        assert by_stage["relax"].skipped
        # Skipped stages never appear in the timings.
        assert set(result.timings) == {"classify", "tag", "interpret"}

    def test_no_explain_means_no_trace_but_timings(self, service):
        result = service.answer(
            AnswerRequest(question="honda", domain="cars")
        )
        assert result.trace is None
        assert set(result.timings) == set(STAGE_NAMES)
        assert all(seconds >= 0 for seconds in result.timings.values())

    def test_elapsed_seconds_is_derived_from_timings(self, service):
        result = service.answer(
            AnswerRequest(question="honda", domain="cars")
        )
        assert result.elapsed_seconds == pytest.approx(
            sum(result.timings.values())
        )
        assert result.elapsed_seconds > 0


class TestPluggableStages:
    class AuditStage:
        name = "audit"

        def __init__(self) -> None:
            self.seen: list[str] = []

        def run(self, ctx) -> str:
            self.seen.append(ctx.request.question)
            return f"audited {ctx.domain}"

    def test_custom_stage_inserted_after_tag(self, cars_system):
        audit = self.AuditStage()
        pipeline = QueryPipeline().inserting_after("tag", audit)
        service = AnswerService(cars_system.cqads, pipeline=pipeline)
        result = service.ask("honda", domain="cars", explain=True)
        assert audit.seen == ["honda"]
        assert [entry.stage for entry in result.trace] == [
            "classify", "tag", "audit", "interpret", "execute", "relax",
        ]
        assert "audit" in result.timings

    def test_custom_stage_does_not_change_answers(self, cars_system, service):
        pipeline = QueryPipeline().inserting_after("tag", self.AuditStage())
        custom = AnswerService(cars_system.cqads, pipeline=pipeline)
        baseline = service.answer(
            AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        )
        augmented = custom.answer(
            AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        )
        assert _signature(augmented) == _signature(baseline)

    def test_replacing_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            QueryPipeline().replacing("nonexistent", self.AuditStage())
        # Even when the replacement instance is already in the pipeline.
        pipeline = QueryPipeline()
        with pytest.raises(KeyError):
            pipeline.replacing("nonexistent", pipeline.stages[0])

    def test_replacing_swaps_the_named_stage(self, cars_system):
        audit = self.AuditStage()
        audit.name = "relax"  # stand-in that skips relaxation entirely
        pipeline = QueryPipeline().replacing("relax", audit)
        service = AnswerService(cars_system.cqads, pipeline=pipeline)
        result = service.answer(
            AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        )
        assert audit.seen == [TABLE2_QUESTION]
        assert result.partial_answers == []

    def test_inserting_after_unknown_stage_raises(self):
        with pytest.raises(KeyError):
            QueryPipeline().inserting_after("nonexistent", self.AuditStage())

    def test_default_stage_names(self):
        assert QueryPipeline().stage_names() == STAGE_NAMES


class TestServiceLifecycle:
    """The close()/context protocol."""

    def test_close_is_idempotent_and_refuses_new_work(self, cars_system):
        service = AnswerService(cars_system.cqads)
        result = service.answer(
            AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        )
        service.answer_batch([TABLE2_QUESTION, "honda"])
        service.close()
        service.close()
        # A closed service refuses every entry point with the typed
        # error — which still satisfies the legacy RuntimeError
        # contract for callers written against the old message.
        with pytest.raises(ServiceClosedError):
            service.answer(
                AnswerRequest(question=TABLE2_QUESTION, domain="cars")
            )
        with pytest.raises(ServiceClosedError):
            service.answer_batch([TABLE2_QUESTION, "honda"])
        with pytest.raises(ServiceClosedError):
            service.page(TABLE2_QUESTION, offset=0, limit=5)
        with pytest.raises(ServiceClosedError):
            # Even paging an already-computed result is refused.
            service.page(result, offset=0, limit=5)
        assert issubclass(ServiceClosedError, RuntimeError)
        with pytest.raises(RuntimeError):
            service.answer(TABLE2_QUESTION)

    def test_context_manager_closes_and_unsubscribes(self, cars_system):
        database = cars_system.cqads.database
        with AnswerService(cars_system.cqads, cache=8) as service:
            assert service._subscribed
            service.answer_batch([TABLE2_QUESTION, "honda"])
        assert not service._subscribed
        assert service._on_table_mutation not in database._listeners


class TestCacheTimingFlag:
    """``timings["cache"]``: the one service metadata key."""

    def test_sync_service_reports_hit_and_miss(self, cars_system):
        service = AnswerService(cars_system.cqads, cache=AnswerCache(16))
        request = AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        miss = service.answer(request)
        hit = service.answer(request)
        assert miss.timings["cache"] is False
        assert hit.timings["cache"] is True
        assert _signature(miss) == _signature(hit)
        service.close()

    def test_flag_does_not_pollute_elapsed_seconds(self, cars_system):
        service = AnswerService(cars_system.cqads, cache=AnswerCache(16))
        request = AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        result = service.answer(request)
        stage_total = sum(
            seconds
            for stage, seconds in result.timings.items()
            if stage not in SERVICE_TIMING_KEYS
        )
        assert result.elapsed_seconds == pytest.approx(stage_total)
        # A boolean flag naively summed would add ~1.0s; elapsed must
        # stay in engine territory (well under a second on 250 ads).
        assert result.elapsed_seconds < 0.9
        service.close()

    def test_cacheless_and_bypassing_requests_leave_flag_unset(
        self, cars_system
    ):
        bare = AnswerService(cars_system.cqads)
        assert "cache" not in bare.answer(
            AnswerRequest(question=TABLE2_QUESTION, domain="cars")
        ).timings
        cached = AnswerService(cars_system.cqads, cache=AnswerCache(16))
        bypass = cached.answer(
            AnswerRequest(question=TABLE2_QUESTION, domain="cars").with_options(
                use_cache=False
            )
        )
        assert "cache" not in bypass.timings
        bare.close()
        cached.close()
