"""Tests for the fluent SystemBuilder and its eager provisioning."""

from __future__ import annotations

import time

import pytest

from repro.api import AnswerService, SystemBuilder
from repro.classify.naive_bayes import BetaBinomialNaiveBayes
from repro.qa.pipeline import CQAds
from repro.system import BuiltSystem, build_system
from tests.conftest import run_together

SMALL = dict(ads=40, sessions=30, corpus=30)


def small_builder(*domains: str) -> SystemBuilder:
    return (
        SystemBuilder()
        .with_domains(*domains)
        .ads_per_domain(SMALL["ads"])
        .sessions_per_domain(SMALL["sessions"])
        .corpus_documents(SMALL["corpus"])
    )


class TestFluentBuild:
    def test_chaining_returns_the_builder(self):
        builder = SystemBuilder()
        assert builder.with_domains("cars") is builder
        assert builder.ads_per_domain(10) is builder
        assert builder.sessions_per_domain(10) is builder
        assert builder.corpus_documents(10) is builder
        assert builder.with_seed(3) is builder
        assert builder.with_classifier(None) is builder
        assert builder.train_classifier(False) is builder
        assert builder.max_answers(5) is builder
        assert builder.answer_defaults(relax_partial=False) is builder

    def test_build_matches_build_system(self):
        via_builder = small_builder("cars").with_seed(7).build()
        via_function = build_system(
            ["cars"],
            ads_per_domain=SMALL["ads"],
            sessions_per_domain=SMALL["sessions"],
            corpus_documents=SMALL["corpus"],
            seed=7,
        )
        builder_records = [
            dict(r) for r in via_builder.domain("cars").dataset.records
        ]
        function_records = [
            dict(r) for r in via_function.domain("cars").dataset.records
        ]
        assert builder_records == function_records
        question = "blue honda accord"
        assert (
            via_builder.cqads.answer(question, domain="cars").records()
            == via_function.cqads.answer(question, domain="cars").records()
        )

    def test_build_is_repeatable_and_independent(self):
        builder = small_builder("cars")
        first = builder.build()
        second = builder.build()
        assert first is not second
        assert first.database is not second.database
        first_records = [dict(r) for r in first.domain("cars").dataset.records]
        second_records = [dict(r) for r in second.domain("cars").dataset.records]
        assert first_records == second_records

    def test_with_domains_accepts_iterable(self):
        varargs = small_builder("cars", "motorcycles").build()
        iterable = (
            SystemBuilder()
            .with_domains(["cars", "motorcycles"])
            .ads_per_domain(SMALL["ads"])
            .sessions_per_domain(SMALL["sessions"])
            .corpus_documents(SMALL["corpus"])
            .build()
        )
        assert varargs.cqads.domains() == iterable.cqads.domains()
        assert list(varargs.domains) == ["cars", "motorcycles"]

    def test_build_service(self):
        service = small_builder("cars").build_service()
        assert isinstance(service, AnswerService)
        assert service.cqads.domains() == ["cars"]
        result = service.ask("blue honda", domain="cars")
        assert result.domain == "cars"

    def test_engine_options_flow_through(self):
        system = (
            small_builder("cars")
            .max_answers(7)
            .answer_defaults(relax_partial=False, correct_spelling=False)
            .build()
        )
        engine = system.cqads
        assert engine.max_answers == 7
        assert engine.relax_partial is False
        assert engine.correct_spelling is False
        result = engine.answer("honda", domain="cars")
        assert len(result.answers) <= 7

    def test_custom_classifier_is_used(self):
        classifier = BetaBinomialNaiveBayes()
        system = small_builder("cars").with_classifier(classifier).build()
        assert system.cqads.classifier is classifier


class TestBuiltSystemConstruction:
    """The seed's ``BuiltSystem(cqads=None)  # type: ignore`` is gone:
    the engine exists before the system object is created."""

    def test_cqads_present_from_construction(self):
        system = small_builder("cars").build()
        assert isinstance(system.cqads, CQAds)
        assert isinstance(system, BuiltSystem)
        assert system.cqads.database is system.database

    def test_every_requested_domain_is_provisioned(self):
        system = small_builder("cars", "motorcycles").build()
        assert list(system.domains) == ["cars", "motorcycles"]
        assert system.cqads.domains() == ["cars", "motorcycles"]
        built = system.domain("cars")
        assert built is system.domains["cars"]
        assert len(built.dataset.records) == SMALL["ads"]
        assert system.ws_matrix is not None
        assert system.corpus

    def test_unknown_domain_raises_keyerror(self):
        system = small_builder("cars").build()
        with pytest.raises(KeyError):
            system.domain("boats")
        with pytest.raises(KeyError):
            system.cqads.domain("boats")


class TestEagerProvisioning:
    """A build provisions every domain before it returns; only the
    classifier may wait for the first question it routes."""

    def test_service_answers_named_and_classified_questions(self):
        service = small_builder("cars", "motorcycles").build_service()
        assert service.cqads.domains() == ["cars", "motorcycles"]
        assert service.ask("blue honda accord", domain="cars").answers
        result = service.ask("harley davidson sportster low miles")
        assert result.domain == "motorcycles"

    def test_concurrent_classification_trains_once(self):
        """Questions racing to classify on an untrained classifier: the
        training lock trains it once, before any of them reads it."""
        system = (
            small_builder("cars", "motorcycles").train_classifier(False).build()
        )
        cqads = system.cqads
        trainings: list[str] = []
        train = cqads.classifier.train

        def slow_counting_train(*args, **kwargs):
            trainings.append("train")
            time.sleep(0.02)  # holds the race window open
            return train(*args, **kwargs)

        cqads.classifier.train = slow_counting_train
        questions = [
            "blue honda accord",
            "harley davidson sportster",
            "4 door toyota camry sedan",
            "yamaha r6",
            "red ford focus",
            "kawasaki ninja",
        ]
        routed: dict[str, str] = {}

        def classify(question: str) -> None:
            routed[question] = cqads.classify_question(question)

        run_together(classify, [(q,) for q in questions], switch_interval=1e-6)
        assert trainings == ["train"]
        assert routed == {q: cqads.classify_question(q) for q in questions}
        assert set(routed.values()) == {"cars", "motorcycles"}
