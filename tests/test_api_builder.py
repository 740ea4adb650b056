"""Tests for the fluent SystemBuilder and lazy provisioning."""

from __future__ import annotations

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
        assert builder.lazy() is builder

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
        assert varargs.requested_domains == ("cars", "motorcycles")

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

    def test_requested_domains_recorded(self):
        system = small_builder("cars").build()
        assert system.requested_domains == ("cars",)
        assert system.pending_domains == ()

    def test_unknown_domain_raises_keyerror(self):
        system = small_builder("cars").build()
        with pytest.raises(KeyError):
            system.domain("boats")


class TestLazyProvisioning:
    def test_nothing_provisioned_until_first_access(self):
        system = small_builder("cars", "motorcycles").lazy().build()
        assert system.domains == {}
        assert system.pending_domains == ("cars", "motorcycles")
        assert system.cqads.domains() == []
        # The shared substrate exists up front.
        assert system.ws_matrix is not None
        assert system.corpus

    def test_first_access_provisions_and_registers(self):
        system = small_builder("cars", "motorcycles").lazy().build()
        built = system.domain("cars")
        assert len(built.dataset.records) == SMALL["ads"]
        assert system.cqads.domains() == ["cars"]
        assert system.pending_domains == ("motorcycles",)
        # Second access is a no-op returning the same artifacts.
        assert system.domain("cars") is built

    def test_lazy_answers_match_eager(self):
        question = "blue honda accord"
        eager = small_builder("cars").build()
        lazy = small_builder("cars").lazy().build()
        lazy.ensure_domain("cars")
        assert (
            lazy.cqads.answer(question, domain="cars").records()
            == eager.cqads.answer(question, domain="cars").records()
        )

    def test_provision_all_completes_the_system(self):
        system = small_builder("cars", "motorcycles").lazy().build()
        system.provision_all()
        assert system.pending_domains == ()
        assert system.cqads.domains() == ["cars", "motorcycles"]
        result = system.cqads.answer("harley davidson sportster")
        assert result.domain == "motorcycles"

    def test_lazy_unknown_domain_raises_keyerror(self):
        system = small_builder("cars").lazy().build()
        with pytest.raises(KeyError):
            system.ensure_domain("boats")

    def test_lazy_service_provisions_named_domain_on_demand(self):
        service = small_builder("cars", "motorcycles").lazy().build_service()
        assert service.cqads.domains() == []
        result = service.ask("blue honda accord", domain="cars")
        assert result.answers
        assert service.cqads.domains() == ["cars"]

    def test_lazy_engine_domain_accessor_provisions(self):
        system = small_builder("cars").lazy().build()
        # The engine-level accessor provisions too, like context().
        assert system.cqads.domain("cars").name == "cars"
        with pytest.raises(KeyError):
            system.cqads.domain("boats")

    def test_lazy_service_classification_provisions_everything(self):
        service = small_builder("cars", "motorcycles").lazy().build_service()
        result = service.ask("harley davidson sportster low miles")
        assert result.domain == "motorcycles"
        assert service.cqads.domains() == ["cars", "motorcycles"]

    def test_lazy_batch_concurrent_requests(self):
        """Classified requests racing on a lazy build: the provisioning
        lock builds each domain once, and the classifier's training
        lock trains it once, before any request reads it."""
        system = small_builder("cars", "motorcycles").lazy().build()
        provisioned: list[str] = []
        provision = system._provisioner

        def counting(name):
            provisioned.append(name)
            return provision(name)

        system._provisioner = counting
        trainings: list[str] = []
        train = system.cqads.classifier.train

        def counting_train(*args, **kwargs):
            trainings.append("train")
            return train(*args, **kwargs)

        system.cqads.classifier.train = counting_train
        service = system.service()
        questions = [
            "blue honda accord",
            "harley davidson sportster",
            "4 door toyota camry sedan",
            "yamaha r6",
        ]
        results: dict[str, object] = {}

        def ask(question: str) -> None:
            results[question] = service.answer(question)

        run_together(ask, [(q,) for q in questions], switch_interval=1e-6)
        assert sorted(provisioned) == ["cars", "motorcycles"]
        assert trainings == ["train"]
        assert [results[q].question for q in questions] == questions
        assert {results[q].domain for q in questions} == {"cars", "motorcycles"}
