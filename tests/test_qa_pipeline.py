"""Tests for the CQAds pipeline facade (integration level)."""

from __future__ import annotations

import pytest

from repro.db.table import Table
from repro.errors import ClassificationError
from repro.qa.pipeline import MAX_ANSWERS
from repro.ranking.rank_sim import condition_satisfied
from repro.system import build_system


class TestAnswering:
    def test_exact_answers_first(self, cars_system):
        result = cars_system.cqads.answer(
            "blue honda accord", domain="cars"
        )
        assert result.answers
        exact = result.exact_answers
        for answer in exact:
            assert answer.record["make"] == "honda"
            assert answer.record["model"] == "accord"
            assert answer.record["color"] == "blue"
        # exacts precede partials
        flags = [answer.exact for answer in result.answers]
        assert flags == sorted(flags, reverse=True)

    def test_thirty_answer_cap(self, cars_system):
        result = cars_system.cqads.answer("honda", domain="cars")
        assert len(result.answers) <= MAX_ANSWERS

    def test_partial_answers_ranked_descending(self, cars_system):
        result = cars_system.cqads.answer(
            "Find Honda Accord blue less than 15000 dollars", domain="cars"
        )
        partials = result.partial_answers
        assert partials, "expected partial answers for the Table 2 question"
        scores = [answer.score for answer in partials]
        assert scores == sorted(scores, reverse=True)

    def test_partial_answers_never_duplicate_exact(self, cars_system):
        result = cars_system.cqads.answer(
            "blue honda accord automatic", domain="cars"
        )
        exact_ids = {a.record.record_id for a in result.exact_answers}
        partial_ids = {a.record.record_id for a in result.partial_answers}
        assert not exact_ids & partial_ids

    def test_contradiction_message(self, cars_system):
        result = cars_system.cqads.answer(
            "honda cheaper than 2000 and more expensive than 7000",
            domain="cars",
        )
        assert result.message is not None
        assert "no results" in result.message
        assert result.answers == []

    def test_sql_is_parseable(self, cars_system):
        from repro.db.sql.parser import parse_select

        result = cars_system.cqads.answer(
            "blue honda under $9000", domain="cars"
        )
        statement = parse_select(result.sql)
        assert statement.table == "car_ads"

    def test_elapsed_time_recorded(self, cars_system):
        result = cars_system.cqads.answer("honda", domain="cars")
        assert result.elapsed_seconds > 0

    def test_unknown_domain_raises(self, cars_system):
        with pytest.raises(ClassificationError):
            cars_system.cqads.answer("honda", domain="boats")

    def test_single_domain_skips_classifier(self, cars_system):
        # no domain argument: with one domain registered, no training needed
        result = cars_system.cqads.answer("blue honda")
        assert result.domain == "cars"

    def test_two_domain_routing(self, two_domain_system):
        result = two_domain_system.cqads.answer(
            "harley davidson sportster low miles"
        )
        assert result.domain == "motorcycles"
        result = two_domain_system.cqads.answer("4 door toyota camry sedan")
        assert result.domain == "cars"


class TestRelaxationUnits:
    def test_type_i_bundled(self, cars_system):
        cqads = cars_system.cqads
        result = cqads.answer(
            "Find Honda Accord blue less than 15000 dollars", domain="cars"
        )
        units = cqads.relaxation_units(result.interpretation)
        # honda+accord bundle, color, price -> 3 units (paper Table 2's N)
        assert len(units) == 3
        assert len(units[0].conditions) == 2  # the identity anchor

    def test_boolean_interpretation_not_relaxed(self, cars_system):
        cqads = cars_system.cqads
        result = cqads.answer("honda accord or toyota camry", domain="cars")
        assert cqads.relaxation_units(result.interpretation) == []

    def test_negations_never_relaxed(self, cars_system):
        cqads = cars_system.cqads
        result = cqads.answer("honda accord not blue", domain="cars")
        units = cqads.relaxation_units(result.interpretation)
        for unit in units:
            for condition in unit.conditions:
                assert not condition.negated


class TestConcurrentWrites:
    def test_single_unit_pool_survives_an_insert_mid_scan(self, monkeypatch):
        system = build_system(
            ["cars"], ads_per_domain=80, sessions_per_domain=40, corpus_documents=20
        )
        cqads = system.cqads
        table = system.database.table("car_ads")
        interpretation = cqads.answer(
            "cheapest honda accord", domain="cars"
        ).interpretation
        assert len(cqads.relaxation_units(interpretation)) == 1
        row = dict(table.get(1))
        iterate = Table.__iter__

        def insert_after_first(self):
            records = iterate(self)
            yield next(records)
            self.insert(row)
            yield from records

        monkeypatch.setattr(Table, "__iter__", insert_after_first)
        pool = cqads.partial_candidates("cars", interpretation)
        assert len(pool) == 80


class TestFeatureSwitches:
    def test_relax_partial_off(self, cars_system):
        from repro.qa.pipeline import CQAds

        cqads = CQAds(cars_system.database, relax_partial=False)
        built = cars_system.domains["cars"]
        cqads.add_domain(built.domain, resources=built.resources)
        result = cqads.answer(
            "Find Honda Accord blue less than 15000 dollars", domain="cars"
        )
        assert result.partial_answers == []

    def test_no_resources_returns_unranked_partials(self, cars_system):
        from repro.qa.pipeline import CQAds

        cqads = CQAds(cars_system.database)
        built = cars_system.domains["cars"]
        cqads.add_domain(built.domain, resources=None)
        result = cqads.answer(
            "Find Honda Accord blue less than 15000 dollars", domain="cars"
        )
        if result.partial_answers:
            assert all(
                answer.similarity_kind == "unranked"
                for answer in result.partial_answers
            )

    def test_spelling_off(self, cars_system):
        from repro.qa.pipeline import CQAds

        cqads = CQAds(cars_system.database, correct_spelling=False)
        built = cars_system.domains["cars"]
        cqads.add_domain(built.domain, resources=built.resources)
        result = cqads.answer("hondaa accord", domain="cars")
        assert result.corrections == []


def test_exact_answers_satisfy_every_condition_when_values_are_missing():
    """An ad without a price is an exact answer to "not 5000 dollars"
    (numeric != passes NULL), and Rank_Sim's condition_satisfied agrees
    instead of calling it a partial match."""
    system = build_system(
        ["cars"],
        ads_per_domain=250,
        sessions_per_domain=300,
        corpus_documents=200,
    )
    cqads = system.cqads
    inserted = cqads.database.table("car_ads").insert(
        {"make": "honda", "model": "accord", "color": "red", "year": 2004}
    )
    result = cqads.answer("honda accord not 5000 dollars", domain="cars")
    assert result.interpretation.is_pure_conjunction()
    exact = result.exact_answers
    assert inserted.record_id in [answer.record.record_id for answer in exact]
    for answer in exact:
        for condition in result.interpretation.conditions():
            assert condition_satisfied(condition, answer.record), (
                condition.describe(),
                dict(answer.record),
            )
