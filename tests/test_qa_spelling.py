"""Tests for trie-based spelling correction (Section 4.2.1)."""

from __future__ import annotations

import pytest

from repro.qa.domain import AdsDomain
from repro.qa.spelling import SpellingCorrector


@pytest.fixture()
def corrector(car_table):
    return SpellingCorrector(AdsDomain.from_table("cars", car_table))


class TestMissingSpaces:
    def test_paper_example_hondaaccord(self, corrector):
        tokens, corrections = corrector.correct_tokens(["hondaaccord"])
        assert tokens == ["honda", "accord"]
        assert corrections[0].kind == "split"
        assert corrections[0].confidence == 100.0

    def test_three_way_split(self, corrector):
        tokens, _ = corrector.correct_tokens(["bluehondaaccord"])
        assert tokens == ["blue", "honda", "accord"]

    def test_no_false_split_of_known_word(self, corrector):
        tokens, corrections = corrector.correct_tokens(["corolla"])
        assert tokens == ["corolla"]
        assert corrections == []


class TestMisspellings:
    def test_paper_example_accorr(self, corrector):
        tokens, corrections = corrector.correct_tokens(["accorr"])
        assert tokens == ["accord"]
        assert corrections[0].kind == "respell"
        assert corrections[0].confidence > 65.0

    def test_dropped_letter(self, corrector):
        tokens, _ = corrector.correct_tokens(["acord"])
        assert tokens == ["accord"]

    def test_doubled_letter(self, corrector):
        tokens, _ = corrector.correct_tokens(["hondda"])
        assert tokens == ["honda"]

    def test_identifier_words_correctable(self, corrector):
        tokens, _ = corrector.correct_tokens(["lesss"])
        assert tokens == ["less"]

    def test_hopeless_garbage_untouched(self, corrector):
        tokens, corrections = corrector.correct_tokens(["zzzzqqqq"])
        assert tokens == ["zzzzqqqq"]
        assert corrections == []


class TestProtectedTokens:
    def test_numbers_never_corrected(self, corrector):
        for token in ("2000", "$5000", "20k", "1,500"):
            tokens, corrections = corrector.correct_tokens([token])
            assert tokens == [token]
            assert corrections == []

    def test_stopwords_never_corrected(self, corrector):
        tokens, corrections = corrector.correct_tokens(["with", "the"])
        assert tokens == ["with", "the"]
        assert corrections == []

    def test_generic_words_protected(self, corrector):
        # "cars" must not become "camry"
        tokens, corrections = corrector.correct_tokens(["cars", "car"])
        assert tokens == ["cars", "car"]
        assert corrections == []

    def test_short_unknown_words_untouched(self, corrector):
        tokens, corrections = corrector.correct_tokens(["xyz"])
        assert tokens == ["xyz"]
        assert corrections == []

    def test_known_words_untouched(self, corrector):
        tokens, corrections = corrector.correct_tokens(
            ["honda", "blue", "automatic"]
        )
        assert tokens == ["honda", "blue", "automatic"]
        assert corrections == []


class TestFullStream:
    def test_paper_question(self, corrector):
        tokens, corrections = corrector.correct_tokens(
            ["honda", "accorr", "less", "than", "$2000"]
        )
        assert tokens == ["honda", "accord", "less", "than", "$2000"]
        assert len(corrections) == 1

    def test_multiple_corrections(self, corrector):
        tokens, corrections = corrector.correct_tokens(
            ["hondaaccord", "bluu"]
        )
        assert tokens == ["honda", "accord", "blue"]
        assert {c.kind for c in corrections} == {"split", "respell"}


@pytest.mark.parametrize(
    "question",
    ["honda accord more expensive than 7000", "honda accord leave out red"],
)
def test_answer_reports_no_self_correction(cars_system, question):
    # "expensive" and "leave" occur only inside multi-word identifiers
    # ("more expensive than", "leave out"): they respell to themselves,
    # which is no correction.
    result = cars_system.cqads.answer(question, domain="cars")
    assert result.corrections == []
    assert result.interpretation is not None
