"""The question front end against plain-loop references kept here.

Three pure functions of the front end are computed from prepared
tables, and each is held to a written-out statement of what it
computes:

* shorthand (Section 4.2.3): a domain's :class:`ShorthandIndex` tests a
  candidate against the values sharing its canonical first character;
  the reference scans the whole value list with the detector as the
  paper states it;
* JBBSM (Section 3): each fitted Beta keeps its ``log B(α, β)``; the
  reference writes the beta-binomial likelihood out in ``lgamma``;
* tokenizing: :func:`tokenize` returns the token texts without spans;
  the reference reads them off :func:`tokenize_with_spans`.
"""

from __future__ import annotations

import functools
import math
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.features import question_features
from repro.classify.naive_bayes import BetaBinomialNaiveBayes
from repro.datagen.ads import build_dataset
from repro.datagen.noise import to_shorthand
from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.db.database import Database
from repro.db.schema import AttributeType
from repro.qa.conditions import Condition, ConditionOp
from repro.qa.domain import AdsDomain
from repro.qa.tagger import QuestionTagger
from repro.text.shorthand import ShorthandIndex, expand_shorthand, shorthand_match
from repro.text.tokenizer import normalize, tokenize, tokenize_with_spans
from tests.conftest import small_car_schema

ADS_PER_DOMAIN = 300
SEED = 7


@functools.lru_cache(maxsize=None)
def datasets():
    """Every domain's generated ads, as a build provisions them."""
    database = Database()
    return {
        name: build_dataset(name, database, ADS_PER_DOMAIN, seed=SEED)
        for name in DOMAIN_NAMES
    }


@functools.lru_cache(maxsize=None)
def domains():
    return {
        name: AdsDomain.from_table(name, dataset.table)
        for name, dataset in datasets().items()
    }


# ----------------------------------------------------------------------
# shorthand: the linear scan
# ----------------------------------------------------------------------
NUMBER_WORDS = {
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "ten": "10", "eleven": "11", "twelve": "12",
}


def canonical(value: str) -> str:
    words = value.lower().replace("-", " ").split()
    return "".join(NUMBER_WORDS.get(word, word) for word in words)


def ordered_subsequence(short: str, full: str) -> bool:
    position = 0
    for ch in short:
        position = full.find(ch, position) + 1
        if position == 0:
            return False
    return True


def reference_is_shorthand(candidate: str, value: str) -> bool:
    """Section 4.2.3: *candidate* keeps characters of *value* in order,
    modulo case, number words, separators and a plural ``s``."""
    short, full = canonical(candidate), canonical(value)
    if not short or not full:
        return False
    if short == full or (full.endswith("s") and short == full[:-1]):
        return True
    candidate_words = candidate.lower().replace("-", " ").split()
    value_words = value.lower().replace("-", " ").split()
    if len(candidate_words) == len(value_words) > 1 and all(
        word == target or reference_is_shorthand(word, target)
        for word, target in zip(candidate_words, value_words)
    ):
        return True
    if not 2 <= len(short) < len(full) or short[0] != full[0]:
        return False
    if len(short) * 3 < len(full):
        return False
    stem = full[:-1] if full.endswith("s") else full
    return ordered_subsequence(short, stem) or ordered_subsequence(short, full)


def reference_match(candidate: str, values: list[str]) -> str | None:
    """The highest-coverage value *candidate* abbreviates; the first
    listed wins a tie."""
    best, best_coverage = None, 0.0
    for value in values:
        if reference_is_shorthand(candidate, value):
            coverage = len(canonical(candidate)) / len(canonical(value))
            if coverage > best_coverage:
                best, best_coverage = value, coverage
    return best


def reference_expand(tokens: list[str], values: list[str], skip) -> list[str]:
    """Token pairs first, then single tokens, each against every value."""
    result: list[str] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if skip(token):
            result.append(token)
            i += 1
            continue
        if i + 1 < len(tokens) and not skip(tokens[i + 1]):
            match = reference_match(f"{token} {tokens[i + 1]}", values)
            if match is not None:
                result.extend(match.lower().split())
                i += 2
                continue
        match = reference_match(token, values)
        if match is not None and match.lower() != token:
            result.extend(match.lower().split())
        else:
            result.append(token)
        i += 1
    return result


def subsequence(draw, text: str) -> str:
    picked = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    return "".join(ch for ch, keep in zip(text, picked) if keep)


@st.composite
def shorthand_cases(draw):
    """A domain and a candidate: a subsequence or word-wise abbreviation
    of one of its values, a number-word spelling, or a random string."""
    name = draw(st.sampled_from(DOMAIN_NAMES))
    values = domains()[name].all_categorical_values()
    value = draw(st.sampled_from(values))
    kind = draw(st.sampled_from(["subsequence", "words", "numbers", "noise", "random"]))
    if kind == "subsequence":
        candidate = subsequence(draw, value)
    elif kind == "words":
        candidate = " ".join(
            word[0] + subsequence(draw, word[1:]) for word in value.split()
        )
    elif kind == "numbers":
        spelled = {digit: word for word, digit in NUMBER_WORDS.items()}
        candidate = " ".join(spelled.get(word, word) for word in value.split())
        candidate += draw(st.sampled_from(["", "s"]))
    elif kind == "noise":
        candidate = to_shorthand(value, random.Random(draw(st.integers(0, 999))))
    else:
        candidate = draw(
            st.text(alphabet=string.ascii_lowercase + "0123456789 -", max_size=10)
        )
    return name, candidate


@settings(max_examples=400, deadline=None)
@given(shorthand_cases())
def test_indexed_match_equals_the_linear_scan(case):
    name, candidate = case
    domain = domains()[name]
    values = domain.all_categorical_values()
    expected = reference_match(candidate, values)
    assert domain.shorthand_index().match(candidate) == expected
    assert shorthand_match(candidate, values) == expected


FILLER = st.sampled_from(["or", "a", "with", "4", "car", "blue"])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(DOMAIN_NAMES),
    st.lists(FILLER | shorthand_cases().map(lambda case: case[1]), max_size=6),
)
def test_indexed_expansion_equals_the_linear_scan(name, pieces):
    domain = domains()[name]
    values = domain.all_categorical_values()
    tokens = [token for piece in pieces for token in piece.split()]
    skip = QuestionTagger(domain, correct_spelling=False)._exempt_from_shorthand
    for rule in (skip, lambda _token: False):
        expected = reference_expand(tokens, values, rule)
        assert expand_shorthand(tokens, domain.shorthand_index(), rule) == expected
        assert expand_shorthand(tokens, values, rule) == expected


@pytest.mark.parametrize("values", [["red", "rod"], ["rod", "red"]])
def test_equal_coverage_goes_to_the_first_value(values):
    # "rd" covers 2/3 of both values.
    assert reference_match("rd", values) == values[0]
    assert ShorthandIndex(values).match("rd") == values[0]
    assert shorthand_match("rd", values) == values[0]


def test_add_value_after_the_first_tag_reaches_the_index():
    schema = small_car_schema()
    domain = AdsDomain.from_values(
        "cars", schema, {"make": ["honda"], "color": ["red", "blue"]}
    )
    tagger = QuestionTagger(domain, correct_spelling=False)
    honda = Condition("make", AttributeType.TYPE_I, ConditionOp.EQ, "honda")
    assert tagger.tag("honda trqs").conditions() == [honda]
    domain.add_value(schema.column("color"), "turquoise")
    values = domain.all_categorical_values()
    assert domain.shorthand_index().match("trqs") == reference_match("trqs", values)
    assert tagger.tag("honda trqs").conditions() == [
        honda,
        Condition("color", AttributeType.TYPE_II, ConditionOp.EQ, "turquoise"),
    ]


# ----------------------------------------------------------------------
# JBBSM: the beta-binomial likelihood written out
# ----------------------------------------------------------------------
def reference_log_posteriors(model: BetaBinomialNaiveBayes, text: str) -> dict:
    """log P(c) + Σ_w log[C(n, x) · B(x + α, n − x + β) / B(α, β)]."""
    lg = math.lgamma
    features = question_features(text)
    n = max(sum(features.values()), 1)
    posteriors = {}
    for label in model._class_docs:
        score = 0.0
        for word, count in features.items():
            params = model._params[label].get(word, model._background[label])
            a, b, x = params.alpha, params.beta, min(count, n)
            score += (
                (lg(n + 1) - lg(x + 1) - lg(n - x + 1))
                + (lg(x + a) + lg(n - x + b) - lg((x + a) + (n - x + b)))
                - (lg(a) + lg(b) - lg(a + b))
            )
        posteriors[label] = math.log(model._priors[label]) + score
    return posteriors


@pytest.fixture(scope="module")
def jbbsm():
    model = BetaBinomialNaiveBayes()
    for name, dataset in datasets().items():
        for text in dataset.ad_texts():
            model.add_document(name, text)
    model.train()
    return model


def test_log_posteriors_equal_the_written_out_likelihood(jbbsm):
    checked = 0
    for name, dataset in datasets().items():
        generator = make_generator(dataset, noise_rate=0.2, seed=SEED)
        for _ in range(25):
            text = generator.generate().text
            got = {label: repr(v) for label, v in jbbsm.log_posteriors(text).items()}
            want = {
                label: repr(v)
                for label, v in reference_log_posteriors(jbbsm, text).items()
            }
            assert got == want, text
            checked += 1
    assert checked == 25 * len(DOMAIN_NAMES)


# ----------------------------------------------------------------------
# tokenizing
# ----------------------------------------------------------------------
def test_tokenize_equals_the_span_texts_on_every_ad():
    for dataset in datasets().values():
        for text in dataset.ad_texts():
            assert tokenize(text) == [t.text for t in tokenize_with_spans(text)]


@given(st.text(alphabet="aB9,$ -/.'<=>k\t", max_size=24))
def test_tokenize_and_normalize_equal_their_statement(text):
    assert tokenize(text) == [t.text for t in tokenize_with_spans(text)]
    assert normalize(text) == re.sub(r"(?<=\d),(?=\d)", "", text).lower()
