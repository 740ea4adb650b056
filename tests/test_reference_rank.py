"""The golden corpus held to Eq. 5 as written (``tests/reference_rank.py``).

``tests/test_golden.py`` requires the answer path to reproduce every
stored line of ``tests/golden/`` byte for byte; this module requires
every stored line to be what the paper's semantics give, without
regenerating anything.  Each question is tagged and interpreted
afresh, its exact matches come from the exact-match SQL path, and its
partial answers from the reference: the N-1 pool by its definition,
ranked by Eq. 5 as plain loops over records.  Per presented answer the
line must hold the reference's record id, ``repr(score)``, similarity
kind and failed-condition indexes, in the reference's order, and the
stored pool size must be the reference's.
"""

from __future__ import annotations

import json

import pytest

from repro.datagen.vocab import DOMAIN_NAMES
from repro.errors import ContradictionError
from repro.qa.boolean_rules import build_interpretation

from tests.golden.generate import QUESTIONS_PER_DOMAIN, build, corpus_path
from tests.reference_rank import reference_answer, satisfied


@pytest.fixture(scope="module")
def golden_system():
    system = build()
    yield system
    system.close()


def _interpretation(cqads, domain, text):
    context = cqads.context(domain)
    try:
        return build_interpretation(context.tagger.tag(text), context.domain)
    except ContradictionError:
        return None


def _expected_line(cqads, domain, interpretation):
    """The stored ``answers`` and ``pool`` the reference gives."""
    if interpretation is None:
        return [], 0
    conditions = interpretation.conditions()

    def unsatisfied(record):
        return [
            index
            for index, condition in enumerate(conditions)
            if not satisfied(condition, record)
        ]

    exact, partial = reference_answer(cqads, domain, interpretation)
    for item in partial:
        # The conditions Eq. 5 counted as failed are leaves the record
        # does not satisfy.
        failed = {conditions.index(condition) for condition in item.failed}
        assert failed <= set(unsatisfied(item.record)), item
    answers = [
        [record.record_id, True, "inf", "exact", unsatisfied(record)]
        for record in exact
    ] + [
        [
            item.record.record_id,
            False,
            repr(item.score),
            item.similarity_kind,
            unsatisfied(item.record),
        ]
        for item in partial
    ]
    return answers[: cqads.max_answers], len(exact) + len(partial)


@pytest.mark.parametrize("domain", DOMAIN_NAMES)
def test_corpus_equals_the_reference(golden_system, domain):
    cqads = golden_system.cqads
    lines = corpus_path(domain).read_text().splitlines()
    assert len(lines) == QUESTIONS_PER_DOMAIN
    with_partials = 0
    for line in lines:
        stored = json.loads(line)
        interpretation = _interpretation(cqads, domain, stored["text"])
        answers, pool = _expected_line(cqads, domain, interpretation)
        context = f"{stored['kind']} question {stored['text']!r}"
        assert stored["answers"] == answers, context
        assert stored["pool"] == pool, context
        with_partials += any(not answer[1] for answer in stored["answers"])
    assert with_partials > 0  # the domain's corpus really ranks partials
