"""The golden answer corpus (``tests/golden/``) answered afresh.

The corpus is the written-down statement of what the answer path
returns: 50 seeded questions per domain, each with its SQL, message,
ranked-pool size and, per presented answer, record id, exactness,
``repr`` of the score, similarity kind and failed-condition indexes.
A plain build and a 4-shard build must both reproduce every stored
line byte for byte; ``tests/golden/generate.py`` documents the format
and regenerates it.
"""

from __future__ import annotations

import json

import pytest

from repro.api.service import AnswerService
from repro.datagen.vocab import DOMAIN_NAMES

from tests.golden.generate import (
    QUESTIONS_PER_DOMAIN,
    answer_line,
    build,
    corpus_path,
)

BUILDS = (None, 4)


@pytest.fixture(scope="module", params=BUILDS, ids=lambda n: f"shards={n}")
def golden_service(request):
    system = build(shards=request.param)
    yield AnswerService(system.cqads)
    system.close()


@pytest.mark.parametrize("domain", DOMAIN_NAMES)
def test_corpus_answers_byte_identical(golden_service, domain):
    expected = corpus_path(domain).read_text().splitlines()
    assert len(expected) == QUESTIONS_PER_DOMAIN
    for line in expected:
        question = json.loads(line)
        assert question["domain"] == domain
        got = answer_line(
            golden_service, question["text"], question["kind"], domain
        )
        assert got == line, f"{question['kind']} question {question['text']!r}"
