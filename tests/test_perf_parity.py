"""Parity: the shared-subplan relaxation engine vs the N-1 definition.

Section 4.3.1 defines the N-1 candidate pool as the union of N relaxed
queries, each dropping one relaxation unit.  The engine never runs
those queries: it evaluates each unit once and derives every pool by
set intersection (:mod:`repro.perf.subplan`).  The acceptance bar is
*bit-identical* output against
:func:`tests.reference_rank.n_relaxed_queries`, the definition written
out there — same candidates in the same order — and the engine's
scored partial answers against that pool ranked by the reference's
Eq. 5, on 100 generated questions per domain, all eight domains,
driven by the intended interpretations (so Boolean trees,
superlatives, negations, "any" units and the budget cap all get
exercised).  End-to-end answers are pinned by the golden corpus
(``tests/test_golden.py``), which ``tests/test_reference_rank.py``
holds to the reference.
"""

from __future__ import annotations

import pytest

from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.perf.subplan import drop_intersections
from repro.qa.sql_generation import evaluate_interpretation
from repro.system import build_system

from tests.reference_rank import n_relaxed_queries, rank

QUESTIONS_PER_DOMAIN = 100


@pytest.fixture(scope="module")
def parity_system():
    """All eight domains, small scale (parity is scale-independent)."""
    return build_system(
        ads_per_domain=120,
        sessions_per_domain=150,
        corpus_documents=150,
        train_classifier=False,
    )


@pytest.mark.parametrize("domain", DOMAIN_NAMES)
def test_engine_parity_per_domain(parity_system, domain):
    """The engine's pool and scored partial answers equal the
    definition's, question by question."""
    cqads = parity_system.cqads
    resources = cqads.context(domain).resources
    generator = make_generator(parity_system.domain(domain).dataset, seed=97)
    compared = 0
    nonempty = 0
    for _ in range(QUESTIONS_PER_DOMAIN):
        question = generator.generate()
        interpretation = question.interpretation
        exact = evaluate_interpretation(
            cqads.database, cqads.domain(domain), interpretation
        )
        exclude = {record.record_id for record in exact}
        expected = n_relaxed_queries(cqads, domain, interpretation, exclude)
        pool = cqads.partial_candidates(domain, interpretation, exclude)
        assert [r.record_id for r in pool] == [r.record_id for r in expected], (
            f"pool divergence on {question.kind!r}: {question.text!r}"
        )
        answers = cqads.partial_answers(domain, interpretation, exclude)
        assert not any(answer.exact for answer in answers)
        units = cqads.relaxation_units(interpretation)
        reference = rank(resources, expected, units)
        assert [
            (a.record.record_id, a.score, a.similarity_kind) for a in answers
        ] == [
            (s.record.record_id, s.score, s.similarity_kind) for s in reference
        ], f"answer divergence on {question.kind!r}: {question.text!r}"
        compared += 1
        nonempty += bool(answers)
    assert compared == QUESTIONS_PER_DOMAIN
    # The battery must actually exercise the relaxation machinery.
    assert nonempty > 0


class TestDropIntersections:
    def test_quadratic_equivalence(self):
        sets = [{1, 2, 3, 4}, {2, 3, 4, 5}, {3, 4, 5, 6}, {1, 3, 4, 6}]
        pools = drop_intersections(sets)
        for index, pool in enumerate(pools):
            expected = None
            for other, ids in enumerate(sets):
                if other == index:
                    continue
                expected = set(ids) if expected is None else expected & ids
            assert pool == expected

    def test_two_sets_swap(self):
        assert drop_intersections([{1, 2}, {2, 3}]) == [{2, 3}, {1, 2}]

    def test_empty_and_single(self):
        assert drop_intersections([]) == []
        assert drop_intersections([{1, 2}]) == [set()]
