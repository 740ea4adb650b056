"""Parity: the shared-subplan relaxation engine vs the N-1 definition.

Section 4.3.1 defines the N-1 candidate pool as the union of N relaxed
queries, each dropping one relaxation unit.  The engine never runs
those queries: it evaluates each unit once and derives every pool by
set intersection (:mod:`repro.perf.subplan`).  The acceptance bar is
*bit-identical* output against :func:`n_relaxed_queries`, the
definition written out below — same candidates in the same order,
and the same scored partial answers — on 100 generated questions per
domain, all eight domains, driven by the intended interpretations (so
Boolean trees, superlatives, negations, "any" units and the budget cap
all get exercised).  End-to-end answers are pinned by the golden
corpus (``tests/test_golden.py``).
"""

from __future__ import annotations

import pytest

from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.perf.subplan import drop_intersections
from repro.qa.conditions import BooleanOperator, ConditionGroup, Interpretation
from repro.qa.sql_generation import evaluate_interpretation
from repro.system import build_system

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


def relaxed_interpretation(units, original):
    """The relaxed query that keeps exactly *units*: an "any" unit with
    several branches is an OR group, every other unit adds its
    conditions to one AND, and *original*'s superlative is kept."""
    nodes = []
    for unit in units:
        if unit.mode == "any" and len(unit.conditions) > 1:
            nodes.append(ConditionGroup(BooleanOperator.OR, list(unit.conditions)))
        else:
            nodes.extend(unit.conditions)
    tree = nodes[0] if len(nodes) == 1 else ConditionGroup(BooleanOperator.AND, nodes)
    return Interpretation(tree=tree, superlative=original.superlative)


def n_relaxed_queries(cqads, domain, interpretation, exclude):
    """The N-1 candidate pool by its definition: one query per drop.

    Each relaxed query keeps every unit but one and is answered by the
    exact-match path, capped at the engine's per-query budget plus the
    excluded records; its records outside *exclude* join the pool, and
    earlier drops win ties.  A question with a single unit relaxes to
    the whole table; one without units is not relaxed.
    """
    units = cqads.relaxation_units(interpretation)
    if not units:
        return []
    table = cqads.database.table(cqads.domain(domain).schema.table_name)
    if len(units) == 1:
        return [record for record in table if record.record_id not in exclude]
    budget = cqads.partial_pool_per_query + len(exclude)
    candidates = {}
    for dropped in range(len(units)):
        relaxed = relaxed_interpretation(
            units[:dropped] + units[dropped + 1:], interpretation
        )
        for record in evaluate_interpretation(
            cqads.database, cqads.domain(domain), relaxed, limit=budget
        ):
            if record.record_id not in exclude:
                candidates.setdefault(record.record_id, record)
    return list(candidates.values())


@pytest.mark.parametrize("domain", DOMAIN_NAMES)
def test_engine_parity_per_domain(parity_system, domain):
    """The engine's pool and scored partial answers equal the
    definition's, question by question."""
    cqads = parity_system.cqads
    ranker = cqads.context(domain).ranker()
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
        reference = ranker.rank_units(expected, units) if expected else []
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
