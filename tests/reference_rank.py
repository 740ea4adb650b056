"""Eq. 5 (Rank_Sim) and the Section 4.3.1 N-1 pool, written from the paper.

This module is the test suite's statement of how CQAds ranks partial
answers.  It is written as plain loops over records and imports nothing
from ``repro.perf`` or ``repro.ranking.rank_sim``, so it shares no code
with the ranker it checks.  It uses only:

* the predicate kernel, for "does the record satisfy the condition"
  (the same verdict the SQL executor gives);
* the similarity measures the paper defines: ``TIMatrix.normalized``
  (TI_Sim over the matrix maximum), ``WSMatrix.value_similarity``
  (Feat_Sim) and ``condition_num_sim`` (Num_Sim, Eq. 4).

**Eq. 5.**  A question relaxes into units (a Type I anchor's make and
model are one unit, every other criterion its own, an incomplete
number's alternative readings one "any" unit).  A record's Rank_Sim
is the sum, unit by unit and condition by condition:

* a satisfied condition scores 1;
* a failed Type I condition scores its normalized TI_Sim, the best
  over the products consistent with the question's Type I values
  ("honda" matches every Honda model);
* a failed Type II condition scores its Feat_Sim;
* a failed Type III condition scores its Num_Sim against the
  attribute's value range;
* a violated negation scores 0, and so does a failed condition on a
  NULL (or non-numeric) value;
* an "any" unit scores 1 when some branch is satisfied, else its best
  branch (the last of equal branches names the kind).

The failed conditions are listed in unit order.  The similarity kind
is ``"exact"`` when nothing failed, the failed kind when all failures
share one, else ``"mixed"``.  Records are presented by descending
score, ties by record id.

**The N-1 pool.**  :func:`n_relaxed_queries` runs one relaxed query
per dropped unit, each capped at the engine's per-query budget, and
unions their records in drop order; a one-unit question relaxes to the
whole table.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.db.predicate import parse_numeric
from repro.db.schema import AttributeType
from repro.qa.conditions import BooleanOperator, ConditionGroup, Interpretation
from repro.qa.sql_generation import condition_predicate, evaluate_interpretation
from repro.ranking.num_sim import condition_num_sim

__all__ = [
    "Ranked",
    "n_relaxed_queries",
    "rank",
    "reference_answer",
    "reference_partial_answers",
    "relaxed_interpretation",
    "satisfied",
    "score",
]


class Ranked(NamedTuple):
    """One record as Eq. 5 scores it."""

    record: object
    score: float
    failed: tuple
    similarity_kind: str


def satisfied(condition, record) -> bool:
    """The predicate kernel's verdict: the SQL executor's answer."""
    return condition_predicate(condition).matches(record)


def question_products(resources, units) -> list[tuple]:
    """The product keys consistent with the question's Type I values."""
    columns = list(resources.type_i_columns)
    stated = {}
    for unit in units:
        for condition in unit.conditions:
            if (
                condition.attribute_type is AttributeType.TYPE_I
                and not condition.negated
                and condition.column in columns
            ):
                stated[condition.column] = str(condition.value)
    products = []
    for key in resources.product_keys:
        if all(key[columns.index(column)] == value for column, value in stated.items()):
            products.append(key)
    return products


def failed_similarity(resources, condition, record, products) -> tuple[float, str]:
    """A failed condition's contribution to Eq. 5, with its kind."""
    if condition.negated:
        return 0.0, "negation"
    if condition.attribute_type is AttributeType.TYPE_I:
        product = tuple(
            str(record.get(column) or "") for column in resources.type_i_columns
        )
        best = 0.0
        for candidate in products:
            best = max(best, resources.ti_matrix.normalized(candidate, product))
        return best, "TI_Sim"
    value = record.get(condition.column)
    if condition.attribute_type is AttributeType.TYPE_II:
        if value is None:
            return 0.0, "Feat_Sim"
        return (
            resources.ws_matrix.value_similarity(str(condition.value), str(value)),
            "Feat_Sim",
        )
    number = parse_numeric(value)
    if number is None:
        return 0.0, "Num_Sim"
    value_range = resources.value_ranges.get(condition.column, 0.0)
    return condition_num_sim(condition, number, value_range), "Num_Sim"


def score(resources, record, units, products=None) -> Ranked:
    """Eq. 5 for one record over the question's relaxation units."""
    if products is None:
        products = question_products(resources, units)
    total = 0.0
    failed = []
    kinds = set()
    for unit in units:
        if unit.mode == "any":
            if any(satisfied(condition, record) for condition in unit.conditions):
                total += 1.0
                continue
            best, best_kind = 0.0, None
            for condition in unit.conditions:
                similarity, kind = failed_similarity(
                    resources, condition, record, products
                )
                if similarity >= best:
                    best, best_kind = similarity, kind
            total += best
            failed.extend(unit.conditions)
            kinds.add(best_kind)
            continue
        for condition in unit.conditions:
            if satisfied(condition, record):
                total += 1.0
                continue
            similarity, kind = failed_similarity(resources, condition, record, products)
            total += similarity
            failed.append(condition)
            kinds.add(kind)
    if not failed:
        kind = "exact"
    elif len(kinds) == 1:
        kind = kinds.pop()
    else:
        kind = "mixed"
    return Ranked(record, total, tuple(failed), kind)


def rank(resources, records, units, top_k=None) -> list[Ranked]:
    """*records* by descending Rank_Sim, ties by record id, cut to *top_k*."""
    products = question_products(resources, units)
    ranked = [score(resources, record, units, products) for record in records]
    ranked.sort(key=lambda item: (-item.score, item.record.record_id))
    return ranked if top_k is None else ranked[:top_k]


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


def reference_partial_answers(cqads, domain, interpretation, exclude, top_k=None):
    """The N-1 pool of *interpretation* ranked by Eq. 5."""
    units = cqads.relaxation_units(interpretation)
    pool = n_relaxed_queries(cqads, domain, interpretation, exclude)
    return rank(cqads.context(domain).resources, pool, units, top_k)


def reference_answer(cqads, domain, interpretation) -> tuple[list, list[Ranked]]:
    """The exact matches of *interpretation* and, when they leave room
    under the answer cap, its N-1 pool ranked by Eq. 5 — the list a
    question's ranked pool reads, exact matches first."""
    exact = evaluate_interpretation(
        cqads.database, cqads.domain(domain), interpretation
    )
    if (
        not cqads.relax_partial
        or interpretation.tree is None
        or len(exact) >= cqads.max_answers
    ):
        return exact, []
    exclude = {record.record_id for record in exact}
    return exact, reference_partial_answers(cqads, domain, interpretation, exclude)
