"""Ablation benches for the design choices DESIGN.md calls out.

* N-1 vs. deeper relaxation (the Section 4.3.1 trade-off: deeper
  relaxation costs time and dilutes relevance);
* spelling correction on/off under misspelling noise;
* the 30-answer cap (iProspect statistic);
* substring matching for LIKE queries: the hash index's distinct
  values, each tested once, vs. a full scan.
"""

from __future__ import annotations

import time


from benchmarks.conftest import emit
from repro.datagen.questions import make_generator
from repro.evaluation.reporting import format_percent, format_seconds, format_table
from repro.qa.pipeline import CQAds
from repro.qa.sql_generation import evaluate_interpretation
from tests.reference_rank import relaxed_interpretation


def test_spelling_correction_ablation(benchmark, full_system):
    """Exact-match recall with and without the Section 4.2.1 corrector,
    under heavy misspelling noise."""
    built = full_system.domains["cars"]
    generator = make_generator(built.dataset, noise_rate=0.9, seed=101)
    questions = [
        q for q in generator.generate_many(60, kinds=("simple", "boundary"))
        if "misspell" in q.noise or "drop_space" in q.noise
    ]
    with_corrector = full_system.cqads

    without_corrector = CQAds(full_system.database, correct_spelling=False)
    without_corrector.add_domain(built.domain, resources=built.resources)

    def recall(cqads) -> float:
        hits = 0
        for question in questions:
            truth = evaluate_interpretation(
                full_system.database, built.domain, question.interpretation
            )
            truth_ids = {record.record_id for record in truth}
            result = cqads.answer(question.text, domain="cars")
            retrieved = {a.record.record_id for a in result.exact_answers}
            if truth_ids and retrieved & truth_ids:
                hits += 1
        return hits / max(len(questions), 1)

    corrected = recall(with_corrector)
    uncorrected = recall(without_corrector)
    emit(
        format_table(
            ["configuration", "questions answered correctly"],
            [
                ["with trie corrector (paper)", format_percent(corrected)],
                ["corrector disabled", format_percent(uncorrected)],
            ],
            title=(
                "Ablation — Section 4.2.1 spelling correction "
                f"({len(questions)} noisy questions)"
            ),
        )
    )
    assert corrected >= uncorrected

    benchmark(
        with_corrector.answer, "hondaaccord less than $9000", "cars"
    )


def test_relaxation_depth_ablation(benchmark, full_system):
    """N-1 vs. exhaustive relaxation: deeper relaxation inflates the
    candidate pool (the paper's 'the more combinations ... the longer
    the question processing time')."""
    built = full_system.domains["cars"]
    cqads = full_system.cqads
    question = "blue automatic honda accord less than 15000 dollars"
    result = cqads.answer(question, domain="cars")
    units = cqads.relaxation_units(result.interpretation)

    pool_n1 = cqads.partial_candidates("cars", result.interpretation)

    # N-2: drop every *pair* of units
    import itertools

    n2_ids = set()
    started = time.perf_counter()
    for keep in itertools.combinations(range(len(units)), max(len(units) - 2, 1)):
        remaining = [units[i] for i in keep]
        relaxed = relaxed_interpretation(remaining, result.interpretation)
        for record in evaluate_interpretation(
            full_system.database, built.domain, relaxed
        ):
            n2_ids.add(record.record_id)
    n2_time = time.perf_counter() - started

    started = time.perf_counter()
    cqads.partial_candidates("cars", result.interpretation)
    n1_time = time.perf_counter() - started

    emit(
        format_table(
            ["strategy", "candidate pool", "retrieval time"],
            [
                ["N-1 (paper)", str(len(pool_n1)), format_seconds(n1_time)],
                ["N-2 (ablation)", str(len(n2_ids)), format_seconds(n2_time)],
            ],
            title="Ablation — Section 4.3.1 relaxation depth",
        )
    )
    # deeper relaxation can only widen the pool
    assert len(n2_ids) >= len({r.record_id for r in pool_n1}) * 0.5

    benchmark(cqads.partial_candidates, "cars", result.interpretation)


def test_answer_cap_ablation(benchmark, full_system):
    """The 30-answer cap (Section 4.3.1 / iProspect)."""
    cqads = full_system.cqads
    question = "honda"
    capped = cqads.answer(question, domain="cars")
    original_cap = cqads.max_answers
    try:
        cqads.max_answers = 100
        uncapped = cqads.answer(question, domain="cars")
    finally:
        cqads.max_answers = original_cap
    emit(
        format_table(
            ["cap", "answers returned"],
            [
                ["30 (paper)", str(len(capped.answers))],
                ["100 (ablation)", str(len(uncapped.answers))],
            ],
            title="Ablation — the 30-answer cap",
        )
    )
    assert len(capped.answers) <= 30
    assert len(uncapped.answers) >= len(capped.answers)

    benchmark(cqads.answer, question, "cars")


def test_substring_index_ablation(benchmark, full_system):
    """Section 4.5's substring matching: a walk over the hash index's
    distinct values (each tested once, matching buckets unioned) vs. a
    full scan of the records."""
    table = full_system.domains["cars"].dataset.table

    def indexed() -> set[int]:
        return table.lookup_substring("model", "cor")

    def scan() -> set[int]:
        return table.scan(
            lambda record: "cor" in str(record.get("model", ""))
        )

    assert indexed() == scan()
    started = time.perf_counter()
    for _ in range(200):
        indexed()
    indexed_time = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(200):
        scan()
    scan_time = time.perf_counter() - started
    emit(
        format_table(
            ["access path", "200 lookups"],
            [
                ["hash index distinct-value walk", format_seconds(indexed_time)],
                ["full scan (ablation)", format_seconds(scan_time)],
            ],
            title="Ablation — Section 4.5 substring matching",
        )
    )
    assert indexed_time < scan_time

    benchmark(indexed)
