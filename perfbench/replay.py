"""The traced replay: the answer path decomposed into its layers.

:func:`answer_traced` answers one question by calling each layer's
public function in the order :class:`repro.api.stages.QueryPipeline`
does (classify, tag, interpret, execute, relaxation candidates,
ranking) and records a benchmark-side span around each call.  Its
answers must be bit-identical to ``AnswerService.answer`` on the same
stream; :func:`signature` is what both sides are compared by.

:class:`Tracer` keeps spans in memory as ``(name, start, end, parent,
op id)`` tuples; a span's self time is its duration minus its
children's.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.api.requests import ResolvedOptions
from repro.api.stages import NO_RESULTS_MESSAGE
from repro.db.sql.executor import SQLExecutor
from repro.errors import ContradictionError
from repro.qa.boolean_rules import build_interpretation
from repro.qa.pipeline import Answer
from repro.qa.sql_generation import evaluate_interpretation, generate_sql
from repro.ranking.rank_sim import condition_satisfied

#: Access paths the executor records per range leaf.
ACCESS_PATHS = ("index", "window", "window-complement", "scan")


def signature(domain, message, answers, interpretation, pool_size) -> str:
    """A digest of everything a user sees of one answer.

    Covers the domain, the message, the ranked pool size and, per
    answer in order: record id, exactness, ``repr`` of the score, the
    similarity kind, the failed conditions and the record's values.
    """
    conditions = interpretation.conditions() if interpretation is not None else []
    parts: list = [domain, message, pool_size]
    for answer in answers:
        record = answer.record
        failed = tuple(
            index
            for index, condition in enumerate(conditions)
            if not condition_satisfied(condition, record)
        )
        parts.append((
            record.record_id,
            answer.exact,
            repr(answer.score),
            answer.similarity_kind,
            failed,
            sorted(record.items()),
        ))
    return hashlib.sha1(repr(parts).encode()).hexdigest()


def result_parts(result) -> tuple:
    """The :func:`signature` arguments of an ``AnswerService`` result."""
    return (
        result.domain,
        result.message,
        result.answers,
        result.interpretation,
        len(result.ranked_pool),
    )


class Tracer:
    """In-memory spans of one traced replay."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op)

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        children: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - children[index]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def rows(self):
        """The spans as JSON-ready dicts, times in seconds from the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent, op in self.spans:
            yield {
                "name": name,
                "start": round(start - origin, 7),
                "end": round(end - origin, 7),
                "parent": parent,
                "op": op,
            }


@dataclass
class LayerCounts:
    """Work counts gathered at the layer boundaries during a replay."""

    questions: int = 0
    execute_rows: int = 0
    paths: dict[str, int] = field(default_factory=lambda: dict.fromkeys(ACCESS_PATHS, 0))
    relaxed: int = 0
    pool_rows: int = 0
    whole_table: int = 0


def answer_traced(engine, question, tracer: Tracer, op: int, counts: LayerCounts) -> tuple:
    """Answer *question* layer by layer under *tracer*.

    Returns the arguments of :func:`signature`, so the caller can stop
    its clock before digesting them.
    """
    request = question.request()
    options = ResolvedOptions.resolve(request.options, engine)
    interpretation = None
    message = None
    exact: list[Answer] = []
    partial: list[Answer] = []
    counts.questions += 1
    with tracer.span("question", op):
        with tracer.span("classify", op):
            domain = request.domain
            if domain is None:
                domain = engine.classify_question(request.question)
            context = engine.context(domain)
        with tracer.span("tag", op):
            tagged = context.tagger_for(options.correct_spelling).tag(request.question)
        with tracer.span("interpret", op):
            try:
                interpretation = build_interpretation(tagged, context.domain)
            except ContradictionError as error:
                message = str(error)
        if message is None:
            with tracer.span("execute", op):
                generate_sql(
                    context.domain.schema.table_name,
                    interpretation,
                    limit=options.max_answers,
                    ordered=options.ordered_evaluation,
                ).to_sql()
                executor = SQLExecutor(engine.database)
                records = evaluate_interpretation(
                    engine.database,
                    context.domain,
                    interpretation,
                    limit=None,
                    ordered=options.ordered_evaluation,
                    executor=executor,
                )
            counts.execute_rows += len(records)
            for decision in executor.plan_trace:
                if decision.path in counts.paths:
                    counts.paths[decision.path] += 1
            exact = [
                Answer(record=record, exact=True, score=float("inf"), similarity_kind="exact")
                for record in records
            ]
            units = (
                engine.relaxation_units(interpretation)
                if options.relax_partial
                and interpretation.tree is not None
                and len(exact) < options.max_answers
                else []
            )
            if units:
                exclude = {answer.record.record_id for answer in exact}
                with tracer.span("candidates", op):
                    pool = engine.partial_candidates(
                        domain,
                        interpretation,
                        exclude,
                        pool_cap=options.partial_pool_per_query,
                        ordered=options.ordered_evaluation,
                    )
                top_k = options.top_k if options.top_k is not None else engine.ranking_top_k
                with tracer.span("rank", op):
                    scored = context.ranker().rank_units(
                        pool, units, top_k=top_k, engine=engine.ranking_engine
                    )
                counts.relaxed += 1
                counts.pool_rows += len(pool)
                counts.whole_table += len(units) == 1
                partial = [
                    Answer(
                        record=item.record,
                        exact=False,
                        score=item.score,
                        similarity_kind=item.similarity_kind,
                    )
                    for item in scored
                ]
    ranked = exact + partial if message is None else []
    answers = ranked[: options.max_answers]
    if message is None and not answers:
        message = NO_RESULTS_MESSAGE
    return domain, message, answers, interpretation, len(ranked)
