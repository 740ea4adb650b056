"""Answering one question: the five CQAds steps (Sections 3-4.4).

:func:`answer_request` runs them in order as straight-line code:

1. **classify** — Section 3 domain classification (Naive Bayes with
   JBBSM), a lookup when the request names the domain;
2. **tag** — spelling correction, shorthand expansion, keyword
   tagging with context switching (Sections 4.1-4.2);
3. **interpret** — the implicit/explicit Boolean rules of Section 4.4
   (a contradiction ends the question with "search retrieved no
   results");
4. **execute** — SQL generation plus execution with the Section 4.3
   evaluation order (Type I → II → III boundaries → superlatives);
5. **relax** — Section 4.3.1 N-1 partial matching and Eq. 5 Rank_Sim
   ordering when fewer than ``max_answers`` exact matches exist.

Each step is timed once.  That one measurement is the step's entry in
``QuestionResult.timings``, its ``repro_stage_seconds{stage}``
observation and the extent of its ``stage.<name>`` span; when the
request sets ``options.explain`` it is also the step's
:class:`StageTrace` on ``QuestionResult.trace`` (after a contradiction,
execute and relax are listed as skipped).  The human-readable detail
of a step is built only for the trace or an active span.

The function keeps no state between calls, so any number of threads
may answer through one engine at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.db.sql.executor import SQLExecutor
from repro.errors import ContradictionError
from repro.obs import current_span, observe_stage, span
from repro.qa.boolean_rules import build_interpretation
from repro.qa.pipeline import (
    Answer,
    AnswerView,
    CQAds,
    QuestionResult,
    exact_answer,
)
from repro.qa.sql_generation import evaluate_interpretation, generate_sql

from repro.api.requests import AnswerRequest, ResolvedOptions

__all__ = ["NO_RESULTS_MESSAGE", "StageTrace", "answer_request"]

#: "search retrieved no results" — the paper's termination message.
NO_RESULTS_MESSAGE = "search retrieved no results"


@dataclass(frozen=True)
class StageTrace:
    """One explain-trace entry: what a step did and how long it took."""

    stage: str
    seconds: float
    detail: str = ""
    skipped: bool = False

    def describe(self) -> str:
        status = "skipped" if self.skipped else f"{self.seconds * 1000:.2f}ms"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"{self.stage}: {status}{suffix}"


class _Step:
    """Times one step once, inside its ``stage.<name>`` span.

    On a clean exit the seconds go to *timings*, to the stage
    histogram and, under explain, to *trace* with ``detail``, which
    the span also carries.  A step that raises records nothing.
    """

    __slots__ = ("name", "detail", "_timings", "_trace", "_span", "_node", "_started")

    def __init__(
        self,
        name: str,
        timings: dict[str, float],
        trace: list[StageTrace] | None,
    ) -> None:
        self.name = name
        self.detail = ""
        self._timings = timings
        self._trace = trace

    def __enter__(self) -> "_Step":
        self._started = time.perf_counter()
        self._span = span(f"stage.{self.name}")
        self._node = self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._node is not None and self.detail:
            self._node.set_attribute("detail", self.detail)
        self._span.__exit__(exc_type, exc, tb)
        if exc_type is None:
            elapsed = time.perf_counter() - self._started
            self._timings[self.name] = elapsed
            observe_stage(self.name, elapsed)
            if self._trace is not None:
                self._trace.append(StageTrace(self.name, elapsed, self.detail))
        return False


def answer_request(
    engine: CQAds,
    request: AnswerRequest,
    options: ResolvedOptions | None = None,
) -> QuestionResult:
    """Answer *request* on *engine* (classify → tag → interpret →
    execute → relax).

    *options* are the request's options resolved against *engine*;
    a caller that already resolved them (the answer cache keys on
    them) passes them in.  Raises
    :class:`~repro.errors.ClassificationError` for an unregistered
    domain.
    """
    if options is None:
        options = ResolvedOptions.resolve(request.options, engine)
    # Detail strings feed only the explain trace and the stage spans.
    verbose = options.explain or current_span() is not None
    timings: dict[str, float] = {}
    trace: list[StageTrace] | None = [] if options.explain else None

    with _Step("classify", timings, trace) as step:
        domain = request.domain
        if domain is None:
            domain = engine.classify_question(request.question)
        # Raises ClassificationError for a named domain not registered.
        context = engine.context(domain)
        if verbose:
            source = "given" if request.domain is not None else "classified"
            step.detail = f"domain {domain!r} ({source})"

    with _Step("tag", timings, trace) as step:
        tagger = context.tagger_for(options.correct_spelling)
        tagged = tagger.tag(request.question)
        if verbose:
            step.detail = f"{len(tagged.items)} items"
            if tagged.corrections:
                fixed = ", ".join(
                    f"{c.original!r}->{c.corrected!r}" for c in tagged.corrections
                )
                step.detail += f", corrected {fixed}"

    with _Step("interpret", timings, trace) as step:
        try:
            interpretation = build_interpretation(tagged, context.domain)
        except ContradictionError as error:
            interpretation = None
            message = str(error)
            step.detail = f"contradiction: {error}"
        else:
            if verbose:
                step.detail = interpretation.describe()
    if interpretation is None:
        if trace is not None:
            trace += [
                StageTrace(name, 0.0, "pipeline terminated", True)
                for name in ("execute", "relax")
            ]
        return QuestionResult(
            question=request.question,
            domain=domain,
            interpretation=None,
            sql="",
            corrections=list(tagged.corrections),
            message=message,
            timings=timings,
            trace=trace,
        )

    # Exact matches are retrieved uncapped (the evaluation order makes
    # the first max_answers identical to a capped run) so the full list
    # can back pagination; the rendered SQL keeps the paper's
    # LIMIT max_answers.
    with _Step("execute", timings, trace) as step:
        table_name = context.domain.schema.table_name
        sql = generate_sql(
            table_name,
            interpretation,
            limit=options.max_answers,
            ordered=options.ordered_evaluation,
        ).to_sql()
        # One executor for the step, so its access-path decisions can
        # be surfaced.
        executor = SQLExecutor(engine.database)
        with span("executor.evaluate", table=table_name) as node:
            records = evaluate_interpretation(
                engine.database,
                context.domain,
                interpretation,
                limit=None,
                ordered=options.ordered_evaluation,
                executor=executor,
            )
            if node is not None:
                node.set_attribute("plan", executor.plan_summary())
                node.set_attribute("rows", len(records))
                # One event per access-path leaf decision, bounded so a
                # pathological plan cannot bloat the trace.
                for decision in executor.plan_trace[:64]:
                    node.add_event(
                        "access",
                        column=decision.column,
                        shape=decision.shape,
                        path=decision.path,
                        rows=decision.rows,
                    )
        exact = AnswerView((records, exact_answer))
        # Build the presented answers inside the step's timing; the
        # rest are built when a page reads them.
        exact[: options.max_answers]
        if verbose:
            step.detail = (
                f"{len(exact)} exact matches; "
                f"access paths: {executor.plan_summary()}"
            )

    # A multi-unit pool is scored whole; a single-unit question ranks
    # score classes instead of rows.  The rest of the ranking is
    # ordered and built only when a page reads it.
    partial: Sequence[Answer] = []
    with _Step("relax", timings, trace) as step:
        if not options.relax_partial:
            step.detail = "disabled"
        elif interpretation.tree is None:
            step.detail = "nothing to relax"
        elif len(exact) >= options.max_answers:
            step.detail = "answer cap already filled by exact matches"
        else:
            partial = engine.partial_answers(
                domain,
                interpretation,
                {record.record_id for record in records},
                pool_cap=options.partial_pool_per_query,
                top_k=options.top_k,
            )
            partial[: options.max_answers - len(exact)]
            if verbose:
                path = getattr(partial, "rank_path", None)
                notes = [] if path is None else [f"path={path}"]
                if options.top_k is not None:
                    notes.append(f"top_k={options.top_k}")
                step.detail = f"{len(partial)} ranked partial candidates"
                if notes:
                    step.detail += f" ({', '.join(notes)})"

    pool = AnswerView.concat(exact, partial)
    answers = pool[: options.max_answers]
    return QuestionResult(
        question=request.question,
        domain=domain,
        interpretation=interpretation,
        sql=sql,
        answers=answers,
        corrections=list(tagged.corrections),
        message=None if answers else NO_RESULTS_MESSAGE,
        timings=timings,
        ranked_pool=pool,
        trace=trace,
    )
