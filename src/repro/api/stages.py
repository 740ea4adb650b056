"""The five CQAds pipeline stages and their composer (Sections 3-4.4).

The seed hard-wired the whole answering flow inside one method; here
each step is a :class:`PipelineStage` and :class:`QueryPipeline`
composes them:

1. :class:`ClassifyStage` — Section 3 domain classification (Naive
   Bayes with JBBSM), a lookup when the request names the domain;
2. :class:`TagStage` — spelling correction, shorthand expansion,
   keyword tagging with context switching (Sections 4.1-4.2);
3. :class:`InterpretStage` — the implicit/explicit Boolean rules of
   Section 4.4 (a contradiction terminates the pipeline with
   "search retrieved no results");
4. :class:`ExecuteStage` — SQL generation plus execution with the
   Section 4.3 evaluation order (Type I → II → III boundaries →
   superlatives);
5. :class:`RelaxStage` — Section 4.3.1 N-1 partial matching and Eq. 5
   Rank_Sim ordering when fewer than ``max_answers`` exact matches
   exist.

The pipeline records wall-clock seconds per stage on
``QuestionResult.timings`` and, when the request sets
``options.explain``, a :class:`StageTrace` entry per stage (including
skipped ones) on ``QuestionResult.trace``.

Stages are deliberately stateless: all working state lives on the
:class:`StageContext`, so one pipeline instance can serve concurrent
requests (callers answering on several threads rely on this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from repro.db.sql.executor import SQLExecutor
from repro.errors import ContradictionError
from repro.obs import observe_stage, span
from repro.qa.boolean_rules import build_interpretation
from repro.qa.conditions import Interpretation
from repro.qa.pipeline import (
    Answer,
    AnswerView,
    CQAds,
    QuestionResult,
    exact_answer,
)
from repro.qa.sql_generation import evaluate_interpretation, generate_sql
from repro.qa.tagger import TaggedQuestion

from repro.api.requests import AnswerRequest, ResolvedOptions

__all__ = [
    "StageContext",
    "StageTrace",
    "PipelineStage",
    "ClassifyStage",
    "TagStage",
    "InterpretStage",
    "ExecuteStage",
    "RelaxStage",
    "QueryPipeline",
    "default_stages",
]

#: "search retrieved no results" — the paper's termination message.
NO_RESULTS_MESSAGE = "search retrieved no results"


@dataclass
class StageContext:
    """Mutable working state threaded through the stages.

    Stages read what earlier stages wrote and leave their own outputs
    here; :meth:`QueryPipeline.run` turns the final state into a
    :class:`~repro.qa.pipeline.QuestionResult`.
    """

    engine: CQAds
    request: AnswerRequest
    options: ResolvedOptions
    domain: str | None = None
    tagged: TaggedQuestion | None = None
    interpretation: Interpretation | None = None
    sql: str = ""
    exact: Sequence[Answer] = field(default_factory=list)
    partial: Sequence[Answer] = field(default_factory=list)
    message: str | None = None
    finished: bool = False
    timings: dict[str, float] = field(default_factory=dict)

    def finish(self, message: str | None = None) -> None:
        """Terminate the pipeline early (remaining stages are skipped)."""
        self.finished = True
        if message is not None:
            self.message = message


@dataclass(frozen=True)
class StageTrace:
    """One explain-trace entry: what a stage did and how long it took."""

    stage: str
    seconds: float
    detail: str = ""
    skipped: bool = False

    def describe(self) -> str:
        status = "skipped" if self.skipped else f"{self.seconds * 1000:.2f}ms"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"{self.stage}: {status}{suffix}"


@runtime_checkable
class PipelineStage(Protocol):
    """One step of the answering pipeline.

    ``run`` mutates *ctx* and returns an optional human-readable detail
    string for the explain trace.  Raising propagates to the caller
    (e.g. :class:`~repro.errors.ClassificationError` for an unknown
    domain); calling ``ctx.finish(...)`` ends the pipeline gracefully.
    """

    name: str

    def run(self, ctx: StageContext) -> str | None:  # pragma: no cover
        ...


class ClassifyStage:
    """Section 3: route the question to its ads domain."""

    name = "classify"

    def run(self, ctx: StageContext) -> str | None:
        if ctx.request.domain is not None:
            ctx.domain = ctx.request.domain
        else:
            ctx.domain = ctx.engine.classify_question(ctx.request.question)
        # Validates registration even when the caller named the domain
        # (raises ClassificationError otherwise, like the legacy facade).
        ctx.engine.context(ctx.domain)
        source = "given" if ctx.request.domain is not None else "classified"
        return f"domain {ctx.domain!r} ({source})"


class TagStage:
    """Sections 4.1-4.2: correct, expand and tag the question."""

    name = "tag"

    def run(self, ctx: StageContext) -> str | None:
        assert ctx.domain is not None
        context = ctx.engine.context(ctx.domain)
        tagger = context.tagger_for(ctx.options.correct_spelling)
        ctx.tagged = tagger.tag(ctx.request.question)
        detail = f"{len(ctx.tagged.items)} items"
        if ctx.tagged.corrections:
            fixed = ", ".join(
                f"{c.original!r}->{c.corrected!r}" for c in ctx.tagged.corrections
            )
            detail += f", corrected {fixed}"
        return detail


class InterpretStage:
    """Section 4.4: build the Boolean interpretation.

    A contradiction (Rule 1c) terminates the pipeline with the paper's
    "search retrieved no results" message.
    """

    name = "interpret"

    def run(self, ctx: StageContext) -> str | None:
        assert ctx.domain is not None and ctx.tagged is not None
        context = ctx.engine.context(ctx.domain)
        try:
            ctx.interpretation = build_interpretation(ctx.tagged, context.domain)
        except ContradictionError as error:
            ctx.finish(str(error))
            return f"contradiction: {error}"
        return ctx.interpretation.describe()


class ExecuteStage:
    """Section 4.3: generate SQL and retrieve the exact matches.

    Exact matches are retrieved *uncapped* (the evaluation order makes
    the first ``max_answers`` identical to a capped run) so the full
    list can back pagination; the rendered SQL keeps the legacy
    ``LIMIT max_answers`` the paper's interface shows the user.  The
    stage builds answers for the presented ``max_answers`` matches;
    the rest are built when a page reads them.
    """

    name = "execute"

    def run(self, ctx: StageContext) -> str | None:
        assert ctx.domain is not None and ctx.interpretation is not None
        context = ctx.engine.context(ctx.domain)
        ctx.sql = generate_sql(
            context.domain.schema.table_name,
            ctx.interpretation,
            limit=ctx.options.max_answers,
            ordered=ctx.options.ordered_evaluation,
        ).to_sql()
        # One executor for the stage so its access-path decisions
        # (window vs. window complement per windowed leaf) can be
        # surfaced in the explain trace.
        executor = SQLExecutor(ctx.engine.database)
        with span("executor.evaluate", table=context.domain.schema.table_name) as node:
            records = evaluate_interpretation(
                ctx.engine.database,
                context.domain,
                ctx.interpretation,
                limit=None,
                ordered=ctx.options.ordered_evaluation,
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
        ctx.exact = AnswerView((records, exact_answer))
        # Build the presented answers here, inside the stage's timing.
        ctx.exact[: ctx.options.max_answers]
        return (
            f"{len(ctx.exact)} exact matches; "
            f"access paths: {executor.plan_summary()}"
        )


class RelaxStage:
    """Section 4.3.1: N-1 relaxation and Eq. 5 Rank_Sim ordering.

    Runs only when relaxation is enabled and the exact matches do not
    already fill the answer cap.  A multi-unit pool is scored whole; a
    single-unit question ranks score classes instead of rows (the
    detail names the path).  The stage builds the answers that fill
    the cap, and the rest of the ranking is ordered and built only when
    a page reads it.
    """

    name = "relax"

    def run(self, ctx: StageContext) -> str | None:
        assert ctx.domain is not None
        if not ctx.options.relax_partial:
            return "disabled"
        if ctx.interpretation is None or ctx.interpretation.tree is None:
            return "nothing to relax"
        if len(ctx.exact) >= ctx.options.max_answers:
            return "answer cap already filled by exact matches"
        exclude = {answer.record.record_id for answer in ctx.exact}
        ctx.partial = ctx.engine.partial_answers(
            ctx.domain,
            ctx.interpretation,
            exclude,
            pool_cap=ctx.options.partial_pool_per_query,
            top_k=ctx.options.top_k,
        )
        # Select and build the answers that fill the cap, inside the
        # stage's timing.
        ctx.partial[: ctx.options.max_answers - len(ctx.exact)]
        path = getattr(ctx.partial, "rank_path", None)
        notes = [] if path is None else [f"path={path}"]
        if ctx.options.top_k is not None:
            notes.append(f"top_k={ctx.options.top_k}")
        detail = f"{len(ctx.partial)} ranked partial candidates"
        return f"{detail} ({', '.join(notes)})" if notes else detail


def default_stages() -> list[PipelineStage]:
    """The paper's five stages, in order."""
    return [
        ClassifyStage(),
        TagStage(),
        InterpretStage(),
        ExecuteStage(),
        RelaxStage(),
    ]


class QueryPipeline:
    """Composes :class:`PipelineStage` instances into one answer flow.

    The default composition reproduces the seed's ``CQAds.answer``
    bit-for-bit; :meth:`replacing` and :meth:`inserting_after` derive
    customized pipelines without mutating the original (pipelines are
    shared by every thread that answers through them).
    """

    def __init__(self, stages: Sequence[PipelineStage] | None = None) -> None:
        self.stages: list[PipelineStage] = (
            list(stages) if stages is not None else default_stages()
        )

    # -- composition ---------------------------------------------------
    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def replacing(self, name: str, stage: PipelineStage) -> "QueryPipeline":
        """A new pipeline with the stage called *name* swapped out."""
        if not any(s.name == name for s in self.stages):
            raise KeyError(f"no stage named {name!r} in {self.stage_names()}")
        return QueryPipeline(
            [stage if s.name == name else s for s in self.stages]
        )

    def inserting_after(self, name: str, stage: PipelineStage) -> "QueryPipeline":
        """A new pipeline with *stage* inserted after the stage *name*."""
        stages: list[PipelineStage] = []
        found = False
        for existing in self.stages:
            stages.append(existing)
            if existing.name == name:
                stages.append(stage)
                found = True
        if not found:
            raise KeyError(f"no stage named {name!r} in {self.stage_names()}")
        return QueryPipeline(stages)

    # -- execution -----------------------------------------------------
    def run(self, engine: CQAds, request: AnswerRequest) -> QuestionResult:
        """Run *request* through the stages and assemble the result."""
        options = ResolvedOptions.resolve(request.options, engine)
        ctx = StageContext(engine=engine, request=request, options=options)
        trace: list[StageTrace] = []
        for stage in self.stages:
            if ctx.finished:
                if options.explain:
                    trace.append(
                        StageTrace(stage.name, 0.0, "pipeline terminated", True)
                    )
                continue
            started = time.perf_counter()
            with span(f"stage.{stage.name}") as node:
                detail = stage.run(ctx)
                if node is not None and detail:
                    node.set_attribute("detail", detail)
            elapsed = time.perf_counter() - started
            ctx.timings[stage.name] = ctx.timings.get(stage.name, 0.0) + elapsed
            observe_stage(stage.name, elapsed)
            if options.explain:
                trace.append(StageTrace(stage.name, elapsed, detail or ""))
        return self._assemble(ctx, trace if options.explain else None)

    @staticmethod
    def _assemble(
        ctx: StageContext, trace: list[StageTrace] | None
    ) -> QuestionResult:
        pool: Sequence[Answer] = []
        answers: list[Answer] = []
        if not ctx.finished:
            # The stages already built the first max_answers answers;
            # the rest of the pool is built only when a page reads it.
            pool = AnswerView.concat(ctx.exact, ctx.partial)
            answers = pool[: ctx.options.max_answers]
        message = ctx.message
        if message is None and not answers:
            message = NO_RESULTS_MESSAGE
        return QuestionResult(
            question=ctx.request.question,
            domain=ctx.domain or "",
            interpretation=ctx.interpretation,
            sql=ctx.sql,
            answers=answers,
            corrections=list(ctx.tagged.corrections) if ctx.tagged else [],
            message=message,
            timings=dict(ctx.timings),
            ranked_pool=pool,
            trace=trace,
        )
