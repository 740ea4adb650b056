"""The CQAds engine: domains, classifier and relaxation (Section 4).

:class:`CQAds` holds the system state — the ads database, the
registered domains with their taggers and ranking resources, and the
Section 3 domain classifier — plus the N-1 relaxation machinery of
Section 4.3.1.

The *orchestration* of one question (classify → tag → interpret →
execute → relax/rank) lives in :mod:`repro.api.stages` as five
pluggable pipeline stages; :meth:`CQAds.answer` remains as a
back-compat facade that runs the default
:class:`~repro.api.stages.QueryPipeline`.  New code should prefer
:class:`repro.api.service.AnswerService`, which adds per-request
options, batching and pagination on top of the same stages.

``max_answers`` defaults to 30, the paper's choice backed by the
iProspect statistic that 88% of users never look past 30 results (and
the survey average of ~26 desired answers).

The engine's derived state over the ads tables — the fragment cache
of unit id-sets, the ranking column stores, the column windows the
executor reads — follows each table's delta log on read
(:meth:`repro.db.table.Table.deltas_since`), so a write costs the
engine nothing.  :class:`CQAds` listens to the catalog only for table
drops, which no log records.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.classify.naive_bayes import (
    BetaBinomialNaiveBayes,
    NaiveBayesClassifier,
)
from repro.db.database import Database
from repro.db.schema import AttributeType
from repro.db.table import MutationEvent, Record
from repro.errors import ClassificationError
from repro.obs import span
from repro.perf.fragment_cache import FragmentCache
from repro.qa.conditions import (
    BooleanOperator,
    Condition,
    ConditionGroup,
    Interpretation,
    flatten_and,
)
from repro.qa.domain import AdsDomain
from repro.qa.spelling import Correction
from repro.qa.tagger import QuestionTagger
from repro.ranking.rank_sim import (
    RankingResources,
    RankSimRanker,
    ScoredRecord,
    ScoringUnit,
)
from repro.structures.lazylist import LazyList

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycle
    from repro.api.stages import QueryPipeline, StageTrace

__all__ = [
    "Answer",
    "AnswerView",
    "QuestionResult",
    "CQAds",
    "MAX_ANSWERS",
    "SERVICE_TIMING_KEYS",
]

#: Section 4.3.1 / 5.1: up to 30 (in)exact answers per question.
MAX_ANSWERS = 30

#: Non-stage entries ``AnswerService`` stores in ``QuestionResult.timings``:
#: ``"cache"`` is the answer-cache hit boolean.  Excluded from
#: ``elapsed_seconds``.
SERVICE_TIMING_KEYS = frozenset({"cache"})


@dataclass(frozen=True)
class Answer:
    """One answer: a record plus how it matched.

    ``exact`` answers satisfied every criterion; partial answers carry
    their Rank_Sim ``score`` and the ``similarity_kind`` used (the
    right-most column of the paper's Table 2).
    """

    record: Record
    exact: bool
    score: float
    similarity_kind: str


def exact_answer(record: Record) -> Answer:
    """The answer for a record that satisfied every criterion."""
    return Answer(record=record, exact=True, score=float("inf"), similarity_kind="exact")


def _ranked_answer(item: ScoredRecord) -> Answer:
    return Answer(
        record=item.record,
        exact=False,
        score=item.score,
        similarity_kind=item.similarity_kind,
    )


def _unranked_answer(record: Record) -> Answer:
    return Answer(record=record, exact=False, score=0.0, similarity_kind="unranked")


def _same_answer(answer: Answer) -> Answer:
    return answer


class AnswerView(LazyList[Answer]):
    """A read-only answer list built from its sources on read.

    Each part is a source sequence (matched records, a ranking, or
    another answer list) with the function that turns one of its items
    into an :class:`Answer`; the parts read as one list, in order.  An
    answer is built once, when its position is first read, so a
    ranking of thousands of rows costs only the answers someone reads
    (see :class:`~repro.structures.lazylist.LazyList`).

    ``rank_path`` names how :meth:`CQAds.partial_answers` ranked a
    view of partial answers: ``"classes"`` (score classes) or
    ``"rows"``; ``None`` for any other view.
    """

    def __init__(
        self,
        *parts: tuple[Sequence[Any], Callable[[Any], Answer]],
        rank_path: str | None = None,
    ) -> None:
        super().__init__(sum(len(source) for source, _ in parts))
        self._parts = parts
        self.rank_path = rank_path

    @classmethod
    def concat(cls, *answer_lists: Sequence[Answer]) -> Sequence[Answer]:
        """Answer lists read one after another, nothing rebuilt; a lone
        non-empty list is returned as it is."""
        nonempty = [answers for answers in answer_lists if answers]
        if len(nonempty) == 1:
            return nonempty[0]
        return cls(*((answers, _same_answer) for answers in nonempty))

    def _build_all(self, positions: list[int]) -> list[Answer]:
        answers: dict[int, Answer] = {}
        start = 0
        for source, build in self._parts:
            end = start + len(source)
            local = [p - start for p in positions if start <= p < end]
            if local:
                # A lazy source reads its share in one batch: one lock,
                # and one ordering for a ranking.
                items = (
                    source._items(local)
                    if isinstance(source, LazyList)
                    else [source[p] for p in local]
                )
                answers.update(zip([start + p for p in local], map(build, items)))
            start = end
        return [answers[p] for p in positions]


@dataclass
class QuestionResult:
    """Everything CQAds produced for one question.

    ``answers`` is the capped list the paper presents (at most
    ``max_answers`` entries, exacts first), built while the pipeline
    ran.  ``ranked_pool`` is the full ranking the pipeline computed
    before capping — exact matches in evaluation order followed by
    every scored partial candidate — so
    :meth:`repro.api.service.AnswerService.page` can walk past the
    30-answer cap without re-running or re-ranking anything.  It is a
    read-only :class:`AnswerView`: it reads like a list (and compares
    equal to one), but the answers past ``answers`` are ordered and
    built only when a caller reads them, with the scores fixed when
    the question was ranked.

    ``timings`` maps each executed stage name to its wall-clock seconds;
    ``elapsed_seconds`` (the seed's single number) is derived from it.
    :class:`~repro.api.service.AnswerService` also stores non-stage
    *metadata* under the :data:`SERVICE_TIMING_KEYS` keys — ``"cache"``
    (answer-cache hit boolean) — which ``elapsed_seconds`` excludes so
    it stays the pipeline's own time.
    """

    question: str
    domain: str
    interpretation: Interpretation | None
    sql: str
    answers: list[Answer] = field(default_factory=list)
    corrections: list[Correction] = field(default_factory=list)
    message: str | None = None  # "search retrieved no results" etc.
    timings: dict[str, float] = field(default_factory=dict)
    ranked_pool: Sequence[Answer] = field(default_factory=list)
    trace: list["StageTrace"] | None = None

    @property
    def elapsed_seconds(self) -> float:
        """Total pipeline time — the sum of the per-stage timings
        (service metadata keys are excluded)."""
        return sum(
            seconds
            for stage, seconds in self.timings.items()
            if stage not in SERVICE_TIMING_KEYS
        )

    @property
    def exact_answers(self) -> list[Answer]:
        return [answer for answer in self.answers if answer.exact]

    @property
    def partial_answers(self) -> list[Answer]:
        return [answer for answer in self.answers if not answer.exact]

    def records(self) -> list[Record]:
        return [answer.record for answer in self.answers]


@dataclass
class _DomainContext:
    """A registered domain with its tagger and ranking resources."""

    domain: AdsDomain
    tagger: QuestionTagger
    resources: RankingResources | None = None
    _alt_tagger: QuestionTagger | None = None

    def ranker(self) -> RankSimRanker | None:
        if self.resources is None:
            return None
        return RankSimRanker(self.resources)

    def tagger_for(self, correct_spelling: bool) -> QuestionTagger:
        """The registered tagger, or a cached variant with spelling
        correction toggled (used by per-request overrides)."""
        if correct_spelling == (self.tagger.corrector is not None):
            return self.tagger
        if self._alt_tagger is None:
            self._alt_tagger = QuestionTagger(
                self.domain, correct_spelling=correct_spelling
            )
        return self._alt_tagger


class CQAds:
    """The question-answering system.

    Parameters
    ----------
    database:
        The ads database (one table per registered domain).
    max_answers:
        Cap on returned answers (exact + partial), default 30.
    classifier:
        Domain classifier; defaults to the paper's JBBSM Naive Bayes.
    correct_spelling / relax_partial:
        Feature switches used by the ablation benchmarks.
    ranking_top_k:
        Default bound on the length of the ranked partial pool
        (``None`` keeps the full ranking so cursor pagination can walk
        everything); per-request ``AnswerOptions.top_k`` overrides it.
        The pool is ordered and built only where it is read, so the
        bound saves no work on the answer path — it limits how far
        pagination can walk.
    shards:
        The engine's scatter-gather degree: the shard count its
        backing tables are expected to be partitioned into
        (:mod:`repro.shard`).  This is a *provisioning default* —
        :func:`repro.system.build_system`,
        :meth:`repro.api.builder.SystemBuilder.shards` and the CLI
        ``--shards`` read it when creating the per-domain tables; the
        answer path itself detects sharded tables structurally, so an
        engine over hand-built tables needs no flag.  ``None`` (the
        default) provisions plain single tables.

    All of these are *defaults*: :class:`repro.api.requests.AnswerOptions`
    can override any of them for a single request.

    Partial candidates are always ranked by the columnar engine
    (:mod:`repro.perf.colrank`), held to the Eq. 5 statement in
    ``tests/reference_rank.py``.
    """

    #: The one ranking engine.  A constant, not an option: it stays
    #: only because ``perfbench/replay.py`` passes it to
    #: :meth:`~repro.ranking.rank_sim.RankSimRanker.rank_units`.
    ranking_engine = "columnar"

    def __init__(
        self,
        database: Database,
        max_answers: int = MAX_ANSWERS,
        classifier: NaiveBayesClassifier | None = None,
        correct_spelling: bool = True,
        relax_partial: bool = True,
        ordered_evaluation: bool = True,
        partial_pool_per_query: int | None = None,
        ranking_top_k: int | None = None,
        shards: int | None = None,
    ) -> None:
        if max_answers < 1:
            raise ValueError(f"max_answers must be positive, got {max_answers}")
        if partial_pool_per_query is not None and partial_pool_per_query < 1:
            raise ValueError(
                "partial_pool_per_query must be positive, got "
                f"{partial_pool_per_query}"
            )
        if ranking_top_k is not None and ranking_top_k < 1:
            raise ValueError(
                f"ranking_top_k must be positive, got {ranking_top_k}"
            )
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.database = database
        self.max_answers = max_answers
        self.classifier = classifier or BetaBinomialNaiveBayes()
        self.correct_spelling = correct_spelling
        self.relax_partial = relax_partial
        self.ordered_evaluation = ordered_evaluation
        self.ranking_top_k = ranking_top_k
        #: Cross-question memoization of relaxation-unit id-sets
        #: (:mod:`repro.perf.fragment_cache`); each entry records the
        #: table (or shard) epoch it reflects and catches up from the
        #: table's delta log when it is next read.
        self.fragment_cache = FragmentCache()
        # Table drops are the one write this engine must hear as it
        # lands (everything else catches up from the delta logs on
        # read).
        database.add_listener(self._on_table_mutation)
        # Each N-1 query contributes at most this many candidates —
        # the paper's per-query retrieval cap ("up to 30 (in)exact
        # matched records"), widened 3x so the ranker has slack.
        self.partial_pool_per_query = (
            partial_pool_per_query
            if partial_pool_per_query is not None
            else 3 * max_answers
        )
        #: Whether the pool cap was chosen by the caller (per-request
        #: ``max_answers`` overrides re-derive it only when it wasn't).
        self.partial_pool_explicit = partial_pool_per_query is not None
        self._contexts: dict[str, _DomainContext] = {}
        self._classifier_trained = False
        self._train_lock = threading.Lock()
        self._default_pipeline: "QueryPipeline | None" = None

    def _on_table_mutation(self, event: MutationEvent) -> None:
        """A table left the catalog: sweep everything keyed on it.

        Row writes need nothing here.  A drop does: a recreated
        same-name table starts a fresh epoch sequence, so the dropped
        table's fragments are swept wholesale, and the domain's
        ranking resources are detached from the dead table object
        (:meth:`context` re-attaches them lazily to the recreated
        table on next use).
        """
        if event.kind != "drop":
            return
        self.fragment_cache.invalidate(event.table.name)
        domain = self.registered_domain_for_table(event.table.name)
        if domain is not None:
            resources = self._contexts[domain].resources
            if resources is not None and resources.table is event.table:
                resources.detach_table()

    def close(self) -> None:
        """Detach this engine's drop listener from the catalog.

        Call when discarding an engine whose :class:`Database` lives
        on (e.g. rebuilding engines over a shared catalog): otherwise
        the catalog keeps the engine — its fragment cache and column
        stores — reachable.  Idempotent, and the engine remains usable
        afterwards: cached fragments catch up from the delta logs on
        read, and :meth:`context` lazily re-attaches each domain's
        resources on next use.
        """
        self.database.remove_listener(self._on_table_mutation)
        for context in self._contexts.values():
            if context.resources is not None:
                context.resources.detach_table()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_domain(
        self,
        domain: AdsDomain,
        training_texts: list[str] | None = None,
        resources: RankingResources | None = None,
    ) -> None:
        """Register a domain (Section 4.6's "adding a new ads domain").

        ``training_texts`` (typically the domain's ad texts) feed the
        classifier; ``resources`` enable partial-match ranking.  When
        the domain's table already exists in the database, the
        resources are bound to it, since the ranker scores through its
        column store; otherwise :meth:`context` binds them on first use
        once the table exists.
        """
        tagger = QuestionTagger(domain, correct_spelling=self.correct_spelling)
        if resources is not None:
            if self.database.has_table(domain.schema.table_name):
                resources.attach_table(
                    self.database.table(domain.schema.table_name)
                )
        self._contexts[domain.name] = _DomainContext(
            domain=domain, tagger=tagger, resources=resources
        )
        for text in training_texts or []:
            self.classifier.add_document(domain.name, text)
        self._classifier_trained = False

    def registered_domain_for_table(self, table_name: str) -> str | None:
        """The registered domain whose table is *table_name*, if any.

        This is what mutation listeners use to map a table event back
        to a domain.
        """
        for name, context in self._contexts.items():
            if context.domain.schema.table_name == table_name:
                return name
        return None

    def domains(self) -> list[str]:
        return sorted(self._contexts.keys())

    def domain(self, name: str) -> AdsDomain:
        return self._contexts[name].domain

    def context(self, name: str) -> _DomainContext:
        """The registered context for *name* (stages' entry point).

        Resources registered before their table existed are bound to
        it here, on first use, so the columnar engine works regardless
        of registration order.
        """
        try:
            context = self._contexts[name]
        except KeyError:
            raise ClassificationError(
                f"domain {name!r} is not registered; known domains: "
                f"{self.domains()}"
            ) from None
        resources = context.resources
        if (
            resources is not None
            and resources.table is None
            and self.database.has_table(context.domain.schema.table_name)
        ):
            resources.attach_table(
                self.database.table(context.domain.schema.table_name)
            )
        return context

    def train_classifier(self) -> None:
        self.classifier.train()
        self._classifier_trained = True

    def classify_question(self, question: str) -> str:
        """Section 3: route the question to its ads domain.

        On-demand training is double-checked under a lock so that
        requests answered on several threads at once never observe a
        half-trained classifier.
        """
        if len(self._contexts) == 1:
            return next(iter(self._contexts))
        if not self._classifier_trained:
            with self._train_lock:
                if not self._classifier_trained:
                    self.train_classifier()
        return self.classifier.classify(question)

    # ------------------------------------------------------------------
    # answering (back-compat facade over repro.api)
    # ------------------------------------------------------------------
    def answer(self, question: str, domain: str | None = None) -> QuestionResult:
        """Answer *question*, classifying its domain unless given.

        Legacy facade: equivalent to running the default
        :class:`~repro.api.stages.QueryPipeline` on an
        :class:`~repro.api.requests.AnswerRequest` with no overrides.
        """
        from repro.api.requests import AnswerRequest

        request = AnswerRequest(question=question, domain=domain)
        return self.pipeline().run(self, request)

    def pipeline(self) -> "QueryPipeline":
        """This engine's default (cached) query pipeline."""
        if self._default_pipeline is None:
            from repro.api.stages import QueryPipeline

            self._default_pipeline = QueryPipeline()
        return self._default_pipeline

    # ------------------------------------------------------------------
    # N-1 partial matching (Section 4.3.1)
    # ------------------------------------------------------------------
    def relaxation_units(self, interpretation: Interpretation) -> list[ScoringUnit]:
        """Decompose a conjunctive interpretation into relaxable units.

        Type I conditions bundle into one unit (the product identity —
        dropping "the car" means dropping make *and* model); every
        other condition is its own unit; an OR-group from an incomplete
        number is one "any" unit.  Boolean (OR-rooted) interpretations
        return an empty list: the paper only relaxes conjunctions.
        """
        tree = interpretation.tree
        if tree is None:
            return []
        if isinstance(tree, Condition):
            children: list = [tree]
        elif tree.operator is BooleanOperator.AND:
            children = flatten_and(tree)
        else:
            return []
        units: list[ScoringUnit] = []
        type_i: list[Condition] = []
        for child in children:
            if isinstance(child, Condition):
                if child.negated:
                    continue  # negations are constraints, never relaxed
                if child.attribute_type is AttributeType.TYPE_I:
                    type_i.append(child)
                else:
                    units.append(ScoringUnit(conditions=(child,)))
            elif isinstance(child, ConditionGroup) and (
                child.operator is BooleanOperator.OR
            ):
                leaves = tuple(child.iter_conditions())
                if leaves and all(
                    leaf.attribute_type is AttributeType.TYPE_III for leaf in leaves
                ):
                    units.append(ScoringUnit(conditions=leaves, mode="any"))
                else:
                    return []  # Boolean alternatives: no relaxation
            else:
                return []
        if type_i:
            units.insert(0, ScoringUnit(conditions=tuple(type_i)))
        return units

    def partial_candidates(
        self,
        domain: str,
        interpretation: Interpretation,
        exclude: set[int] | None = None,
        *,
        pool_cap: int | None = None,
        ordered: bool | None = None,
    ) -> list[Record]:
        """The raw N-1 candidate pool for a question (Section 4.3.1).

        Each relaxation unit is dropped in turn; the union of the
        relaxed queries' results, minus *exclude* (typically the exact
        matches), is returned unranked.  A single-unit question relaxes
        to the whole table (the paper's similarity-matching case), and
        the list copies it: :meth:`partial_answers` ranks such a
        question by score class without this list.  The whole-table
        branch stays only for ``perfbench/replay.py``, the Figure 5
        experiment (which feeds every ranker the same candidates) and
        the unranked answers of a domain without ranking resources.

        Each unit's id-set is computed once and every relaxed pool is
        derived by intersection (:mod:`repro.perf.subplan`).
        ``pool_cap`` defaults to the engine's setting; the pipeline
        passes the per-request value through it.  ``ordered`` is
        accepted and ignored (evaluation order never changes which
        records survive) only because ``perfbench/replay.py`` passes
        it.
        """
        context = self.context(domain)
        exclude = exclude or set()
        if pool_cap is None:
            pool_cap = self.partial_pool_per_query
        units = self.relaxation_units(interpretation)
        if len(units) < 1:
            return []
        candidates: dict[int, Record] = {}
        if len(units) == 1:
            table = self.database.table(context.domain.schema.table_name)
            # snapshot(): a concurrent insert/delete cannot break the scan.
            for record in table.snapshot():
                if record.record_id not in exclude:
                    candidates[record.record_id] = record
        else:
            # Imported here: repro.perf.subplan reaches back into
            # repro.qa for condition rendering, so a module-level
            # import would cycle through repro.qa.__init__.
            from repro.perf.subplan import shared_partial_candidates

            candidates = shared_partial_candidates(
                self.database,
                context.domain,
                units,
                interpretation,
                exclude,
                pool_cap,
                fragment_cache=self.fragment_cache,
            )
        return list(candidates.values())

    def partial_answers(
        self,
        domain: str,
        interpretation: Interpretation,
        exclude: set[int],
        *,
        pool_cap: int | None = None,
        top_k: int | None = None,
    ) -> Sequence[Answer]:
        """The scored N-1 answer list, best first.

        With ranking resources the pool is ordered by Eq. 5's Rank_Sim;
        without them the N-1 retrieval order (by record id) is kept and
        answers are marked ``unranked``.  ``top_k`` bounds the ranked
        list (identical to the full ranking truncated); it defaults to
        the engine's ``ranking_top_k`` and must be positive.

        The result is an :class:`AnswerView` over the ranking, whose
        ``rank_path`` names how it was ranked.  A single-unit question
        (the whole table but *exclude*) is ranked by score class, one
        scored row per class
        (:func:`~repro.perf.colrank.class_rank_unit`, ``"classes"``);
        any other pool is listed by :meth:`partial_candidates` and
        every candidate scored here (``"rows"``).  Either way answers,
        and the order past the first read, are built only for the
        positions a caller reads.
        """
        if top_k is None:
            top_k = self.ranking_top_k
        elif top_k < 1:
            raise ValueError(f"top_k must be positive, got {top_k}")
        context = self.context(domain)
        ranker = context.ranker()
        units = self.relaxation_units(interpretation)
        if len(units) < 1:
            return []
        if ranker is not None and len(units) == 1:
            # Imported here for the same cycle as repro.perf.subplan.
            from repro.perf.colrank import class_rank_unit

            with span("relax.rank", path="classes") as node:
                scored = class_rank_unit(
                    context.resources, units[0], exclude, top_k
                )
                if node is not None:
                    node.set_attribute("classes", scored.classes)
            return AnswerView((scored, _ranked_answer), rank_path="classes")
        with span("relax.candidates"):
            pool = self.partial_candidates(
                domain, interpretation, exclude, pool_cap=pool_cap
            )
        if ranker is None:
            # No similarity resources: preserve N-1 retrieval order by id.
            pool.sort(key=lambda record: record.record_id)
            if top_k is not None:
                pool = pool[:top_k]
            return AnswerView((pool, _unranked_answer))
        with span("relax.rank", path="rows", pool=len(pool)):
            scored = ranker.rank_units(pool, units, top_k=top_k)
        return AnswerView((scored, _ranked_answer), rank_path="rows")
