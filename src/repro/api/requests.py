"""Request/response value objects for the service-layer API.

The seed exposed every knob (answer cap, spelling correction, partial
relaxation, evaluation order) as a :class:`~repro.qa.pipeline.CQAds`
constructor argument, so changing one for a single question meant
building a second system.  The service layer separates the two scopes:

* **system defaults** stay on the engine (``CQAds``), exactly as the
  paper configures them (Sections 4.1-4.4, 30-answer cap);
* **per-request overrides** travel on a frozen :class:`AnswerOptions`
  inside an :class:`AnswerRequest` — ``None`` means "use the engine's
  default", so an empty request reproduces legacy behaviour
  bit-for-bit.

Both dataclasses are frozen (hashable), which lets
:meth:`repro.api.service.AnswerService.answer_batch` deduplicate
identical requests inside one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.qa.pipeline import CQAds

__all__ = ["AnswerOptions", "AnswerRequest", "ResolvedOptions"]


@dataclass(frozen=True)
class AnswerOptions:
    """Per-request overrides; ``None`` defers to the engine default.

    Parameters
    ----------
    max_answers:
        Cap on returned answers (exact + partial).  The engine default
        is the paper's 30 (Section 4.3.1 / 5.1).
    correct_spelling:
        Run the Section 4.1.2 spelling corrector during tagging.
    relax_partial:
        Run the Section 4.3.1 N-1 relaxation when fewer than
        ``max_answers`` exact matches exist.
    ordered_evaluation:
        Apply the Section 4.3 evaluation order (Type I → II → III).
    partial_pool_per_query:
        Candidate cap per relaxed N-1 query.  When unset it follows the
        engine, or ``3 * max_answers`` when ``max_answers`` itself is
        overridden (the engine's own widening rule).
    top_k:
        Bound on the length of the *ranked* partial pool: the bounded
        result is identical to the full ranking truncated (ties
        included), and ``ranked_pool`` — and therefore pagination —
        stops at ``top_k`` partial entries.  It does not change how
        much ranking work a question costs: the pool orders and
        builds only the positions read, whatever its length.  When
        unset it follows the engine's ``ranking_top_k`` (default:
        unbounded, preserving full pagination).
    explain:
        Attach a per-stage :class:`~repro.api.stages.StageTrace` list to
        the result (timings are always recorded; the trace adds
        human-readable stage details and skip markers).
    use_cache:
        Let the service answer this request from its answer cache (and
        store the result there).  ``None``/``True`` use the cache when
        the service has one; ``False`` forces a fresh answer without
        touching the cache.  No-op on services built without a
        cache.
    """

    max_answers: int | None = None
    correct_spelling: bool | None = None
    relax_partial: bool | None = None
    ordered_evaluation: bool | None = None
    partial_pool_per_query: int | None = None
    top_k: int | None = None
    explain: bool = False
    use_cache: bool | None = None

    def merged(self, **overrides) -> "AnswerOptions":
        """A copy with *overrides* applied (fluent convenience)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class AnswerRequest:
    """One question for :class:`~repro.api.service.AnswerService`.

    ``domain=None`` routes the question through the Section 3
    classifier, exactly like the legacy ``CQAds.answer(question)``.
    """

    question: str
    domain: str | None = None
    options: AnswerOptions = field(default_factory=AnswerOptions)

    @staticmethod
    def of(item: "AnswerRequest | str") -> "AnswerRequest":
        """Coerce a bare question string into a request."""
        if isinstance(item, AnswerRequest):
            return item
        return AnswerRequest(question=item)

    def with_options(self, **overrides) -> "AnswerRequest":
        """A copy of this request with option *overrides* applied."""
        return replace(self, options=self.options.merged(**overrides))


@dataclass(frozen=True)
class ResolvedOptions:
    """:class:`AnswerOptions` with every ``None`` filled from an engine.

    This is what :func:`~repro.api.stages.answer_request` reads — it
    never touches engine attributes directly, so a request override and
    a constructor default are indistinguishable downstream.
    """

    max_answers: int
    correct_spelling: bool
    relax_partial: bool
    ordered_evaluation: bool
    partial_pool_per_query: int | None
    explain: bool
    use_cache: bool = True
    top_k: int | None = None

    def fingerprint(self) -> tuple:
        """The answer-cache key component: every resolved knob that can
        change the result.  ``use_cache`` is excluded — it controls
        cache participation, not the answer."""
        return (
            self.max_answers,
            self.correct_spelling,
            self.relax_partial,
            self.ordered_evaluation,
            self.partial_pool_per_query,
            self.explain,
            self.top_k,
        )

    @classmethod
    def resolve(cls, options: AnswerOptions, engine: "CQAds") -> "ResolvedOptions":
        if options.max_answers is not None and options.max_answers < 1:
            raise ValueError(
                f"max_answers must be positive, got {options.max_answers}"
            )
        if (
            options.partial_pool_per_query is not None
            and options.partial_pool_per_query < 1
        ):
            raise ValueError(
                "partial_pool_per_query must be positive, got "
                f"{options.partial_pool_per_query}"
            )
        if options.top_k is not None and options.top_k < 1:
            raise ValueError(f"top_k must be positive, got {options.top_k}")
        max_answers = (
            options.max_answers
            if options.max_answers is not None
            else engine.max_answers
        )
        if options.partial_pool_per_query is not None:
            pool = options.partial_pool_per_query
        elif options.max_answers is not None and not engine.partial_pool_explicit:
            # Mirror the engine's own default formula when the cap is
            # overridden per-request: each N-1 query contributes up to
            # three times the answer cap.  An engine pool the caller
            # set explicitly is kept as-is.
            pool = 3 * max_answers
        else:
            pool = engine.partial_pool_per_query
        return cls(
            max_answers=max_answers,
            correct_spelling=(
                options.correct_spelling
                if options.correct_spelling is not None
                else engine.correct_spelling
            ),
            relax_partial=(
                options.relax_partial
                if options.relax_partial is not None
                else engine.relax_partial
            ),
            ordered_evaluation=(
                options.ordered_evaluation
                if options.ordered_evaluation is not None
                else engine.ordered_evaluation
            ),
            partial_pool_per_query=pool,
            explain=options.explain,
            use_cache=options.use_cache if options.use_cache is not None else True,
            top_k=(
                options.top_k
                if options.top_k is not None
                else engine.ranking_top_k
            ),
        )
