"""`AnswerService`: the request/response front door to CQAds.

Wraps a :class:`~repro.qa.pipeline.CQAds` engine behind three calls,
each answering through :func:`~repro.api.stages.answer_request`:

* :meth:`AnswerService.answer` — one request, one result;
* :meth:`AnswerService.answer_batch` — many requests, results in input
  order, duplicate requests answered once (answering is read-only, so
  sharing results is safe);
* :meth:`AnswerService.page` — cursor pagination over a result's full
  ranking, past the paper's 30-answer cap, without re-ranking.

With a :class:`~repro.perf.answer_cache.AnswerCache` attached
(``SystemBuilder().answer_cache(...)`` or the ``cache`` constructor
argument), repeated questions are served from memory: keys combine the
requested domain, the normalized question text and the resolved option
fingerprint, so any knob that could change the answer misses the
cache.  The cache invalidates itself: the service subscribes to the
database's mutation epochs, so inserting into, deleting from or
updating a backing table drops the affected domain's entries before
the mutating call returns.  :meth:`AnswerService.invalidate_cache`
remains as a manual override but is no longer required (see
``PERFORMANCE.md``).

Every call runs on the caller's thread.  :meth:`close` (or leaving
the service's ``with`` block) unsubscribes the mutation listener;
after it, :meth:`answer`, :meth:`answer_batch` and :meth:`page` raise
:class:`~repro.errors.ServiceClosedError`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Hashable, Iterable, Sequence

from repro.db.table import MutationEvent
from repro.errors import ServiceClosedError
from repro.obs import Observability, cache_event, current_span, span
from repro.obs.registry import get_default_registry
from repro.perf.answer_cache import AnswerCache
from repro.qa.pipeline import CQAds, QuestionResult

from repro.api.pagination import AnswerPage, page_result
from repro.api.requests import AnswerOptions, AnswerRequest, ResolvedOptions
from repro.api.stages import answer_request

__all__ = ["AnswerService"]


class AnswerService:
    """The service layer over one provisioned :class:`CQAds` engine."""

    def __init__(
        self,
        cqads: CQAds,
        cache: AnswerCache | int | None = None,
        observability: Observability | None = None,
    ) -> None:
        self.cqads = cqads
        self.observability = observability
        if isinstance(cache, int):
            cache = AnswerCache(cache)
        self.cache = cache
        self._closed = False
        self._subscribed = False
        #: Monotonic mutation generations, embedded in every cache key.
        #: A result computed while a mutation lands is stored under the
        #: old generation and can never be looked up again, so the
        #: store-after-invalidate race cannot resurrect stale answers.
        #: ``_generation`` versions domain-less (classified) requests —
        #: any mutation could affect whichever domain they resolve to —
        #: while explicitly-routed requests use their domain's own
        #: counter, preserving per-domain invalidation.
        self._generation = 0
        self._domain_generations: dict[str, int] = {}
        if cache is not None:
            cqads.database.add_listener(self._on_table_mutation)
            self._subscribed = True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Mark the service closed and release the mutation listener.

        Idempotent.  A closed service refuses new work:
        :meth:`answer`, :meth:`answer_batch` and :meth:`page` raise
        :class:`~repro.errors.ServiceClosedError` (a
        :class:`RuntimeError` subclass, for callers written against
        the old untyped error) — build a fresh service over the same
        engine to resume answering.
        """
        self._closed = True
        if self._subscribed:
            self.cqads.database.remove_listener(self._on_table_mutation)
            self._subscribed = False

    def __enter__(self) -> "AnswerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # mutation-epoch listener
    # ------------------------------------------------------------------
    def _on_table_mutation(self, event: MutationEvent) -> None:
        # Unlike the fragment cache and the column stores, cached
        # *answers* cannot be patched from a typed delta — any row
        # change can reorder a ranking or move an exact match — so the
        # answer cache always takes the generation-bump path: one bump
        # per event (bulk mutations arrive as a single BatchDelta).
        cache = self.cache
        if cache is None:
            return
        # The generation bumps make the outstanding cache keys
        # unreachable (results still in flight store under the old
        # generation); the invalidate reclaims the memory eagerly.
        self._generation += 1
        domain = self.cqads.registered_domain_for_table(event.table.name)
        if domain is not None:
            self._domain_generations[domain] = (
                self._domain_generations.get(domain, 0) + 1
            )
        # An unmapped table (e.g. one whose domain is still being
        # provisioned) conservatively clears everything.
        cache.invalidate(domain)

    # ------------------------------------------------------------------
    def answer(self, request: AnswerRequest | str) -> QuestionResult:
        """Answer one request (a bare string becomes a default request).

        With a cache attached, a repeat of a previously answered
        (domain, normalized question, options) is returned from memory
        — same answers, scores and ordering, with the result's
        ``question`` field restored to this request's raw text.  Any
        request that consulted the cache reports the outcome as
        ``result.cache_hit`` (``True`` for a hit, ``False`` for a
        computed miss); on a request that did not, it stays ``None``.
        """
        request = AnswerRequest.of(request)
        if self._closed:
            raise ServiceClosedError("AnswerService")
        # Root-or-child tracing: under an active trace (the caller's
        # own, or a batch the caller traces) this nests; with configured observability
        # and no active trace it opens a root that exports on exit.
        if self.observability is not None and current_span() is None:
            context = self.observability.trace(
                "api.answer", question=request.question, domain=request.domain
            )
        else:
            context = span("api.answer", question=request.question)
        started = time.perf_counter()
        with context as node:
            result = self._answer(request)
            if node is not None:
                node.set_attribute("domain", result.domain)
                node.set_attribute("answers", len(result.answers))
        get_default_registry().histogram("repro_api_request_seconds").observe(
            time.perf_counter() - started
        )
        return result

    def _answer(self, request: AnswerRequest) -> QuestionResult:
        """The cache-or-compute path proper (traced by :meth:`answer`)."""
        options = ResolvedOptions.resolve(request.options, self.cqads)
        if self.cache is None or not options.use_cache:
            return answer_request(self.cqads, request, options)
        key = self._cache_key(request, options)
        cached = self.cache.lookup(key)
        cache_event("answer", cached is not None)
        if cached is not None:
            return replace(cached, question=request.question, cache_hit=True)
        result = answer_request(self.cqads, request, options)
        # Mark before storing: the stored entry carries the miss flag,
        # and every future hit flips it on a per-caller copy above.
        result.cache_hit = False
        self.cache.store(key, result.domain, result)
        return result

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize_question(question: str) -> str:
        """Collapse whitespace and case — the tokenizer lowercases and
        splits on whitespace, so this never changes the answer."""
        return " ".join(question.split()).lower()

    def _cache_key(
        self, request: AnswerRequest, options: ResolvedOptions
    ) -> Hashable:
        """The cache key — read *before* the question is answered.

        The leading mutation generation versions the entry: a mutation
        landing while the answer is computed bumps the generation, so
        the (now possibly stale) result is stored under a key no
        future lookup can produce.  Explicitly-routed requests carry
        their domain's generation (other domains' mutations leave them
        reachable); classified requests carry the global one.
        """
        if request.domain is None:
            generation = self._generation
        else:
            generation = self._domain_generations.get(request.domain, 0)
        return (
            generation,
            request.domain,
            self._normalize_question(request.question),
            options.fingerprint(),
        )

    def invalidate_cache(self, domain: str | None = None) -> int:
        """Manually drop cached answers — all of them, or one domain's.

        **No longer required after mutations**: the service listens to
        the database's mutation epochs and invalidates automatically.
        Kept as a compatible override for callers that want to force a
        refresh for other reasons.  *domain* accepts either a
        registered domain name or its table name; ``None`` clears
        everything.  Returns the number of entries dropped (0 when the
        service has no cache).
        """
        if self.cache is None:
            return 0
        if domain is not None:
            # Accept a table name for convenience — callers touching
            # the Database layer hold table names, not domain names.
            mapped = self.cqads.registered_domain_for_table(domain)
            if mapped is not None:
                domain = mapped
        return self.cache.invalidate(domain)

    def ask(
        self,
        question: str,
        domain: str | None = None,
        options: AnswerOptions | None = None,
        **overrides,
    ) -> QuestionResult:
        """Keyword convenience: build the request inline.

        ``service.ask("blue honda", max_answers=5, explain=True)`` is
        shorthand for an :class:`AnswerRequest` with those overrides.
        """
        request = AnswerRequest(
            question=question,
            domain=domain,
            options=options if options is not None else AnswerOptions(),
        )
        if overrides:
            request = request.with_options(**overrides)
        return self.answer(request)

    # ------------------------------------------------------------------
    def answer_batch(
        self, requests: Iterable[AnswerRequest | str]
    ) -> list[QuestionResult]:
        """Answer *requests*, returning results in input order.

        Requests that compare equal (same question, domain and options
        — both dataclasses are frozen) are answered once and share the
        same result object, which is where the batch win comes from on
        workloads where popular questions repeat.  The distinct
        requests are answered one after another on the caller's
        thread, so under an active trace their ``api.answer`` spans
        nest under the caller's span.
        """
        if self._closed:
            raise ServiceClosedError("AnswerService")
        items = [AnswerRequest.of(item) for item in requests]
        answered = {
            request: self.answer(request) for request in dict.fromkeys(items)
        }
        return [answered[request] for request in items]

    # ------------------------------------------------------------------
    def page(
        self,
        source: QuestionResult | AnswerRequest | str,
        offset: int = 0,
        limit: int = 30,
    ) -> AnswerPage:
        """A window into a full ranking (see ``page_result``).

        *source* may be an already-computed :class:`QuestionResult`
        (sliced as before, no recomputation), or a request / bare
        question, which is answered as given and then sliced; ``total``
        is then the length of its full ranking (a request that sets
        ``options.top_k`` caps that ranking itself).
        """
        if self._closed:
            raise ServiceClosedError("AnswerService")
        if isinstance(source, QuestionResult):
            return page_result(source, offset=offset, limit=limit)
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        result = self.answer(AnswerRequest.of(source))
        return page_result(result, offset=offset, limit=limit)

    def page_all(
        self,
        source: QuestionResult | AnswerRequest | str,
        page_size: int = 30,
        max_depth: int | None = None,
    ) -> Sequence[AnswerPage]:
        """Every page of a result, in order (convenience for exports).

        A request / bare question as *source* is answered once, as
        given, and paged.  ``max_depth`` caps the export to the exact
        matches plus the first ``max_depth`` ranked partials; only the
        answers in that window are built.  Without it (and without the
        request's own ``options.top_k``) the export is the full
        ranking.
        """
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        if isinstance(source, QuestionResult):
            result = source
        else:
            result = self.answer(AnswerRequest.of(source))
        if max_depth is not None:
            pool = result.ranked_pool if result.ranked_pool else result.answers
            # Exact answers come first: stop at the first partial
            # rather than building every answer of a lazy pool.
            exact_count = 0
            for answer in pool:
                if not answer.exact:
                    break
                exact_count += 1
            result = replace(
                result, ranked_pool=list(pool[: exact_count + max_depth])
            )
        pages: list[AnswerPage] = []
        offset = 0
        while True:
            window = page_result(result, offset=offset, limit=page_size)
            pages.append(window)
            if window.next_offset is None:
                return pages
            offset = window.next_offset
