"""`AnswerService`: the request/response front door to CQAds.

Wraps a :class:`~repro.qa.pipeline.CQAds` engine (and optionally a
customized :class:`~repro.api.stages.QueryPipeline`) behind three
calls:

* :meth:`AnswerService.answer` — one request, one result;
* :meth:`AnswerService.answer_batch` — many requests fanned out over a
  thread pool, results in input order, duplicate requests answered
  once (the pipeline is read-only, so sharing results is safe);
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

Batches run on a **persistent** thread pool created lazily and sized
by ``max_workers``; call :meth:`close` (or use the service as a
context manager) to release it and unsubscribe the mutation listener.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Hashable, Iterable, Sequence

from repro.db.table import MutationEvent
from repro.errors import ServiceClosedError
from repro.obs import (
    Observability,
    cache_event,
    current_span,
    propagate,
    span,
)
from repro.obs.registry import get_default_registry
from repro.perf.answer_cache import AnswerCache
from repro.qa.pipeline import CQAds, QuestionResult

from repro.api.pagination import AnswerPage, page_result
from repro.api.requests import AnswerOptions, AnswerRequest, ResolvedOptions
from repro.api.stages import QueryPipeline

__all__ = ["AnswerService"]


class AnswerService:
    """The service layer over one provisioned :class:`CQAds` engine."""

    def __init__(
        self,
        cqads: CQAds,
        pipeline: QueryPipeline | None = None,
        cache: AnswerCache | int | None = None,
        max_workers: int = 4,
        observability: Observability | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.cqads = cqads
        self.observability = observability
        self.pipeline = pipeline if pipeline is not None else cqads.pipeline()
        if isinstance(cache, int):
            cache = AnswerCache(cache)
        self.cache = cache
        self.max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._executor_size = 0
        self._retired_executors: list[ThreadPoolExecutor] = []
        self._executor_lock = threading.Lock()
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
        """Release the batch thread pool and the mutation listener.

        Idempotent.  A closed service refuses new work:
        :meth:`answer`, :meth:`answer_batch` and :meth:`page` raise
        :class:`~repro.errors.ServiceClosedError` (a
        :class:`RuntimeError` subclass, for callers written against
        the old untyped error) — build a fresh service over the same
        engine to resume answering.
        """
        with self._executor_lock:
            self._closed = True
            executors = self._retired_executors + (
                [self._executor] if self._executor is not None else []
            )
            self._executor = None
            self._retired_executors = []
            self._executor_size = 0
        for executor in executors:
            executor.shutdown(wait=True)
        if self._subscribed:
            self.cqads.database.remove_listener(self._on_table_mutation)
            self._subscribed = False

    def __enter__(self) -> "AnswerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pool(self, size: int) -> ThreadPoolExecutor:
        """The persistent batch executor, grown if *size* exceeds it."""
        with self._executor_lock:
            if self._closed:
                raise ServiceClosedError("AnswerService")
            if self._executor is not None and size > self._executor_size:
                # A caller asked for more parallelism than the pool
                # has.  The old executor is *retired*, not shut down:
                # a concurrent batch may already hold a reference and
                # be about to submit to it — shutting it down here
                # would raise under its feet.  close() reaps them.
                self._retired_executors.append(self._executor)
                self._executor = None
            if self._executor is None:
                self._executor_size = max(size, self.max_workers, self._executor_size)
                self._executor = ThreadPoolExecutor(
                    max_workers=self._executor_size,
                    thread_name_prefix="answer-service",
                )
            return self._executor

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
        ``result.timings["cache"]`` (``True`` for a hit, ``False`` for
        a computed miss); cache-bypassing requests leave the key unset.
        """
        request = AnswerRequest.of(request)
        if self._closed:
            raise ServiceClosedError("AnswerService")
        # Root-or-child tracing: under an active trace (the serve tier,
        # or a batch sibling) this nests; with configured observability
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
        """The cache-or-pipeline path proper (traced by :meth:`answer`)."""
        if self.cache is None:
            return self.pipeline.run(self.cqads, request)
        options = ResolvedOptions.resolve(request.options, self.cqads)
        if not options.use_cache:
            return self.pipeline.run(self.cqads, request)
        key = self._cache_key(request, options)
        cached = self.cache.lookup(key)
        cache_event("answer", cached is not None)
        if cached is not None:
            return replace(
                cached,
                question=request.question,
                timings={**cached.timings, "cache": True},
            )
        result = self.pipeline.run(self.cqads, request)
        # Mark before storing: the stored entry carries the miss flag,
        # and every future hit flips it on a per-caller copy above.
        result.timings["cache"] = False
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
        """The cache key — read *before* the pipeline runs.

        The leading mutation generation versions the entry: a mutation
        landing while the pipeline computes bumps the generation, so
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
        self,
        requests: Iterable[AnswerRequest | str],
        workers: int | None = None,
    ) -> list[QuestionResult]:
        """Answer *requests*, returning results in input order.

        The pipeline only reads the provisioned system, so requests fan
        out over the service's **persistent** thread pool (created
        lazily, sized by the constructor's ``max_workers``, reused
        across batches — see :meth:`close`).  ``workers`` defaults to
        ``max_workers``; pass ``1`` to force a serial batch, or a
        larger value to grow the pool for this and later batches.
        Requests that compare equal (same question, domain and options
        — both dataclasses are frozen) are answered once and share the
        same result object, which is where most of the batch win comes
        from on realistic workloads where popular questions repeat.
        """
        if self._closed:
            raise ServiceClosedError("AnswerService")
        items = [AnswerRequest.of(item) for item in requests]
        order = list(dict.fromkeys(items))
        effective = self.max_workers if workers is None else workers
        if effective <= 1 or len(order) <= 1:
            results = [self.answer(request) for request in order]
        else:
            # propagate() carries the caller's active span (if any)
            # into the pool's worker threads so per-request child spans
            # attach to the batch's tree rather than vanishing.
            results = list(
                self._pool(effective).map(propagate(self.answer), order)
            )
        by_request = dict(zip(order, results))
        return [by_request[request] for request in items]

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
        question.  A request is answered with ``top_k`` bounded to
        ``offset + limit + 1`` — deep pages then cost a bounded-heap
        selection over the candidate pool instead of a full re-sort,
        and the ``+ 1`` sentinel keeps ``has_more``/``next_offset``
        exact at the requested depth.  A request that already sets
        ``options.top_k`` is honoured as-is.  Bounded pages report the
        bounded pool as ``total``, so ``total`` is a floor rather than
        the full ranking size (the cursor semantics — ``has_more`` and
        ``next_offset`` — stay correct).
        """
        if self._closed:
            raise ServiceClosedError("AnswerService")
        if isinstance(source, QuestionResult):
            return page_result(source, offset=offset, limit=limit)
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        request = AnswerRequest.of(source)
        if request.options.top_k is None:
            request = request.with_options(top_k=offset + limit + 1)
        return page_result(self.answer(request), offset=offset, limit=limit)

    def page_all(
        self,
        source: QuestionResult | AnswerRequest | str,
        page_size: int = 30,
        max_depth: int | None = None,
    ) -> Sequence[AnswerPage]:
        """Every page of a result, in order (convenience for exports).

        With a request / bare question as *source*, the question is
        answered once and paged; ``max_depth`` (or the request's own
        ``options.top_k``) bounds the ranked pool so the export pays a
        bounded-heap selection instead of sorting every candidate —
        the product-capped-pagination mode.  Without either bound the
        full ranking is computed, preserving complete exports.  On an
        already-computed result ``max_depth`` cannot save the scoring,
        but it still caps the export to the same window the request
        path would serve (exact matches plus ``max_depth`` ranked
        partials), and only the answers in that window are built.
        """
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        if isinstance(source, QuestionResult):
            result = source
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
        else:
            request = AnswerRequest.of(source)
            if max_depth is not None and request.options.top_k is None:
                request = request.with_options(top_k=max_depth)
            result = self.answer(request)
        pages: list[AnswerPage] = []
        offset = 0
        while True:
            window = page_result(result, offset=offset, limit=page_size)
            pages.append(window)
            if window.next_offset is None:
                return pages
            offset = window.next_offset
