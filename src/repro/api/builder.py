"""`SystemBuilder`: fluent provisioning of a CQAds system.

The seed's ``build_system()`` packs seven keyword arguments plus
``**cqads_options`` into one call; the builder names each knob as a
chainable method and adds a direct :meth:`SystemBuilder.build_service`
that returns the :class:`~repro.api.service.AnswerService` most
callers actually want.

::

    service = (
        SystemBuilder()
        .with_domains("cars", "motorcycles")
        .ads_per_domain(500)
        .with_seed(7)
        .build_service()
    )
    result = service.answer(AnswerRequest(question="blue honda accord"))

``build_system()`` remains the single provisioning implementation; the
builder only collects arguments, so both surfaces stay byte-identical.
"""

from __future__ import annotations

from typing import Iterable

from repro.classify.naive_bayes import NaiveBayesClassifier
from repro.obs import Observability
from repro.perf.answer_cache import AnswerCache
from repro.system import BuiltSystem, build_system

from repro.api.service import AnswerService

__all__ = ["SystemBuilder"]


class SystemBuilder:
    """Collects provisioning options, then delegates to ``build_system``.

    Every ``with_*``-style method returns ``self`` for chaining;
    :meth:`build` may be called repeatedly (each call provisions a
    fresh, independent system from the same recipe).
    """

    def __init__(self) -> None:
        self._domains: list[str] | None = None
        self._ads_per_domain = 500
        self._sessions_per_domain = 1500
        self._corpus_documents = 1200
        self._seed = 7
        self._classifier: NaiveBayesClassifier | None = None
        self._train_classifier = True
        self._answer_cache_capacity: int | None = None
        self._storage_directory = None
        self._storage_options: dict[str, object] = {}
        self._storage_backend = None
        self._observability: Observability | None = None
        self._cqads_options: dict[str, object] = {}

    # -- domains and scale ---------------------------------------------
    def with_domains(self, *names: str | Iterable[str]) -> "SystemBuilder":
        """Which domains to serve (default: all eight).

        Accepts varargs or a single iterable:
        ``.with_domains("cars", "food_coupons")`` or
        ``.with_domains(["cars", "food_coupons"])``.
        """
        flattened: list[str] = []
        for name in names:
            if isinstance(name, str):
                flattened.append(name)
            else:
                flattened.extend(name)
        self._domains = flattened
        return self

    def ads_per_domain(self, count: int) -> "SystemBuilder":
        """Synthetic ads per domain (paper scale: 500, Section 4.1.4)."""
        self._ads_per_domain = count
        return self

    def sessions_per_domain(self, count: int) -> "SystemBuilder":
        """Query-log sessions per domain feeding the TI-matrix (Eq. 3)."""
        self._sessions_per_domain = count
        return self

    def corpus_documents(self, count: int) -> "SystemBuilder":
        """Topical-corpus size feeding the shared WS-matrix."""
        self._corpus_documents = count
        return self

    def with_seed(self, seed: int) -> "SystemBuilder":
        """Master seed; every generator derives from it (determinism)."""
        self._seed = seed
        return self

    def shards(self, count: int | None) -> "SystemBuilder":
        """Partition every domain's table across *count* shards.

        Records are placed by a fixed hash of the record id, and the
        answer path runs scatter-gather (per-shard relaxation id-sets,
        per-shard column-store ranking with top-k merge) on the
        caller's thread — bit-identical to the single-table build of
        the same recipe; see :mod:`repro.shard` and ``PERFORMANCE.md``.
        ``None`` removes a previously-configured sharding and restores
        single tables.
        """
        if count is None:
            self._cqads_options.pop("shards", None)
        else:
            self._cqads_options["shards"] = count
        return self

    # -- engine configuration ------------------------------------------
    def with_classifier(
        self, classifier: NaiveBayesClassifier | None
    ) -> "SystemBuilder":
        """Replace the default JBBSM Naive Bayes classifier."""
        self._classifier = classifier
        return self

    def train_classifier(self, train: bool = True) -> "SystemBuilder":
        """Train the classifier at build time (default: yes, when >1 domain)."""
        self._train_classifier = train
        return self

    def max_answers(self, count: int) -> "SystemBuilder":
        """The engine's default answer cap (the paper's 30)."""
        self._cqads_options["max_answers"] = count
        return self

    def answer_defaults(self, **cqads_options) -> "SystemBuilder":
        """Engine-level answering defaults (``correct_spelling``,
        ``relax_partial``, ``ordered_evaluation``,
        ``partial_pool_per_query``, ``ranking_top_k``) — still
        overridable per request where an
        :class:`~repro.api.requests.AnswerOptions` field exists."""
        self._cqads_options.update(cqads_options)
        return self

    def answer_cache(self, capacity: int | None = 1024) -> "SystemBuilder":
        """Attach a bounded answer cache to :meth:`build_service`.

        Repeated questions are then served from memory until
        :meth:`~repro.api.service.AnswerService.invalidate_cache` is
        called (the database-mutation contract — see PERFORMANCE.md).
        ``None`` removes a previously-configured cache.
        """
        self._answer_cache_capacity = capacity
        return self

    def storage(self, directory, **options) -> "SystemBuilder":
        """Persist the built system to *directory* (WAL + snapshots).

        Every table creation and mutation — including the provisioning
        inserts — is appended to a write-ahead log of the typed
        mutation deltas, with periodic atomic snapshots; restart with
        :func:`repro.store.open_database` (or ``python -m repro
        recover DIR``).  *options* are
        :class:`~repro.store.WalBackend` keywords (``fsync``,
        ``fsync_interval_s``, ``snapshot_every``,
        ``keep_generations``, ...).  Each :meth:`build` call opens a
        **fresh** backend on the directory, so the one-recipe-many-
        systems contract holds — but two live systems must not share a
        directory.  A pre-built :class:`~repro.store.StorageBackend`
        instance is also accepted (single build only).  ``None``
        removes a previously-configured storage.
        """
        from repro.store import StorageBackend

        self._storage_backend = None
        self._storage_directory = None
        self._storage_options = {}
        if directory is None:
            return self
        if isinstance(directory, StorageBackend):
            if options:
                raise TypeError(
                    "storage options only apply when passing a directory; "
                    "configure the backend instance directly"
                )
            self._storage_backend = directory
            return self
        self._storage_directory = directory
        self._storage_options = dict(options)
        return self

    def observability(
        self, obs: "Observability | bool | None" = True
    ) -> "SystemBuilder":
        """Attach an observability bundle to the built service.

        ``True`` (the default) creates an :class:`~repro.obs.Observability`
        over the process-default metrics registry with tracing
        configured but no sinks (add them via
        ``service.observability.tracer.add_sink(...)``); pass a
        configured :class:`~repro.obs.Observability` to control the
        registry, trace sinks and slow-query threshold; ``None`` /
        ``False`` removes a previously-configured bundle.  The bundle
        flows into :meth:`build_service`: each request opens an
        ``api.answer`` root on its tracer, and the stage, executor,
        shard, cache and WAL spans hang off that root.  Metrics go to
        the process-default registry, which is the bundle's unless it
        was given another one (then call its ``install()``).
        """
        if obs is True:
            obs = Observability()
        elif obs is False:
            obs = None
        self._observability = obs
        return self

    # -- terminal operations -------------------------------------------
    def _storage_for_build(self):
        if self._storage_backend is not None:
            backend = self._storage_backend
            # An attached backend cannot serve a second build; surface
            # the single-build contract instead of a late attach error.
            self._storage_backend = None
            return backend
        if self._storage_directory is None:
            return None
        from repro.store import WalBackend

        return WalBackend(self._storage_directory, **self._storage_options)

    def build(self) -> BuiltSystem:
        """Provision and return the system."""
        return build_system(
            storage=self._storage_for_build(),
            domain_names=self._domains,
            ads_per_domain=self._ads_per_domain,
            sessions_per_domain=self._sessions_per_domain,
            corpus_documents=self._corpus_documents,
            seed=self._seed,
            classifier=self._classifier,
            train_classifier=self._train_classifier,
            **self._cqads_options,
        )

    def build_service(self) -> AnswerService:
        """Provision the system and wrap it in an :class:`AnswerService`.

        The built system stays reachable via ``service.cqads`` (and the
        full artifact set via :meth:`build` when needed separately).
        """
        cache = (
            AnswerCache(self._answer_cache_capacity)
            if self._answer_cache_capacity is not None
            else None
        )
        return AnswerService(
            self.build().cqads, cache=cache, observability=self._observability
        )
