"""One-call construction of a fully-provisioned CQAds system.

``build_system()`` performs the whole provisioning pipeline the paper
describes across Sections 3-4:

1. generate 500 ads per domain (Section 4.1.4) into a fresh database;
2. derive each domain's trie, numeric bounds and ebay-style value
   ranges from the generated data;
3. synthesize a query log per domain and learn its TI-matrix (Eq. 3);
4. synthesize the topical corpus and learn the shared WS-matrix;
5. register every domain with CQAds and train the JBBSM classifier on
   the ad texts.

The returned :class:`BuiltSystem` keeps every intermediate artifact
(datasets, latent models, matrices) so tests, examples and benchmarks
can inspect or re-use them without rebuilding.

With ``lazy=True`` (what :meth:`repro.api.builder.SystemBuilder.lazy`
sets), only the shared substrate (database, corpus, WS-matrix, the
engine) is built up front; each domain is provisioned on first access
through :meth:`BuiltSystem.ensure_domain`.  Eager and lazy builds are
deterministic and identical per domain — every generator is seeded per
call, so provisioning order does not matter.

Prefer :class:`repro.api.builder.SystemBuilder` for new code; this
function remains the single implementation both surfaces share.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.classify.naive_bayes import NaiveBayesClassifier
from repro.datagen.ads import DomainDataset, build_dataset
from repro.datagen.corpus import generate_corpus
from repro.datagen.latent import LatentSimilarity
from repro.datagen.querylog import Session, generate_query_log
from repro.datagen.vocab import DOMAIN_NAMES, build_domain_spec
from repro.db.database import Database
from repro.qa.domain import AdsDomain
from repro.qa.pipeline import CQAds
from repro.ranking.rank_sim import RankingResources
from repro.ranking.ti_matrix import TIMatrix
from repro.ranking.ws_matrix import WSMatrix

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.service import AnswerService
    from repro.serve.service import AsyncAnswerService

__all__ = ["BuiltDomain", "BuiltSystem", "build_system"]


@dataclass
class BuiltDomain:
    """All artifacts of one provisioned domain."""

    dataset: DomainDataset
    domain: AdsDomain
    latent: LatentSimilarity
    sessions: list[Session]
    ti_matrix: TIMatrix
    resources: RankingResources


@dataclass
class BuiltSystem:
    """A provisioned CQAds instance plus its data substrate."""

    cqads: CQAds
    database: Database
    domains: dict[str, BuiltDomain] = field(default_factory=dict)
    ws_matrix: WSMatrix | None = None
    corpus: list[str] = field(default_factory=list)
    #: Names this system was asked to serve (provisioned or pending).
    requested_domains: tuple[str, ...] = ()
    _provisioner: Callable[[str], BuiltDomain] | None = field(
        default=None, repr=False, compare=False
    )
    _provision_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def domain(self, name: str) -> BuiltDomain:
        """The provisioned artifacts for *name* (provisions lazily)."""
        return self.ensure_domain(name)

    def ensure_domain(self, name: str) -> BuiltDomain:
        """Provision *name* on first access (no-op when already built).

        Thread-safe: concurrent requests (``answer_batch``) may race to
        the same unprovisioned domain; exactly one provisions it.
        """
        if name not in self.domains:
            if self._provisioner is None or name not in self.requested_domains:
                raise KeyError(name)
            with self._provision_lock:
                if name not in self.domains:
                    self.domains[name] = self._provisioner(name)
        return self.domains[name]

    def provision_all(self) -> None:
        """Provision every requested domain that is still pending."""
        for name in self.requested_domains:
            self.ensure_domain(name)

    @property
    def pending_domains(self) -> tuple[str, ...]:
        """Requested domains not yet provisioned (lazy builds only)."""
        return tuple(
            name for name in self.requested_domains if name not in self.domains
        )

    @property
    def storage(self):
        """The database's storage backend, or ``None`` (in-memory)."""
        return self.database.storage

    def close(self) -> None:
        """Release per-table scatter executors (sharded builds) and
        flush/close the storage backend (durable builds).

        A sharded table lazily creates a dedicated thread pool for
        parallel scatters (:meth:`repro.shard.table.ShardedTable.close`);
        a long-lived process that builds systems repeatedly should
        close each discarded build so idle executor threads do not
        accumulate until garbage collection.  Idempotent.  In-memory
        systems stay fully usable — scatters simply run inline
        afterwards; a storage-backed system stays readable but further
        mutations raise :class:`~repro.errors.StorageError` (the WAL
        is closed).
        """
        for table in self.database:
            close = getattr(table, "close", None)
            if close is not None:
                close()
        if self.database.storage is not None:
            self.database.storage.close()

    def __enter__(self) -> "BuiltSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def service(
        self,
        cache: int | None = None,
        max_workers: int = 4,
        observability=None,
    ) -> "AnswerService":
        """An :class:`~repro.api.service.AnswerService` over this system.

        ``cache`` attaches a bounded answer cache of that capacity
        (see :meth:`repro.api.builder.SystemBuilder.answer_cache`);
        ``max_workers`` sizes the service's persistent batch pool;
        ``observability`` attaches a :class:`~repro.obs.Observability`
        bundle (request tracing + metric registration).
        """
        from repro.api.service import AnswerService

        return AnswerService(
            self.cqads,
            cache=cache,
            max_workers=max_workers,
            observability=observability,
        )

    def async_service(
        self, cache: int | None = None, observability=None, **limits
    ) -> "AsyncAnswerService":
        """An admission-controlled asyncio front-end over this system.

        Builds a fresh synchronous :class:`AnswerService` (with an
        answer cache of capacity *cache* when given, and the
        *observability* bundle when given) and wraps it in an
        :class:`~repro.serve.service.AsyncAnswerService`, which owns it
        — ``await async_service.close()`` releases both.  *limits* are
        the async service's knobs (``workers``, ``max_queue``,
        ``rate``/``burst``, ``tenant_rates``, ``default_deadline``,
        ``coalesce``); see :mod:`repro.serve`.
        """
        from repro.serve.service import AsyncAnswerService

        return AsyncAnswerService(
            self.service(cache=cache, observability=observability),
            own_service=True,
            **limits,
        )


def _provision_domain(
    system: BuiltSystem,
    spec,
    ads_per_domain: int,
    sessions_per_domain: int,
    seed: int,
    partitioner=None,
    scatter_workers: int | None = None,
) -> BuiltDomain:
    """Steps 1-3 and 5 of the provisioning pipeline for one domain."""
    assert system.ws_matrix is not None
    dataset = build_dataset(
        spec,
        system.database,
        ads_per_domain,
        seed=seed,
        shards=system.cqads.shards,
        partitioner=partitioner,
        scatter_workers=scatter_workers,
    )
    domain = AdsDomain.from_table(spec.name, dataset.table)
    # The generated dataset's ebay-style ranges override the
    # table-derived ones (same computation, same data — kept for
    # symmetry with the paper's separate ebay statistics source).
    domain.value_ranges.update(dataset.value_ranges)
    latent = LatentSimilarity(spec)
    sessions = generate_query_log(
        spec, latent, n_sessions=sessions_per_domain, seed=seed + 4
    )
    ti_matrix = TIMatrix.from_query_log(sessions)
    resources = RankingResources(
        ti_matrix=ti_matrix,
        ws_matrix=system.ws_matrix,
        value_ranges=dict(domain.value_ranges),
        type_i_columns=[c.name for c in spec.schema.type_i_columns],
        product_keys=[product.key() for product in spec.products],
    )
    system.cqads.add_domain(
        domain, training_texts=dataset.ad_texts(), resources=resources
    )
    return BuiltDomain(
        dataset=dataset,
        domain=domain,
        latent=latent,
        sessions=sessions,
        ti_matrix=ti_matrix,
        resources=resources,
    )


def build_system(
    domain_names: list[str] | None = None,
    ads_per_domain: int = 500,
    sessions_per_domain: int = 1500,
    corpus_documents: int = 1200,
    seed: int = 7,
    classifier: NaiveBayesClassifier | None = None,
    train_classifier: bool = True,
    lazy: bool = False,
    partitioner=None,
    scatter_workers: int | None = None,
    storage=None,
    **cqads_options,
) -> BuiltSystem:
    """Provision CQAds over *domain_names* (default: all eight).

    The defaults match the paper's scale: 500 ads per domain, one table
    per domain, a 30-answer cap.  Smaller values make unit tests fast.

    With ``lazy=True`` the shared substrate (corpus, WS-matrix, engine)
    is built immediately but per-domain provisioning is deferred to the
    first :meth:`BuiltSystem.ensure_domain` (or ``domain``) call;
    classifier training then happens on demand inside
    :meth:`CQAds.classify_question`.

    ``shards=N`` (a :class:`~repro.qa.pipeline.CQAds` option, passed
    through ``**cqads_options``) partitions every domain's table
    across N shards and runs the answer path scatter-gather —
    bit-identical to the single-table build of the same seed.
    ``partitioner`` and ``scatter_workers`` tune the placement policy
    and the per-table scatter thread executor (see :mod:`repro.shard`).
    ``cache_maintenance="delta"|"rebuild"`` (also via
    ``**cqads_options``) selects how the hot-path caches follow
    mutations: delta patching (the default, for high-churn corpora) or
    the epoch-rebuild oracle — bit-identical answers either way (see
    ``PERFORMANCE.md``, "Incremental maintenance").

    ``storage`` attaches a durability backend to the database — a
    :class:`repro.store.StorageBackend` instance, or a directory path
    (``str``/``PathLike``) to open a
    :class:`~repro.store.WalBackend` on with default policies.  Every
    table creation and mutation of the provisioning run (and after it)
    is then WAL-logged; see :mod:`repro.store` and
    :meth:`repro.api.builder.SystemBuilder.storage`.
    """
    names = list(domain_names) if domain_names is not None else list(DOMAIN_NAMES)
    if isinstance(storage, (str, os.PathLike)):
        from repro.store import WalBackend

        storage = WalBackend(storage)
    database = Database(storage=storage)
    specs = [build_domain_spec(name) for name in names]
    spec_by_name = {spec.name: spec for spec in specs}
    corpus = generate_corpus(specs, n_documents=corpus_documents, seed=seed)
    cqads = CQAds(database, classifier=classifier, **cqads_options)
    system = BuiltSystem(
        cqads=cqads,
        database=database,
        ws_matrix=WSMatrix.from_corpus(corpus),
        corpus=corpus,
        requested_domains=tuple(spec.name for spec in specs),
    )
    system._provisioner = lambda name: _provision_domain(
        system,
        spec_by_name[name],
        ads_per_domain,
        sessions_per_domain,
        seed,
        partitioner=partitioner,
        scatter_workers=scatter_workers,
    )
    if lazy:
        # Named-domain requests provision on first use; classification
        # first provisions everything so the classifier is trained on
        # the full domain set.
        cqads.domain_loader = system.ensure_domain
        cqads.classifier_warmup = system.provision_all
        return system
    system.provision_all()
    if train_classifier and len(names) > 1:
        cqads.train_classifier()
    return system
