"""CQAds: a question-answering system for advertisements.

A from-scratch reproduction of *"Generating Exact- and Ranked
Partially-Matched Answers to Questions in Advertisements"*
(Qumsiyeh, Pera & Ng — PVLDB 5(3), 2011).

Quickstart (the service-layer API)::

    from repro import AnswerRequest, SystemBuilder

    service = (
        SystemBuilder()
        .with_domains("cars")
        .ads_per_domain(500)
        .build_service()
    )
    result = service.answer(
        AnswerRequest(question="Find Honda Accord blue less than 15000 dollars")
    )
    for answer in result.answers[:5]:
        print(answer.exact, answer.score, dict(answer.record))

    # per-request overrides, batching and pagination:
    result = service.ask("blue honda", max_answers=5, explain=True)
    results = service.answer_batch(["honda accord", "red bmw", "honda accord"])
    page = service.page(result, offset=30, limit=30)  # past the 30-cap

Legacy API: :func:`build_system` and ``CQAds.answer(question)`` remain
fully supported and answer through the same function
(:func:`repro.api.stages.answer_request`) — they produce bit-identical
answers — so existing code and the paper-facing benchmarks keep
working unchanged.

Public surface:

* :mod:`repro.api` — the service layer: :class:`SystemBuilder`,
  :class:`AnswerService`, :class:`AnswerRequest`/:class:`AnswerOptions`,
  :class:`AnswerPage`;
* :func:`build_system` — one-call provisioning (synthetic ads, query
  logs, corpus, similarity matrices, classifier);
* :class:`CQAds` — the engine (domains, classifier, N-1 relaxation);
* :class:`Database` and :mod:`repro.db.sql` — the relational substrate;
* :mod:`repro.store` — durable storage: a delta write-ahead log with
  checksummed snapshots and crash recovery
  (``SystemBuilder().storage(dir)`` / :func:`open_database`);
* :mod:`repro.obs` — unified observability: the
  :class:`MetricsRegistry` (counters / gauges / latency histograms),
  request-scoped span tracing across every executor boundary, and the
  Prometheus/JSON-lines exporters
  (``SystemBuilder().observability()`` / ``python -m repro stats``);
* :mod:`repro.ranking` — Rank_Sim and the four baseline rankers;
* :mod:`repro.datagen` — the synthetic-data generators;
* :mod:`repro.evaluation` — the paper's metrics and experiment harness.
"""

from repro.api import (
    AnswerOptions,
    AnswerPage,
    AnswerRequest,
    AnswerService,
    SystemBuilder,
)
from repro.db.database import Database
from repro.obs import (
    InMemoryTraceSink,
    MetricsRegistry,
    Observability,
    render_prometheus,
    set_default_registry,
)
from repro.qa.conditions import Condition, ConditionOp, Interpretation, Superlative
from repro.qa.domain import AdsDomain
from repro.qa.pipeline import MAX_ANSWERS, Answer, CQAds, QuestionResult
from repro.store import (
    RecoveryReport,
    WalBackend,
    open_database,
    recover_database,
)
from repro.system import BuiltDomain, BuiltSystem, build_system

__version__ = "1.2.0"

__all__ = [
    "Database",
    "Condition",
    "ConditionOp",
    "Interpretation",
    "Superlative",
    "AdsDomain",
    "CQAds",
    "Answer",
    "QuestionResult",
    "MAX_ANSWERS",
    "BuiltDomain",
    "BuiltSystem",
    "build_system",
    "AnswerOptions",
    "AnswerPage",
    "AnswerRequest",
    "AnswerService",
    "RecoveryReport",
    "SystemBuilder",
    "WalBackend",
    "Observability",
    "MetricsRegistry",
    "InMemoryTraceSink",
    "render_prometheus",
    "set_default_registry",
    "open_database",
    "recover_database",
    "__version__",
]
