"""Service-layer overhead and batch-vs-serial throughput.

Every question goes through ``AnswerService`` and
``repro.api.stages.answer_request``; this bench quantifies what the
service layer costs and buys:

1. **per-question overhead** — wall-clock of ``service.answer`` minus
   the sum of the stage timings (``timings`` holds stage seconds
   only): the price of the request objects, the option resolution and
   the trace bookkeeping (expected: tens of µs, i.e. noise against ~ms
   of answering work);
2. **legacy shim parity** — ``cqads.answer`` vs ``service.answer``:
   both run the same function, so the delta should be ~0;
3. **batch throughput** — ``answer_batch`` on a realistic workload
   where popular questions repeat (120 questions drawn from 40
   templates) vs a serial loop.  The win comes from answering each
   distinct request once (frozen requests are hashable, answering is
   read-only);
4. **instrumentation overhead** — the unified observability hooks
   (:mod:`repro.obs`) run unconditionally on the answer path; with no
   observability configured they take the no-op/counter-only fast
   path, and this bench enforces that the estimated per-question cost
   of those idle hooks stays under 5% of the pipeline time.

Quick mode (CI smoke): ``BENCH_API_QUICK=1`` shrinks the question pool
and repeats but keeps every assertion — in particular the 5%
instrumentation-overhead tripwire, which is arithmetic over measured
primitive costs and cannot flake on a noisy runner.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_api_overhead.py -s
  or: PYTHONPATH=src python benchmarks/bench_api_overhead.py [--quick]
"""

from __future__ import annotations

import os
import pathlib
import statistics
import sys
import time

import pytest

try:
    from benchmarks.conftest import emit
except ModuleNotFoundError:  # direct `python benchmarks/bench_api_overhead.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import emit
from repro.api import AnswerRequest, SystemBuilder
from repro.datagen.questions import make_generator
from repro.evaluation.reporting import format_seconds, format_table

QUICK = bool(os.environ.get("BENCH_API_QUICK"))

#: Distinct question templates and how often each repeats in the batch.
UNIQUE_QUESTIONS = 12 if QUICK else 40
REPEAT_FACTOR = 3

#: The observability budget: idle hooks must cost under this share of
#: the per-question pipeline time (ISSUE 9 acceptance criterion).
MAX_INSTRUMENTATION_SHARE = 0.05


@pytest.fixture(scope="module")
def system():
    """A paper-scale single-domain build (artifacts kept for questions)."""
    return (
        SystemBuilder()
        .with_domains("cars")
        .ads_per_domain(500)
        .sessions_per_domain(500)
        .corpus_documents(300)
        .build()
    )


@pytest.fixture(scope="module")
def service(system):
    return system.service()


@pytest.fixture(scope="module")
def questions(system):
    generator = make_generator(system.domain("cars").dataset, seed=31)
    return [generator.generate().text for _ in range(UNIQUE_QUESTIONS)]


def _signature(result):
    return [
        (a.record.record_id, a.exact, round(a.score, 9), a.similarity_kind)
        for a in result.answers
    ]


def test_service_overhead_per_question(service, questions):
    """Request-object plumbing costs µs against ms of pipeline work."""
    overheads, totals, shim_totals = [], [], []
    for question in questions:
        request = AnswerRequest(question=question, domain="cars")
        started = time.perf_counter()
        result = service.answer(request)
        total = time.perf_counter() - started
        overheads.append(total - sum(result.timings.values()))
        totals.append(total)
        started = time.perf_counter()
        service.cqads.answer(question, domain="cars")
        shim_totals.append(time.perf_counter() - started)
    mean_total = statistics.mean(totals)
    mean_overhead = statistics.mean(overheads)
    rows = [
        ["service.answer (mean)", format_seconds(mean_total)],
        ["legacy cqads.answer shim (mean)", format_seconds(statistics.mean(shim_totals))],
        ["service-layer overhead (mean)", format_seconds(mean_overhead)],
        ["overhead share of total", f"{100 * mean_overhead / mean_total:.1f}%"],
    ]
    emit(
        format_table(
            ["measure", "value"],
            rows,
            title="API overhead — request objects + option resolution per question",
        )
    )
    # The service layer must not dominate the pipeline it wraps.
    assert mean_overhead < mean_total * 0.5


def test_batch_vs_serial_throughput(service, questions):
    """answer_batch matches the serial loop and is measurably faster."""
    workload = [
        AnswerRequest(question=question, domain="cars")
        for question in questions * REPEAT_FACTOR
    ]
    assert len(workload) >= (30 if QUICK else 100)

    started = time.perf_counter()
    serial = [service.answer(request) for request in workload]
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batched = service.answer_batch(workload)
    dedup_seconds = time.perf_counter() - started

    # Input order and answer-for-answer parity with the serial loop.
    for serial_result, batch_result in zip(serial, batched):
        assert serial_result.question == batch_result.question
        assert _signature(serial_result) == _signature(batch_result)

    per_question = len(workload)
    rows = [
        [
            "serial loop",
            format_seconds(serial_seconds),
            f"{per_question / serial_seconds:.0f} q/s",
            "1.00x",
        ],
        [
            "answer_batch (dedup, then serial)",
            format_seconds(dedup_seconds),
            f"{per_question / dedup_seconds:.0f} q/s",
            f"{serial_seconds / dedup_seconds:.2f}x",
        ],
    ]
    emit(
        format_table(
            ["mode", "wall-clock", "throughput", "speedup"],
            rows,
            title=(
                f"Batch answering — {len(workload)} questions "
                f"({UNIQUE_QUESTIONS} distinct, x{REPEAT_FACTOR} repeats)"
            ),
        )
    )
    # Deduplication must beat the serial loop on a repeat-heavy
    # workload.
    assert dedup_seconds < serial_seconds


def test_instrumentation_overhead_budget(service, questions):
    """Idle observability hooks stay inside the 5% per-question budget.

    With no ``Observability`` configured every hook takes its fast
    path: ``span()`` hands back the shared no-op context, and the
    metric hooks do one dict lookup plus one integer update on the
    process-default registry.  The tripwire multiplies the *measured*
    per-call cost of those primitives by the *measured* number of hook
    events one question actually fires, and requires the product to
    stay under ``MAX_INSTRUMENTATION_SHARE`` of the mean per-question
    wall-clock — arithmetic over two stable measurements, so the gate
    cannot flake the way an off-vs-on A/B on a noisy runner would.
    """
    from repro.obs import (
        MetricsRegistry,
        cache_event,
        set_default_registry,
        span,
    )

    requests = [
        AnswerRequest(question=question, domain="cars")
        for question in questions
    ]
    for request in requests:  # warm every cache the questions touch
        service.answer(request)
    started = time.perf_counter()
    for request in requests:
        service.answer(request)
    per_question = (time.perf_counter() - started) / len(requests)

    # How many hook events does one question fire?  Run the workload
    # against a fresh registry and tally every counter bump and
    # histogram observation it recorded.
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        for request in requests:
            service.answer(request)
    finally:
        set_default_registry(previous)
    snapshot = registry.snapshot()
    events = sum(sample.value for sample in snapshot.counters) + sum(
        sample.count for sample in snapshot.histograms
    )
    events_per_question = events / len(requests)

    # Measure the primitives on their untraced fast paths.
    calls = 5_000 if QUICK else 20_000
    scratch = MetricsRegistry()
    previous = set_default_registry(scratch)
    try:
        started = time.perf_counter()
        for _ in range(calls):
            cache_event("answer", True)
        cache_event_cost = (time.perf_counter() - started) / calls
        started = time.perf_counter()
        for _ in range(calls):
            with span("bench"):
                pass
        span_cost = (time.perf_counter() - started) / calls
    finally:
        set_default_registry(previous)

    # Conservative: price every event at the dearer primitive, and add
    # the per-question null spans (stages + api root checks, ~10).
    per_event = max(cache_event_cost, span_cost)
    estimated = events_per_question * per_event + 10 * span_cost
    share = estimated / per_question
    rows = [
        ["per-question wall-clock (mean)", format_seconds(per_question)],
        ["hook events per question", f"{events_per_question:.1f}"],
        ["cache_event cost (idle)", format_seconds(cache_event_cost)],
        ["null span cost (idle)", format_seconds(span_cost)],
        ["estimated instrumentation cost", format_seconds(estimated)],
        ["share of per-question time", f"{100 * share:.2f}%"],
    ]
    emit(
        format_table(
            ["measure", "value"],
            rows,
            title="Observability — idle-hook overhead vs the 5% budget"
            + (" [quick mode]" if QUICK else ""),
        )
    )
    assert share < MAX_INSTRUMENTATION_SHARE, (
        f"idle observability hooks cost {share:.1%} of the per-question "
        f"time; the budget is {MAX_INSTRUMENTATION_SHARE:.0%}"
    )


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        os.environ["BENCH_API_QUICK"] = "1"
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
