"""Quickstart: the service-layer API over a provisioned CQAds system.

Builds a single-domain system with the fluent :class:`SystemBuilder`,
then exercises the three :class:`AnswerService` entry points —
``answer`` (one request, with per-request options), ``answer_batch``
(thread-pool fan-out, results in input order) and ``page`` (cursor
pagination past the paper's 30-answer cap) — then scale-out:
``.shards(4)`` scatter-gather with online shard splitting and
rebalancing (see PERFORMANCE.md, "Rebalancing") — then the async
service tier (:class:`~repro.serve.AsyncAnswerService`): single-flight
coalescing, admission control and deadlines over the same engine —
then durability: ``.storage(directory)`` logs every
mutation to a checksummed write-ahead log, and
:func:`repro.open_database` recovers the bit-identical database
after a restart (or crash; see PERFORMANCE.md, "Durability") —
and finishes with observability: ``.observability(obs)`` threads one
:class:`~repro.obs.Observability` bundle (metrics registry + tracer)
through every layer, printing a connected span tree for one request
and a Prometheus snapshot of the cache counters
(see PERFORMANCE.md, "Observability", and ``python -m repro stats``).

Legacy API note: ``build_system(["cars"]).cqads.answer(question)``
still works and returns bit-identical answers — it is a thin shim over
the same pipeline — but new code should prefer this surface.

Performance note: ``.answer_cache(1024)`` on the builder memoizes
repeated questions, and the relaxation/ranking/execution layers share
subplans, ranking fragments and plans automatically.  Every cache is
versioned by the tables' **mutation epochs**: inserting, deleting or
updating ads refreshes cached answers by itself — no manual
``invalidate_cache`` call is required after mutations (the method
survives as an override).  Range/BETWEEN predicates are answered by
ordered column windows under a selectivity-adaptive planner (the
explain trace shows which access path each leaf took).  See
``PERFORMANCE.md`` for the algorithms and knobs, including
``AnswerOptions(top_k=...)`` to bound the ranked pool with the
columnar top-k engine.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import asyncio
import tempfile
import time

from repro import (
    AnswerRequest,
    AsyncAnswerService,
    InMemoryTraceSink,
    MetricsRegistry,
    Observability,
    SystemBuilder,
    open_database,
    set_default_registry,
)
from repro.db.sql.executor import SQLExecutor
from repro.errors import DeadlineExceededError
from repro.store import database_fingerprint


def main() -> None:
    # Build a single-domain system: 500 synthetic car ads, a query log
    # for the TI-matrix, a corpus for the WS-matrix, all seeded and
    # deterministic.  build_service() wraps the engine in the service
    # layer; the full artifact set stays reachable via service.cqads.
    print("Provisioning CQAds (cars domain) ...")
    service = (
        SystemBuilder()
        .with_domains("cars")
        .ads_per_domain(500)
        .answer_cache(1024)  # serve repeated questions from memory
        .build_service()
    )

    questions = [
        "Do you have a 2 door red BMW?",
        "Cheapest 2dr mazda with automatic transmission",
        "I want a 4 wheel drive with less than 20k miles",
        "Find Honda Accord blue less than 15000 dollars",
        "Hondaaccord less than $2000",          # forgotten space
        "honda accorr less than $2000",          # misspelling
        "Honda accord 2000",                     # incomplete: 2000 of what?
        "Any car priced below $7000 and not less than $2000",
        "Show me Black Silver cars",             # mutually exclusive values
    ]

    # Batched answering: one thread-pool pass, results in input order.
    results = service.answer_batch(
        [AnswerRequest(question=q, domain="cars") for q in questions],
        workers=4,
    )

    for question, result in zip(questions, results):
        print("=" * 72)
        print(f"Q: {question}")
        if result.corrections:
            fixed = ", ".join(
                f"{c.original!r} -> {c.corrected!r}" for c in result.corrections
            )
            print(f"   corrected: {fixed}")
        if result.interpretation is None:
            print(f"   {result.message}")
            continue
        print(f"   interpreted as: {result.interpretation.describe()}")
        print(f"   SQL: {result.sql}")
        exact = result.exact_answers
        partial = result.partial_answers
        stage_ms = ", ".join(
            f"{stage} {seconds * 1000:.1f}ms"
            for stage, seconds in result.timings.items()
        )
        print(f"   answers: {len(exact)} exact, {len(partial)} partial ({stage_ms})")
        for answer in result.answers[:3]:
            record = answer.record
            tag = "exact" if answer.exact else f"{answer.similarity_kind} {answer.score:.2f}"
            print(
                f"     [{tag}] {record.get('year')} {record['make']} "
                f"{record['model']}, {record.get('color', '?')}, "
                f"${record.get('price')}"
            )

    # Per-request overrides (no system rebuild) and an explain trace.
    print("=" * 72)
    result = service.ask(
        "Find Honda Accord blue less than 15000 dollars",
        domain="cars",
        max_answers=5,
        explain=True,
    )
    print(f"Q (max_answers=5, explain=True): {result.question}")
    for entry in result.trace or []:
        print(f"   stage {entry.describe()}")

    # Cursor pagination: walk the FULL ranking (past the 30-answer cap)
    # without re-running or re-ranking anything.
    broad = service.ask("honda", domain="cars")
    print("=" * 72)
    print(f"Q: honda — capped at {len(broad.answers)} answers, "
          f"{len(broad.ranked_pool)} ranked in total")
    offset, shown = 0, 0
    while True:
        window = service.page(broad, offset=offset, limit=25)
        shown += len(window)
        print(f"   page offset={window.offset}: {len(window)} answers "
              f"(has_more={window.has_more})")
        if window.next_offset is None:
            break
        offset = window.next_offset
    print(f"   walked {shown}/{window.total} ranked answers")

    # Live data: mutations bump the table's epoch, which refreshes the
    # answer cache, the ranking column store and the fragment cache by
    # themselves — no invalidate_cache call needed.
    print("=" * 72)
    question = "honda accord blue less than 15000 dollars"
    before = service.ask(question, domain="cars")
    table = service.cqads.database.table("car_ads")
    bargain = table.insert(
        {"make": "honda", "model": "accord", "color": "blue", "price": 14000}
    )
    after = service.ask(question, domain="cars")  # cache already refreshed
    print(f"Q: {question}")
    print(f"   answers before insert: {len(before.answers)}, "
          f"after: {len(after.answers)} "
          f"(new ad #{bargain.record_id} is "
          f"{'in' if any(a.record.record_id == bargain.record_id for a in after.answers) else 'NOT in'}"
          f" the refreshed answers)")
    table.delete(bargain.record_id)  # caches refresh again automatically

    # High churn: ads are posted, edited and expired far more often
    # than the question mix changes.  Under the default
    # cache_maintenance="delta" every mutation is absorbed as a typed
    # delta — the ranking column store patches only the changed column
    # slots and the fragment cache re-evaluates only the touched record
    # per cached criterion — so a stream of point edits costs
    # microseconds per question instead of a full cache rebuild each
    # (BENCH_incremental.json: ~20x over rebuilds at 8000 ads;
    # `.cache_maintenance("rebuild")` on the builder restores the old
    # behaviour, kept as the parity oracle).
    print("=" * 72)
    print("High-churn stream: one price edit per question ...")
    fragments = service.cqads.fragment_cache
    victims = [answer.record.record_id for answer in before.ranked_pool[:5]]
    hits_before, misses_before = fragments.hits, fragments.misses
    t0 = time.perf_counter()
    for victim in victims:
        current = table.get(victim)
        table.update(victim, {"price": float(current["price"] or 5000) + 1.0})
        service.ask(question, domain="cars")
    churn_ms = (time.perf_counter() - t0) * 1000 / len(victims)
    print(f"   {len(victims)} edit+ask rounds, {churn_ms:.1f}ms per round")
    print(f"   fragment cache: +{fragments.hits - hits_before} hits, "
          f"+{fragments.misses - misses_before} misses "
          f"(patched forward through every edit — no re-evaluation)")

    # Range predicates: ordered column windows answer <, >, >=, <= and
    # BETWEEN leaves with two bisects into a delta-maintained sorted
    # array (spliced in place by the same typed deltas that patch the
    # caches above), and a selectivity-adaptive planner picks scan vs.
    # sorted index vs. window — or the window's complement, when the
    # range matches most of the pool — per leaf (see PERFORMANCE.md,
    # "Ordered windows & adaptive planning"; BENCH_range.json: ~12x
    # over full scans at 8000 ads).  The execute stage surfaces its
    # per-leaf decisions in the explain trace, and a standalone
    # SQLExecutor exposes them programmatically.
    print("=" * 72)
    ranged = service.ask(
        "Any car priced below $7000 and not less than $2000",
        domain="cars",
        explain=True,
    )
    print(f"Q: {ranged.question}")
    print(f"   SQL: {ranged.sql}")
    for entry in ranged.trace or []:
        if entry.stage == "execute":
            print(f"   stage {entry.describe()}")
    executor = SQLExecutor(service.cqads.database)  # access_paths="adaptive"
    result = executor.execute_sql(
        "SELECT * FROM car_ads WHERE price BETWEEN 2000 AND 7000 "
        "AND mileage < 60000"
    )
    print(f"   direct executor: {len(result.record_ids())} rows, "
          f"access paths: {executor.plan_summary()}")
    for decision in executor.plan_trace:
        print(f"     {decision.column} {decision.shape}: {decision.path} "
              f"(predicted selectivity {decision.predicted:.2f}, "
              f"observed {decision.observed:.2f})")

    # Scale-out: the same recipe partitioned across 4 shards.  Every
    # read scatters and gathers behind the single-table surface, the
    # answers are bit-identical, and each shard versions its own
    # caches — a point mutation touches 1/4 of the cached state
    # instead of all of it, and its shard-stamped delta patches
    # exactly that shard's store and fragments (see PERFORMANCE.md,
    # "Sharded scatter-gather execution", and
    # `python -m repro --shards 4 ...` on the CLI).
    print("=" * 72)
    print("Provisioning the same system across 4 shards ...")
    sharded_service = (
        SystemBuilder()
        .with_domains("cars")
        .ads_per_domain(500)
        .shards(4)
        .build_service()
    )
    sharded_table = sharded_service.cqads.database.table("car_ads")
    print(f"   shard sizes: {sharded_table.shard_sizes()}")
    plain = service.ask(question, domain="cars")
    sharded = sharded_service.ask(question, domain="cars")
    identical = [
        (a.record.record_id, a.exact, a.score) for a in plain.answers
    ] == [(a.record.record_id, a.exact, a.score) for a in sharded.answers]
    print(f"Q: {question}")
    print(f"   sharded answers identical to the single table: {identical}")
    spare = sharded_table.insert(
        {"make": "honda", "model": "accord", "color": "blue", "price": 13500}
    )
    shard = sharded_table.shard_of(spare.record_id)
    print(f"   inserted ad #{spare.record_id} landed on shard {shard}; "
          f"only that shard's caches were patched")
    sharded_table.delete(spare.record_id)

    # Online rebalancing: split the busiest shard, then level the live
    # shards back toward the mean — every move is an ordinary typed
    # delta under the facade write lock, so caches and windows absorb
    # it like any other mutation.
    sizes = sharded_table.shard_sizes()
    busiest = sizes.index(max(sizes))
    new_shard = sharded_table.split_shard(busiest)
    moved = sharded_table.rebalance()
    print(f"   split shard {busiest} -> new shard {new_shard}, "
          f"then rebalanced {moved} record(s): "
          f"sizes {sharded_table.shard_sizes()}")
    rebalanced = sharded_service.ask(question, domain="cars")
    still = [
        (a.record.record_id, a.exact, a.score) for a in plain.answers
    ] == [(a.record.record_id, a.exact, a.score) for a in rebalanced.answers]
    print(f"   answers identical after split + rebalance: {still}")
    sharded_table.close()  # release the scatter threads

    # The service tier: an asyncio front door with admission control.
    # Identical in-flight questions coalesce into one engine run,
    # per-tenant token buckets and a bounded queue shed excess load
    # with typed errors, and per-request deadlines bound each caller's
    # wait (see PERFORMANCE.md, "Service tier", and
    # `python -m repro load ...` for an open-loop load driver).
    print("=" * 72)
    print("Async service tier: coalescing a burst of duplicate questions ...")

    async def service_tier_demo() -> None:
        async with AsyncAnswerService(service, workers=2, max_queue=8) as tier:
            burst = await tier.answer_batch(
                AnswerRequest(question=question, domain="cars")
                for _ in range(8)
            )
            stats = tier.stats()
            print(f"   {len(burst)} concurrent identical questions -> "
                  f"{stats.executed} engine run(s), "
                  f"{stats.coalesced} coalesced waiters")
            try:
                await tier.ask(question, domain="cars", deadline=1e-6)
            except DeadlineExceededError as exc:
                print(f"   a 1us deadline sheds typed: {exc}")

    asyncio.run(service_tier_demo())

    # Durability: point the builder at a directory and every typed
    # mutation delta is appended to a CRC-checksummed write-ahead log
    # (periodic snapshots bound replay; fsync="always"/"interval"/"off"
    # trades acknowledgement latency against the power-loss window —
    # BENCH_durability.json has the tax per policy).  After a restart
    # or crash, open_database() rebuilds the bit-identical database
    # from the latest snapshot plus the WAL tail, truncating any torn
    # tail frame.  The CLI mirrors this: `python -m repro snapshot DIR`
    # and `python -m repro recover DIR --verify`.
    print("=" * 72)
    print("Durability: WAL-backed build, then recover after 'restart' ...")
    with tempfile.TemporaryDirectory() as directory:
        durable = (
            SystemBuilder()
            .with_domains("cars")
            .ads_per_domain(100)
            .storage(directory, fsync="off")
            .build_service()
        )
        durable_db = durable.cqads.database
        table = durable_db.table("car_ads")
        posted = table.insert(
            {"make": "honda", "model": "accord", "color": "blue",
             "price": 12500}
        )
        fingerprint = database_fingerprint(durable_db)
        durable_db.storage.close()  # "the process exits"

        recovered, backend, report = open_database(directory)
        try:
            identical = database_fingerprint(recovered) == fingerprint
            print(f"   recovered {report.records} records from "
                  f"{len(report.wals_replayed)} WAL file(s) "
                  f"({report.frames_replayed} frames replayed)")
            print(f"   bit-identical to the pre-restart database: "
                  f"{identical}")
            print(f"   ad #{posted.record_id} survived: "
                  f"{recovered.table('car_ads').get(posted.record_id) is not None}")
        finally:
            backend.close()

    # Observability: one Observability bundle (metrics registry +
    # tracer) rides through every layer.  Each answered request opens a
    # root span whose children cover the pipeline stages, executor
    # leaves, shard scatters, cache lookups and WAL appends; the
    # registry accumulates counters and latency histograms the
    # Prometheus exporter renders.  install() points the always-on
    # hooks (caches, WAL, stages) at this registry; restoring the
    # previous default afterwards keeps the demo self-contained
    # (see PERFORMANCE.md, "Observability", and
    # `python -m repro stats --trace` for the CLI equivalent).
    print("=" * 72)
    print("Observability: one traced request -> span tree + Prometheus ...")
    obs = Observability(MetricsRegistry())
    sink = InMemoryTraceSink()
    obs.tracer.add_sink(sink)
    previous = obs.install()
    try:
        observed = (
            SystemBuilder()
            .with_domains("cars")
            .ads_per_domain(200)
            .answer_cache(64)
            .observability(obs)
            .build_service()
        )
        observed.ask(question, domain="cars")
        observed.ask(question, domain="cars")  # second run hits the caches
    finally:
        set_default_registry(previous)
    richest = max(sink.roots, key=lambda root: sum(1 for _ in root.walk()))
    print(richest.describe())
    print("   Prometheus snapshot (cache families):")
    for line in obs.render_prometheus().splitlines():
        if "repro_cache_requests_total" in line:
            print(f"     {line}")


if __name__ == "__main__":
    main()
