"""Command-line interface.

Two modes:

``python -m repro "your question"``
    Provision a synthetic CQAds system (all eight domains by default)
    and answer one question, printing the interpretation, the
    generated SQL and the ranked answers — a one-line way to watch the
    whole pipeline.  ``--explain`` adds the per-stage timing trace.

``python -m repro batch questions.txt``
    Answer one question per line of the file (``-`` for stdin) through
    :meth:`repro.api.service.AnswerService.answer_batch` and emit a
    JSON array of results to stdout — the scripted counterpart of the
    interactive mode.

``python -m repro load``
    Drive synthetic **open-loop** traffic (arrivals on a fixed
    schedule, regardless of completions — the load model under which
    queues actually grow) through the async service tier
    (:class:`repro.serve.AsyncAnswerService`) and report p50/p99
    latency, shed counts by typed error, and the single-flight
    coalescing hit rate.  ``--rps``/``--duration`` set the offered
    load, ``--workers``/``--queue``/``--rate``/``--burst``/
    ``--deadline`` set the admission knobs, and ``--distinct``
    controls how duplicate-heavy the question mix is.

``python -m repro snapshot DIR``
    Durability maintenance: provision a system **into** DIR when the
    directory is fresh (every provisioning insert is WAL-logged), or
    open an existing durable directory, then write an atomic snapshot
    and rotate the WAL generation (see :mod:`repro.store`).

``python -m repro recover DIR``
    Rebuild the database persisted in DIR (newest valid snapshot plus
    WAL-tail replay, truncating torn tails) and print the recovery
    report.  ``--verify`` also prints the recovered state fingerprint;
    ``--json`` emits the report as JSON (including the registry-fed
    WAL damage taxonomy and recovery phase timings).

``python -m repro stats``
    Observability smoke: provision a small WAL-backed system with the
    unified observability layer attached (:mod:`repro.obs`), drive a
    short traced workload through the async service tier, and print
    the resulting metrics as Prometheus text exposition (``--json``
    for the snapshot dict, ``--trace`` to also print a request's span
    tree).  ``--check`` additionally asserts the export parses and the
    core metric families are non-zero — the CI smoke mode.

The word ``batch``/``load``/``snapshot``/``recover``/``stats`` in
first position selects the subcommand; to ask the literal one-word
question "batch", put the flags (if any) first and separate the
question with ``--``: ``python -m repro --domains cars -- batch``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys

from repro.api import AnswerRequest, AnswerService, SystemBuilder
from repro.datagen.vocab import DOMAIN_NAMES
from repro.errors import ServiceError
from repro.qa.pipeline import SERVICE_TIMING_KEYS

__all__ = [
    "build_arg_parser",
    "build_batch_parser",
    "build_load_parser",
    "build_recover_parser",
    "build_snapshot_parser",
    "build_stats_parser",
    "main",
]


def _add_provisioning_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--domain",
        choices=sorted(DOMAIN_NAMES),
        default=None,
        help="skip classification and answer within this domain",
    )
    parser.add_argument(
        "--domains",
        nargs="+",
        choices=sorted(DOMAIN_NAMES),
        default=None,
        metavar="NAME",
        help="which domains to provision (default: all eight)",
    )
    parser.add_argument(
        "--ads",
        type=int,
        default=500,
        help="synthetic ads per domain (default 500, the paper's scale)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="data-generation seed"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "partition each domain's table across N shards and run the "
            "answer path scatter-gather (default: single table; answers "
            "are bit-identical either way)"
        ),
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "CQAds: ask a natural-language question over synthetic "
            "advertisement data (VLDB 2011 reproduction).  Use the "
            "'batch' subcommand to answer a file of questions as JSON."
        ),
    )
    parser.add_argument("question", help="the ads question to answer")
    _add_provisioning_arguments(parser)
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many answers to print (default 10)",
    )
    parser.add_argument(
        "--show-sql",
        action="store_true",
        help="print the generated SQL statement",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the per-stage pipeline trace",
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro batch",
        description=(
            "Answer one question per line of FILE (use '-' for stdin) "
            "and emit a JSON array of results to stdout."
        ),
    )
    parser.add_argument(
        "file", help="file with one question per line, or '-' for stdin"
    )
    _add_provisioning_arguments(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="thread-pool size for answer_batch (default 4)",
    )
    parser.add_argument(
        "--max-answers",
        type=int,
        default=None,
        help="per-request answer cap (default: the engine's 30)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="answers to include per question in the JSON (default 10)",
    )
    parser.add_argument(
        "--indent",
        type=int,
        default=2,
        help="JSON indentation (default 2; 0 for compact output)",
    )
    return parser


def build_load_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro load",
        description=(
            "Drive open-loop synthetic traffic through the async "
            "service tier and report latency percentiles, shed counts "
            "and the coalescing hit rate."
        ),
    )
    _add_provisioning_arguments(parser)
    parser.add_argument(
        "--rps",
        type=float,
        default=50.0,
        help="offered load: request arrivals per second (default 50)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="seconds of offered traffic (default 5)",
    )
    parser.add_argument(
        "--distinct",
        type=int,
        default=12,
        help=(
            "distinct questions in the mix; arrivals sample uniformly "
            "from this pool, so smaller means more duplicate-heavy "
            "(default 12)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="concurrent engine invocations (default 4)",
    )
    parser.add_argument(
        "--queue",
        type=int,
        default=32,
        help="bounded admission queue depth (default 32)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="shared token-bucket refill rate, req/s (default: unlimited)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=None,
        help="token-bucket burst capacity (default: max(rate, 1))",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds (default: none)",
    )
    parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable single-flight coalescing (baseline comparison)",
    )
    parser.add_argument(
        "--cache",
        type=int,
        default=None,
        metavar="CAPACITY",
        help="attach an answer cache of this capacity (default: none)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    return parser


def build_snapshot_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro snapshot",
        description=(
            "Write an atomic snapshot of the durable database in DIR "
            "and rotate its WAL generation.  A fresh DIR is first "
            "provisioned (synthetic ads; every insert WAL-logged)."
        ),
    )
    parser.add_argument(
        "directory", help="durable storage directory (WAL + snapshots)"
    )
    _add_provisioning_arguments(parser)
    parser.add_argument(
        "--fsync",
        choices=("always", "interval", "off"),
        default="interval",
        help="WAL fsync policy while provisioning (default interval)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of text",
    )
    return parser


def build_recover_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro recover",
        description=(
            "Rebuild the database persisted in DIR from its newest "
            "valid snapshot plus WAL-tail replay, and print the "
            "recovery report."
        ),
    )
    parser.add_argument(
        "directory", help="durable storage directory (WAL + snapshots)"
    )
    parser.add_argument(
        "--no-repair",
        action="store_true",
        help="report damaged WAL tails without truncating the files",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="also print the recovered state fingerprint (sha256)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    return parser


def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description=(
            "Drive a short traced workload through a small WAL-backed "
            "system and print the unified observability metrics as "
            "Prometheus text exposition."
        ),
    )
    _add_provisioning_arguments(parser)
    parser.add_argument(
        "--requests",
        type=int,
        default=24,
        help="requests to drive through the async service (default 24)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the metrics snapshot as JSON instead of Prometheus text",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="also print one traced request's span tree (to stderr)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "smoke mode: assert the Prometheus export parses and the "
            "core metric families (cache hit/miss, stage latencies, "
            "serve counters, WAL ops) are non-zero; exit 1 otherwise"
        ),
    )
    return parser


def _stats_workload(args: argparse.Namespace, obs) -> str:
    """Provision, drive the traced workload, and return the export."""
    import tempfile

    from repro.db.sql.executor import execute

    domains = args.domains
    if domains is None:
        domains = [args.domain] if args.domain is not None else ["cars"]
    with tempfile.TemporaryDirectory(prefix="repro-stats-") as directory:
        builder = (
            SystemBuilder()
            .with_domains(domains)
            .ads_per_domain(args.ads)
            .with_seed(args.seed)
            .storage(directory, fsync="off")
        )
        if args.shards is not None:
            builder = builder.shards(args.shards)
        system = builder.build()
        service = system.async_service(
            cache=64, observability=obs, workers=2, max_queue=16
        )
        cqads = system.cqads

        from repro.datagen.questions import make_generator

        generator = make_generator(
            system.domain(domains[0]).dataset, seed=args.seed
        )
        pool = [generator.generate().text for _ in range(6)]

        async def drive() -> None:
            # Duplicate-heavy so the answer cache and the singleflight
            # table both see hits; sequential re-asks hit the cache,
            # concurrent duplicates coalesce.
            for index in range(max(1, args.requests)):
                await service.ask(
                    pool[index % len(pool)], domain=domains[0]
                )
            await service.answer_batch(
                [pool[0]] * 4, return_exceptions=True
            )
            await service.close()

        asyncio.run(drive())

        schema = cqads.domain(domains[0]).schema
        numeric = next(
            (c.name for c in schema.columns if c.is_numeric), "record_id"
        )
        # A textual SQL range query exercises the plan cache (parse +
        # re-parse hit) and the ordered-window access path.
        sql = (
            f"SELECT record_id FROM {schema.table_name} "
            f"WHERE {numeric} < 100000000"
        )
        execute(cqads.database, sql)
        execute(cqads.database, sql)

        if args.shards is not None:
            # One real record move per sharded run: the rebalance-moves
            # counter and the per-shard row gauges surface in the
            # export with live values (and --check asserts them).
            table = cqads.database.table(schema.table_name)
            sizes = table.shard_sizes()
            donor = max(range(len(sizes)), key=lambda index: sizes[index])
            receiver = min(range(len(sizes)), key=lambda index: sizes[index])
            if donor != receiver and sizes[donor]:
                mover = max(
                    record.record_id
                    for record in table.shards[donor].snapshot()
                )
                table.move_records([mover], receiver)
        system.close()

        if args.trace:
            from repro.obs import InMemoryTraceSink

            for sink in obs.tracer.sinks:
                if isinstance(sink, InMemoryTraceSink) and sink.roots:
                    # The richest retained tree (a coalesced hit keeps
                    # no children; a full engine pass keeps them all).
                    root = max(
                        sink.roots, key=lambda r: sum(1 for _ in r.walk())
                    )
                    print(root.describe(), file=sys.stderr)
                    break
    return obs.render_prometheus()


def _check_stats_export(rendered: str, sharded: bool = False) -> list[str]:
    """The CI smoke assertions; returns human-readable failures."""
    from repro.obs import parse_prometheus_text

    failures: list[str] = []
    try:
        parsed = parse_prometheus_text(rendered)
    except ValueError as error:
        return [f"export does not parse: {error}"]
    samples = parsed["samples"]

    def total(name: str, **labels) -> float:
        wanted = tuple(sorted(labels.items()))
        return sum(
            value
            for (sample_name, sample_labels), value in samples.items()
            if sample_name == name
            and all(pair in sample_labels for pair in wanted)
        )

    for family in ("answer", "fragment", "plan", "window", "singleflight"):
        if total("repro_cache_requests_total", cache=family) <= 0:
            failures.append(f"cache family {family!r} recorded no lookups")
    if total("repro_stage_seconds_count") <= 0:
        failures.append("no pipeline stage latencies recorded")
    if total("repro_serve_requests_total", outcome="completed") <= 0:
        failures.append("serve tier recorded no completed requests")
    if total("repro_wal_ops_total") <= 0:
        failures.append("no WAL operations recorded")
    if total("repro_serve_request_seconds_count") <= 0:
        failures.append("no serve latency observations recorded")
    if sharded:
        rows = [
            value
            for (name, _labels), value in samples.items()
            if name == "repro_shard_rows" and value == value  # drop NaN
        ]
        if not rows or sum(rows) <= 0:
            failures.append("per-shard row gauges absent or all zero")
        if total("repro_shard_scatter_seconds_count") <= 0:
            failures.append("no per-shard scatter latencies recorded")
        if total("repro_rebalance_moves_total") <= 0:
            failures.append("rebalance move counter never incremented")
    return failures


def _stats_main(argv: list[str]) -> int:
    from repro.obs import InMemoryTraceSink, MetricsRegistry, Observability

    args = build_stats_parser().parse_args(argv)
    obs = Observability(MetricsRegistry())
    obs.tracer.add_sink(InMemoryTraceSink(capacity=8))
    previous = obs.install()
    try:
        print("provisioning CQAds (observability on) ...", file=sys.stderr)
        rendered = _stats_workload(args, obs)
    finally:
        from repro.obs import set_default_registry

        set_default_registry(previous)
    if args.json:
        json.dump(obs.snapshot().as_dict(), sys.stdout, indent=2)
        print()
    else:
        sys.stdout.write(rendered)
    if args.check:
        failures = _check_stats_export(rendered, sharded=args.shards is not None)
        if failures:
            for failure in failures:
                print(f"SMOKE FAIL: {failure}", file=sys.stderr)
            return 1
        print("smoke ok: export parses, core metrics non-zero", file=sys.stderr)
    return 0


def _snapshot_main(argv: list[str]) -> int:
    from repro.errors import StorageError
    from repro.store import FileSystem, open_database
    from repro.store.snapshot import list_generations

    args = build_snapshot_parser().parse_args(argv)
    snapshots, wals = list_generations(FileSystem(), args.directory)
    provisioned = False
    if not snapshots and not wals:
        # Fresh directory: provision a synthetic system into it so the
        # snapshot has something to persist (the demo/bootstrap path).
        domains = args.domains
        if domains is None and args.domain is not None:
            domains = [args.domain]
        print(f"provisioning CQAds into {args.directory} ...", file=sys.stderr)
        builder = (
            SystemBuilder()
            .ads_per_domain(args.ads)
            .with_seed(args.seed)
            .storage(args.directory, fsync=args.fsync)
        )
        if domains is not None:
            builder = builder.with_domains(domains)
        if args.shards is not None:
            builder = builder.shards(args.shards)
        system = builder.build()
        database, backend = system.database, system.storage
        provisioned = True
    else:
        print(f"opening {args.directory} ...", file=sys.stderr)
        try:
            database, backend, _ = open_database(
                args.directory, fsync=args.fsync
            )
        except StorageError as error:
            print(f"cannot open {args.directory!r}: {error}", file=sys.stderr)
            return 1
    try:
        backend.snapshot()
    finally:
        backend.close()
    summary = {
        "directory": args.directory,
        "provisioned": provisioned,
        "generation": backend.generation,
        "tables": len(database),
        "records": sum(len(table) for table in database),
        "wal": backend.stats.as_dict(),
    }
    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
        return 0
    print(f"directory:   {summary['directory']}")
    print(f"provisioned: {'yes' if provisioned else 'no (opened existing)'}")
    print(f"generation:  {summary['generation']}")
    print(f"tables:      {summary['tables']}")
    print(f"records:     {summary['records']}")
    stats = summary["wal"]
    print(
        f"wal:         {stats['frames_appended']} frames appended, "
        f"{stats['snapshots_written']} snapshot(s) written"
    )
    return 0


def _recover_main(argv: list[str]) -> int:
    from repro.errors import StorageError
    from repro.obs import MetricsRegistry, set_default_registry
    from repro.store import database_fingerprint, recover_database

    args = build_recover_parser().parse_args(argv)
    # A fresh process-default registry isolates this run's recovery
    # metrics (damage taxonomy counts, phase timings) for the report.
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        database, report = recover_database(
            args.directory, repair=not args.no_repair
        )
    except StorageError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    finally:
        set_default_registry(previous)
    snapshot = registry.snapshot()
    damage_counts = snapshot.counters_by_label(
        "repro_wal_damage_total", "reason"
    )

    def _phase_seconds(phase: str) -> float:
        sample = snapshot.histogram("repro_recovery_seconds", phase=phase)
        return sample.sum if sample is not None else 0.0

    payload = report.as_dict()
    payload["metrics"] = {
        "wal_damage_total": damage_counts,
        "recovery_seconds": {
            "snapshot_load": _phase_seconds("snapshot_load"),
            "replay": _phase_seconds("replay"),
        },
    }
    if args.verify:
        payload["fingerprint"] = database_fingerprint(database)
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    print(f"directory:       {report.directory}")
    print(f"generation:      {report.generation}")
    base = report.snapshot if report.snapshot else "empty (no snapshot)"
    print(f"base:            {base}")
    for rejected in report.snapshots_rejected:
        print(f"rejected:        {rejected}")
    print(
        f"replayed:        {report.frames_replayed} frames from "
        f"{len(report.wals_replayed)} WAL file(s)"
    )
    for path, (reason, offset) in report.truncated.items():
        action = "reported" if args.no_repair else "truncated"
        print(f"damaged tail:    {path} ({reason}; {action} at {offset})")
    if damage_counts:
        taxonomy = ", ".join(
            f"{reason}: {count}"
            for reason, count in sorted(damage_counts.items())
        )
        print(f"damage taxonomy: {taxonomy}")
    print(f"tables:          {report.tables}")
    print(f"records:         {report.records}")
    print(
        f"timing:          snapshot {report.snapshot_load_seconds * 1000:.1f} ms, "
        f"replay {report.replay_seconds * 1000:.1f} ms"
    )
    if args.verify:
        print(f"fingerprint:     {payload['fingerprint']}")
    return 0


def _provision_service(args: argparse.Namespace) -> AnswerService:
    domains = args.domains
    if domains is None and args.domain is not None:
        domains = [args.domain]
    print("provisioning CQAds ...", file=sys.stderr)
    builder = SystemBuilder().ads_per_domain(args.ads).with_seed(args.seed)
    if domains is not None:
        builder = builder.with_domains(domains)
    if args.shards is not None:
        builder = builder.shards(args.shards)
    return builder.build_service()


def _ask_main(argv: list[str]) -> int:
    args = build_arg_parser().parse_args(argv)
    service = _provision_service(args)
    result = service.ask(
        args.question, domain=args.domain, explain=args.explain
    )
    print(f"domain:        {result.domain}")
    if result.corrections:
        fixed = ", ".join(
            f"{c.original!r} -> {c.corrected!r}" for c in result.corrections
        )
        print(f"corrections:   {fixed}")
    if result.interpretation is None:
        print(f"outcome:       {result.message}")
        return 1
    print(f"interpreted:   {result.interpretation.describe()}")
    if args.show_sql:
        print(f"sql:           {result.sql}")
    print(
        f"answers:       {len(result.exact_answers)} exact, "
        f"{len(result.partial_answers)} partial "
        f"({result.elapsed_seconds * 1000:.1f} ms)"
    )
    if args.explain and result.trace is not None:
        for entry in result.trace:
            print(f"  stage {entry.describe()}")
    schema = service.cqads.domain(result.domain).schema
    for answer in result.answers[: args.top]:
        identity = " ".join(
            str(answer.record.get(column.name, ""))
            for column in schema.type_i_columns
        )
        details = ", ".join(
            f"{column.name}={answer.record[column.name]}"
            for column in schema.columns
            if column.attribute_type.value != "I"
            and answer.record.get(column.name) is not None
        )
        tag = (
            "exact"
            if answer.exact
            else f"{answer.similarity_kind} {answer.score:.2f}"
        )
        print(f"  [{tag:>14}] {identity}  ({details})")
    return 0


def _result_to_json(result, top: int) -> dict:
    return {
        "question": result.question,
        "domain": result.domain,
        "message": result.message,
        "sql": result.sql,
        "interpretation": (
            result.interpretation.describe()
            if result.interpretation is not None
            else None
        ),
        "corrections": [
            {"original": c.original, "corrected": c.corrected}
            for c in result.corrections
        ],
        "exact_count": len(result.exact_answers),
        "partial_count": len(result.partial_answers),
        "total_ranked": len(result.ranked_pool),
        "timings_ms": {
            stage: seconds * 1000
            for stage, seconds in result.timings.items()
            if stage not in SERVICE_TIMING_KEYS
        },
        "cache_hit": result.timings.get("cache"),
        "answers": [
            {
                "exact": answer.exact,
                "score": None if answer.exact else answer.score,
                "similarity_kind": answer.similarity_kind,
                "record": dict(answer.record),
            }
            for answer in result.answers[:top]
        ],
    }


def _batch_main(argv: list[str]) -> int:
    args = build_batch_parser().parse_args(argv)
    if args.file == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(args.file, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as error:
            print(f"cannot read {args.file!r}: {error}", file=sys.stderr)
            return 1
    questions = [line.strip() for line in lines if line.strip()]
    if not questions:
        print("no questions found", file=sys.stderr)
        return 1
    service = _provision_service(args)
    requests = [
        AnswerRequest(question=question, domain=args.domain)
        for question in questions
    ]
    if args.max_answers is not None:
        requests = [
            request.with_options(max_answers=args.max_answers)
            for request in requests
        ]
    print(
        f"answering {len(requests)} questions "
        f"({args.workers} workers) ...",
        file=sys.stderr,
    )
    results = service.answer_batch(requests, workers=args.workers)
    payload = [_result_to_json(result, args.top) for result in results]
    json.dump(payload, sys.stdout, indent=args.indent or None)
    print()
    return 0


def _percentile(values: list[float], q: float) -> float | None:
    """The *q*-quantile (0..1) by nearest-rank on sorted *values*."""
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


async def _drive_open_loop(
    service, arrivals: list[tuple[float, AnswerRequest]]
) -> dict:
    """Fire *arrivals* on their schedule; collect latency + shed stats.

    Open-loop: every arrival fires at its scheduled offset whether or
    not earlier requests completed, which is what exposes queue growth
    and shedding under overload (a closed loop would self-throttle).
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.02
    latencies: list[float] = []
    shed: dict[str, int] = {}

    async def one(offset: float, request: AnswerRequest) -> None:
        delay = (start + offset) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        begun = loop.time()
        try:
            await service.answer(request)
        except ServiceError as exc:
            name = type(exc).__name__
            shed[name] = shed.get(name, 0) + 1
        else:
            latencies.append(loop.time() - begun)

    await asyncio.gather(
        *(one(offset, request) for offset, request in arrivals)
    )
    stats = service.stats()
    return {
        "offered": len(arrivals),
        "completed": len(latencies),
        "p50_ms": (_percentile(latencies, 0.50) or 0.0) * 1000,
        "p99_ms": (_percentile(latencies, 0.99) or 0.0) * 1000,
        "shed": shed,
        "shed_rate": stats.shed_rate,
        "engine_invocations": stats.executed,
        "coalesced": stats.coalesced,
        "coalescing_hit_rate": stats.coalescing_hit_rate,
        # Service-side view: the serve tier's own latency histogram
        # (admission to completion), estimated from fixed buckets —
        # complements the client-observed p50_ms/p99_ms above.
        "latency_hist": stats.latency.as_dict() if stats.latency else None,
        "stats": stats.as_dict(),
    }


def _load_main(argv: list[str]) -> int:
    args = build_load_parser().parse_args(argv)
    if args.rps <= 0:
        print("--rps must be positive", file=sys.stderr)
        return 1
    domains = args.domains
    if domains is None and args.domain is not None:
        domains = [args.domain]
    print("provisioning CQAds ...", file=sys.stderr)
    builder = SystemBuilder().ads_per_domain(args.ads).with_seed(args.seed)
    if domains is not None:
        builder = builder.with_domains(domains)
    if args.shards is not None:
        builder = builder.shards(args.shards)
    system = builder.build()

    from repro.datagen.questions import make_generator

    names = sorted(system.domains)
    pool: list[AnswerRequest] = []
    for index in range(max(1, args.distinct)):
        name = names[index % len(names)]
        generator = make_generator(
            system.domain(name).dataset, seed=args.seed + index
        )
        pool.append(
            AnswerRequest(question=generator.generate().text, domain=name)
        )

    rng = random.Random(args.seed)
    total = max(1, int(args.rps * args.duration))
    interval = 1.0 / args.rps
    arrivals = [
        (index * interval, pool[rng.randrange(len(pool))])
        for index in range(total)
    ]

    service = system.async_service(
        cache=args.cache,
        workers=args.workers,
        max_queue=args.queue,
        rate=args.rate,
        burst=args.burst,
        default_deadline=args.deadline,
        coalesce=not args.no_coalesce,
    )

    async def run() -> dict:
        try:
            return await _drive_open_loop(service, arrivals)
        finally:
            await service.close()

    print(
        f"offering {total} requests at {args.rps:g} req/s "
        f"({len(pool)} distinct questions, {args.workers} workers, "
        f"queue {args.queue}) ...",
        file=sys.stderr,
    )
    report = asyncio.run(run())
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
        return 0
    print(f"offered:            {report['offered']}")
    print(f"completed:          {report['completed']}")
    print(f"p50 latency:        {report['p50_ms']:.1f} ms")
    print(f"p99 latency:        {report['p99_ms']:.1f} ms")
    hist = report["latency_hist"]
    if hist:
        print(
            f"service histogram:  p50 {hist['p50'] * 1000:.1f} ms, "
            f"p95 {hist['p95'] * 1000:.1f} ms, "
            f"p99 {hist['p99'] * 1000:.1f} ms "
            f"({hist['count']} observed)"
        )
    print(f"engine invocations: {report['engine_invocations']}")
    print(
        f"coalesced:          {report['coalesced']} "
        f"({report['coalescing_hit_rate']:.1%} of submitted)"
    )
    shed = report["shed"]
    if shed:
        shed_list = ", ".join(
            f"{name}: {count}" for name, count in sorted(shed.items())
        )
        print(f"shed:               {sum(shed.values())} ({shed_list})")
    else:
        print("shed:               0")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "batch":
        return _batch_main(argv[1:])
    if argv and argv[0] == "load":
        return _load_main(argv[1:])
    if argv and argv[0] == "snapshot":
        return _snapshot_main(argv[1:])
    if argv and argv[0] == "recover":
        return _recover_main(argv[1:])
    if argv and argv[0] == "stats":
        return _stats_main(argv[1:])
    return _ask_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
