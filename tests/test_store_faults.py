"""Randomized crash-recovery: kill the store anywhere, recover, compare.

The durability claim of :mod:`repro.store` is not "snapshots usually
load" — it is a *prefix* contract:

    Whatever fault point the process dies at, recovery reproduces a
    database that is **bit-identical to some prefix of the applied
    row operations** — and under ``fsync="always"`` at least the
    prefix of operations whose calls had returned before the crash.

This file drives that claim with the fault-injection layer
(:mod:`repro.store.faults`).  A dry run counts every mutating fault
point the workload passes (each WAL/snapshot ``write``, ``fsync``,
``rename``, directory fsync); the battery then re-runs the workload
once per (fault kind × point), letting the injected
:class:`CrashPoint`/``OSError`` propagate, recovers from the surviving
files with a *clean* filesystem, and asserts the recovered
fingerprint is a member of the oracle's per-row state timeline.  Over
a hundred distinct schedules run per battery; silent corruption
(:class:`FlipByte`) additionally proves the CRC truncation path, and
``short_reads`` proves the readers' ``_read_exact`` loops.
"""

from __future__ import annotations

import random

import pytest

from repro.api import AnswerRequest, AnswerService
from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.db.database import Database
from repro.errors import StorageError
from repro.qa.pipeline import CQAds
from repro.ranking.rank_sim import RankingResources
from repro.store import (
    FileSystem,
    WalBackend,
    database_fingerprint,
    recover_database,
)
from repro.store.faults import (
    CrashAfter,
    CrashBefore,
    CrashPoint,
    FaultPlan,
    FaultyFS,
    FaultyFile,
    FlipByte,
    TornWrite,
    Transient,
)
from repro.store.snapshot import list_generations, wal_path
from repro.system import build_system
from tests.conftest import SMALL_CAR_ROWS, small_car_schema

# ----------------------------------------------------------------------
# the workload script
# ----------------------------------------------------------------------
# Op 0 is create_table; ids are minted 1.. by the inserts, so the later
# ops reference exactly the ids alive at that step (insert -> 1;
# insert_many -> 2,3,4; insert_many -> 5,6; inserts -> 7, 8).
OPS = [
    ("insert", SMALL_CAR_ROWS[0]),
    ("insert_many", [SMALL_CAR_ROWS[1], SMALL_CAR_ROWS[2], SMALL_CAR_ROWS[3]]),
    ("update", (2, {"price": 9100})),
    ("update", (1, {})),  # no-op update: an epoch-only frame
    ("delete", 3),
    ("insert_many", [SMALL_CAR_ROWS[4], SMALL_CAR_ROWS[5]]),
    ("remove_many", [2, 5]),
    ("update", (6, {"color": "green", "price": 100})),
    ("insert", SMALL_CAR_ROWS[6]),
    ("insert", SMALL_CAR_ROWS[7]),
]

# Small enough that the workload crosses several snapshot rotations, so
# schedules land on snapshot writes, renames and directory fsyncs too.
SNAPSHOT_EVERY = 6


def run_workload(database, completed, *, shards=None):
    """Apply the script; append each op's number once it returns."""
    table = database.create_table(small_car_schema(), shards=shards)
    completed.append(0)
    for number, (kind, payload) in enumerate(OPS, start=1):
        if kind == "insert":
            table.insert(dict(payload))
        elif kind == "insert_many":
            table.insert_many([dict(row) for row in payload])
        elif kind == "update":
            table.update(payload[0], dict(payload[1]))
        elif kind == "delete":
            table.delete(payload)
        elif kind == "remove_many":
            table.remove_many(list(payload))
        completed.append(number)


def oracle_timeline(*, shards=None):
    """Fingerprints of every crash-consistent state, in order.

    Batches are decomposed per row: a crash can land between any two
    WAL frames, and each frame of a batch is one row op.  Returns the
    timeline plus ``ends[k]`` = timeline index of op *k*'s completion.
    """
    database = Database()
    timeline = [database_fingerprint(database)]
    table = database.create_table(small_car_schema(), shards=shards)
    timeline.append(database_fingerprint(database))
    ends = [len(timeline) - 1]
    for kind, payload in OPS:
        if kind == "insert":
            table.insert(dict(payload))
            timeline.append(database_fingerprint(database))
        elif kind == "insert_many":
            for row in payload:
                table.insert(dict(row))
                timeline.append(database_fingerprint(database))
        elif kind == "update":
            table.update(payload[0], dict(payload[1]))
            timeline.append(database_fingerprint(database))
        elif kind == "delete":
            table.delete(payload)
            timeline.append(database_fingerprint(database))
        elif kind == "remove_many":
            for record_id in payload:
                table.delete(record_id)
                timeline.append(database_fingerprint(database))
        ends.append(len(timeline) - 1)
    # Epochs are monotonic and fingerprinted, so no state repeats —
    # membership pins the recovered database to exactly one prefix.
    assert len(set(timeline)) == len(timeline)
    return timeline, ends


def run_trial(directory, fault_index, fault, fsync, *, shards=None,
              short_reads=False):
    """One faulted workload run.  Returns (completed ops, crash or None)."""
    schedule = {fault_index: fault} if fault_index is not None else None
    plan = FaultPlan(schedule, short_reads=short_reads)
    backend = WalBackend(
        directory,
        fsync=fsync,
        snapshot_every=SNAPSHOT_EVERY,
        retry_attempts=2,
        retry_backoff_s=0.0,
        fs=FaultyFS(FileSystem(), plan),
    )
    database = Database(storage=backend)
    completed: list[int] = []
    try:
        run_workload(database, completed, shards=shards)
        backend.close()
    except (CrashPoint, OSError, StorageError) as crash:
        # The process "died": abandon everything mid-flight.  Files are
        # unbuffered, so the directory holds exactly the pre-fault bytes.
        return completed, crash, plan
    return completed, None, plan


def count_fault_points(directory, fsync, **workload_options) -> int:
    """A no-fault dry run; the plan cursor ends at the point count."""
    completed, crash, plan = run_trial(
        directory, None, None, fsync, **workload_options
    )
    assert crash is None and completed[-1] == len(OPS)
    return plan.cursor


def spread(total: int, count: int) -> list[int]:
    step = max(1, total // count)
    return list(range(1, total + 1, step))[:count]


FAULT_KINDS = [
    CrashBefore(),
    CrashAfter(),
    TornWrite(keep=3),
    FlipByte(offset=5),
    Transient(),
]


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fsync", ["always", "interval"])
def test_crash_recovery_at_every_kind_of_fault_point(tmp_path, fsync):
    timeline, ends = oracle_timeline()
    index_of = {fp: i for i, fp in enumerate(timeline)}
    total = count_fault_points(str(tmp_path / "dry"), fsync)
    assert total > 20  # the workload crosses plenty of durability points
    positions = spread(total, 12)
    schedules = 0
    for kind_number, fault in enumerate(FAULT_KINDS):
        for position in positions:
            directory = str(tmp_path / f"t{kind_number}-{position}")
            completed, crash, plan = run_trial(
                directory, position, fault, fsync
            )
            assert plan.fired, f"fault #{position} never reached"
            recovered, report = recover_database(directory)
            fp = database_fingerprint(recovered)
            assert fp in index_of, (
                f"{fault} at point #{position} (fsync={fsync}): recovered "
                f"state matches no crash-consistent prefix "
                f"(crash={crash!r}, report={report.as_dict()})"
            )
            if crash is None and not isinstance(fault, FlipByte):
                # Absorbed fault (a retried transient): nothing may be
                # lost at all.
                assert fp == timeline[-1]
            if (
                fsync == "always"
                and isinstance(fault, (CrashBefore, CrashAfter, TornWrite))
            ):
                # Every completed call had fsynced its frames; recovery
                # may include a partially-applied next op, never less.
                floor = ends[completed[-1]] if completed else 0
                assert index_of[fp] >= floor, (
                    f"{fault} at #{position}: ops through "
                    f"{completed[-1] if completed else None} had returned "
                    f"under fsync=always but recovery lost them"
                )
            schedules += 1
    assert schedules >= 50  # x2 fsync parametrization: >= 100 schedules


def test_crash_recovery_sharded(tmp_path):
    """The same prefix contract holds for sharded tables (whose frames
    carry the shard count; placement is the fixed record-id hash)."""
    sharding = dict(shards=2)
    timeline, _ = oracle_timeline(**sharding)
    total = count_fault_points(str(tmp_path / "dry"), "interval", **sharding)
    schedules = 0
    for kind_number, fault in enumerate(
        [CrashBefore(), CrashAfter(), TornWrite(keep=5)]
    ):
        for position in spread(total, 8):
            directory = str(tmp_path / f"s{kind_number}-{position}")
            completed, crash, plan = run_trial(
                directory, position, fault, "interval", **sharding
            )
            recovered, _ = recover_database(directory)
            fingerprint = database_fingerprint(recovered)
            assert fingerprint in timeline
            if crash is None:
                # A TornWrite scheduled onto an fsync/rename point has
                # no effect there; the run survives and loses nothing.
                assert fingerprint == timeline[-1]
            schedules += 1
    assert schedules >= 24


def test_recovery_survives_short_reads(tmp_path):
    """Recovery itself re-reads snapshots and WALs; a filesystem that
    returns half of every read must change nothing."""
    directory = str(tmp_path / "store")
    completed, crash, _ = run_trial(directory, None, None, "interval")
    assert crash is None
    timeline, ends = oracle_timeline()
    short_fs = FaultyFS(FileSystem(), FaultPlan(short_reads=True))
    recovered, report = recover_database(directory, fs=short_fs)
    assert database_fingerprint(recovered) == timeline[ends[len(OPS)]]
    assert report.truncated == {}


def test_workload_crashes_under_short_reads_still_recover(tmp_path):
    """Short reads during the *faulted* run (snapshot verify re-reads)
    compose with crashes."""
    timeline, _ = oracle_timeline()
    total = count_fault_points(
        str(tmp_path / "dry"), "interval", short_reads=True
    )
    for position in spread(total, 6):
        directory = str(tmp_path / f"r{position}")
        completed, crash, plan = run_trial(
            directory, position, CrashAfter(), "interval", short_reads=True
        )
        assert crash is not None
        recovered, _ = recover_database(directory)
        assert database_fingerprint(recovered) in timeline


# ----------------------------------------------------------------------
# the fault primitives themselves
# ----------------------------------------------------------------------
class TestFaultPrimitives:
    def test_plan_counts_points_and_records_fired(self, tmp_path):
        plan = FaultPlan({2: CrashAfter()})
        fs = FaultyFS(FileSystem(), plan)
        handle = fs.open_write(str(tmp_path / "f"))
        handle.write(b"one")
        with pytest.raises(CrashPoint) as info:
            handle.write(b"two")
        handle.close()
        assert plan.cursor == 2
        assert plan.fired == [(2, "snap.write", CrashAfter())]
        assert info.value.point == "snap.write" and info.value.index == 2
        # CrashAfter let the bytes land before dying.
        assert open(str(tmp_path / "f"), "rb").read() == b"onetwo"

    def test_torn_write_keeps_a_prefix(self, tmp_path):
        plan = FaultPlan({1: TornWrite(keep=2)})
        handle = FaultyFS(FileSystem(), plan).open_write(str(tmp_path / "f"))
        with pytest.raises(CrashPoint):
            handle.write(b"abcdef")
        handle.close()
        assert open(str(tmp_path / "f"), "rb").read() == b"ab"

    def test_crash_before_loses_the_write(self, tmp_path):
        plan = FaultPlan({1: CrashBefore()})
        handle = FaultyFS(FileSystem(), plan).open_write(str(tmp_path / "f"))
        with pytest.raises(CrashPoint):
            handle.write(b"abcdef")
        handle.close()
        assert open(str(tmp_path / "f"), "rb").read() == b""

    def test_flip_byte_is_silent(self, tmp_path):
        plan = FaultPlan({1: FlipByte(offset=1)})
        handle = FaultyFS(FileSystem(), plan).open_write(str(tmp_path / "f"))
        assert handle.write(b"abc") == 3  # no exception: latent corruption
        handle.close()
        assert open(str(tmp_path / "f"), "rb").read() == bytes(
            [ord("a"), ord("b") ^ 0xFF, ord("c")]
        )

    def test_short_reads_halve_but_never_lie(self, tmp_path):
        path = str(tmp_path / "f")
        with open(path, "wb") as handle:
            handle.write(b"0123456789")
        plan = FaultPlan(short_reads=True)
        faulty = FaultyFS(FileSystem(), plan).open_read(path)
        assert faulty.read(8) == b"0123"  # halved...
        rest = b""
        while True:
            chunk = faulty.read(8)
            if not chunk:
                break
            rest += chunk
        faulty.close()
        assert rest == b"456789"  # ...but looping drains everything

    def test_faulty_file_delegates_bookkeeping(self, tmp_path):
        path = str(tmp_path / "f")
        plan = FaultPlan()
        with FaultyFS(FileSystem(), plan).open_write(path) as handle:
            assert isinstance(handle, FaultyFile)
            handle.write(b"abcdef")
            assert handle.tell() == 6
            handle.seek(2)
            handle.truncate()
            assert handle.fileno() > 0
            assert not handle.closed
        assert handle.closed
        assert open(path, "rb").read() == b"ab"


# ----------------------------------------------------------------------
# the full stack: 8 domains, crash, recover, answer
# ----------------------------------------------------------------------
def _answer_signature(answers):
    return [
        (a.record.record_id, a.exact, a.score, a.similarity_kind)
        for a in answers
    ]


def _result_signature(result):
    return (
        result.domain,
        result.sql,
        result.message,
        _answer_signature(result.answers),
        _answer_signature(result.ranked_pool),
    )


QUESTIONS_PER_DOMAIN = 3


def test_eight_domain_answers_survive_crash_recovery(tmp_path):
    """Provision all eight paper domains into a WAL-backed database,
    churn every table, tear the WAL tail, recover — the recovered
    database must be bit-identical and a pipeline rebuilt over it must
    produce byte-for-byte the same answers as the uninterrupted one."""
    directory = str(tmp_path / "store")
    system = build_system(
        ads_per_domain=30,
        sessions_per_domain=40,
        corpus_documents=60,
        train_classifier=False,
        storage=WalBackend(directory, fsync="off", snapshot_every=150),
    )
    rng = random.Random(17)
    for name in DOMAIN_NAMES:
        table = system.database.table(
            system.domain(name).domain.schema.table_name
        )
        ids = sorted(table.all_ids())
        donor = dict(table.get(rng.choice(ids)))
        table.insert(donor)
        numeric = [c.name for c in table.schema.numeric_columns]
        if numeric:
            table.update(rng.choice(ids), {rng.choice(numeric): 1234})
        table.delete(rng.choice(ids))

    service = AnswerService(system.cqads)
    questions: dict[str, list[str]] = {}
    live: dict[str, list] = {}
    for name in DOMAIN_NAMES:
        generator = make_generator(system.domain(name).dataset, seed=401)
        questions[name] = [
            generator.generate().text for _ in range(QUESTIONS_PER_DOMAIN)
        ]
        live[name] = [
            _result_signature(
                service.answer(AnswerRequest(question=text, domain=name))
            )
            for text in questions[name]
        ]
    service.close()
    live_fingerprint = database_fingerprint(system.database)
    system.close()

    _, wals = list_generations(FileSystem(), directory)
    with open(wal_path(directory, wals[-1]), "ab") as handle:
        handle.write(b"\x00\x00\x00\x0bnot a frame")
    recovered, report = recover_database(directory)
    assert database_fingerprint(recovered) == live_fingerprint
    assert report.truncated  # the garbage tail was found and cut
    assert report.tables == len(DOMAIN_NAMES)

    # Rebuild the answering stack over the *recovered* substrate,
    # reusing the immutable per-domain artifacts (matrices, vocab).
    pipeline = CQAds(recovered)
    for name in DOMAIN_NAMES:
        built = system.domains[name]
        pipeline.add_domain(
            built.domain,
            resources=RankingResources(
                ti_matrix=built.resources.ti_matrix,
                ws_matrix=built.resources.ws_matrix,
                value_ranges=dict(built.resources.value_ranges),
                type_i_columns=list(built.resources.type_i_columns),
                product_keys=list(built.resources.product_keys),
            ),
        )
    rebuilt = AnswerService(pipeline)
    try:
        for name in DOMAIN_NAMES:
            after = [
                _result_signature(
                    rebuilt.answer(AnswerRequest(question=text, domain=name))
                )
                for text in questions[name]
            ]
            assert after == live[name], f"answer drift in domain {name!r}"
    finally:
        rebuilt.close()
