"""Durable storage (:mod:`repro.store`): WAL, snapshots, recovery.

The contract under test, in three layers:

* **frames** — length-prefixed CRC32 JSON records; a reader walks the
  valid prefix and stops at the first torn/corrupt frame;
* **the backend** — every typed mutation delta becomes WAL frames,
  periodic atomic snapshots rotate the generation, and recovery
  (newest valid snapshot + WAL-tail replay) reproduces the database
  **bit-for-bit** (records, indexes, epochs, id allocators — the
  :func:`~repro.store.parity.database_fingerprint` definition);
* **the catalog** — ``drop_table`` is a mutation like any other
  (satellite: listeners detached, plan/fragment/answer caches swept,
  drop-then-recreate never serves stale state).

Randomized crash schedules live in ``test_store_faults.py``; this file
covers the deterministic surface.
"""

from __future__ import annotations

import io
import os

import pytest

from repro.api import AnswerRequest, AnswerService, SystemBuilder
from repro.db.database import Database
from repro.db.table import MutationEvent
from repro.errors import ReproError, StorageError, UnknownTableError
from repro.perf.answer_cache import AnswerCache
from repro.qa.pipeline import CQAds
from repro.store import (
    FileSystem,
    MemoryBackend,
    StorageBackend,
    WalBackend,
    database_fingerprint,
    open_database,
    recover_database,
)
from repro.store.codec import (
    apply_frame,
    create_frame,
    restore_table,
    table_frame,
)
from repro.store.faults import FaultPlan, FaultyFS, Transient
from repro.store.snapshot import (
    list_generations,
    snapshot_path,
    wal_path,
)
from repro.store.wal import (
    MAX_FRAME_BYTES,
    WalWriter,
    encode_frame,
    read_frames,
    scan_frames,
)
from repro.system import build_system
from tests.conftest import SMALL_CAR_ROWS, small_car_schema


def fingerprint(database: Database) -> str:
    return database_fingerprint(database)


def mutate_a_little(table) -> None:
    """A representative mutation mix: single rows, batches, updates
    (including a no-op update, which still bumps the epoch), deletes."""
    records = table.insert_many(
        [dict(row) for row in SMALL_CAR_ROWS]
    )
    table.update(records[0].record_id, {"price": 7777})
    table.update(records[1].record_id, {})  # no-op: epoch-only
    table.delete(records[2].record_id)
    table.remove_many([records[3].record_id, records[4].record_id])
    table.insert({"make": "saab", "model": "9-3", "price": 4100})


# ----------------------------------------------------------------------
# frames: the valid-prefix contract
# ----------------------------------------------------------------------
class TestFrames:
    def test_round_trip_preserves_payload_and_order(self):
        payloads = [{"t": "ins", "id": 1, "v": {"a": 1, "b": None}},
                    {"t": "del", "id": 2}]
        blob = b"".join(encode_frame(p) for p in payloads)
        scan = scan_frames(io.BytesIO(blob))
        assert scan.frames == payloads
        assert scan.valid_bytes == len(blob)
        assert scan.damage is None

    def test_torn_header_truncates(self):
        blob = encode_frame({"t": "del", "id": 1}) + b"\x00\x01"
        scan = scan_frames(io.BytesIO(blob))
        assert scan.frames == [{"t": "del", "id": 1}]
        assert scan.damage == "torn header"
        assert scan.valid_bytes == len(encode_frame({"t": "del", "id": 1}))

    def test_torn_body_truncates(self):
        whole = encode_frame({"t": "del", "id": 7})
        scan = scan_frames(io.BytesIO(whole + whole[:-3]))
        assert scan.frames == [{"t": "del", "id": 7}]
        assert scan.damage == "torn body"

    def test_checksum_mismatch_truncates(self):
        frame = bytearray(encode_frame({"t": "del", "id": 9}))
        frame[-1] ^= 0xFF  # corrupt the body, keep the length intact
        scan = scan_frames(io.BytesIO(bytes(frame)))
        assert scan.frames == [] and scan.damage == "bad checksum"
        assert scan.valid_bytes == 0

    def test_absurd_length_is_corruption_not_data(self):
        import struct

        header = struct.pack(">II", MAX_FRAME_BYTES + 1, 0)
        scan = scan_frames(io.BytesIO(header + b"x" * 64))
        assert scan.damage == "bad length" and scan.frames == []

    def test_checksummed_garbage_still_truncates(self):
        import struct
        import zlib

        body = b"\xff\xfe"  # invalid UTF-8, valid CRC
        header = struct.pack(">II", len(body), zlib.crc32(body) & 0xFFFFFFFF)
        scan = scan_frames(io.BytesIO(header + body))
        assert scan.damage == "undecodable body" and scan.frames == []


# ----------------------------------------------------------------------
# the WAL writer: policies and transient-error retry
# ----------------------------------------------------------------------
class TestWalWriter:
    def test_appends_are_readable_and_position_advances(self, tmp_path):
        fs = FileSystem()
        path = str(tmp_path / "wal.log")
        writer = WalWriter(fs, path, fsync="always")
        writer.append({"t": "del", "id": 1})
        writer.append({"t": "del", "id": 2})
        assert writer.frames_appended == 2
        assert writer.position > 0
        writer.close()
        scan = read_frames(fs, path)
        assert [f["id"] for f in scan.frames] == [1, 2]
        assert scan.valid_bytes == writer.position

    def test_interval_policy_syncs_on_the_clock(self, tmp_path):
        clock = {"now": 0.0}
        syncs = []

        class CountingFS(FileSystem):
            def fsync(self, handle):
                syncs.append(clock["now"])
                super().fsync(handle)

        writer = WalWriter(
            CountingFS(),
            str(tmp_path / "wal.log"),
            fsync="interval",
            fsync_interval_s=1.0,
            clock=lambda: clock["now"],
        )
        writer.append({"t": "del", "id": 1})  # within the interval
        assert syncs == []
        clock["now"] = 1.5
        writer.append({"t": "del", "id": 2})  # interval elapsed
        assert len(syncs) == 1

    def test_off_policy_never_syncs_on_append(self, tmp_path):
        calls = []

        class CountingFS(FileSystem):
            def fsync(self, handle):
                calls.append(1)
                super().fsync(handle)

        writer = WalWriter(
            CountingFS(), str(tmp_path / "wal.log"), fsync="off"
        )
        for index in range(10):
            writer.append({"t": "del", "id": index})
        writer.close()
        assert calls == []  # close under "off" skips the final sync too

    def test_transient_error_rewinds_and_retries(self, tmp_path):
        plan = FaultPlan({2: Transient()})  # second write fails halfway
        fs = FaultyFS(FileSystem(), plan)
        writer = WalWriter(
            fs, str(tmp_path / "wal.log"), fsync="off",
            sleep=lambda seconds: None,
        )
        writer.append({"t": "del", "id": 1})
        writer.append({"t": "del", "id": 2})  # retried internally
        writer.close()
        assert writer.retries == 1
        scan = read_frames(FileSystem(), str(tmp_path / "wal.log"))
        assert scan.damage is None  # the partial first attempt was cut
        assert [f["id"] for f in scan.frames] == [1, 2]

    def test_exhausted_retry_budget_raises_storage_error(self, tmp_path):
        plan = FaultPlan({1: Transient(), 2: Transient(), 3: Transient()})
        writer = WalWriter(
            FaultyFS(FileSystem(), plan),
            str(tmp_path / "wal.log"),
            fsync="off",
            retry_attempts=2,
            sleep=lambda seconds: None,
        )
        with pytest.raises(StorageError, match="after 3 attempts"):
            writer.append({"t": "del", "id": 1})

    def test_resume_position_truncates_the_damaged_tail(self, tmp_path):
        fs = FileSystem()
        path = str(tmp_path / "wal.log")
        writer = WalWriter(fs, path, fsync="off")
        writer.append({"t": "del", "id": 1})
        good = writer.position
        writer.close()
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef")  # torn garbage tail
        resumed = WalWriter(fs, path, position=good, fsync="off")
        resumed.append({"t": "del", "id": 2})
        resumed.close()
        scan = read_frames(fs, path)
        assert scan.damage is None
        assert [f["id"] for f in scan.frames] == [1, 2]

    def test_rejects_unknown_policy(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WalWriter(FileSystem(), str(tmp_path / "w.log"), fsync="maybe")


# ----------------------------------------------------------------------
# backend round trips: recovered state is bit-identical
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_plain_table_recovers_bit_identical(self, tmp_path):
        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        mutate_a_little(database.create_table(small_car_schema()))
        database.storage.close()
        recovered, report = recover_database(directory)
        assert fingerprint(recovered) == fingerprint(database)
        assert report.truncated == {}
        assert report.records == len(database.table("car_ads"))

    def test_sharded_table_recovers_bit_identical(self, tmp_path):
        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        table = database.create_table(small_car_schema(), shards=3)
        mutate_a_little(table)
        database.storage.snapshot()
        table.insert({"make": "fiat", "model": "500", "price": 3000})
        database.storage.close()
        recovered, report = recover_database(directory)
        assert fingerprint(recovered) == fingerprint(database)
        # Configuration survived, not just rows.
        rebuilt = recovered.table("car_ads")
        assert rebuilt.shard_count == 3
        # Every live id is reachable through the routed reads and
        # writes, not merely present in some shard's image.
        live_ids = sorted(table.all_ids())
        assert sorted(rebuilt.all_ids()) == live_ids
        assert [r.record_id for r in rebuilt.fetch(live_ids)] == live_ids
        for record_id in live_ids:
            assert dict(rebuilt.get(record_id)) == dict(table.get(record_id))
            rebuilt.delete(record_id)
        assert len(rebuilt) == 0

    def test_frames_carrying_a_gram_length_still_recover(self, tmp_path):
        """Frames written while tables kept a substring index carry its
        gram length as ``"gram"``, right after ``"schema"``.  A WAL and
        a snapshot holding such frames recover bit-identically; new
        frames omit the key."""
        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        table = database.create_table(small_car_schema(), shards=3)
        mutate_a_little(table)
        database.storage.snapshot()
        table.update(1, {"color": None, "transmission": "manual"})
        database.storage.close()

        def with_gram(frame: dict) -> dict:
            if frame["t"] not in ("create", "table"):
                return frame
            assert "gram" not in frame
            old: dict = {}
            for key, value in frame.items():
                old[key] = value
                if key == "schema":
                    old["gram"] = 2
            return old

        fs = FileSystem()
        rewritten = 0
        for name in sorted(os.listdir(directory)):
            path = f"{directory}/{name}"
            frames = [with_gram(frame) for frame in read_frames(fs, path).frames]
            rewritten += sum(1 for frame in frames if "gram" in frame)
            with open(path, "wb") as handle:
                handle.write(b"".join(encode_frame(frame) for frame in frames))
        assert rewritten == 2  # wal-000000's create, the snapshot's table

        # Snapshot image + WAL tail, then the full WAL history alone.
        recovered, report = recover_database(directory)
        assert report.snapshot is not None
        assert fingerprint(recovered) == fingerprint(database)
        os.remove(snapshot_path(directory, report.base_generation))
        replayed, report = recover_database(directory)
        assert report.snapshot is None
        assert fingerprint(replayed) == fingerprint(database)
        assert replayed.table("car_ads").shard_count == 3

    def test_restore_rejects_a_record_on_the_wrong_shard(self):
        table = Database().create_table(small_car_schema(), shards=2)
        table.insert_many(dict(row) for row in SMALL_CAR_ROWS)
        frame = table_frame(table)
        home = table.shard_of(1)
        images = frame["shard_images"]
        entry = next(e for e in images[home]["records"] if e[0] == 1)
        images[home]["records"].remove(entry)
        images[1 - home]["records"].append(entry)
        # Loaded as written, record 1 would sit where no read looks.
        with pytest.raises(StorageError, match="record 1 "):
            restore_table(Database(), frame)
        frame = table_frame(table)
        frame["shard_images"].pop()
        with pytest.raises(StorageError, match="declares 2 shards"):
            restore_table(Database(), frame)

    def test_only_hash_placement_frames_load(self):
        table = Database().create_table(small_car_schema(), shards=2)
        with pytest.raises(StorageError, match="'modulo'"):
            apply_frame(
                Database(), {**create_frame(table), "partitioner": "modulo"}
            )
        # Frames that name the hash, or no placement at all, load.
        for frame in ({**create_frame(table), "partitioner": "hash"},
                      create_frame(table)):
            database = Database()
            apply_frame(database, frame)
            assert database.table("car_ads").shard_count == 2

    def test_drop_and_recreate_replay(self, tmp_path):
        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        first = database.create_table(small_car_schema())
        first.insert(dict(SMALL_CAR_ROWS[0]))
        database.drop_table("car_ads")
        second = database.create_table(small_car_schema(), shards=2)
        second.insert(dict(SMALL_CAR_ROWS[1]))
        database.storage.close()
        recovered, _ = recover_database(directory)
        assert fingerprint(recovered) == fingerprint(database)
        assert recovered.table("car_ads").shard_count == 2

    def test_open_database_resumes_appending(self, tmp_path):
        directory = str(tmp_path / "store")
        database, backend, report = open_database(directory, fsync="off")
        assert report is None  # fresh directory
        mutate_a_little(database.create_table(small_car_schema()))
        backend.close()
        reopened, backend, report = open_database(directory, fsync="off")
        assert report is not None
        assert fingerprint(reopened) == fingerprint(database)
        reopened.table("car_ads").insert(
            {"make": "vw", "model": "golf", "price": 5200}
        )
        backend.snapshot()
        backend.close()
        final, report = recover_database(directory)
        assert fingerprint(final) == fingerprint(reopened)
        assert report.base_generation == report.generation  # snapshot base


# ----------------------------------------------------------------------
# snapshots: rotation, fallback, cleanup
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_auto_snapshot_rotates_and_retires_generations(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = WalBackend(
            directory, fsync="off", snapshot_every=10, keep_generations=1
        )
        database = Database(storage=backend)
        table = database.create_table(small_car_schema())
        for index in range(45):
            table.insert(
                {"make": "honda", "model": "fit", "price": 1000 + index}
            )
        assert backend.stats.snapshots_written >= 3
        snapshots, wals = list_generations(FileSystem(), directory)
        # Retention: current and previous generation pairs only.
        assert snapshots == [backend.generation - 1, backend.generation]
        assert wals == [backend.generation - 1, backend.generation]
        backend.close()
        recovered, report = recover_database(directory)
        assert fingerprint(recovered) == fingerprint(database)
        assert report.base_generation == backend.generation

    def test_corrupt_newest_snapshot_falls_back_a_generation(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = WalBackend(directory, fsync="off", snapshot_every=None)
        database = Database(storage=backend)
        table = database.create_table(small_car_schema())
        table.insert(dict(SMALL_CAR_ROWS[0]))
        backend.snapshot()  # generation 1
        table.insert(dict(SMALL_CAR_ROWS[1]))
        backend.snapshot()  # generation 2
        table.insert(dict(SMALL_CAR_ROWS[2]))
        backend.close()
        newest = snapshot_path(directory, 2)
        blob = bytearray(open(newest, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(newest, "wb") as handle:
            handle.write(bytes(blob))
        recovered, report = recover_database(directory)
        # The older snapshot plus BOTH newer WALs reproduce everything:
        # a corrupt snapshot costs replay time, never data.
        assert fingerprint(recovered) == fingerprint(database)
        assert report.base_generation == 1
        assert len(report.snapshots_rejected) == 1
        assert wal_path(directory, 1) in report.wals_replayed
        assert wal_path(directory, 2) in report.wals_replayed

    def test_misplacing_newest_snapshot_falls_back_a_generation(
        self, tmp_path
    ):
        """A checksum-clean snapshot that puts a record on the wrong
        shard is rejected like a corrupt one; the older generation and
        the WAL chain still reproduce the live database."""
        directory = str(tmp_path / "store")
        backend = WalBackend(directory, fsync="off", snapshot_every=None)
        database = Database(storage=backend)
        table = database.create_table(small_car_schema(), shards=2)
        table.insert_many(dict(row) for row in SMALL_CAR_ROWS[:4])
        backend.snapshot()  # generation 1
        table.insert_many(dict(row) for row in SMALL_CAR_ROWS[4:])
        backend.snapshot()  # generation 2
        table.delete(2)
        backend.close()
        newest = snapshot_path(directory, 2)
        frames = read_frames(FileSystem(), newest).frames
        images = frames[1]["shard_images"]
        home = table.shard_of(1)
        entry = next(e for e in images[home]["records"] if e[0] == 1)
        images[home]["records"].remove(entry)
        images[1 - home]["records"].append(entry)
        with open(newest, "wb") as handle:
            handle.write(b"".join(encode_frame(frame) for frame in frames))
        recovered, report = recover_database(directory)
        assert fingerprint(recovered) == fingerprint(database)
        assert report.base_generation == 1
        assert len(report.snapshots_rejected) == 1
        assert "record 1 " in report.snapshots_rejected[0]
        assert recovered.table("car_ads").get(1) is not None

    def test_unloggable_event_forces_an_immediate_snapshot(self, tmp_path):
        directory = str(tmp_path / "store")
        backend = WalBackend(directory, fsync="off", snapshot_every=None)
        database = Database(storage=backend)
        table = database.create_table(small_car_schema())
        table.insert(dict(SMALL_CAR_ROWS[0]))
        before = backend.stats.snapshots_written
        # A hand-built untyped event has no frame representation; the
        # backend must capture the state some other way — a snapshot.
        table._emit(MutationEvent(table, "mystery", -1, table.epoch))
        assert backend.stats.unloggable_events == 1
        assert backend.stats.snapshots_written == before + 1
        backend.close()
        recovered, _ = recover_database(directory)
        assert fingerprint(recovered) == fingerprint(database)

    def test_stray_tmp_files_are_reclaimed_on_attach(self, tmp_path):
        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        database.create_table(small_car_schema())
        database.storage.close()
        stray = snapshot_path(directory, 9) + ".tmp"
        with open(stray, "wb") as handle:
            handle.write(b"half a snapshot")
        _, backend, _ = open_database(directory, fsync="off")
        backend.close()
        assert not FileSystem().exists(stray)


# ----------------------------------------------------------------------
# recovery edges
# ----------------------------------------------------------------------
class TestRecovery:
    def test_torn_wal_tail_is_truncated_and_writable_again(self, tmp_path):
        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        table = database.create_table(small_car_schema())
        table.insert(dict(SMALL_CAR_ROWS[0]))
        database.storage.close()
        live = fingerprint(database)
        path = wal_path(directory, 0)
        clean_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(encode_frame({"t": "del"})[:5])  # torn append
        recovered, report = recover_database(directory)
        assert fingerprint(recovered) == live
        assert report.truncated == {path: ("torn header", clean_size)}
        # repair=True cut the file, so a resumed writer appends cleanly.
        reopened, backend, _ = open_database(directory, fsync="off")
        reopened.table("car_ads").insert(dict(SMALL_CAR_ROWS[1]))
        backend.close()
        final, report = recover_database(directory)
        assert report.truncated == {}
        assert len(final.table("car_ads")) == 2

    def test_no_repair_reports_without_touching_the_file(self, tmp_path):
        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        database.create_table(small_car_schema())
        database.storage.close()
        path = wal_path(directory, 0)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        size_before = len(open(path, "rb").read())
        _, report = recover_database(directory, repair=False)
        assert path in report.truncated
        assert len(open(path, "rb").read()) == size_before

    def test_empty_directory_has_nothing_to_recover(self, tmp_path):
        with pytest.raises(StorageError, match="nothing to recover"):
            recover_database(str(tmp_path / "void"))

    def test_unreachable_history_raises(self, tmp_path):
        # A WAL chain that does not start at generation 0 and has no
        # loadable snapshot cannot reproduce the database.
        directory = str(tmp_path / "store")
        FileSystem().makedirs(directory)
        with open(wal_path(directory, 3), "wb") as handle:
            handle.write(encode_frame({"t": "del", "table": "x", "id": 1}))
        with pytest.raises(StorageError, match="no loadable snapshot"):
            recover_database(directory)


# ----------------------------------------------------------------------
# lifecycle and the backend protocol
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_fresh_attach_refuses_a_directory_with_state(self, tmp_path):
        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        database.create_table(small_car_schema())
        database.storage.close()
        with pytest.raises(StorageError, match="open_database"):
            Database(storage=WalBackend(directory, fsync="off"))

    def test_closed_backend_makes_further_mutations_raise(self, tmp_path):
        database = Database(
            storage=WalBackend(str(tmp_path / "store"), fsync="off")
        )
        table = database.create_table(small_car_schema())
        table.insert(dict(SMALL_CAR_ROWS[0]))
        database.storage.close()
        database.storage.close()  # idempotent
        # The catalog listener was removed with the backend, so normal
        # row mutations keep working in memory...
        table.insert(dict(SMALL_CAR_ROWS[1]))
        # ...but creating a table still consults the dead storage.
        schema = small_car_schema()
        schema = type(schema)(
            table_name="other_ads", columns=schema.columns
        )
        with pytest.raises(StorageError, match="closed"):
            database.create_table(schema)

    def test_one_backend_per_database(self, tmp_path):
        database = Database(
            storage=WalBackend(str(tmp_path / "a"), fsync="off")
        )
        with pytest.raises(ValueError, match="already has a storage"):
            database.attach_storage(WalBackend(str(tmp_path / "b")))
        database.storage.close()

    def test_memory_backend_satisfies_the_protocol(self):
        assert isinstance(MemoryBackend(), StorageBackend)
        assert isinstance(WalBackend("/nonexistent"), StorageBackend)
        database = Database(storage=MemoryBackend())
        table = database.create_table(small_car_schema())
        table.insert(dict(SMALL_CAR_ROWS[0]))  # no-op durability
        database.storage.close()
        table.insert(dict(SMALL_CAR_ROWS[1]))  # still fine

    def test_keep_generations_must_leave_a_fallback(self):
        with pytest.raises(ValueError, match="keep_generations"):
            WalBackend("/tmp/x", keep_generations=0)


# ----------------------------------------------------------------------
# wiring: build_system, SystemBuilder, BuiltSystem
# ----------------------------------------------------------------------
class TestWiring:
    def test_build_system_accepts_a_directory_path(self, tmp_path):
        directory = tmp_path / "store"
        system = build_system(
            ["cars"],
            ads_per_domain=15,
            sessions_per_domain=20,
            corpus_documents=20,
            storage=directory,  # PathLike -> WalBackend
        )
        assert isinstance(system.storage, WalBackend)
        live = fingerprint(system.database)
        system.close()  # closes the backend too
        recovered, report = recover_database(str(directory))
        assert fingerprint(recovered) == live
        assert report.records == 15

    def test_builder_storage_builds_a_fresh_backend_per_build(
        self, tmp_path
    ):
        builder = (
            SystemBuilder()
            .with_domains("cars")
            .ads_per_domain(10)
            .sessions_per_domain(20)
            .corpus_documents(20)
            .storage(str(tmp_path / "one"), fsync="off", snapshot_every=None)
        )
        first = builder.build()
        assert first.storage is not None
        assert first.storage.fsync_policy == "off"
        first.close()
        # Re-pointing and rebuilding opens an independent backend.
        builder.storage(str(tmp_path / "two"), fsync="off")
        second = builder.build()
        assert second.storage.directory == str(tmp_path / "two")
        second.close()
        assert fingerprint(
            recover_database(str(tmp_path / "one"))[0]
        ) == fingerprint(recover_database(str(tmp_path / "two"))[0])

    def test_builder_accepts_a_backend_instance_once(self, tmp_path):
        backend = WalBackend(str(tmp_path / "store"), fsync="off")
        builder = (
            SystemBuilder()
            .with_domains("cars")
            .ads_per_domain(8)
            .sessions_per_domain(20)
            .corpus_documents(20)
            .storage(backend)
        )
        system = builder.build()
        assert system.storage is backend
        system.close()
        rebuild = builder.build()  # the instance was consumed
        assert rebuild.storage is None
        rebuild.close()

    def test_builder_rejects_options_with_an_instance(self, tmp_path):
        backend = WalBackend(str(tmp_path / "store"))
        with pytest.raises(TypeError, match="storage options"):
            SystemBuilder().storage(backend, fsync="off")

    def test_builder_storage_none_clears(self, tmp_path):
        builder = SystemBuilder().storage(str(tmp_path / "store"))
        builder.storage(None)
        assert builder._storage_for_build() is None

    @pytest.mark.parametrize(
        "reject",
        [
            lambda builder: builder.max_answers(0),
            lambda builder: builder.shards(0),
            lambda builder: builder.with_domains("cars", "no_such_domain"),
        ],
        ids=["max_answers=0", "shards=0", "unknown-domain"],
    )
    def test_rejected_build_leaves_the_directory_untouched(self, tmp_path, reject):
        """A build that fails on its recipe writes nothing, so the same
        directory takes a good build afterwards."""
        directory = tmp_path / "store"
        directory.mkdir()

        def builder():
            return (
                SystemBuilder()
                .with_domains("cars")
                .ads_per_domain(8)
                .sessions_per_domain(20)
                .corpus_documents(20)
                .storage(str(directory), fsync="off")
            )

        with pytest.raises((ValueError, ReproError)):
            reject(builder()).build()
        assert list(directory.iterdir()) == []
        system = builder().build()
        try:
            assert system.storage.directory == str(directory)
            assert len(system.database.table("car_ads")) == 8
        finally:
            system.close()
        assert recover_database(str(directory))[1].records == 8


# ----------------------------------------------------------------------
# satellite: drop_table is a real mutation
# ----------------------------------------------------------------------
class TestDropTable:
    def test_drop_emits_a_catalog_event_and_detaches_listeners(self):
        database = Database()
        table = database.create_table(small_car_schema())
        events = []
        database.add_listener(events.append)
        database.drop_table("car_ads")
        assert [e.kind for e in events] == ["drop"]
        assert events[0].table is table and events[0].record_id == -1
        # Catalog listeners were detached from the dead object: a
        # stale-reference mutation no longer reaches them.
        table.insert(dict(SMALL_CAR_ROWS[0]))
        assert [e.kind for e in events] == ["drop"]

    def test_drop_unknown_table_raises(self):
        with pytest.raises(UnknownTableError):
            Database().drop_table("ghost_ads")

    def test_drop_sweeps_fragment_cache_and_detaches_resources(self):
        database = Database()
        table = database.create_table(small_car_schema())
        table.insert_many([dict(row) for row in SMALL_CAR_ROWS])
        cqads = CQAds(database)
        cache = cqads.fragment_cache
        assert cache is not None
        from repro.db.sql.executor import SQLExecutor
        from repro.perf.subplan import unit_id_sets
        from repro.qa.conditions import Condition, ConditionOp
        from repro.db.schema import AttributeType
        from repro.ranking.rank_sim import ScoringUnit

        unit = ScoringUnit(conditions=(
            Condition("make", AttributeType.TYPE_I, ConditionOp.EQ, "honda"),
        ))
        unit_id_sets(SQLExecutor(database), table, [unit], cache)
        assert len(cache) == 1
        database.drop_table("car_ads")
        # Wholesale sweep: a recreated table restarts its epochs, so
        # epoch-keyed staleness checks cannot be trusted across a drop.
        assert len(cache) == 0

    def test_drop_then_recreate_never_serves_stale_answers(self):
        system = build_system(
            ["cars"],
            ads_per_domain=30,
            sessions_per_domain=40,
            corpus_documents=40,
        )
        service = AnswerService(system.cqads, cache=AnswerCache(16))
        request = AnswerRequest(
            question="honda accord blue", domain="cars"
        )
        before = service.answer(request)
        assert service.answer(request).timings["cache"] is True
        table_name = system.cqads.domain("cars").schema.table_name
        old_table = system.database.table(table_name)
        rows = [dict(record) for record in old_table.snapshot()]
        system.database.drop_table(table_name)
        # Recreate under the same name with one matching row removed.
        schema = old_table.schema
        fresh = system.database.create_table(schema)
        gone = {
            answer.record.record_id for answer in before.answers
        }
        for record, row in zip(old_table.snapshot(), rows):
            if record.record_id not in gone:
                fresh.insert(row, record_id=record.record_id)
        after = service.answer(request)
        assert after.timings["cache"] is False  # never the stale entry
        answered = {a.record.record_id for a in after.answers}
        assert not (answered & gone)
        service.close()

    def test_drop_on_durable_database_is_logged(self, tmp_path):
        directory = str(tmp_path / "store")
        database = Database(storage=WalBackend(directory, fsync="off"))
        table = database.create_table(small_car_schema())
        table.insert(dict(SMALL_CAR_ROWS[0]))
        database.drop_table("car_ads")
        database.storage.close()
        recovered, _ = recover_database(directory)
        assert len(recovered) == 0
        assert fingerprint(recovered) == fingerprint(database)


# ----------------------------------------------------------------------
# CLI: snapshot / recover subcommands
# ----------------------------------------------------------------------
class TestCli:
    def _seed_directory(self, directory: str) -> str:
        database = Database(storage=WalBackend(directory, fsync="off"))
        mutate_a_little(database.create_table(small_car_schema()))
        database.storage.close()
        return fingerprint(database)

    def test_recover_prints_report_and_fingerprint(self, tmp_path, capsys):
        from repro.__main__ import main

        directory = str(tmp_path / "store")
        live = self._seed_directory(directory)
        assert main(["recover", directory, "--verify"]) == 0
        out = capsys.readouterr().out
        assert live in out
        assert directory in out

    def test_recover_json_payload(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        directory = str(tmp_path / "store")
        self._seed_directory(directory)
        assert main(["recover", directory, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directory"] == directory
        assert payload["tables"] == 1
        assert payload["frames_replayed"] > 0

    def test_recover_missing_directory_fails_cleanly(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["recover", str(tmp_path / "void")]) == 1
        assert "recovery failed" in capsys.readouterr().err

    def test_snapshot_rotates_an_existing_directory(self, tmp_path, capsys):
        from repro.__main__ import main

        directory = str(tmp_path / "store")
        live = self._seed_directory(directory)
        assert main(["snapshot", directory, "--fsync", "off"]) == 0
        assert "generation:  1" in capsys.readouterr().out
        snapshots, _ = list_generations(FileSystem(), directory)
        assert snapshots == [1]
        recovered, report = recover_database(directory)
        assert fingerprint(recovered) == live
        assert report.base_generation == 1
