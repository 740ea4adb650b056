"""Storage backends: the protocol, the in-memory default, and the WAL.

A :class:`StorageBackend` hangs off the :class:`~repro.db.database.
Database` catalog and observes the typed delta stream the tables
emit to listeners (:meth:`Database.add_listener` →
:meth:`Table._emit`): the deltas *are* the log records.  The
default remains pure in-memory — a ``Database()`` without a backend
behaves byte-identically to before, and :class:`MemoryBackend` exists
only to make "no durability" an explicit choice with the same surface.

:class:`WalBackend` makes the stream durable:

* every typed delta becomes one (or, for batches, several) checksummed
  WAL frame(s) appended under the configured fsync policy;
* every ``snapshot_every`` frames — or on demand — the whole database
  is snapshotted atomically and the log rotates to the next
  generation, bounding replay time;
* an event that cannot be expressed as frames (an untyped event, or an
  alien shard-level batch whose per-row deltas the facade could not
  re-stamp) forces an immediate synchronous snapshot instead, so the
  on-disk state never silently diverges from memory.

Restart is :func:`repro.store.recovery.open_database`: recover from
the newest valid snapshot plus the WAL tail, then attach a fresh
backend that resumes appending where the valid prefix ended.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.db.table import MutationEvent
from repro.errors import StorageError
from repro.obs.hooks import wal_op
from repro.store.codec import create_frame, frames_for_event
from repro.store.fs import FileSystem
from repro.store.snapshot import (
    list_generations,
    snapshot_path,
    wal_path,
    write_snapshot,
)
from repro.store.wal import WalWriter

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.db.database import Database

__all__ = ["MemoryBackend", "StorageBackend", "WalBackend", "WalStats"]


@runtime_checkable
class StorageBackend(Protocol):
    """What the catalog requires of a storage backend.

    ``attach`` is called once, by :meth:`Database.attach_storage` (or
    the ``Database(storage=...)`` constructor); it is where the backend
    subscribes to the delta stream.  ``on_create_table`` fires after a
    table is registered but before it can hold rows, so the backend
    can log the configuration that mere deltas cannot reconstruct
    (schema and shard count).  ``close``
    releases file handles; further mutations on a closed backend are
    an error.
    """

    def attach(self, database: "Database") -> None: ...  # pragma: no cover

    def on_create_table(self, table, *, shards: int | None) -> None: ...  # pragma: no cover

    def close(self) -> None: ...  # pragma: no cover


class MemoryBackend:
    """The explicit no-durability backend (the default, spelled out)."""

    def __init__(self) -> None:
        self.database: "Database | None" = None

    def attach(self, database: "Database") -> None:
        self.database = database

    def on_create_table(self, table, *, shards: int | None) -> None:
        pass

    def close(self) -> None:
        pass


@dataclass
class WalStats:
    """Counters a :class:`WalBackend` accumulates (diagnostics/benches)."""

    frames_appended: int = 0
    events_logged: int = 0
    snapshots_written: int = 0
    #: Events with no frame representation — each forced a snapshot.
    unloggable_events: int = 0
    append_retries: int = 0
    _extra: dict = field(default_factory=dict, repr=False)

    def as_dict(self) -> dict:
        return {
            "frames_appended": self.frames_appended,
            "events_logged": self.events_logged,
            "snapshots_written": self.snapshots_written,
            "unloggable_events": self.unloggable_events,
            "append_retries": self.append_retries,
        }


class WalBackend:
    """Durable storage: delta WAL + generation-numbered snapshots.

    Parameters
    ----------
    directory:
        Where ``wal-NNNNNN.log`` / ``snapshot-NNNNNN.snap`` live
        (created on attach).
    fsync / fsync_interval_s:
        The append durability policy — see
        :class:`~repro.store.wal.WalWriter`.
    snapshot_every:
        Rotate after this many appended frames (``None`` disables
        automatic snapshots; :meth:`snapshot` still works).
    keep_generations:
        Retired snapshot/WAL pairs to retain beyond the current one
        (>= 1, so recovery can always fall back past a corrupt newest
        snapshot).
    retry_attempts / retry_backoff_s:
        Transient-``OSError`` retry budget for WAL appends.
    fs:
        Filesystem implementation; tests inject
        :class:`~repro.store.faults.FaultyFS`.
    """

    def __init__(
        self,
        directory,
        *,
        fsync: str = "interval",
        fsync_interval_s: float = 0.05,
        snapshot_every: int | None = 1024,
        keep_generations: int = 1,
        retry_attempts: int = 4,
        retry_backoff_s: float = 0.001,
        fs: FileSystem | None = None,
    ) -> None:
        if keep_generations < 1:
            raise ValueError("keep_generations must be >= 1")
        self.directory = str(directory)
        self.fsync_policy = fsync
        self.fsync_interval_s = fsync_interval_s
        self.snapshot_every = snapshot_every
        self.keep_generations = keep_generations
        self.retry_attempts = retry_attempts
        self.retry_backoff_s = retry_backoff_s
        self._fs = fs if fs is not None else FileSystem()
        self._lock = threading.RLock()
        self._database: "Database | None" = None
        self._writer: WalWriter | None = None
        self._generation = 0
        self._frames_since_snapshot = 0
        self._closed = False
        self.stats = WalStats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(
        self, database: "Database", *, generation: int | None = None,
        wal_position: int | None = None,
    ) -> None:
        """Subscribe to *database* and start (or resume) the log.

        Fresh directories start at generation 0 with an empty WAL.
        After recovery, :func:`~repro.store.recovery.open_database`
        passes the resume *generation* and the *wal_position* where the
        valid prefix ended, so appends continue the same file (the
        damaged tail, if any, is truncated at that position).  Tables
        already present in *database* (the recovered ones) are adopted
        as-is — their configuration is re-derived from the live
        objects when the next snapshot needs it.
        """
        if self._database is not None:
            raise StorageError("WalBackend is already attached")
        self._fs.makedirs(self.directory)
        if generation is None:
            snapshots, wals = list_generations(self._fs, self.directory)
            if snapshots or wals:
                raise StorageError(
                    f"storage directory {self.directory!r} holds existing "
                    "state; recover it with repro.store.open_database() "
                    "instead of attaching a fresh backend"
                )
            generation = 0
        self._remove_stray_tmp_files()
        self._database = database
        self._generation = generation
        self._writer = self._open_writer(generation, wal_position)
        database.add_listener(self._on_mutation)

    def _remove_stray_tmp_files(self) -> None:
        # A crash between snapshot write and rename leaves a .tmp that
        # no reader ever looks at; reclaim it.
        if not self._fs.exists(self.directory):
            return
        for name in self._fs.listdir(self.directory):
            if name.endswith(".tmp"):
                try:
                    self._fs.remove(f"{self.directory}/{name}")
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def _open_writer(
        self, generation: int, position: int | None = None
    ) -> WalWriter:
        return WalWriter(
            self._fs,
            wal_path(self.directory, generation),
            position=position,
            fsync=self.fsync_policy,
            fsync_interval_s=self.fsync_interval_s,
            retry_attempts=self.retry_attempts,
            retry_backoff_s=self.retry_backoff_s,
        )

    @property
    def generation(self) -> int:
        return self._generation

    def close(self) -> None:
        """Flush and close the log (idempotent).  The attached database
        stays usable in memory; further mutations raise."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._database is not None:
                self._database.remove_listener(self._on_mutation)
            if self._writer is not None:
                self._writer.close()

    # ------------------------------------------------------------------
    # the delta stream
    # ------------------------------------------------------------------
    def on_create_table(self, table, *, shards: int | None) -> None:
        with self._lock:
            self._append_frames([create_frame(table)])

    def _on_mutation(self, event: MutationEvent) -> None:
        with self._lock:
            frames = frames_for_event(event)
            if frames is None:
                # No frame representation: snapshot *now* so the event
                # is durable anyway.  This is the escape hatch for
                # alien shard-level batches (re-stamped with
                # ``deltas=()``) and hand-built untyped events.
                self.stats.unloggable_events += 1
                self._snapshot_locked()
                return
            self._append_frames(frames)
            self.stats.events_logged += 1
            if (
                self.snapshot_every is not None
                and self._frames_since_snapshot >= self.snapshot_every
            ):
                self._snapshot_locked()

    def _append_frames(self, frames: list[dict]) -> None:
        writer = self._require_writer()
        before = writer.retries
        for frame in frames:
            writer.append(frame)
        self.stats.append_retries += writer.retries - before
        self.stats.frames_appended += len(frames)
        self._frames_since_snapshot += len(frames)

    def _require_writer(self) -> WalWriter:
        if self._closed or self._writer is None:
            raise StorageError(
                "WalBackend is closed (or was never attached); the "
                "mutation reached a dead log"
            )
        return self._writer

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> str:
        """Write a snapshot now and rotate the WAL; returns its path."""
        with self._lock:
            self._require_writer()
            return self._snapshot_locked()

    def _snapshot_locked(self) -> str:
        assert self._database is not None and self._writer is not None
        generation = self._generation + 1
        with wal_op("snapshot", generation=generation):
            # Everything the snapshot covers must be on disk before the
            # snapshot claims to cover it.
            self._writer.sync()
            try:
                path = write_snapshot(
                    self._fs, self.directory, generation, self._database
                )
            except OSError as error:
                raise StorageError(
                    f"snapshot generation {generation} failed: {error}"
                ) from error
            self._writer.close()
            self._generation = generation
            self._writer = self._open_writer(generation)
            self._frames_since_snapshot = 0
            self.stats.snapshots_written += 1
            self._cleanup_locked()
        return path

    def _cleanup_locked(self) -> None:
        """Retire generations older than the fallback margin.

        Snapshot ``G`` composes with ``wal(G)``; falling back past a
        corrupt ``snapshot(G)`` needs ``snapshot(G-k)`` **and** every
        WAL from ``G-k`` on.  So both files are kept for the newest
        ``keep_generations + 1`` generations and removed before that.
        """
        floor = self._generation - self.keep_generations
        snapshots, wals = list_generations(self._fs, self.directory)
        for generation in snapshots:
            if generation < floor:
                self._try_remove(snapshot_path(self.directory, generation))
        for generation in wals:
            if generation < floor:
                self._try_remove(wal_path(self.directory, generation))

    def _try_remove(self, path: str) -> None:
        try:
            self._fs.remove(path)
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass
