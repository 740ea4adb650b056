"""The database catalog: named tables, one per ads domain."""

from __future__ import annotations

from typing import Callable, Iterator

from repro.db.schema import TableSchema
from repro.db.table import MutationEvent, Table
from repro.errors import UnknownTableError

__all__ = ["Database"]


class Database:
    """A named collection of :class:`~repro.db.table.Table` objects.

    The paper stores "a table in the DB for each domain"
    (Section 4.1); this catalog is what the SQL executor resolves
    table names against.  Names are case-insensitive, and spaces are
    treated as underscores so the paper's ``Car Ads`` example resolves
    to a ``car_ads`` table.

    Catalog-level mutation listeners (:meth:`add_listener`) receive
    every table's :class:`~repro.db.table.MutationEvent`, including
    tables created after subscription — this is what the fragment and
    answer caches hang their auto-invalidation on.

    An optional storage backend (``storage=`` /
    :meth:`attach_storage`) observes the same stream plus a
    table-creation hook and makes it durable; the default stays pure
    in-memory (see :mod:`repro.store`).
    """

    def __init__(self, storage=None) -> None:
        self._tables: dict[str, Table] = {}
        #: The durability backend, or ``None`` for pure in-memory.
        self._storage = None
        #: Catalog-level listeners, attached to every current and
        #: future table.
        self._listeners: list[Callable[[MutationEvent], None]] = []
        if storage is not None:
            self.attach_storage(storage)

    @staticmethod
    def _canonical(name: str) -> str:
        return name.strip().lower().replace(" ", "_")

    @property
    def storage(self):
        """The attached storage backend, or ``None`` (in-memory)."""
        return self._storage

    def attach_storage(self, storage, *, attached: bool = False) -> None:
        """Wire *storage* as this catalog's durability backend.

        The backend subscribes to the full delta stream (its listener
        covers current and future tables) and gets
        ``on_create_table`` for configuration that deltas cannot
        carry.  One backend per catalog; ``attached=True`` skips the
        ``storage.attach(self)`` call for the recovery path, which
        subscribes the backend first (it needs the resume generation)
        and only then registers it here.
        """
        if self._storage is not None:
            raise ValueError("database already has a storage backend")
        self._storage = storage
        if not attached:
            storage.attach(self)

    def add_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Subscribe *listener* to mutations of every table.

        Tables created after this call are covered too; listeners run
        synchronously on the mutating thread.
        """
        self._listeners.append(listener)
        for table in self._tables.values():
            table.add_listener(listener)

    def remove_listener(self, listener: Callable[[MutationEvent], None]) -> None:
        """Unsubscribe *listener* everywhere; unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass
        for table in self._tables.values():
            table.remove_listener(listener)

    def create_table(
        self,
        schema: TableSchema,
        substring_gram: int = 3,
        *,
        shards: int | None = None,
    ) -> Table:
        """Create and register a table for *schema*; name must be new.

        With ``shards`` the catalog registers a
        :class:`repro.shard.table.ShardedTable` facade instead of a
        plain table: records partition across that many shards by a
        fixed hash of the record id
        (:func:`repro.shard.partition.shard_of`) and every read
        scatters and gathers behind the same surface.  ``shards=1`` is
        a valid degenerate facade (the parity battery uses it);
        ``None`` keeps the seed's single table.  Catalog listeners
        attach to the facade, which relays every shard's typed
        mutation deltas re-stamped with the aggregated epoch, the
        owning shard's index and that shard's own epoch.
        """
        name = self._canonical(schema.table_name)
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        if shards is None:
            table = Table(schema, substring_gram=substring_gram)
        else:
            # Imported lazily: the shard facade builds on repro.db.table,
            # so a module-level import here would cycle the db package.
            from repro.shard.table import ShardedTable

            table = ShardedTable(schema, shards, substring_gram=substring_gram)
        for listener in self._listeners:
            table.add_listener(listener)
        self._tables[name] = table
        if self._storage is not None:
            # After registration, before any row can exist: the logged
            # create frame always precedes the table's insert frames.
            self._storage.on_create_table(
                table, substring_gram=substring_gram, shards=shards
            )
        return table

    def drop_table(self, name: str) -> None:
        """Remove the table from the catalog — and tell every listener.

        Dropping is a mutation like any other: catalog listeners get a
        ``kind="drop"`` event (``record_id=-1``) so the fragment and
        answer caches sweep the dead table's entries and a storage
        backend logs the drop — without this, a recreated same-name
        table could be served results cached from the dropped one.
        Catalog listeners are then detached from the dead table object
        (mutating a stale reference no longer reaches the caches).
        """
        canonical = self._canonical(name)
        table = self._tables.pop(canonical, None)
        if table is None:
            raise UnknownTableError(name)
        event = MutationEvent(table, "drop", -1, table.epoch)
        for listener in list(self._listeners):
            listener(event)
        for listener in self._listeners:
            table.remove_listener(listener)

    def table(self, name: str) -> Table:
        canonical = self._canonical(name)
        try:
            return self._tables[canonical]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        return self._canonical(name) in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables.keys())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

