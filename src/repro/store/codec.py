"""JSON codecs between live database objects and WAL/snapshot frames.

Frame vocabulary (the ``"t"`` discriminator):

==========  =================================================================
``create``  a table was created: full schema and shard count
``drop``    a table was dropped
``ins``     one row inserted — global id + normalized values
``del``     one row deleted
``upd``     one row updated — the changed columns' new values (an empty
            ``v`` replays the no-op update, which still bumps the epoch)
``snap``    snapshot header: generation + covered epoch per table
``table``   one table's full image inside a snapshot; a sharded
            table's records are grouped by shard
``commit``  snapshot trailer; a snapshot without it is invalid
==========  =================================================================

A sharded table is placed by :func:`repro.shard.partition.shard_of`,
so the shard count is all a frame needs to route records.  Frames
written before placement was fixed may carry a ``"partitioner"`` key:
``"hash"`` is that same placement and loads; any other value raises
:class:`~repro.errors.StorageError`.  Frames written while tables
kept a substring index carry its gram length as ``"gram"``; it is
ignored on load.

Replay leans on two properties of the db layer: schema normalization
is **idempotent** (stored values re-validate to themselves, so a
round-trip through JSON and :meth:`Table.insert` reproduces records
bit-for-bit), and JSON objects preserve key order (so replayed records
keep their column order).  Epoch counters and id allocators are
restored explicitly, because bit-parity of the recovered database —
what the crash tests assert — includes them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.db.schema import AttributeType, Column, ColumnKind, TableSchema
from repro.db.table import (
    BatchDelta,
    InsertDelta,
    MutationEvent,
    RemoveDelta,
    Table,
    UpdateDelta,
)
from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.db.database import Database

__all__ = [
    "apply_frame",
    "create_frame",
    "frames_for_event",
    "restore_table",
    "schema_from_json",
    "schema_to_json",
    "table_frame",
    "table_meta_of",
]


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
def schema_to_json(schema: TableSchema) -> dict:
    return {
        "table_name": schema.table_name,
        "columns": [
            {
                "name": column.name,
                "type": column.attribute_type.value,
                "kind": column.kind.value,
                "unit_words": list(column.unit_words),
                "synonyms": list(column.synonyms),
                "valid_range": (
                    list(column.valid_range)
                    if column.valid_range is not None
                    else None
                ),
            }
            for column in schema.columns
        ],
    }


def schema_from_json(payload: dict) -> TableSchema:
    return TableSchema(
        table_name=payload["table_name"],
        columns=[
            Column(
                name=column["name"],
                attribute_type=AttributeType(column["type"]),
                kind=ColumnKind(column["kind"]),
                unit_words=tuple(column["unit_words"]),
                synonyms=tuple(column["synonyms"]),
                valid_range=(
                    tuple(column["valid_range"])
                    if column["valid_range"] is not None
                    else None
                ),
            )
            for column in payload["columns"]
        ],
    )


# ----------------------------------------------------------------------
# table configuration (what create_table needs besides the schema)
# ----------------------------------------------------------------------
def _check_placement(frame: dict) -> None:
    """Refuse a frame whose table was placed by anything but the hash."""
    spec = frame.get("partitioner")
    if spec is not None and spec != "hash":
        raise StorageError(
            f"table {frame['table']!r} was placed by partitioner "
            f"{spec!r}; only hash placement ('hash') can be loaded"
        )


def table_meta_of(table) -> dict:
    """The ``create``-frame configuration of a live table (or facade)."""
    return {
        "schema": schema_to_json(table.schema),
        "shards": getattr(table, "shard_count", None),
    }


def create_frame(table) -> dict:
    return {"t": "create", "table": table.name, **table_meta_of(table)}


# ----------------------------------------------------------------------
# deltas -> frames
# ----------------------------------------------------------------------
def frames_for_event(event: MutationEvent) -> list[dict] | None:
    """The WAL frames for one mutation event, or ``None`` when the
    event does not carry enough payload to replay (an untyped event, a
    payload-less delta, or a re-stamped alien shard batch whose per-row
    deltas were dropped) — the backend then falls back to an immediate
    snapshot, which captures the state the frames could not."""
    if isinstance(event, BatchDelta):
        if not event.deltas:
            return None
        frames: list[dict] = []
        for delta in event.deltas:
            sub = frames_for_event(delta)
            if sub is None:
                return None
            frames.extend(sub)
        return frames
    name = event.table.name
    if isinstance(event, InsertDelta):
        if event.record is None:
            return None
        return [
            {
                "t": "ins",
                "table": name,
                "id": event.record_id,
                "v": dict(event.record),
            }
        ]
    if isinstance(event, RemoveDelta):
        return [{"t": "del", "table": name, "id": event.record_id}]
    if isinstance(event, UpdateDelta):
        return [
            {
                "t": "upd",
                "table": name,
                "id": event.record_id,
                "v": dict(event.new_values),
            }
        ]
    if event.kind == "drop":
        return [{"t": "drop", "table": name}]
    return None


# ----------------------------------------------------------------------
# frames -> database
# ----------------------------------------------------------------------
def apply_frame(database: "Database", frame: dict) -> None:
    """Replay one WAL frame against *database* (recovery's inner loop)."""
    kind = frame["t"]
    if kind == "create":
        _check_placement(frame)
        database.create_table(
            schema_from_json(frame["schema"]), shards=frame["shards"]
        )
    elif kind == "drop":
        database.drop_table(frame["table"])
    elif kind == "ins":
        database.table(frame["table"]).insert(
            frame["v"], record_id=frame["id"]
        )
    elif kind == "del":
        database.table(frame["table"]).delete(frame["id"])
    elif kind == "upd":
        database.table(frame["table"]).update(frame["id"], frame["v"])
    else:
        raise StorageError(f"unknown WAL frame type {kind!r}")


# ----------------------------------------------------------------------
# snapshot table images
# ----------------------------------------------------------------------
def table_frame(table) -> dict:
    """One table's full snapshot image (records in insertion order).

    Sharded facades store records **per shard** so each shard's dict
    order — normally id-ascending, but explicit-id inserts can differ —
    survives the round trip exactly.
    """
    frame: dict = {"t": "table", "table": table.name, **table_meta_of(table)}
    shards = getattr(table, "shard_count", None)
    if shards is None:
        frame["epoch"] = table.epoch
        frame["next_id"] = table._next_id
        frame["records"] = [
            [record.record_id, dict(record)] for record in table.snapshot()
        ]
    else:
        frame["next_id"] = table._next_id
        frame["shards"] = shards
        frame["shard_images"] = [
            {
                "epoch": shard.epoch,
                "next_id": shard._next_id,
                "records": [
                    [record.record_id, dict(record)]
                    for record in shard.snapshot()
                ],
            }
            for shard in table.shards
        ]
    return frame


def restore_table(database: "Database", frame: dict) -> None:
    """Recreate one table in *database* from its snapshot image.

    Raises :class:`~repro.errors.StorageError` when a sharded image
    does not match hash placement — an image per shard, each record on
    the shard ``table.shard_of(id)`` names — because every read routes
    through that placement and would never find a misplaced record.
    """
    _check_placement(frame)
    shards = frame["shards"]
    if shards is not None and len(frame["shard_images"]) != shards:
        raise StorageError(
            f"table {frame['table']!r} declares {shards} shards but its "
            f"image holds {len(frame['shard_images'])}"
        )
    table = database.create_table(
        schema_from_json(frame["schema"]), shards=shards
    )
    if shards is None:
        for record_id, values in frame["records"]:
            table.insert(values, record_id=record_id)
        table._epoch = frame["epoch"]
        table._next_id = frame["next_id"]
        return
    for index, (shard, image) in enumerate(
        zip(table.shards, frame["shard_images"])
    ):
        for record_id, values in image["records"]:
            home = table.shard_of(record_id)
            if home != index:
                raise StorageError(
                    f"record {record_id} of table {frame['table']!r} is "
                    f"stored on shard {index}, but hash placement puts "
                    f"it on shard {home}"
                )
            # Straight into the owning shard, preserving its insertion
            # order; going through the facade would interleave the
            # per-shard orders.
            shard.insert(values, record_id=record_id)
        shard._epoch = image["epoch"]
        shard._next_id = image["next_id"]
    table._next_id = frame["next_id"]


def covered_epochs(database: "Database") -> dict[str, int]:
    """Per-table epoch at snapshot time (the snapshot header's claim
    of which mutations the image already contains)."""
    return {name: database.table(name).epoch for name in database.table_names()}
