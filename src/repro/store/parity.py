"""Canonical state digests for recovery-parity assertions.

"Bit-parity" in the crash tests means: records (values **and** dict
order), the hash indexes' buckets, the NULL indexes' id sets, epoch
counters and id allocators are identical between the recovered
database and the uninterrupted oracle.  :func:`database_state` lowers
all of that into one JSON-serializable structure;
:func:`database_fingerprint` hashes it so a test (or
``python -m repro recover --verify``) can compare states without
holding both databases.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.db.database import Database

__all__ = ["database_fingerprint", "database_state", "table_state"]


def _index_state(table) -> dict:
    return {
        "hash": {
            name: sorted(
                (str(value), sorted(ids))
                for value, ids in index._buckets.items()
            )
            for name, index in sorted(table._hash_indexes.items())
        },
        "null": {
            name: sorted(index.ids())
            for name, index in sorted(table._null_indexes.items())
        },
    }


def table_state(table) -> dict:
    """The canonical state of one table (or sharded facade)."""
    shards = getattr(table, "shard_count", None)
    if shards is not None:
        return {
            "kind": "sharded",
            "name": table.name,
            "shard_count": shards,
            "next_id": table._next_id,
            "epoch": table.epoch,
            "shards": [table_state(shard) for shard in table.shards],
        }
    return {
        "kind": "table",
        "name": table.name,
        "epoch": table.epoch,
        "next_id": table._next_id,
        # list(record.items()) keeps dict order in the digest — a
        # recovered record with the same values in a different column
        # order is NOT parity (iteration-order-dependent consumers
        # would diverge).
        "records": [
            [record.record_id, list(record.items())]
            for record in table.snapshot()
        ],
        "indexes": _index_state(table),
    }


def database_state(database: "Database") -> dict:
    """The canonical state of every table, keyed by catalog name."""
    return {
        name: table_state(database.table(name))
        for name in database.table_names()
    }


def database_fingerprint(database: "Database") -> str:
    """SHA-256 over the canonical state (stable across processes)."""
    payload = json.dumps(
        database_state(database), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
