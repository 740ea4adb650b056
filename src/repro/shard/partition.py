"""Record-to-shard placement: one fixed hash of the record id.

:func:`shard_of` decides, from nothing but a record's stable id, which
of a :class:`~repro.shard.table.ShardedTable`'s N shards stores the
record.  Keeping the input to the decision that small is what makes
every scatter operation cheap: any layer holding a record id can route
to the owning shard without consulting a directory, and the placement
never moves (record ids are never reused and the shard count is fixed
for the table's lifetime, so a shard assignment is permanent for the
record's lifetime).

The contract:

* **deterministic** — ``shard_of(record_id, n)`` always returns the
  same value for the same arguments; the facade routes every
  delete/update/fetch through it, and snapshot recovery checks each
  restored record against it;
* **total** — every id maps to ``0 <= shard < shard_count``.
"""

from __future__ import annotations

__all__ = ["shard_of"]

#: Knuth's 32-bit multiplicative hashing constant (2**32 / phi).
_GOLDEN = 0x9E3779B1
_MASK = 0xFFFFFFFF


def shard_of(record_id: int, shard_count: int) -> int:
    """The owning shard of *record_id* among *shard_count* shards.

    Sequential ids (what :class:`~repro.db.table.Table` mints) are
    scrambled through Knuth's golden-ratio constant before the modulo,
    so hot id ranges (a bulk load, a burst of fresh ads) spread across
    shards instead of filling one shard at a time.
    """
    # Multiplying by an odd constant leaves the low bits unmixed (bit 0
    # of the product is bit 0 of the id), and a small modulo reads
    # exactly those bits — so fold the well-mixed high half down before
    # reducing.
    scrambled = (record_id * _GOLDEN) & _MASK
    return ((scrambled >> 16) ^ scrambled) % shard_count
