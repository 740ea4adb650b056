"""Near-duplicate ad detection (future work item (iv) of Section 6).

Ads websites carry reposts: the same car listed twice with a slightly
different price or a retyped description.  The paper lists
"de-duplication of data to remove similar data records from a DB" as
future work; this module implements it over the Type I/II/III model:

* records are *blocked* by their Type I identity (two ads for
  different products are never duplicates), keeping the comparison
  near-linear;
* within a block, two records are duplicates when every Type II value
  matches (missing values are wildcards) and every numeric value is
  within ``numeric_tolerance`` of the attribute's observed range.

``find_duplicate_groups`` reports the groups; ``deduplicate`` removes
all but the earliest record of each group.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.db.table import Record, Table

__all__ = ["DuplicateGroup", "find_duplicate_groups", "deduplicate"]

DEFAULT_TOLERANCE = 0.02  # 2% of the column's observed range


@dataclass(frozen=True)
class DuplicateGroup:
    """One set of mutually-duplicate records (ids ascending)."""

    record_ids: tuple[int, ...]

    @property
    def keeper(self) -> int:
        """The record that survives deduplication (the earliest)."""
        return self.record_ids[0]

    @property
    def removable(self) -> tuple[int, ...]:
        return self.record_ids[1:]


def _identity_key(table: Table, record: Record) -> tuple[str, ...]:
    return tuple(
        str(record.get(column.name, "") or "")
        for column in table.schema.type_i_columns
    )


def _numeric_tolerances(table: Table, fraction: float) -> dict[str, float]:
    tolerances: dict[str, float] = {}
    for column in table.schema.numeric_columns:
        values = [
            float(record[column.name])
            for record in table
            if record.get(column.name) is not None
        ]
        span = (max(values) - min(values)) if values else 0.0
        tolerances[column.name] = max(span * fraction, 1e-9)
    return tolerances


def _same_ad(
    table: Table,
    a: Record,
    b: Record,
    tolerances: dict[str, float],
) -> bool:
    for column in table.schema.type_ii_columns:
        value_a = a.get(column.name)
        value_b = b.get(column.name)
        if value_a is None or value_b is None:
            continue  # a missing property never contradicts
        if value_a != value_b:
            return False
    for column in table.schema.numeric_columns:
        value_a = a.get(column.name)
        value_b = b.get(column.name)
        if value_a is None or value_b is None:
            continue
        if abs(float(value_a) - float(value_b)) > tolerances[column.name]:
            return False
    return True


def find_duplicate_groups(
    table: Table, numeric_tolerance: float = DEFAULT_TOLERANCE
) -> list[DuplicateGroup]:
    """All near-duplicate groups in *table*, smallest keeper id first."""
    blocks: dict[tuple[str, ...], list[Record]] = defaultdict(list)
    for record in table:
        blocks[_identity_key(table, record)].append(record)
    tolerances = _numeric_tolerances(table, numeric_tolerance)
    groups: list[DuplicateGroup] = []
    for block in blocks.values():
        if len(block) < 2:
            continue
        block.sort(key=lambda record: record.record_id)
        assigned: set[int] = set()
        for i, seed in enumerate(block):
            if seed.record_id in assigned:
                continue
            members = [seed.record_id]
            for other in block[i + 1 :]:
                if other.record_id in assigned:
                    continue
                if _same_ad(table, seed, other, tolerances):
                    members.append(other.record_id)
                    assigned.add(other.record_id)
            if len(members) > 1:
                assigned.add(seed.record_id)
                groups.append(DuplicateGroup(tuple(members)))
    groups.sort(key=lambda group: group.keeper)
    return groups


def deduplicate(
    table: Table, numeric_tolerance: float = DEFAULT_TOLERANCE
) -> int:
    """Remove near-duplicates from *table*; returns the removal count.

    Deletion goes through :meth:`~repro.db.table.Table.remove_many`,
    so cache-invalidation listeners run once for the whole sweep
    instead of once per removed record.
    """
    return table.remove_many(
        record_id
        for group in find_duplicate_groups(table, numeric_tolerance)
        for record_id in group.removable
    )
