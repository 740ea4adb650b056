"""Index structures for the ads database.

Section 4.1.1 maps the attribute types onto index kinds: Type I columns
are primary-indexed, Type II columns secondary-indexed, Type III
columns range-searchable.  This module provides the two table-owned
index families:

* :class:`HashIndex` — exact-match lookup for categorical values
  (primary and secondary indexes share the implementation; the
  distinction in the paper is about which columns get one);
* :class:`NullIndex` — the ids whose column is NULL.

Section 4.5 adds "a primary MySQL substring index of length 3 on all
the attributes" to speed up substring matching.  Here the hash index
answers substring matching itself: its keys are the column's distinct
stored strings, so a ``LIKE`` pattern is tested once per distinct
value and the matching buckets are unioned
(:meth:`HashIndex.lookup_matching`).  An ads column has few distinct
values next to its rows (the synthetic cars domain has 39 models at
500 ads and at 8,000), so that walk costs about what a gram index's
lookup did, about a tenth of a scan (``PERFORMANCE.md``), and no
write pays for grams that CQAds' generated SQL, which never issues
``LIKE``, would not read.

Type III columns are range-searchable through the ordered column
windows of :mod:`repro.perf.window`, the one sorted structure a
numeric column has.  All indexes map values to sets of integer record
ids; the :class:`repro.db.table.Table` owns them and keeps them
consistent on insert, delete and update.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

__all__ = ["HashIndex", "NullIndex"]


class NullIndex:
    """Ids whose column is NULL (absent key or explicit ``None``).

    The `!=` and NULL-semantics branches of the SQL executor used to
    re-scan the whole table to find NULL rows on every evaluation; this
    set makes that O(1).  Maintained by the table alongside the other
    index families on every insert/delete/update.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._ids: set[int] = set()

    def add(self, record_id: int) -> None:
        self._ids.add(record_id)

    def discard(self, record_id: int) -> None:
        self._ids.discard(record_id)

    def ids(self) -> set[int]:
        """The live NULL-id set — callers must treat it as read-only."""
        return self._ids

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._ids

    def __len__(self) -> int:
        return len(self._ids)


class HashIndex:
    """Exact-match index: value -> set of record ids.

    Values are stored as given; the table lowercases categorical values
    before they get here, so lookups are effectively case-insensitive.
    """

    def __init__(self, column: str) -> None:
        self.column = column
        self._buckets: dict[object, set[int]] = defaultdict(set)

    def add(self, value: object, record_id: int) -> None:
        if value is not None:
            self._buckets[value].add(record_id)

    def remove(self, value: object, record_id: int) -> None:
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(record_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: object) -> set[int]:
        """Record ids whose column equals *value* (empty set if none)."""
        return set(self._buckets.get(value, ()))

    def lookup_matching(self, test: Callable[[object], bool]) -> set[int]:
        """Record ids whose value passes *test*, which runs once per
        distinct value (the matching buckets are unioned)."""
        ids: set[int] = set()
        # list() copies in one C-level step, so a concurrent writer
        # cannot resize the dict mid-walk.
        for value, bucket in list(self._buckets.items()):
            if test(value):
                ids |= bucket
        return ids

    def distinct_values(self) -> list[object]:
        """All distinct indexed values (used for supertuples in AIMQ)."""
        return list(self._buckets.keys())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
