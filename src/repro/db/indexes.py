"""Index structures for the ads database.

Section 4.1.1 maps the attribute types onto index kinds: Type I columns
are primary-indexed, Type II columns secondary-indexed, Type III
columns range-searchable.  Section 4.5 adds "a primary MySQL substring
index of length 3 on all the attributes" to speed up substring
matching.  This module provides the table-owned index families:

* :class:`HashIndex` — exact-match lookup for categorical values
  (primary and secondary indexes share the implementation; the
  distinction in the paper is about which columns get one);
* :class:`SubstringIndex` — length-``n`` (default 3) substring grams
  mapping to record ids, mirroring MySQL's prefix/substring index;
* :class:`NullIndex` — the ids whose column is NULL.

Type III columns are range-searchable through the ordered column
windows of :mod:`repro.perf.window`, the one sorted structure a
numeric column has.  All indexes map values to sets of integer record
ids; the :class:`repro.db.table.Table` owns them and keeps them
consistent on insert/delete.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

__all__ = ["HashIndex", "NullIndex", "SubstringIndex"]


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

    def distinct_values(self) -> list[object]:
        """All distinct indexed values (used for supertuples in AIMQ)."""
        return list(self._buckets.keys())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class SubstringIndex:
    """Length-``n`` substring-gram index, the paper's length-3 index.

    Every contiguous length-``n`` substring (gram) of an indexed string
    maps to the set of record ids containing it.  A substring query of
    length >= ``n`` intersects the gram postings and then verifies the
    candidates; shorter queries fall back to scanning the indexed
    strings (the caller handles verification either way, so the index
    only needs to be complete, never exact).
    """

    def __init__(self, column: str, gram_length: int = 3) -> None:
        if gram_length < 1:
            raise ValueError("gram_length must be >= 1")
        self.column = column
        self.gram_length = gram_length
        self._grams: dict[str, set[int]] = defaultdict(set)
        self._values: dict[int, str] = {}

    def _grams_of(self, text: str) -> Iterable[str]:
        n = self.gram_length
        if len(text) < n:
            # index short strings under themselves so they stay findable
            yield text
            return
        for i in range(len(text) - n + 1):
            yield text[i : i + n]

    def add(self, value: object, record_id: int) -> None:
        if value is None:
            return
        text = str(value).lower()
        self._values[record_id] = text
        for gram in self._grams_of(text):
            self._grams[gram].add(record_id)

    def remove(self, value: object, record_id: int) -> None:
        text = self._values.pop(record_id, None)
        if text is None:
            return
        for gram in set(self._grams_of(text)):
            bucket = self._grams.get(gram)
            if bucket is not None:
                bucket.discard(record_id)
                if not bucket:
                    del self._grams[gram]

    def candidates(self, needle: str) -> set[int]:
        """Superset of record ids whose value contains *needle*.

        Complete but not exact: callers must verify with an actual
        substring test.  For needles shorter than the gram length every
        indexed record is a candidate.
        """
        needle = needle.lower()
        if len(needle) < self.gram_length:
            return set(self._values.keys())
        result: set[int] | None = None
        for gram in self._grams_of(needle):
            posting = self._grams.get(gram, set())
            result = posting if result is None else result & posting
            if not result:
                return set()
        return result or set()

    def search(self, needle: str) -> set[int]:
        """Record ids whose indexed value contains *needle* (verified)."""
        needle = needle.lower()
        return {
            record_id
            for record_id in self.candidates(needle)
            if needle in self._values[record_id]
        }

    def __len__(self) -> int:
        return len(self._values)
