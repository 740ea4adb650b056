"""A read-only list whose items are built on first read.

A question's ranking can hold thousands of candidates while the paper
presents at most 30 of them (Section 4.3.1); the rest are read only
when a caller pages past the cap.  :class:`LazyList` is the list such
rankings sit behind.  It behaves like a read-only ``list`` — ``len``,
indexing with negative indexes and ``IndexError`` past the end, slices
(stepped and empty ones too) returning plain lists, iteration, truth
and ``==`` against lists — while each item is built at most once, on
the first read of its position.

Builds run under one lock per list, so concurrent readers of a shared
result (the answer cache and ``answer_batch`` hand one result to many
callers) see the same object at each position.  A slice builds all
its unbuilt positions in one :meth:`LazyList._build_all` call, so a
page of answers costs one lock and one batch, not one per answer.
"""

from __future__ import annotations

import operator
import threading
from typing import Iterator, Sequence, TypeVar

__all__ = ["LazyList"]

T = TypeVar("T")

_MISSING = object()


class LazyList(Sequence[T]):
    """A fixed-length read-only list; subclasses define :meth:`_build_all`."""

    def __init__(self, length: int) -> None:
        self._length = length
        self._built: dict[int, T] = {}
        self._lock = threading.Lock()

    def _build_all(self, positions: list[int]) -> list[T]:
        """The items at *positions* (distinct, unbuilt, in range, in
        read order), built under the list's lock."""
        raise NotImplementedError

    def _item(self, position: int) -> T:
        item = self._built.get(position, _MISSING)
        return self._items([position])[0] if item is _MISSING else item  # type: ignore[return-value]

    def __len__(self) -> int:
        return self._length

    def _items(self, positions: Sequence[int]) -> list[T]:
        """The items at *positions* (in range), unbuilt ones in one batch."""
        built = self._built
        missing = [position for position in positions if position not in built]
        if missing:
            with self._lock:
                # Another reader may have built some of them meanwhile.
                missing = [position for position in missing if position not in built]
                if missing:
                    built.update(zip(missing, self._build_all(missing)))
        return [built[position] for position in positions]

    def __getitem__(self, key: int | slice) -> T | list[T]:  # type: ignore[override]
        if isinstance(key, slice):
            return self._items(range(*key.indices(self._length)))
        position = operator.index(key)
        if position < 0:
            position += self._length
        if not 0 <= position < self._length:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._item(position)

    def __iter__(self) -> Iterator[T]:
        return map(self._item, range(self._length))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, LazyList)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # unhashable, like list

    def __repr__(self) -> str:
        return repr(list(self))
