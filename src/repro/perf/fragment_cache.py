"""Cross-question fragment cache: relaxation-unit id-sets as bitmaps,
caught up on read.

The shared-subplan engine (:mod:`repro.perf.subplan`) evaluates each
relaxation unit's WHERE fragment once *per question*.  Real workloads
repeat criteria across different questions — "price < 10000" and
"make = toyota" appear in thousands of distinct queries — so this
cache memoizes the id-sets themselves::

    (table, shard index or None, scoring unit) -> (epoch, Fragment)

:class:`~repro.ranking.rank_sim.ScoringUnit` is a frozen dataclass of
frozen :class:`~repro.qa.conditions.Condition` tuples, so the unit is
its own fingerprint: two questions that constrain the same column the
same way hit the same entry.  A plain table's entries carry shard
``None`` and the table's epoch; a sharded table (:mod:`repro.shard`)
stores one entry per shard, each carrying its shard's **own** epoch,
so a mutation to one shard leaves the other shards' entries current.
Entries key on the table object, not its name: a table dropped and
re-created under the same name starts a new epoch sequence, and its
log must never patch the old table's sets.

**A fragment is a bitmap.**  :class:`Fragment` keeps a unit's matching
ids as one Python ``int`` whose bit *i* is set when record id *i*
matches — about rows/8 bytes, where a ``set`` of a few thousand ids
costs some 80 KB — and fragments combine with C-level ``&`` and ``|``.
Record ids need not be dense (``Table.insert(values, record_id=...)``
takes any unused int), so only ids in ``0 <= id < dense_limit(table)``
(eight per table row) go into the bitmap; any other matching id is
kept in a small ``extra`` frozenset beside it, and no fragment grows
past O(rows) bytes whatever ids its table holds.  Fragments are
immutable: every change makes a new one, so a consumer holding a
fragment never sees it move.

**Entries catch up on read.**  An entry records the epoch of the last
delta it reflects.  :meth:`FragmentCache.get` replays the table's (or
shard's) delta log since then
(:meth:`~repro.db.table.Table.deltas_since`): each touched record is
tested against the unit and, where its membership changed, its bit is
toggled (``bits ^ 1 << record_id``), and the entry moves to the newest
epoch.  An update that changes none of the unit's columns cannot
change its membership and is skipped.  When the log cannot bridge the
gap the lookup is a miss, and the caller re-evaluates the unit and
stores the fresh fragment with :meth:`~FragmentCache.put`.  A write
costs this cache nothing; a unit that is never asked again never pays
for the writes it missed.

The per-record test runs the executor's own compiled WHERE tree for
the unit (:func:`repro.db.sql.executor.compile_where` over
:func:`repro.perf.subplan.unit_expression`, compiled once per unit),
so a patched fragment is by construction what ``eval_where`` would
return; the randomized mutation-storm battery in
``tests/test_incremental.py`` holds every patched fragment, decoded,
to a fresh evaluation.
"""

from __future__ import annotations

import heapq
import sys
import threading
from itertools import compress
from typing import TYPE_CHECKING, Collection, Iterator

from repro.db.sql.builder import QueryBuilder
from repro.db.sql.executor import Compiled, compile_where
from repro.db.table import RemoveDelta, Table, UpdateDelta
from repro.obs.hooks import cache_event, register_fragment_cache_gauges
from repro.perf.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.ranking.rank_sim import ScoringUnit

__all__ = ["Fragment", "FragmentCache", "dense_limit"]

#: Generous default: a unit fragment is about a KB at 8,000 rows, and
#: distinct criteria per domain number in the hundreds.
DEFAULT_CAPACITY = 4096

_NO_IDS: frozenset[int] = frozenset()
#: ``bin()`` digits to the 0/1 bytes :func:`itertools.compress` selects by.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def dense_limit(table) -> int:
    """The bitmap range of a fragment over *table*: ids in
    ``0 <= id < dense_limit(table)`` are bits, any other id is an
    ``extra``.  Eight ids per row keeps a bitmap within about one byte
    per row; a sharded table's shards share the facade's range."""
    return 8 * (len(table) + 8)


class Fragment:
    """An immutable id-set: bit *i* of ``bits`` is set when record id *i*
    is a member, and ``extra`` holds the members outside the dense
    range the fragment was built with (negative ids, or ids past
    :func:`dense_limit`).  No id is in both."""

    __slots__ = ("bits", "extra")

    def __init__(self, bits: int = 0, extra: frozenset[int] = _NO_IDS) -> None:
        self.bits = bits
        self.extra = extra

    @classmethod
    def of(cls, ids: Collection[int], limit: int) -> "Fragment":
        """The fragment of *ids*, with ids in ``0 <= id < limit`` as bits."""
        if not ids:
            return cls()
        extra = _NO_IDS
        high = max(ids)
        if min(ids) < 0 or high >= limit:
            extra = frozenset(i for i in ids if not 0 <= i < limit)
            ids = [i for i in ids if 0 <= i < limit]
            if not ids:
                return cls(0, extra)
            high = max(ids)
        digits = bytearray(b"0") * (high + 1)
        for record_id in ids:
            digits[record_id] = 49  # ord("1"); digit i is bit i for now
        digits.reverse()
        return cls(int(digits, 2), extra)

    def __contains__(self, record_id: int) -> bool:
        if record_id >= 0 and self.bits >> record_id & 1:
            return True
        return record_id in self.extra

    def __and__(self, other: "Fragment") -> "Fragment":
        bits = self.bits & other.bits
        if not (self.extra or other.extra):
            return Fragment(bits)
        # An extra of one side may be a bit of the other (their dense
        # ranges differ): keep it wherever the other side holds it.
        extra = frozenset(
            [i for i in self.extra if i in other]
            + [i for i in other.extra if i in self]
        )
        return Fragment(bits, extra)

    def __or__(self, other: "Fragment") -> "Fragment":
        bits = self.bits | other.bits
        if not (self.extra or other.extra):
            return Fragment(bits)
        extra = frozenset(
            i for i in self.extra | other.extra if not (i >= 0 and bits >> i & 1)
        )
        return Fragment(bits, extra)

    def __len__(self) -> int:
        return self.bits.bit_count() + len(self.extra)

    def __iter__(self) -> Iterator[int]:
        """The member ids, ascending, decoded as they are read."""
        if self.extra:
            return heapq.merge(_bit_positions(self.bits), sorted(self.extra))
        return _bit_positions(self.bits)

    def ids(self) -> list[int]:
        """Every member id, ascending."""
        bits = self.bits
        if self.extra or bits.bit_count() * 8 < bits.bit_length():
            return list(self)
        # Dense: one C-level pass over the digits beats a find per id.
        flags = bin(bits)[:1:-1].encode().translate(_DIGIT_FLAGS)
        return list(compress(range(len(flags)), flags))

    def with_record(self, record_id: int, member: bool, limit: int) -> "Fragment":
        """This fragment with *record_id* in it (*member*) or out of it;
        ``self`` when its membership already agrees.  A new id goes
        into the bitmap when ``0 <= record_id < limit``."""
        bits, extra = self.bits, self.extra
        if record_id >= 0 and bits >> record_id & 1:
            return self if member else Fragment(bits ^ 1 << record_id, extra)
        if record_id in extra:
            return self if member else Fragment(bits, extra - {record_id})
        if not member:
            return self
        if 0 <= record_id < limit:
            return Fragment(bits ^ 1 << record_id, extra)
        return Fragment(bits, extra | {record_id})

    def __sizeof__(self) -> int:
        """Deep: the object, its bitmap and its extras."""
        size = object.__sizeof__(self) + sys.getsizeof(self.bits)
        if self.extra:
            size += sys.getsizeof(self.extra) + sum(map(sys.getsizeof, self.extra))
        return size

    def __repr__(self) -> str:
        return f"Fragment({self.ids()!r})"


def _bit_positions(bits: int) -> Iterator[int]:
    """The set bits of *bits*, lowest first."""
    digits = bin(bits)[:1:-1]  # bit 0 first, without the "0b"
    find = digits.find
    position = find("1")
    while position >= 0:
        yield position
        position = find("1", position + 1)


class FragmentCache:
    """Bounded LRU of ``(table, shard, unit) -> (epoch, Fragment)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._entries = LRUCache(capacity)
        #: ``(table name, unit) -> (schema, compiled WHERE tree, the
        #: unit's columns)``: what catch-up tests touched records with.
        #: The schema check recompiles for a table re-created under the
        #: same name.
        self._trees: dict[
            tuple[str, "ScoringUnit"], tuple[object, Compiled, frozenset[str]]
        ] = {}
        #: Lookups served (caught up if need be) and lookups the caller
        #: had to evaluate; counted under ``_count_lock`` because
        #: requests answered on several threads look up concurrently.
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()
        register_fragment_cache_gauges(self)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._entries.capacity

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)

    def fragments(self) -> list[Fragment]:
        """A snapshot of the stored fragments (oldest first)."""
        return [fragment for _epoch, fragment in self._entries.values()]

    def nbytes(self) -> int:
        """The stored fragments' summed ``sys.getsizeof``."""
        return sum(map(sys.getsizeof, self.fragments()))

    # ------------------------------------------------------------------
    def get(
        self, table: Table, shard: int | None, unit: "ScoringUnit"
    ) -> Fragment | None:
        """*unit*'s fragment over *table* — over shard *shard* of a
        sharded table — caught up to the newest state, or ``None`` (a
        miss)."""
        key = (table, shard, unit)
        entry = self._entries.get(key)
        fragment = None
        if entry is not None:
            epoch, fragment = entry  # type: ignore[misc]
            source = table if shard is None else table.shards[shard]
            if epoch != source.epoch:
                fragment = self._caught_up(key, table, source, epoch, fragment)
        hit = fragment is not None
        with self._count_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        cache_event("fragment", hit)
        return fragment

    def put(
        self,
        table: Table,
        shard: int | None,
        unit: "ScoringUnit",
        epoch: int,
        fragment: Fragment,
    ) -> None:
        """Store *fragment*, evaluated at *epoch* (read before evaluating)."""
        self._entries.put((table, shard, unit), (epoch, fragment))

    def invalidate(self, table_name: str | None = None) -> int:
        """Drop entries for *table_name* (all tables when ``None``);
        returns the number dropped.  A dropped table's entries can no
        longer be looked up, so this only frees them."""
        if table_name is None:
            return self._entries.clear()
        return self._entries.pop_where(
            lambda key, _value: key[0].name == table_name  # type: ignore[index]
        )

    # ------------------------------------------------------------------
    def _caught_up(
        self,
        key: tuple,
        table: Table,
        source: Table,
        epoch: int,
        fragment: Fragment,
    ) -> Fragment | None:
        """*fragment* patched forward from *source*'s delta log and
        stored under the newest epoch, or ``None`` when the log cannot
        bridge the gap."""
        deltas = source.deltas_since(epoch)
        if deltas is None:
            return None
        _name, _shard, unit = key
        tree, columns = self._unit_tree(table, unit)
        limit = dense_limit(table)
        for delta in deltas:
            if isinstance(delta, UpdateDelta) and columns.isdisjoint(
                delta.changed_columns
            ):
                continue  # no column the unit reads changed
            member = not isinstance(delta, RemoveDelta) and tree.matches(
                delta.record
            )
            fragment = fragment.with_record(delta.record_id, member, limit)
        self._entries.put(key, (deltas[-1].epoch, fragment))
        return fragment

    def _unit_tree(
        self, table: Table, unit: "ScoringUnit"
    ) -> tuple[Compiled, frozenset[str]]:
        """*unit*'s WHERE tree as the executor compiles it, and the
        columns its conditions read (schema names are lowercase, and
        the tree resolves a column case-insensitively), memoized."""
        key = (table.name, unit)
        cached = self._trees.get(key)
        if cached is not None and cached[0] is table.schema:
            return cached[1], cached[2]
        # Imported here, not at module top: subplan imports the qa
        # package, whose pipeline imports this module — a load-time
        # cycle.
        from repro.perf.subplan import unit_expression

        tree = compile_where(table, unit_expression(QueryBuilder(table.name), unit))
        columns = frozenset(condition.column.lower() for condition in unit.conditions)
        if len(self._trees) >= self.capacity:
            self._trees = {}  # cheap reset; trees recompile on use
        self._trees[key] = (table.schema, tree, columns)
        return tree, columns
