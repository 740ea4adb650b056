"""Cross-question fragment cache: relaxation-unit id-sets by epoch.

The shared-subplan engine (:mod:`repro.perf.subplan`) evaluates each
relaxation unit's WHERE fragment once *per question*.  Real workloads
repeat criteria across different questions — "price < 10000" and
"make = toyota" appear in thousands of distinct queries — so this
cache memoizes the id-sets themselves, keyed on::

    (table name, table epoch, scoring unit)

:class:`~repro.ranking.rank_sim.ScoringUnit` is a frozen dataclass of
frozen :class:`~repro.qa.conditions.Condition` tuples, so the unit is
its own fingerprint: two questions that constrain the same column the
same way hit the same entry.

The epoch slot is any hashable version tag.  Plain tables use their
integer epoch; sharded tables (:mod:`repro.shard`) store one entry
per shard keyed ``(shard index, shard epoch)`` under the facade's
table name, so a mutation to one shard leaves the other shards'
fragments live — :meth:`FragmentCache.invalidate_stale` sweeps only
the entries whose version tag is no longer current.

**Invalidation is by versioning, not by hand.**  Every table mutation
bumps the table's epoch (:mod:`repro.db.table`), so entries computed
against an older state can never be looked up again — a stale hit is
structurally impossible.  :class:`~repro.qa.pipeline.CQAds`
additionally subscribes a database mutation listener that calls
:meth:`FragmentCache.absorb`, which **patches** every live entry
forward to the new epoch — the touched record is re-evaluated against
each cached unit's conditions and its id is added to or discarded from
the cached id-set — instead of dropping the whole generation.  The
epoch sweep (:meth:`FragmentCache.invalidate` /
:meth:`FragmentCache.invalidate_stale`) is the fallback for any delta
the cache cannot absorb (untyped events, batch deltas without row
payloads, bulk loads past :data:`MAX_ABSORB_ROWS`).

The per-record re-evaluation (:func:`condition_matches`) mirrors the
**SQL executor's** leaf semantics, not Rank_Sim's
``condition_satisfied`` — the two differ on NULLs under ``!=`` (the
executor's complement sets include NULL rows) — because the cached
sets were produced by ``eval_where``.  Stored values are schema-
normalized (lowercased strings, ``int``/``float`` numerics), which is
what makes an exact mirror tractable; the randomized mutation-storm
battery in ``tests/test_incremental.py`` holds patched sets
bit-identical to re-evaluated ones.

Cached id-sets are shared between the cache and every consumer;
callers must treat them as immutable — :meth:`absorb` therefore
patches copy-on-write (a membership change allocates a fresh set; an
untouched entry is re-keyed without copying).

The ordered-window access path (:mod:`repro.perf.window`) changes
nothing here by design: ``eval_where`` materializes every cached
fragment into a plain id-set regardless of whether a leaf was
answered by a scan, an index lookup or a bisected window, so
window-computed range fragments enter the cache in the same shape as
always and :meth:`absorb` patches them forward identically.  The
windows themselves version by table/shard epoch on their own
(:class:`~repro.perf.window.TableWindows` splices the same typed
deltas this cache absorbs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Hashable

from repro.db.table import (
    BatchDelta,
    InsertDelta,
    MutationEvent,
    RemoveDelta,
    UpdateDelta,
)
from repro.errors import SchemaError
from repro.perf.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.db.schema import TableSchema
    from repro.db.table import Record
    from repro.qa.conditions import Condition
    from repro.ranking.rank_sim import ScoringUnit

__all__ = ["FragmentCache", "condition_matches", "unit_matches"]

#: Generous default: a unit id-set is a few KB at paper scale, and
#: distinct criteria per domain number in the hundreds.
DEFAULT_CAPACITY = 4096

#: Bulk deltas beyond this many rows are not absorbed — patching is
#: O(cached entries x batch rows) on the mutating thread, so past this
#: point the O(cache) generation sweep (and a lazy re-evaluation per
#: unit on next use) is strictly cheaper.  Mirrors
#: ``RankingResources.MAX_PENDING_DELTAS``: bulk loads invalidate
#: once instead of patching row-by-row, keeping ``insert_many``'s
#: "bulk loads stay linear" contract.
MAX_ABSORB_ROWS = 256


# ----------------------------------------------------------------------
# per-record mirror of the SQL executor's leaf semantics
# ----------------------------------------------------------------------
def condition_matches(
    schema: "TableSchema", condition: "Condition", record: "Record"
) -> bool | None:
    """Would ``eval_where`` include *record* in *condition*'s id-set?

    ``None`` means the mirror cannot answer (unknown column, a numeric
    target the executor would have rejected) — every such shape makes
    the executor *raise*, so a unit containing it can never have been
    cached; callers treat ``None`` as "drop the entry, recompute on
    miss".  Semantics mirrored exactly (``tests/test_incremental.py``):

    * numeric ``!=`` is the complement of the ``=`` range, so NULL
      rows **match** (unlike ``condition_satisfied``);
    * categorical ``!=`` complements ``matched | NULLs``, so NULL rows
      do not match;
    * every other operator fails on a NULL stored value;
    * a NULL *target* (``col = NULL`` / ``col != NULL``) matches the
      NULL-stored rows / their complement, before any numeric
      parsing — exactly the executor's dedicated NULL branch.
    """
    # Imported here, not at module top: the qa package's __init__ pulls
    # the pipeline, which imports this module — a load-time cycle.
    from repro.qa.conditions import ConditionOp

    try:
        column = schema.column(condition.column)
    except SchemaError:
        return None
    stored = record.get(column.name)
    op = condition.op
    if op is ConditionOp.BETWEEN:
        if not column.is_numeric:
            return None  # executor raises: BETWEEN needs numeric
        low, high = condition.value  # type: ignore[misc]
        try:
            low_f, high_f = float(low), float(high)
        except (TypeError, ValueError):
            return None  # executor raises: NULL/non-number bounds
        matched = stored is not None and low_f <= float(stored) <= high_f
    elif condition.value is None:
        # The executor's NULL branch runs before the numeric one:
        # `col = NULL` matches exactly the NULL-stored rows, `!=` their
        # complement, and any other operator raises (never cached).
        if op is ConditionOp.EQ:
            matched = stored is None
        elif op is ConditionOp.NE:
            matched = stored is not None
        else:
            return None
    elif column.is_numeric:
        try:
            target = float(condition.value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None  # executor raises: numeric column vs non-number
        number = None if stored is None else float(stored)  # type: ignore[arg-type]
        if op is ConditionOp.NE:
            matched = number is None or number != target
        elif number is None:
            matched = False
        elif op is ConditionOp.EQ:
            matched = number == target
        elif op is ConditionOp.LT:
            matched = number < target
        elif op is ConditionOp.LE:
            matched = number <= target
        elif op is ConditionOp.GT:
            matched = number > target
        else:
            matched = number >= target
    else:
        if op in (ConditionOp.EQ, ConditionOp.NE):
            target_text = str(condition.value).lower()
        else:
            # Range operators: condition_to_expr float-coerces the
            # value before the executor stringifies it, so the
            # lexicographic comparison runs against str(float(v)) —
            # "2010" becomes "2010.0".  Mirror that exactly; an
            # uncoercible value would have raised there (never cached).
            try:
                target_text = str(float(condition.value)).lower()  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return None
        if stored is None:
            matched = False
        else:
            text = str(stored)  # schema-normalized: already lowercase
            if op is ConditionOp.EQ:
                matched = text == target_text
            elif op is ConditionOp.NE:
                matched = text != target_text
            elif op is ConditionOp.LT:
                matched = text < target_text
            elif op is ConditionOp.LE:
                matched = text <= target_text
            elif op is ConditionOp.GT:
                matched = text > target_text
            else:
                matched = text >= target_text
    if condition.negated:
        matched = not matched
    return matched


def unit_matches(
    schema: "TableSchema", unit: "ScoringUnit", record: "Record"
) -> bool | None:
    """Would *record* be in *unit*'s cached id-set?

    Mirrors :func:`repro.perf.subplan.unit_expression`: an "any" unit
    is the OR of its branches, everything else the AND.  ``None``
    propagates from any branch the mirror cannot answer (no
    short-circuiting: an undecidable branch poisons the whole unit).
    """
    results = []
    for condition in unit.conditions:
        matched = condition_matches(schema, condition, record)
        if matched is None:
            return None
        results.append(matched)
    if unit.mode == "any":
        return any(results)
    return all(results)


def _consecutive(epochs: list) -> bool:
    """Are *epochs* a +1-stepped run?  (Anything else means the delta
    stream has a gap the patcher must not paper over.)"""
    return all(
        later == earlier + 1 for earlier, later in zip(epochs, epochs[1:])
    )


class FragmentCache:
    """Bounded LRU of ``(table, epoch, unit) -> id-set``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._entries = LRUCache(capacity)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._entries.capacity

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(
        self, table_name: str, epoch: Hashable, unit: "ScoringUnit"
    ) -> set[int] | None:
        """The cached id-set for *unit* at *epoch*, or ``None``."""
        return self._entries.get((table_name, epoch, unit))  # type: ignore[return-value]

    def put(
        self, table_name: str, epoch: Hashable, unit: "ScoringUnit", ids: set[int]
    ) -> None:
        self._entries.put((table_name, epoch, unit), ids)

    def invalidate(self, table_name: str | None = None) -> int:
        """Drop entries for *table_name* (all tables when ``None``).

        Epoch keying already guarantees stale entries are unreachable;
        this reclaims their memory eagerly.  Returns the number of
        entries dropped.
        """
        if table_name is None:
            return self._entries.clear()
        return self._entries.pop_where(lambda key, _value: key[0] == table_name)  # type: ignore[index]

    def absorb(self, event: MutationEvent) -> bool:
        """Patch this cache's entries for *event*'s table to its new
        epoch; ``False`` means the delta could not be absorbed and the
        caller should fall back to epoch-sweep invalidation.

        For each cached unit of the mutated table (or, sharded, of the
        mutated *shard*) the touched record is re-evaluated against
        the unit's conditions and its id added to / discarded from the
        cached id-set (copy-on-write), and the entry is re-keyed to
        the post-mutation epoch tag — so the very next question hits
        warm fragments instead of re-running every unit's index scan.
        Batch deltas replay their per-row deltas (grouped per shard on
        a facade event).  Entries the per-record mirror cannot answer
        for are dropped, not guessed; entries at any *other* dead
        epoch are swept, so a successful absorb leaves only live tags
        behind (exactly like :meth:`invalidate_stale`).
        """
        table = event.table
        if isinstance(event, BatchDelta):
            row_deltas: tuple[MutationEvent, ...] = event.deltas
        else:
            row_deltas = (event,)
        if not row_deltas or len(row_deltas) > MAX_ABSORB_ROWS:
            return False  # bulk load: the generation sweep is cheaper
        if not all(
            isinstance(delta, (InsertDelta, RemoveDelta, UpdateDelta))
            # Inserts/updates are re-evaluated against the record; a
            # hand-built delta without one cannot be replayed (mirrors
            # ColumnStore.apply's record-less fallback).
            and (isinstance(delta, RemoveDelta) or delta.record is not None)
            for delta in row_deltas
        ):
            return False
        shards = getattr(table, "shards", None)
        if shards is None:
            if any(delta.shard_index is not None for delta in row_deltas):
                return False  # shard-stamped event from a plain table?
            groups = {None: list(row_deltas)}
            live_tags: set[Hashable] = {table.epoch}
            transitions = {None: (row_deltas[0].epoch - 1, row_deltas[-1].epoch)}
            if not _consecutive([delta.epoch for delta in row_deltas]):
                return False
        else:
            groups = {}
            for delta in row_deltas:
                if delta.shard_index is None or delta.shard_epoch is None:
                    return False
                groups.setdefault(delta.shard_index, []).append(delta)
            live_tags = {
                (index, shard.epoch) for index, shard in enumerate(shards)
            }
            transitions = {}
            for shard_index, deltas in groups.items():
                epochs = [delta.shard_epoch for delta in deltas]
                if not _consecutive(epochs):
                    return False
                transitions[shard_index] = (
                    (shard_index, epochs[0] - 1),
                    (shard_index, epochs[-1]),
                )
        schema = table.schema
        stale = self._entries.pop_items(
            lambda key, _value: key[0] == table.name and key[1] not in live_tags  # type: ignore[index]
        )
        old_tags = {old: group for group, (old, _new) in transitions.items()}
        for key, ids in stale:
            _name, tag, unit = key  # type: ignore[misc]
            if tag not in old_tags:
                continue  # an older dead generation: swept
            group = old_tags[tag]
            patched: set[int] = ids  # type: ignore[assignment]
            supported = True
            for delta in groups[group]:
                record_id = delta.record_id
                if isinstance(delta, RemoveDelta):
                    member = False
                else:
                    verdict = unit_matches(schema, unit, delta.record)  # type: ignore[union-attr]
                    if verdict is None:
                        supported = False
                        break
                    member = verdict
                if member and record_id not in patched:
                    if patched is ids:
                        patched = set(ids)
                    patched.add(record_id)
                elif not member and record_id in patched:
                    if patched is ids:
                        patched = set(ids)
                    patched.discard(record_id)
            if supported:
                _old, new_tag = transitions[group]
                self._entries.put((table.name, new_tag, unit), patched)
        return True

    def invalidate_stale(
        self, table_name: str, live_epochs: Collection[Hashable]
    ) -> int:
        """Drop *table_name* entries whose epoch tag is not in
        *live_epochs*.

        The shard-aware sweep: a sharded table passes the current
        ``(shard index, shard epoch)`` pair of every shard, so only the
        mutated shard's dead generation (plus any leftovers from older
        generations) is reclaimed and the sibling shards' fragments
        stay warm.  Returns the number of entries dropped.
        """
        live = set(live_epochs)
        return self._entries.pop_where(
            lambda key, _value: key[0] == table_name and key[1] not in live  # type: ignore[index]
        )
