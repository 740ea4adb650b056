"""Performance subsystem: shared subplans and the hot-path caches.

Three layers keep the answer path fast without changing a single
answer (``PERFORMANCE.md`` documents the algorithms, knobs and
invalidation contracts):

* :mod:`repro.perf.subplan` — the shared-subplan N-1 relaxation
  engine: each relaxation unit's id-set is evaluated once and every
  relaxed pool is derived by set intersection, replacing the
  N×(N-1) predicate evaluations of running each relaxed query with N;
* :mod:`repro.perf.colrank` — the columnar top-k ranking engine:
  column stores caught up from the table's delta log, slot-wise
  scoring with distinct-value memos, and a lazy ranked pool that
  orders and builds only the rows read — bit-identical to the legacy
  ranker;
* :mod:`repro.perf.fragment_cache` — cross-question memoization of
  relaxation-unit id-sets, each caught up from the table's delta log
  when it is read;
* :mod:`repro.perf.window` — ordered column windows: sorted
  ``array``-backed (value, id) views caught up from the table's delta
  log on read, the one ordered structure a column has.  They
  answer numeric equality, ``IN``, range, BETWEEN and lexicographic
  leaves with two bisects each (the SQL executor's
  selectivity-adaptive planner picks the window or its complement per
  leaf);
* :mod:`repro.perf.lru` — the generic bounded, thread-safe LRU the
  caches are built on (stdlib-only, importable from any layer);
* :mod:`repro.perf.answer_cache` — memoized full question results for
  :class:`repro.api.service.AnswerService`, auto-invalidated from the
  database's mutation epochs.

The subplan and colrank names are re-exported lazily (PEP 562): both
reach back into higher layers (:mod:`repro.qa` / :mod:`repro.ranking`),
so importing them eagerly here would cycle when the db layer pulls
:mod:`repro.perf.window`.
"""

from repro.perf.answer_cache import AnswerCache
from repro.perf.fragment_cache import FragmentCache
from repro.perf.lru import LRUCache
from repro.perf.window import (
    ColumnWindow,
    IdWindow,
    ShardedWindows,
    TableWindows,
    windows_for,
)

__all__ = [
    "AnswerCache",
    "ColumnStore",
    "ColumnWindow",
    "FragmentCache",
    "IdWindow",
    "LRUCache",
    "RankedPool",
    "ShardedWindows",
    "TableWindows",
    "columnar_rank_units",
    "drop_intersections",
    "shared_partial_candidates",
    "sharded_rank_units",
    "unit_expression",
    "unit_id_sets",
    "windows_for",
]

_SUBPLAN_EXPORTS = frozenset(
    ("drop_intersections", "shared_partial_candidates", "unit_expression",
     "unit_id_sets")
)

_COLRANK_EXPORTS = frozenset(
    ("ColumnStore", "RankedPool", "columnar_rank_units", "sharded_rank_units")
)


def __getattr__(name: str):
    if name in _SUBPLAN_EXPORTS:
        from repro.perf import subplan

        return getattr(subplan, name)
    if name in _COLRANK_EXPORTS:
        from repro.perf import colrank

        return getattr(colrank, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
