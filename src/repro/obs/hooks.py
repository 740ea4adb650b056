"""Always-on instrumentation hooks shared by every layer.

These helpers are the narrow waist between the stack and the
observability core: the caches, the answer steps, the WAL and the
recovery code call them unconditionally, and they record into the
**process-default registry** (swap it with
:func:`~repro.obs.registry.set_default_registry` — e.g. via
``Observability.install()`` — to isolate or reset).  Each also emits a
span event / child span when a trace is active, so the same call site
feeds both the metrics and the tracing sides.

Metric name taxonomy (all prefixed ``repro_``):

==============================  ===========  ==========================
name                            type         labels
==============================  ===========  ==========================
repro_cache_requests_total      counter      cache ∈ {answer, fragment,
                                             window},
                                             outcome ∈ {hit, miss}
repro_stage_seconds             histogram    stage ∈ {classify, tag,
                                             interpret, execute,
                                             relax}
repro_wal_ops_total             counter      op ∈ {append, fsync,
                                             snapshot}
repro_wal_op_seconds            histogram    op (same values)
repro_wal_damage_total          counter      reason (FrameScan damage
                                             taxonomy)
repro_recovery_seconds          histogram    phase ∈ {snapshot_load,
                                             replay}
repro_api_request_seconds       histogram    —
repro_shard_rows                gauge (fn)   table, shard
repro_shard_scatter_seconds     histogram    table, shard
repro_fragment_cache_entries    gauge (fn)   —
repro_fragment_cache_bytes      gauge (fn)   —
==============================  ===========  ==========================

Cost stance: each hook is a dict lookup on the default registry plus
one integer/float update, and a single ContextVar read on the tracing
side.  That keeps the instrumentation inside the ≤5% budget enforced
by ``benchmarks/bench_api_overhead.py --quick``.
"""

from __future__ import annotations

import time
import weakref

from .registry import get_default_registry
from .trace import _CURRENT_SPAN, span

__all__ = [
    "CACHE_FAMILIES",
    "cache_event",
    "observe_stage",
    "record_recovery_damage",
    "record_recovery_timings",
    "register_fragment_cache_gauges",
    "register_shard_rows_gauge",
    "shard_scatter_observe",
    "wal_op",
]

#: The cache families the unified layer accounts for.
CACHE_FAMILIES = ("answer", "fragment", "window")


#: Per-registry memo of the cache-family counters, so the hot
#: fragment/window lookups skip label normalization and the registry
#: lock-free get.  Weak keys let a swapped-out registry be collected.
_CACHE_COUNTERS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def cache_event(cache: str, hit: bool) -> None:
    """Record one cache lookup: a labelled counter + a span event."""
    outcome = "hit" if hit else "miss"
    registry = get_default_registry()
    memo = _CACHE_COUNTERS.get(registry)
    if memo is None:
        memo = _CACHE_COUNTERS[registry] = {}
    counter = memo.get((cache, outcome))
    if counter is None:
        counter = memo[(cache, outcome)] = registry.counter(
            "repro_cache_requests_total", cache=cache, outcome=outcome
        )
    counter.value += 1
    current = _CURRENT_SPAN.get()
    if current is not None:
        current.add_event("cache", cache=cache, outcome=outcome)


def observe_stage(stage: str, seconds: float) -> None:
    """Record one pipeline-stage duration into its histogram."""
    get_default_registry().histogram(
        "repro_stage_seconds", stage=stage
    ).observe(seconds)


class _WalOpTimer:
    """Times a WAL operation into counter + histogram (+ child span)."""

    __slots__ = ("_op", "_attrs", "_start", "_span_cm")

    def __init__(self, op: str, attrs: dict) -> None:
        self._op = op
        self._attrs = attrs
        self._start = 0.0
        self._span_cm = None

    def __enter__(self):
        if _CURRENT_SPAN.get() is not None:
            self._span_cm = span(f"wal.{self._op}", **self._attrs)
            self._span_cm.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        registry = get_default_registry()
        registry.counter("repro_wal_ops_total", op=self._op).value += 1
        registry.histogram("repro_wal_op_seconds", op=self._op).observe(elapsed)
        if self._span_cm is not None:
            self._span_cm.__exit__(exc_type, exc, tb)
        return False


def wal_op(op: str, **attrs) -> _WalOpTimer:
    """Context manager timing one WAL append/fsync/snapshot operation."""
    return _WalOpTimer(op, attrs)


def record_recovery_damage(reason: str) -> None:
    """Count one damaged WAL tail by its `FrameScan` damage taxonomy."""
    get_default_registry().counter(
        "repro_wal_damage_total", reason=reason
    ).value += 1


def record_recovery_timings(snapshot_load_seconds: float, replay_seconds: float) -> None:
    """Record one recovery's phase timings into the registry."""
    registry = get_default_registry()
    registry.histogram(
        "repro_recovery_seconds", phase="snapshot_load"
    ).observe(snapshot_load_seconds)
    registry.histogram(
        "repro_recovery_seconds", phase="replay"
    ).observe(replay_seconds)


def register_shard_rows_gauge(table, shard_index: int) -> None:
    """Register the callback gauge tracking one shard's row count.

    The callback holds only a weak reference to the facade, so a
    dropped table's gauge decays to ``NaN`` at the next snapshot
    instead of pinning the whole record store in the registry; a
    rebuilt table with the same name re-registers the label set and
    takes the gauge over (latest wins).
    """
    table_ref = weakref.ref(table)
    table_name = table.name

    def shard_rows() -> float:
        facade = table_ref()
        if facade is None:
            return float("nan")
        return float(len(facade.shards[shard_index]))

    get_default_registry().gauge_fn(
        "repro_shard_rows", shard_rows, table=table_name, shard=str(shard_index)
    )


def register_fragment_cache_gauges(cache) -> None:
    """Register the callback gauges tracking a fragment cache's size:
    ``repro_fragment_cache_entries`` (stored fragments) and
    ``repro_fragment_cache_bytes`` (their summed ``sys.getsizeof``).

    Both are sampled only at snapshot time and hold the cache weakly,
    like :func:`register_shard_rows_gauge`: a collected engine's cache
    reads ``NaN``, and the newest cache takes the gauges over.
    """
    cache_ref = weakref.ref(cache)

    def sampled(measure):
        def sample() -> float:
            live = cache_ref()
            return float("nan") if live is None else float(measure(live))

        return sample

    registry = get_default_registry()
    registry.gauge_fn("repro_fragment_cache_entries", sampled(len))
    registry.gauge_fn("repro_fragment_cache_bytes", sampled(lambda c: c.nbytes()))


def shard_scatter_observe(table_name: str, shard_index: int, seconds: float) -> None:
    """Record one per-shard scatter-leaf duration (a
    :meth:`~repro.shard.table.ShardedTable.map_shards` task)."""
    get_default_registry().histogram(
        "repro_shard_scatter_seconds", table=table_name, shard=str(shard_index)
    ).observe(seconds)
