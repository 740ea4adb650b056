"""`MetricsRegistry`: counters, gauges and fixed-bucket histograms.

Every layer of the stack counts things — the caches' hit/miss pairs,
the WAL's append/snapshot tallies, the per-step answer latencies — and
this module gives them one dialect: a metric is a ``(name, labels)``
pair registered in a :class:`MetricsRegistry`, and
:meth:`MetricsRegistry.snapshot` freezes the whole registry into an
immutable :class:`MetricsSnapshot` the exporters
(:func:`repro.obs.export.render_prometheus`, the CLI ``stats``
subcommand) render without racing the hot path.

Concurrency stance (the "lock-cheap" contract): metric **creation**
takes the registry lock once per distinct ``(name, labels)`` pair;
**updates** are plain attribute arithmetic with no lock at all — the
same GIL-guarded stance :mod:`repro.perf.window` takes for its reader
side.  A counter increment racing a snapshot may or may not be
included; a histogram's ``sum`` and ``count`` may disagree by the one
observation in flight.  Metrics tolerate that.

Histograms use fixed upper-bound buckets (:data:`LATENCY_BUCKETS` by
default, tuned for the microsecond-to-seconds range the answer path
spans) so percentile estimates (:meth:`Histogram.percentile`) cost a
cumulative walk over ~16 integers rather than retaining samples.

A process-default registry (:func:`get_default_registry`) backs the
always-on instrumentation hooks; to isolate a run's metrics, make a
private registry the default (``Observability(MetricsRegistry())``
then ``.install()``, or :func:`set_default_registry`).
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "CounterSample",
    "Gauge",
    "GaugeSample",
    "Histogram",
    "HistogramSample",
    "MetricsRegistry",
    "MetricsSnapshot",
    "get_default_registry",
    "set_default_registry",
]

#: Label set type: a sorted tuple of ``(key, value)`` string pairs —
#: hashable, order-canonical, cheap to build from keyword arguments.
Labels = tuple

#: Default histogram upper bounds (seconds): half-decade steps from
#: 100µs to 10s, covering everything from a warm cache hit to a
#: pathological relaxation over a huge pool.  The implicit final
#: bucket is +Inf.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _labels_of(labels: dict) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (cache hits, WAL appends...).

    ``value`` is public so a hot hook can bump it with a plain ``+=``
    (see :func:`repro.obs.hooks.cache_event`); other code uses
    :meth:`inc`.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def sample(self) -> "CounterSample":
        return CounterSample(self.name, self.labels, self.value)


class Gauge:
    """An instantaneous value — set directly, or read from a callback.

    Callback gauges (:meth:`MetricsRegistry.gauge_fn`) sample a live
    object at snapshot time — queue depths, cache sizes, generation
    numbers — so the instrumented hot path pays nothing at all.
    """

    __slots__ = ("name", "labels", "value", "fn")

    def __init__(self, name: str, labels: Labels = (), fn=None) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = value

    def sample(self) -> "GaugeSample":
        if self.fn is not None:
            try:
                value = float(self.fn())
            except Exception:  # a dead callback must not kill a snapshot
                value = float("nan")
        else:
            value = self.value
        return GaugeSample(self.name, self.labels, value)


class Histogram:
    """Fixed-bucket latency distribution (Prometheus-style cumulative).

    ``counts[i]`` tallies observations ``<= buckets[i]``-exclusive
    style per-bucket (the cumulative ``le`` form is produced at sample
    time); ``counts[-1]`` is the +Inf overflow bucket.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
        if list(self.buckets) != sorted(self.buckets) or not self.buckets:
            raise ValueError(f"histogram buckets must be sorted and non-empty: {self.buckets}")
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def percentile(self, q: float) -> float | None:
        """The *q*-quantile (0..1) estimated from the bucket counts.

        Returns the upper bound of the bucket holding the quantile
        rank, linearly interpolated within the bucket; observations in
        the +Inf bucket report the largest finite bound.  ``None`` when
        nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                high = self.buckets[index]
                low = self.buckets[index - 1] if index else 0.0
                within = 1.0 - (cumulative - rank) / bucket_count
                return low + (high - low) * within
        return self.buckets[-1]

    def sample(self) -> "HistogramSample":
        return HistogramSample(
            self.name,
            self.labels,
            self.buckets,
            tuple(self.counts),
            self.sum,
            self.count,
        )


@dataclass(frozen=True)
class CounterSample:
    name: str
    labels: Labels
    value: int


@dataclass(frozen=True)
class GaugeSample:
    name: str
    labels: Labels
    value: float


@dataclass(frozen=True)
class HistogramSample:
    name: str
    labels: Labels
    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int

    def percentile(self, q: float) -> float | None:
        """Same estimator as :meth:`Histogram.percentile`, frozen-side."""
        histogram = Histogram(self.name, self.labels, self.buckets)
        histogram.counts = list(self.counts)
        histogram.sum = self.sum
        histogram.count = self.count
        return histogram.percentile(q)


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable point-in-time view of one registry.

    The sample tuples preserve registration order, so renderings are
    stable across snapshots of the same process.
    """

    counters: tuple[CounterSample, ...]
    gauges: tuple[GaugeSample, ...]
    histograms: tuple[HistogramSample, ...]

    def counter_value(self, name: str, **labels) -> int:
        wanted = _labels_of(labels)
        for sample in self.counters:
            if sample.name == name and sample.labels == wanted:
                return sample.value
        return 0

    def counters_by_label(self, name: str, label: str) -> dict[str, int]:
        """``{label value -> count}`` across one counter family."""
        out: dict[str, int] = {}
        for sample in self.counters:
            if sample.name != name:
                continue
            value = dict(sample.labels).get(label)
            if value is not None:
                out[value] = out.get(value, 0) + sample.value
        return out

    def histogram(self, name: str, **labels) -> HistogramSample | None:
        wanted = _labels_of(labels)
        for sample in self.histograms:
            if sample.name == name and sample.labels == wanted:
                return sample
        return None

    def as_dict(self) -> dict:
        """A JSON-friendly rendering (the CLI ``stats --json`` shape)."""

        def key(name: str, labels: Labels) -> str:
            if not labels:
                return name
            rendered = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{rendered}}}"

        payload: dict = {
            "counters": {
                key(s.name, s.labels): s.value for s in self.counters
            },
            "gauges": {key(s.name, s.labels): s.value for s in self.gauges},
            "histograms": {},
        }
        for sample in self.histograms:
            payload["histograms"][key(sample.name, sample.labels)] = {
                "count": sample.count,
                "sum": sample.sum,
                "p50": sample.percentile(0.50),
                "p95": sample.percentile(0.95),
                "p99": sample.percentile(0.99),
            }
        return payload


class MetricsRegistry:
    """The process's (or one system's) named metric instruments.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create: the first
    call for a ``(name, labels)`` pair registers the instrument under
    the creation lock; every later call is one dict lookup, so hook
    sites may call them per event without caching the instrument.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], object] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, name: str, labels: Labels, factory):
        metric = self._metrics.get((name, labels))
        if metric is not None:
            return metric
        with self._lock:
            metric = self._metrics.get((name, labels))
            if metric is None:
                metric = factory()
                self._metrics[(name, labels)] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        key = _labels_of(labels)
        metric = self._get(name, key, lambda: Counter(name, key))
        if not isinstance(metric, Counter):
            raise TypeError(f"{name}{key} is registered as {type(metric).__name__}")
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = _labels_of(labels)
        metric = self._get(name, key, lambda: Gauge(name, key))
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name}{key} is registered as {type(metric).__name__}")
        return metric

    def gauge_fn(self, name: str, fn, **labels) -> Gauge:
        """A callback gauge: *fn* is sampled at snapshot time."""
        gauge = self.gauge(name, **labels)
        gauge.fn = fn
        return gauge

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        key = _labels_of(labels)
        metric = self._get(name, key, lambda: Histogram(name, key, buckets))
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name}{key} is registered as {type(metric).__name__}")
        return metric

    def snapshot(self) -> MetricsSnapshot:
        """Freeze every instrument into an immutable snapshot."""
        with self._lock:
            metrics = list(self._metrics.values())
        counters: list[CounterSample] = []
        gauges: list[GaugeSample] = []
        histograms: list[HistogramSample] = []
        for metric in metrics:
            sample = metric.sample()
            if isinstance(sample, CounterSample):
                counters.append(sample)
            elif isinstance(sample, GaugeSample):
                gauges.append(sample)
            else:
                histograms.append(sample)
        return MetricsSnapshot(
            tuple(counters), tuple(gauges), tuple(histograms)
        )

    def reset(self) -> None:
        """Drop every instrument (test isolation helper)."""
        with self._lock:
            self._metrics.clear()


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_default_registry() -> MetricsRegistry:
    """The process-default registry the always-on hooks write to."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-default registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous
