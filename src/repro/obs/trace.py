"""Request-scoped tracing: a `Span` tree carried via `contextvars`.

A traced request produces **one connected tree**: the serve tier (or
``AnswerService.answer`` when called directly under a
:meth:`Tracer.trace` block) opens a root span, every pipeline stage /
executor leaf / shard scatter call / cache lookup / WAL operation
attaches a child or an event to whatever span is current, and on root
exit the tree is exported to the configured sinks (JSON-lines file,
in-memory buffer) plus a slow-query log when the request exceeded the
tracer's threshold.

Propagation. The current span lives in a :data:`ContextVar`, so within
one thread (and across ``asyncio`` task boundaries, which copy the
context at ``create_task`` time) children attach automatically.  The
two thread-hopping boundaries — the batch ``ThreadPoolExecutor`` and
the serve tier's ``run_in_executor`` dispatch — wrap their callables
with :func:`propagate`, which captures the caller's span and re-pins
it inside the worker with a set/reset token.  Deliberately **not** ``copy_context().run``: a single request
fans the same logical context out to several workers at once, and
CPython refuses concurrent re-entry of one ``Context`` object.

Cost stance. When no trace is active (``current_span()`` is ``None``)
every instrumentation site reduces to one ContextVar read and a
falsy branch — :func:`span` hands back a shared no-op context manager
allocating nothing.  That is the path the ≤5% overhead gate in
``benchmarks/bench_api_overhead.py`` holds to account.

Span mutation is single-writer in practice (one worker executes one
subtree at a time); the only cross-thread structural write is a parent
adopting a child, which is a GIL-atomic ``list.append``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextvars import ContextVar

__all__ = [
    "InMemoryTraceSink",
    "JsonLinesTraceSink",
    "Span",
    "Tracer",
    "current_span",
    "propagate",
    "span",
]

_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar("repro_current_span", default=None)

_span_ids = itertools.count(1)
_trace_ids = itertools.count(1)


def current_span() -> "Span | None":
    """The span the calling context is executing under, if any."""
    return _CURRENT_SPAN.get()


class Span:
    """One timed operation in a request's tree.

    Attributes are small scalars describing the operation (stage name,
    shard index, access-path summary); events are timestamped point
    occurrences (cache hit/miss, plan-trace drop) that don't warrant a
    child span of their own.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "events",
        "children",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: int | None = None,
        parent: "Span | None" = None,
        attributes: dict | None = None,
    ) -> None:
        self.name = name
        self.span_id = next(_span_ids)
        self.parent_id = parent.span_id if parent is not None else None
        self.trace_id = (
            parent.trace_id if parent is not None
            else (trace_id if trace_id is not None else next(_trace_ids))
        )
        self.start = time.perf_counter()
        self.end: float | None = None
        self.attributes: dict = dict(attributes) if attributes else {}
        self.events: list[tuple[float, str, dict]] = []
        self.children: list[Span] = []
        if parent is not None:
            parent.children.append(self)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes) -> None:
        self.events.append((time.perf_counter() - self.start, name, attributes))

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()

    # -- tree inspection (tests, slow-query log, quickstart demo) -----

    def walk(self):
        """Yield this span then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with *name*, depth-first."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [node for node in self.walk() if node.name == name]

    def event_names(self) -> list[str]:
        """Every event name in the tree, depth-first."""
        return [event[1] for node in self.walk() for event in node.events]

    def as_dict(self) -> dict:
        """Nested JSON-friendly form (the trace-sink wire format)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_ms": round(self.duration * 1000.0, 4),
            "attributes": self.attributes,
            "events": [
                {"offset_ms": round(offset * 1000.0, 4), "name": name, **attrs}
                for offset, name, attrs in self.events
            ],
            "children": [child.as_dict() for child in self.children],
        }

    def describe(self, indent: int = 0) -> str:
        """Human-readable tree rendering (quickstart demo, debugging)."""
        pad = "  " * indent
        attrs = ""
        if self.attributes:
            attrs = " " + " ".join(f"{k}={v}" for k, v in self.attributes.items())
        lines = [f"{pad}{self.name} ({self.duration * 1000.0:.2f} ms){attrs}"]
        for offset, name, attributes in self.events:
            detail = "".join(f" {k}={v}" for k, v in attributes.items())
            lines.append(f"{pad}  · {name}{detail}")
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, children={len(self.children)})"


class _NullSpanContext:
    """Shared no-op for the untraced fast path — nothing is allocated."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpanContext()


class _SpanContext:
    __slots__ = ("_span", "_token")

    def __init__(self, span: Span) -> None:
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.finish()
        if exc_type is not None:
            self._span.set_attribute("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
        return False


def span(name: str, **attributes):
    """Open a child span under the current one — or do nothing at all.

    This is the hook every instrumented layer calls.  With no active
    trace it returns a shared null context manager; with one, a new
    child of the current span becomes current for the ``with`` body.
    """
    parent = _CURRENT_SPAN.get()
    if parent is None:
        return _NULL_SPAN
    return _SpanContext(Span(name, parent=parent, attributes=attributes or None))


def propagate(fn):
    """Bind the caller's current span into *fn* for another thread.

    Captures ``current_span()`` now; the wrapper pins it (set/reset
    token) around the call in whatever worker thread runs it.  With no
    active span the original callable is returned untouched, keeping
    executor dispatch on the fast path zero-cost.
    """
    captured = _CURRENT_SPAN.get()
    if captured is None:
        return fn

    def wrapper(*args, **kwargs):
        token = _CURRENT_SPAN.set(captured)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT_SPAN.reset(token)

    return wrapper


class JsonLinesTraceSink:
    """Append each finished root span as one JSON line."""

    def __init__(self, path) -> None:
        self.path = path
        self._lock = threading.Lock()

    def export(self, root: Span) -> None:
        line = json.dumps(root.as_dict(), sort_keys=True, default=str)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")


class InMemoryTraceSink:
    """Retain the last *capacity* finished root spans (tests, demos)."""

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self.roots: list[Span] = []
        self._lock = threading.Lock()

    def export(self, root: Span) -> None:
        with self._lock:
            self.roots.append(root)
            if len(self.roots) > self.capacity:
                del self.roots[: len(self.roots) - self.capacity]

    def last(self) -> Span | None:
        with self._lock:
            return self.roots[-1] if self.roots else None

    def clear(self) -> None:
        with self._lock:
            self.roots.clear()


class Tracer:
    """Opens root spans and exports finished trees to sinks.

    *slow_threshold_s* gates the slow-query log: roots that ran longer
    are handed to *slow_sink* (or re-described into *slow_log_path* as
    JSON lines) with the full tree and whatever ``explain`` attributes
    the request attached.
    """

    def __init__(
        self,
        sinks=(),
        *,
        slow_threshold_s: float | None = None,
        slow_log_path=None,
    ) -> None:
        self.sinks = list(sinks)
        self.slow_threshold_s = slow_threshold_s
        self._slow_sink = (
            JsonLinesTraceSink(slow_log_path) if slow_log_path is not None else None
        )
        self.slow_roots: list[Span] = []

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def trace(self, name: str, **attributes):
        """Open a root span (or a child, when a trace is already live)."""
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            return _SpanContext(Span(name, parent=parent, attributes=attributes or None))
        return _RootContext(self, Span(name, attributes=attributes or None))

    def _finish_root(self, root: Span) -> None:
        for sink in self.sinks:
            try:
                sink.export(root)
            except Exception:  # a broken sink must not fail the request
                pass
        if (
            self.slow_threshold_s is not None
            and root.duration >= self.slow_threshold_s
        ):
            root.set_attribute("slow", True)
            self.slow_roots.append(root)
            if len(self.slow_roots) > 256:
                del self.slow_roots[:128]
            if self._slow_sink is not None:
                try:
                    self._slow_sink.export(root)
                except Exception:
                    pass


class _RootContext:
    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: Tracer, span_: Span) -> None:
        self._tracer = tracer
        self._span = span_
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.finish()
        if exc_type is not None:
            self._span.set_attribute("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
        self._tracer._finish_root(self._span)
        return False
