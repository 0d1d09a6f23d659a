"""End-to-end request tracing: trace ids, spans, and the trace ring.

One *trace* is the story of one request: a tree of *spans*, each a named
wall-clock interval with free-form annotations.  The trace id is minted
at HTTP ingress (or accepted from an ``X-Trace-Id`` header after
sanitization) and rides a :class:`contextvars.ContextVar` through the
service layers; code that crosses a thread boundary (the micro-batch
scheduler hands work to a dispatcher thread) captures the context with
:func:`current` and re-enters it with :func:`use_context`.

The instrumentation contract is *zero-cost when dark*: :func:`span`
returns a shared no-op span whenever no trace is active, so library code
can be instrumented unconditionally — embedding callers that never start
a trace pay one ContextVar read per span site.

Finished traces land in a bounded in-memory ring (:class:`Tracer`),
readable at ``GET /traces``, and are optionally appended as JSON lines
to an export file.  Durations are measured with
:func:`time.perf_counter`; wall-clock time appears only as the
human-readable ``started_at`` timestamp of each span.
"""

from __future__ import annotations

import contextvars
import json
import re
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Traces retained in the in-memory ring by default.
DEFAULT_TRACE_CAPACITY = 256

#: Spans one trace may hold; guards against a runaway instrumented loop.
MAX_SPANS_PER_TRACE = 512

#: Accepted shape of an externally supplied trace id (X-Trace-Id header).
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def sanitize_trace_id(candidate: Optional[str]) -> str:
    """``candidate`` if it is a well-formed external id, else a fresh id.

    External ids are restricted to 1-64 characters of ``[A-Za-z0-9._-]``
    so a hostile header can never smuggle newlines or markup into the
    trace ring, the slow-query log, or a Prometheus exemplar.
    """
    if candidate is not None and _TRACE_ID_RE.match(candidate):
        return candidate
    return new_trace_id()


class Span:
    """One named interval inside a trace.

    Spans are created through :meth:`Tracer.trace` (roots) and
    :func:`span` (children); they self-report into their trace when
    closed.  ``annotations`` carries structured context (batch size,
    kernel stats, error strings) into ``GET /traces`` and the slow-query
    log.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "started_at",
                 "_t0", "duration_s", "annotations", "status", "error")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: Optional[str]):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_at = time.time()  # wall-clock: display timestamp only
        self._t0 = time.perf_counter()
        self.duration_s: Optional[float] = None  # None while still open
        self.annotations: Dict[str, object] = {}
        self.status = "ok"
        self.error: Optional[str] = None

    def annotate(self, key: str, value) -> None:
        """Attach one structured annotation (last write per key wins)."""
        self.annotations[str(key)] = value

    def finish(self) -> None:
        """Close the span (idempotent); duration is frozen at first close."""
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0

    def to_dict(self) -> dict:
        """JSON-ready encoding; open spans report their duration so far."""
        duration = self.duration_s
        if duration is None:
            duration = time.perf_counter() - self._t0
        body = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "duration_s": duration,
            "status": self.status,
        }
        if self.error is not None:
            body["error"] = self.error
        if self.annotations:
            body["annotations"] = dict(self.annotations)
        return body


class _NullSpan:
    """The shared do-nothing span yielded when no trace is active."""

    __slots__ = ()
    trace_id = None
    span_id = None

    def annotate(self, key: str, value) -> None:
        pass


NULL_SPAN = _NullSpan()


class Trace:
    """Collects the spans of one trace id (thread-safe).

    Spans may be added from any thread — the HTTP handler and the
    scheduler dispatcher both contribute — so membership is guarded by a
    lock.  The span *tree* is derived from parent ids at read time.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_span = 0
        self._dropped = 0

    def new_span_id(self) -> str:
        with self._lock:
            self._next_span += 1
            return f"s{self._next_span}"

    def add(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= MAX_SPANS_PER_TRACE:
                self._dropped += 1
                return
            self._spans.append(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def span_tree(self) -> List[dict]:
        """Nested span dicts (roots first, children under ``children``).

        Safe to call while the root span is still open: open spans
        report their duration so far.  Used by the slow-query log, which
        fires before the ingress span has closed.
        """
        spans = self.spans()
        nodes = {s.span_id: dict(s.to_dict(), children=[]) for s in spans}
        roots: List[dict] = []
        for s in spans:
            node = nodes[s.span_id]
            parent = nodes.get(s.parent_id) if s.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def to_dict(self) -> dict:
        spans = self.spans()
        root = next((s for s in spans if s.parent_id is None), None)
        body = {
            "trace_id": self.trace_id,
            "root": root.name if root is not None else None,
            "duration_s": (root.to_dict()["duration_s"]
                           if root is not None else 0.0),
            "span_count": len(spans),
            "spans": self.span_tree(),
        }
        if self._dropped:
            body["spans_dropped"] = self._dropped
        return body


class _SpanContext:
    """What the ContextVar holds: the live trace, span, and its tracer."""

    __slots__ = ("trace", "span_id", "tracer")

    def __init__(self, trace: Trace, span_id: str,
                 tracer: Optional["Tracer"]):
        self.trace = trace
        self.span_id = span_id
        self.tracer = tracer


_current: "contextvars.ContextVar[Optional[_SpanContext]]" = \
    contextvars.ContextVar("repro_obs_span", default=None)


def current() -> Optional[_SpanContext]:
    """The active span context, or ``None`` when tracing is dark.

    Capture this on the submitting thread and re-enter it with
    :func:`use_context` on the thread that does the work.
    """
    return _current.get()


def current_trace_id() -> Optional[str]:
    ctx = _current.get()
    return ctx.trace.trace_id if ctx is not None else None


@contextmanager
def use_context(ctx: Optional[_SpanContext]) -> Iterator[None]:
    """Re-enter a captured span context on another thread."""
    if ctx is None:
        yield
        return
    token = _current.set(ctx)
    try:
        yield
    finally:
        _current.reset(token)


@contextmanager
def detached() -> Iterator[None]:
    """Run a block under no span context: work shared by several traces
    belongs to none of them."""
    token = _current.set(None)
    try:
        yield
    finally:
        _current.reset(token)


@contextmanager
def span(name: str) -> Iterator[object]:
    """A child span of the active context (no-op when tracing is dark).

    Exceptions mark the span ``status="error"`` (with the exception
    rendered into ``error``) and propagate unchanged.
    """
    ctx = _current.get()
    if ctx is None:
        yield NULL_SPAN
        return
    child = Span(name, ctx.trace.trace_id, ctx.trace.new_span_id(),
                 parent_id=ctx.span_id)
    token = _current.set(_SpanContext(ctx.trace, child.span_id, ctx.tracer))
    try:
        yield child
    except BaseException as exc:
        child.status = "error"
        child.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        _current.reset(token)
        child.finish()
        ctx.trace.add(child)


class Tracer:
    """Bounded ring of finished traces plus optional JSON-lines export.

    Parameters
    ----------
    capacity:
        Finished traces retained in memory (oldest evicted first).
    export_path:
        When given, every finished trace is appended to this file as one
        JSON line.  Export failures never break serving; they are
        counted in :attr:`export_errors`.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY,
                 export_path: Optional[str] = None):
        self.capacity = max(1, int(capacity))
        self.export_path = export_path
        self._lock = threading.Lock()
        self._ring: "deque[Trace]" = deque(maxlen=self.capacity)
        self.finished_total = 0
        self.export_errors = 0

    @contextmanager
    def trace(self, name: str, trace_id: Optional[str] = None,
              ) -> Iterator[Span]:
        """Run the body under a fresh root span; store the trace on exit.

        ``trace_id`` is sanitized (see :func:`sanitize_trace_id`); read
        the accepted id back from the yielded span's ``trace_id``.
        """
        trace = Trace(sanitize_trace_id(trace_id))
        root = Span(name, trace.trace_id, trace.new_span_id(),
                    parent_id=None)
        token = _current.set(_SpanContext(trace, root.span_id, self))
        try:
            yield root
        except BaseException as exc:
            root.status = "error"
            root.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            _current.reset(token)
            root.finish()
            trace.add(root)
            self._store(trace)

    def _store(self, trace: Trace) -> None:
        with self._lock:
            self._ring.append(trace)
            self.finished_total += 1
        if self.export_path is not None:
            try:
                line = json.dumps(trace.to_dict(), sort_keys=True)
                with open(self.export_path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            except (OSError, ValueError):
                with self._lock:
                    self.export_errors += 1

    def get(self, trace_id: str) -> Optional[dict]:
        """The finished trace with this id, or ``None``."""
        with self._lock:
            for trace in reversed(self._ring):
                if trace.trace_id == trace_id:
                    return trace.to_dict()
        return None

    def traces(self, limit: Optional[int] = None) -> List[dict]:
        """Finished traces, most recent first."""
        with self._lock:
            recent = list(self._ring)
        recent.reverse()
        if limit is not None:
            recent = recent[:max(0, int(limit))]
        return [trace.to_dict() for trace in recent]

    def snapshot(self, limit: Optional[int] = None) -> dict:
        """The ``GET /traces`` body."""
        return {
            "capacity": self.capacity,
            "finished_total": self.finished_total,
            "export_errors": self.export_errors,
            "traces": self.traces(limit),
        }

    def stats(self) -> dict:
        """Cheap counters for the JSON ``/metrics`` body."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "finished_total": self.finished_total,
                "in_ring": len(self._ring),
                "export_errors": self.export_errors,
            }
