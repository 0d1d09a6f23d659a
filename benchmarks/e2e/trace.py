"""Timing wrappers around each layer's entry points, for the traced replay.

The program is not edited: ``Recorder.install`` replaces the named
functions with wrappers that record a span (name, layer, start, end,
parent, trace id) and ``uninstall`` puts the originals back.  The trace
id is the ``X-Trace-Id`` the generator sent, read back through
``repro.obs.trace.current_trace_id()``; a span that runs outside any
request context (the handler before the trace opens, a fused batch, the
dispatcher) inherits the id of its descendants, and failing that is
adopted by every request whose scheduler wait contains it in time.

A probe whose target no longer exists is reported in ``missing`` and its
metrics read as absent; it never raises.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.trace import current_trace_id


@dataclass(frozen=True)
class Probe:
    span: str     # span name; several targets may share one
    layer: str    # the module the time is charged to
    module: str
    target: str   # "function" or "Class.method"


PROBES: Tuple[Probe, ...] = (
    Probe("server.handler", "service.server",
          "repro.service.server", "_RequestHandler.do_POST"),
    Probe("server.query", "service.server",
          "repro.service.server", "QueryService.query"),
    Probe("server.mutate", "service.server",
          "repro.service.server", "DurableQueryService.handle_mutation_request"),
    Probe("server.encode", "service.server",
          "repro.service.server", "encode_result"),
    Probe("server.encode", "service.server",
          "repro.service.server", "canonical_json"),
    Probe("cache.get", "service.cache",
          "repro.service.cache", "ResultCache.get"),
    Probe("scheduler.answer", "service.scheduler",
          "repro.service.scheduler", "MicroBatchScheduler.answer"),
    Probe("scheduler.dispatch", "service.scheduler",
          "repro.service.scheduler", "MicroBatchScheduler._dispatch"),
    Probe("engine.rtk", "queries.engine",
          "repro.core.gir", "GridIndexRRQ.reverse_topk"),
    Probe("engine.rkr", "queries.engine",
          "repro.core.gir", "GridIndexRRQ.reverse_kranks"),
    Probe("girkernel.batch", "vectorized.girkernel",
          "repro.vectorized.girkernel", "GirKernelRRQ.reverse_topk_batch"),
    Probe("girkernel.batch", "vectorized.girkernel",
          "repro.vectorized.girkernel", "GirKernelRRQ.reverse_kranks_batch"),
    Probe("girkernel.build", "vectorized.girkernel",
          "repro.vectorized.girkernel", "GirKernelRRQ.from_gir"),
    Probe("gir.init", "core.gir",
          "repro.core.gir", "GridIndexRRQ.__init__"),
    Probe("index.save", "core.storage",
          "repro.core.storage", "save_index"),
    Probe("index.load", "core.storage",
          "repro.core.storage", "load_index"),
    Probe("store.write", "storage.store",
          "repro.storage.store", "SegmentStore.insert_product"),
    Probe("store.write", "storage.store",
          "repro.storage.store", "SegmentStore.insert_weight"),
    Probe("store.write", "storage.store",
          "repro.storage.store", "SegmentStore.remove_weight"),
    Probe("store.write", "storage.store",
          "repro.storage.store", "SegmentStore.modify_product"),
    Probe("store.pin", "storage.store",
          "repro.storage.store", "SegmentStore.pin"),
    Probe("store.seal", "storage.store",
          "repro.storage.store", "SegmentStore.seal"),
    Probe("store.compact", "storage.store",
          "repro.storage.store", "SegmentStore.compact"),
    Probe("snapshot.query", "storage.snapshot",
          "repro.storage.snapshot", "StoreSnapshot.reverse_topk"),
    Probe("snapshot.query", "storage.snapshot",
          "repro.storage.snapshot", "StoreSnapshot.reverse_kranks"),
    Probe("snapkernel.build", "storage.kernel",
          "repro.storage.kernel", "SnapshotKernel.build"),
    Probe("wal.append", "durability.wal",
          "repro.durability.wal", "WalWriter.append"),
    Probe("durable.snapshot", "durability.engine",
          "repro.durability.engine", "DurableDynamicRRQ.snapshot"),
)


@dataclass
class Span:
    index: int
    name: str
    layer: str
    start: float
    end: float
    thread: int
    parent: Optional[int]
    trace_id: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Installs the probes and keeps every span in memory."""

    def __init__(self, probes: Sequence[Probe] = PROBES):
        self.probes = tuple(probes)
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._lock = threading.Lock()
        self._stack = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- installing ---------------------------------------------------------

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            stack = getattr(self._stack, "spans", None)
            if stack is None:
                stack = self._stack.spans = []
            span = Span(-1, probe.span, probe.layer, time.perf_counter(), 0.0,
                        threading.get_ident(),
                        stack[-1].index if stack else None,
                        current_trace_id())
            with self._lock:
                span.index = len(self.spans)
                self.spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.trace_id = span.trace_id or current_trace_id()
                span.end = time.perf_counter()
                stack.pop()
                if stack and stack[-1].trace_id is None:
                    stack[-1].trace_id = span.trace_id

        wrapper.__wrapped__ = fn
        return wrapper

    def _install_one(self, probe: Probe) -> None:
        owner = importlib.import_module(probe.module)
        *path, attr = probe.target.split(".")
        for part in path:
            owner = getattr(owner, part)
        own = vars(owner).get(attr)   # what the owner itself defines
        found = getattr(owner, attr)  # or inherits
        if isinstance(own, (classmethod, staticmethod)):
            patched = type(own)(self._wrap(probe, own.__func__))
        else:
            patched = self._wrap(probe, own if own is not None else found)
        setattr(owner, attr, patched)
        if own is None:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, own))

    def install(self) -> None:
        for probe in self.probes:
            try:
                self._install_one(probe)
            except (ImportError, AttributeError):
                self.missing.append(f"{probe.module}:{probe.target}")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------------

    def missing_spans(self) -> List[str]:
        """Span names none of whose targets could be wrapped."""
        wrapped = {p.span for p in self.probes
                   if f"{p.module}:{p.target}" not in self.missing}
        return sorted({p.span for p in self.probes} - wrapped)

    def window(self, start: float, end: float) -> List[Span]:
        return [s for s in self.spans if start <= s.start and s.end <= end]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "thread": s.thread, "parent": s.parent,
                    "trace_id": s.trace_id, "index": s.index}) + "\n")


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class RequestTree:
    """The spans of one request: the handler, what ran under it on its
    own thread, and the dispatcher-side spans adopted under its
    scheduler wait."""

    def __init__(self, handler: Span,
                 children: Dict[Optional[int], List[Span]]):
        self.handler = handler
        own: List[Span] = []

        def collect(span: Span) -> None:
            own.append(span)
            for child in children.get(span.index, ()):
                collect(child)

        collect(handler)
        self.adopted_under: Dict[int, List[Span]] = {}
        waits = [s for s in own if s.name == "scheduler.answer"]
        for root in children.get(None, ()):
            if root.thread == handler.thread:
                continue
            for wait in waits:
                mine = root.trace_id == handler.trace_id
                # A dispatch may outlive the wait it served (it records
                # metrics after resolving the futures), so only its start
                # has to fall inside the wait.
                shared = root.trace_id is None and \
                    wait.start <= root.start <= wait.end
                if mine or shared:
                    self.adopted_under.setdefault(wait.index, []).append(root)
                    collect(root)
                    break
        self.spans = own
        self._children = children

    def children_of(self, span: Span) -> List[Span]:
        return (self._children.get(span.index, [])
                + self.adopted_under.get(span.index, []))

    def self_time(self, span: Span, until: float = float("inf")) -> float:
        """The span's duration minus what its children cover of it, both
        cut off at ``until``."""
        end = min(span.end, until)
        inside = [(max(c.start, span.start), min(c.end, end))
                  for c in self.children_of(span)]
        return max(0.0, end - span.start) \
            - _covered((a, b) for a, b in inside if b > a)

    def by_layer(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for s in self.spans:
            layers[s.layer] = layers.get(s.layer, 0.0) + self.self_time(s)
        return layers

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]


def request_trees(spans: Sequence[Span]) -> Dict[str, RequestTree]:
    """One tree per traced request, keyed by trace id."""
    children: Dict[Optional[int], List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return {s.trace_id: RequestTree(s, children)
            for s in spans if s.name == "server.handler" and s.trace_id}
