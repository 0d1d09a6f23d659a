"""Micro-batching admission scheduler for concurrent reverse-rank queries.

Requests are admitted into a bounded queue; a dispatcher thread collects
everything that arrives within a configurable *batch window* and answers
the micro-batch — **whatever its size** — with one call per query kind
into the blocked kernel
(:meth:`~repro.vectorized.girkernel.GirKernelRRQ.reverse_topk_batch` /
``reverse_kranks_batch``): each (P-block × W-block) tile is one float32
score gemm whose rounding bracket decides all but the near-tied
``(p, w)`` pairs, and every query of the batch rides the same tiles.
A lone request is simply a batch of one through the same sweep; it is
several times faster there than through the scalar per-query engine
(``docs/performance.md`` §9).

There are two answer routes and no others:

* **kernel** — the static engine's
  :class:`~repro.vectorized.girkernel.GirKernelRRQ`, or on MVCC engines
  the pinned snapshot's :class:`~repro.storage.SnapshotKernel`, which
  the store rebuilds on the first read after its generation moves;
* **reference scan** — the *declared fallback* of the kernel route,
  taken only when a kernel fails to build or to answer: the exact
  ``NaiveRRQ`` scan, one call per request, over the same rows the
  kernel sweeps (the static engine's ``P`` / ``W``, or the pinned
  snapshot's live rows).  Every fallback is counted
  (``rrq_fallback_total{from="kernel",to="reference_scan",reason}``)
  and annotated on the request spans (``fallback_reason``), and the
  reason stays on :attr:`MicroBatchScheduler.fallback_reason` (so on
  ``/healthz``) until a batch is next answered by the kernel — a broken
  kernel never looks like a healthy slow service.  It is the node's
  only degraded route.

Both routes are byte-identical to
:class:`~repro.algorithms.naive.NaiveRRQ` (the property and integration
suites enforce it), so a payload never depends on which one ran.

Admission control (queue bounds, deadlines) lives in
:mod:`repro.service.limits`; this module enforces it at submit and
dispatch time and reports every batch to
:class:`~repro.service.metrics.ServiceMetrics`.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as _FutureTimeoutError
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..algorithms.naive import NaiveRRQ
from ..data.datasets import ProductSet, WeightSet, check_query_point
from ..errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ServiceOverloadError,
    ServiceUnavailableError,
)
from ..obs.trace import NULL_SPAN, current, detached, span, use_context
from ..resilience.faults import fire
from ..stats.counters import OpCounter
from ..vectorized.girkernel import GirKernelRRQ
from .limits import Deadline, ServiceLimits
from .metrics import ServiceMetrics

#: Default coalescing window, in seconds (2 ms).
DEFAULT_BATCH_WINDOW_S = 0.002

#: How often the dispatcher re-checks the shutdown flag while idle.
_IDLE_POLL_S = 0.05

_KINDS = ("rtk", "rkr")


@dataclass
class _Pending:
    """One admitted request waiting for dispatch.

    ``ctx`` is the submitter's span context (or ``None`` when tracing is
    dark), captured at admission so the dispatcher thread can re-enter
    the request's trace — a ContextVar does not cross threads by itself.
    """

    q: np.ndarray
    kind: str
    k: int
    deadline: Deadline
    future: "Future" = field(default_factory=Future)
    ctx: Optional[object] = None


@contextmanager
def _request_spans(live: List[_Pending], name: str):
    """One open ``name`` span per request, each inside its own trace."""
    with ExitStack() as stack:
        spans = []
        for pending in live:
            if pending.ctx is None:  # never a child of a neighbour's trace
                spans.append(NULL_SPAN)
                continue
            stack.enter_context(use_context(pending.ctx))
            spans.append(stack.enter_context(span(name)))
        if len(live) > 1:  # a shared sweep runs in nobody's trace
            stack.enter_context(detached())
        yield spans


def _reference_scan(engine, snap):
    """``NaiveRRQ`` over the rows the kernel sweeps: the static engine's
    own, or the pinned live rows behind the same id remap as the
    snapshot kernel it stands in for."""
    if snap is None:
        return NaiveRRQ(engine.products, engine.weights)
    from ..storage import SnapshotKernel

    p_rows, _ = snap.live_products()
    w_rows, w_gids = snap.live_weights()
    naive = NaiveRRQ(ProductSet(p_rows, value_range=snap.value_range),
                     WeightSet(w_rows))
    return SnapshotKernel(naive, w_gids, snap.generation)


def _fail(pending: _Pending, exc: Exception) -> bool:
    """Resolve a request the dispatcher has not swept with ``exc``;
    ``False`` when its waiter gave up first (and counted that)."""
    try:
        pending.future.set_exception(exc)
    except InvalidStateError:  # cancelled by ``answer`` on its deadline
        return False
    return True


def _describe(sp, pending: _Pending, batch_size: int, snap, fallback) -> None:
    """The annotations every dispatch span carries, whichever the route."""
    sp.annotate("kind", pending.kind)
    sp.annotate("batch_size", batch_size)
    if snap is not None:
        sp.annotate("generation", snap.generation)
    if fallback is not None:
        reason, error = fallback
        sp.annotate("fallback_reason", reason)
        if error is not None:
            sp.annotate("fallback_error", error)


class MicroBatchScheduler:
    """Coalesces concurrent single queries into vectorized micro-batches.

    Parameters
    ----------
    engine:
        One of two kinds.  A *static* engine exposes ``products`` /
        ``weights`` with ``.values`` arrays: a
        :class:`~repro.vectorized.girkernel.GirKernelRRQ` is swept as it
        is (``QueryService.from_index_dir`` maps one), anything else (an
        :class:`~repro.queries.engine.RRQEngine`, a bare algorithm) gets
        a kernel built over its rows on the first batch.  A *mutable*
        engine exposes ``pin_snapshot()`` returning a
        :class:`~repro.storage.StoreSnapshot`
        (:class:`~repro.durability.DurableDynamicRRQ`, or a raw
        :class:`~repro.storage.SegmentStore` with ``pin_snapshot =
        store.pin``); every batch reads one pinned snapshot.  Anything
        else is refused at construction.
    batch_window_s:
        The longest the dispatcher waits for more requests after the
        first one arrives.  ``0`` disables coalescing entirely (every
        dispatch is a batch of one).
    limits:
        Admission bounds (queue depth, default deadline, max batch size).
    metrics:
        Destination for batch/rejection tallies; a private instance is
        created when omitted.
    idle_connections:
        How many requests are still on their way: the HTTP server wires
        its count of idle connections whose socket holds bytes, plus
        requests a handler has begun to read and not yet put on the
        queue (:meth:`~repro.service.httpd.HTTPServer.arriving`); a
        connection that is merely open is not counted.  At zero, with
        the queue drained, the window closes early — nobody is left to
        wait for.  ``None`` (no server behind the scheduler): the window
        always runs its time.
    auto_start:
        Start the dispatcher thread immediately (tests pass ``False`` to
        stage requests deterministically before opening the tap).
    """

    def __init__(self, engine, batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
                 limits: Optional[ServiceLimits] = None,
                 metrics: Optional[ServiceMetrics] = None,
                 idle_connections: Optional[Callable[[], int]] = None,
                 auto_start: bool = True):
        if batch_window_s < 0:
            raise InvalidParameterError("batch_window_s must be >= 0")
        self.engine = engine
        self.batch_window_s = float(batch_window_s)
        self.limits = limits or ServiceLimits()
        self.metrics = metrics or ServiceMetrics()
        self.idle_connections = idle_connections
        #: Called in the submitting thread as its request joins the
        #: queue; the HTTP server wires it to stop counting the request
        #: as arriving (:meth:`~repro.service.httpd.HTTPServer.handed_on`).
        #: It and the put, and the dispatcher's count, hold one lock, so
        #: the dispatcher finds each request arriving or already queued.
        self.on_queued: Optional[Callable[[], None]] = None
        self._arrival_lock = threading.Lock()
        self._dim = engine.products.dim
        # Mutable engines pin one immutable snapshot per batch: queries
        # run against it without any engine lock and never observe
        # mutations that land mid-batch.  The store densifies it into a
        # blocked kernel, kept until the store generation moves.
        self._pin_snapshot = getattr(engine, "pin_snapshot", None)
        if self._pin_snapshot is None and \
                not hasattr(engine.products, "values"):
            raise InvalidParameterError(
                f"{type(engine).__name__} exposes neither static "
                "products.values / weights.values arrays nor "
                "pin_snapshot(); the scheduler cannot read it consistently"
            )
        self._kernel: Optional[GirKernelRRQ] = None
        #: ``(store generation or None, error)`` of the last failed kernel
        #: build; see :meth:`_sweep`.
        self._build_failure = None
        #: Why the last batch fell back to the reference scan
        #: (``kernel_error`` / ``kernel_build_error``); ``None`` once a
        #: batch is answered by the kernel again.
        self.fallback_reason: Optional[str] = None
        self._queue: "queue.Queue[_Pending]" = queue.Queue(
            maxsize=self.limits.max_queue_depth
        )
        self._stop = threading.Event()
        self._closing = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if auto_start:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._closing.clear()
        self._thread = threading.Thread(
            target=self._run, name="rrq-scheduler", daemon=True
        )
        self._thread.start()

    def close(self, drain: bool = True, drain_timeout_s: float = 5.0) -> None:
        """Graceful shutdown: drain in-flight work, shed the rest with 503s.

        New submissions are refused immediately with
        :class:`ServiceUnavailableError` (HTTP 503).  With ``drain`` the
        dispatcher keeps answering already-admitted requests for up to
        ``drain_timeout_s``; anything still queued after that (or when
        ``drain=False``) fails with a structured
        :class:`ServiceUnavailableError` instead of a dropped connection.
        """
        self._closing.set()
        if drain and self._thread is not None and self._thread.is_alive():
            deadline = time.monotonic() + drain_timeout_s
            while not self._queue.empty() and time.monotonic() < deadline:
                time.sleep(0.005)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            if _fail(pending, ServiceUnavailableError(
                    "service shut down before the request was dispatched")):
                self.metrics.record_unavailable()

    def __enter__(self) -> "MicroBatchScheduler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        """Requests currently waiting for dispatch (approximate)."""
        return self._queue.qsize()

    def submit(self, q, kind: str, k: int,
               deadline_s: Optional[float] = None) -> "Future":
        """Admit one query; returns a Future resolving to its result.

        Raises :class:`ServiceOverloadError` immediately when the queue
        is full.  The Future resolves to an :class:`RTKResult` /
        :class:`RKRResult`, or raises :class:`DeadlineExceededError` if
        the request's deadline passes before dispatch.
        """
        return self._admit(q, kind, k, deadline_s).future

    def _admit(self, q, kind: str, k: int,
               deadline_s: Optional[float]) -> _Pending:
        if kind not in _KINDS:
            raise InvalidParameterError("kind must be 'rtk' or 'rkr'")
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        if self._closing.is_set():
            self.metrics.record_unavailable()
            raise ServiceUnavailableError(
                "service is shutting down; request not admitted"
            )
        q_arr = check_query_point(q, self._dim)
        pending = _Pending(
            q=q_arr, kind=kind, k=int(k),
            deadline=self.limits.deadline(deadline_s),
            ctx=current(),
        )
        try:
            with self._arrival_lock:
                if self.on_queued is not None:
                    self.on_queued()
                self._queue.put_nowait(pending)
        except queue.Full:
            self.metrics.record_rejection(overload=True)
            raise ServiceOverloadError(
                f"admission queue full ({self.limits.max_queue_depth} "
                "requests waiting)"
            ) from None
        return pending

    def answer(self, q, kind: str, k: int,
               deadline_s: Optional[float] = None):
        """Submit and block until the result (or rejection) is available.

        An expiry is counted once.  Cancelling the future claims a
        request the dispatcher has not reached yet (it then skips it); a
        future already resolved carries the dispatcher's own verdict; one
        still being swept is this waiter's to count.
        """
        pending = self._admit(q, kind, k, deadline_s)
        try:  # one deadline: the dispatcher's expiry check reads the same
            return pending.future.result(timeout=pending.deadline.remaining())
        except (TimeoutError, _FutureTimeoutError):
            if not pending.future.cancel() and pending.future.done():
                return pending.future.result()
            self.metrics.record_rejection(overload=False)
            raise DeadlineExceededError(
                "request deadline exceeded while waiting for dispatch"
            ) from None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=_IDLE_POLL_S)
            except queue.Empty:
                continue
            batch, closed = self._collect(first)
            self._dispatch(batch, closed)

    def _collect(self, first: _Pending) -> Tuple[List[_Pending], str]:
        """The micro-batch — ``first`` plus arrivals within the window —
        and what closed the window: ``full`` (``max_batch``), ``expired``
        (``batch_window_s``, at once when that is 0) or ``complete``: no
        request is arriving and the queue is drained, so every caller
        that has sent a request is already waiting on this batch."""
        batch = [first]
        window_closes = time.monotonic() + self.batch_window_s
        while len(batch) < self.limits.max_batch:
            remaining = window_closes - time.monotonic()
            if remaining <= 0:
                return batch, "expired"
            complete = self._nothing_arriving()
            try:
                batch.append(self._queue.get(block=not complete,
                                             timeout=remaining))
            except queue.Empty:
                return batch, "complete" if complete else "expired"
        return batch, "full"

    def _nothing_arriving(self) -> bool:
        """Nothing arriving, counted twice around one yield of the CPU.

        A peer sending a pair can be preempted between its two writes by
        this server's own threads, woken on its CPU by the first; the
        yield lets it finish the second before the window closes.  With
        nothing else runnable, the yield returns at once."""
        if self.idle_connections is None:
            return False
        with self._arrival_lock:
            if self.idle_connections():
                return False
        os.sched_yield()
        with self._arrival_lock:
            return self.idle_connections() == 0

    def _dispatch(self, batch: List[_Pending], closed: str) -> None:
        live = []
        for pending in batch:
            if not pending.deadline.expired():
                if pending.future.set_running_or_notify_cancel():
                    live.append(pending)
            elif _fail(pending, DeadlineExceededError(
                    "request deadline exceeded before dispatch")):
                self.metrics.record_rejection(overload=False)
        if not live:
            return
        counter = OpCounter()
        try:
            fire("scheduler.dispatch")
            snap = (self._pin_snapshot()
                    if self._pin_snapshot is not None else None)
            try:
                self._answer(live, snap, counter, closed)
            finally:
                if snap is not None:
                    snap.release()
        except Exception as exc:  # surface backend failures to callers
            for pending in live:
                if not pending.future.done():
                    pending.future.set_exception(exc)
        self.metrics.record_batch(len(live), counter, closed)

    def _answer(self, live: List[_Pending], snap, counter: OpCounter,
                closed: str) -> None:
        """Route one micro-batch: the kernel, else the reference scan.

        ``snap`` is the batch's pinned MVCC snapshot (``None`` on static
        engines).  No lock is taken on either route — writers proceed
        concurrently and the batch still sees one consistent state.
        """
        single = len(live) == 1
        # Every request's ``kernel.batch`` span encloses the shared sweep
        # (and the kernel build, when this batch pays for one).  The spans
        # close before the futures resolve, so a submitting thread never
        # reads a trace whose dispatch span is still open.
        with _request_spans(live, "kernel.batch") as spans:
            swept, fallback = self._sweep(live, snap)
            for sp, pending in zip(spans, live):
                _describe(sp, pending, len(live), snap, fallback)
                sp.annotate("fused", not single)
                sp.annotate("window", closed)
            # A batch of one is the request operators look up: its
            # sweep's stats ride on its span (the slow log's Table-4
            # profile: "refined" there is the float32 rounding band of
            # the columns kept).
            if swept is not None and single and swept[1]:
                spans[0].annotate("kernel_stats", swept[1][0])
        if swept is None:
            self.fallback_reason = fallback[0]
            self._answer_per_query(live, snap, counter, fallback)
            return
        self.fallback_reason = None
        results, sweeps = swept
        for stats in sweeps:
            self.metrics.record_kernel(stats)
        for pending, result in zip(live, results):
            counter.merge(result.counter)
            pending.future.set_result(result)

    def _sweep(self, live: List[_Pending], snap):
        """The kernel route's arithmetic, or why it has to be skipped.

        Returns ``((results, sweep_stats), None)``, or
        ``(None, (reason, error))`` when the batch must fall back to the
        reference scan: the kernel could not be built
        (``kernel_build_error``) or raised while answering
        (``kernel_error``).  No future is touched here, so a failure
        leaves the whole batch for the fallback to answer exactly.  A
        snapshot with an empty side is neither: it has nothing to rank,
        and its :class:`InvalidParameterError` is the batch's answer.

        A failed build is not attempted again until the store
        generation moves (a static engine's never does), but every
        batch it turns away is still a counted fallback.

        Requests are grouped by kind and each group runs as *one*
        ``reverse_topk_batch`` / ``reverse_kranks_batch`` call, sharing
        the (P-block × W-block) score tiles across every query of the
        group.
        """
        state = snap.generation if snap is not None else None
        if self._build_failure is not None and \
                self._build_failure[0] == state:
            return None, ("kernel_build_error", self._build_failure[1])
        try:
            kernel = (snap.kernel() if snap is not None
                      else self._get_kernel())
        except InvalidParameterError:
            raise  # an empty side: no route has anything to rank
        except Exception as exc:
            self._build_failure = (state, f"{type(exc).__name__}: {exc}")
            return None, ("kernel_build_error", self._build_failure[1])
        try:
            fire("scheduler.kernel")
            groups: dict = {}
            for idx, pending in enumerate(live):
                groups.setdefault(pending.kind, []).append(idx)
            results: List[Optional[object]] = [None] * len(live)
            sweeps = []
            for kind, idxs in groups.items():
                run = (kernel.reverse_topk_batch if kind == "rtk"
                       else kernel.reverse_kranks_batch)
                answers = run([live[i].q for i in idxs],
                              [live[i].k for i in idxs])
                for i, res in zip(idxs, answers):
                    results[i] = res
                if kernel.last_stats is not None:
                    sweeps.append(kernel.last_stats.snapshot())
            return (results, sweeps), None
        except Exception as exc:  # declared fallback: counted by the caller
            return None, ("kernel_error", f"{type(exc).__name__}: {exc}")

    def _answer_per_query(self, live: List[_Pending], snap,
                          counter: OpCounter, fallback) -> None:
        """The fallback, one reference-scan call per request.

        ``fallback`` is :meth:`_sweep`'s ``(reason, error)``; the
        hand-over is counted once and named on every request's span.
        """
        backend = _reference_scan(self.engine, snap)
        self.metrics.record_fallback("kernel", "reference_scan", fallback[0])
        for pending in live:
            with use_context(pending.ctx), \
                    span("reference_scan.query") as sp:
                _describe(sp, pending, len(live), snap, fallback)
                if pending.kind == "rtk":
                    result = backend.reverse_topk(pending.q, pending.k)
                else:
                    result = backend.reverse_kranks(pending.q, pending.k)
            counter.merge(result.counter)
            pending.future.set_result(result)

    def _get_kernel(self) -> GirKernelRRQ:
        """The static engine's kernel: the engine itself (or its
        algorithm) when that is a kernel, else one built over its rows on
        first use."""
        if self._kernel is None:
            algorithm = getattr(self.engine, "algorithm", self.engine)
            self._kernel = (algorithm if isinstance(algorithm, GirKernelRRQ)
                            else GirKernelRRQ(self.engine.products,
                                              self.engine.weights))
        return self._kernel
