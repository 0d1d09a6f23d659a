"""The query server: an embeddable service facade plus a JSON/HTTP frontend.

Two layers, deliberately separable:

* :class:`QueryService` — transport-agnostic orchestration of the
  micro-batch scheduler, the LRU answer cache, admission limits, and
  metrics.  Embed it directly when the caller is Python (the benchmark
  harness does exactly this to measure scheduling without socket noise).
* :class:`ReverseRankHTTPServer` — a thread-per-connection server on
  the request layer of :mod:`.httpd`, exposing the service as a JSON
  API:

  =========  ==========  ===========================================
  method     path        body / answer
  =========  ==========  ===========================================
  POST       /query      ``{"vector": [...], "kind": "rtk"|"rkr",
                         "k": int}`` (or ``"product": idx``,
                         optional ``"timeout_ms"``)
  GET        /healthz    liveness probe
  GET        /metrics    qps, latency percentiles, batch + cache stats
                         (``?format=prometheus`` for text exposition
                         with trace-id exemplars)
  GET        /info       data set sizes, method, serving limits,
                         what the process cost to start
  GET        /traces     recent request traces (``?id=`` one trace,
                         ``?limit=`` cap the listing)
  GET        /slowlog    slow-query log entries (``?limit=``)
  =========  ==========  ===========================================

Every ``/query``/mutation response carries an ``X-Trace-Id`` header —
the id minted at ingress (or accepted from the request's own
``X-Trace-Id``), under which the request's span tree is readable at
``GET /traces?id=...``.

Answers are canonical JSON (sorted keys): a served RTK/RKR answer is
byte-identical to :func:`encode_result` of the corresponding
:class:`~repro.queries.engine.RRQEngine` result, whichever execution path
(per-query or coalesced) produced it — the integration tests enforce this
against :class:`~repro.algorithms.naive.NaiveRRQ`.
"""

from __future__ import annotations

import json
import sys
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, Iterator, Optional, Union
from urllib.parse import parse_qs, urlsplit

from ..data.datasets import check_query_point
from ..errors import (
    InvalidParameterError,
    NotPrimaryError,
    ReproError,
)
from ..obs.slowlog import (
    DEFAULT_SLOW_THRESHOLD_S,
    DEFAULT_SLOWLOG_CAPACITY,
    SlowQueryLog,
)
from ..obs.trace import (
    DEFAULT_TRACE_CAPACITY,
    Tracer,
    current,
    current_trace_id,
    span,
)
from ..queries.types import RKRResult, RTKResult
from ..resilience.faults import fire
from .cache import DEFAULT_CAPACITY, ResultCache, bind_dynamic, make_key
from .httpd import HTTPServer, RequestHandler
from .limits import (
    Deadline,
    ServiceLimits,
    coerce,
    http_status,
    rejection_body,
)
from .metrics import ServiceMetrics, render
from .scheduler import DEFAULT_BATCH_WINDOW_S, MicroBatchScheduler

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ServiceConfig:
    """Every serving knob in one place (the CLI maps flags onto this).

    The observability knobs: ``trace_capacity`` bounds the in-memory
    ring behind ``GET /traces`` (``trace_export_path`` additionally
    appends finished traces as JSON lines); requests at or above
    ``slow_query_threshold_s`` land in the slow-query log
    (``None`` disables it), bounded by ``slowlog_capacity`` with an
    optional ``slowlog_path`` JSON-lines sink.
    """

    batch_window_s: float = DEFAULT_BATCH_WINDOW_S
    cache_capacity: int = DEFAULT_CAPACITY
    limits: ServiceLimits = field(default_factory=ServiceLimits)
    trace_capacity: int = DEFAULT_TRACE_CAPACITY
    trace_export_path: Optional[str] = None
    slow_query_threshold_s: Optional[float] = DEFAULT_SLOW_THRESHOLD_S
    slowlog_capacity: int = DEFAULT_SLOWLOG_CAPACITY
    slowlog_path: Optional[str] = None


def encode_result(result: Union[RTKResult, RKRResult], kind: str) -> dict:
    """The canonical JSON-ready encoding of one query answer.

    Key order is irrelevant (responses are serialized with sorted keys);
    value encoding is exact: RTK answers list their qualifying weight
    indices ascending, RKR answers list ``[rank, index]`` pairs in the
    library's deterministic tie-break order.
    """
    if kind == "rtk":
        return {
            "kind": "rtk",
            "k": int(result.k),
            "size": int(result.size),
            "weights": [int(i) for i in result.sorted_indices()],
        }
    return {
        "kind": "rkr",
        "k": int(result.k),
        "entries": [[int(rank), int(idx)] for rank, idx in result.entries],
    }


def canonical_json(obj) -> bytes:
    """Deterministic JSON bytes (sorted keys, compact separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class QueryService:
    """Orchestrates scheduler + cache + limits + metrics over one engine.

    Parameters
    ----------
    engine:
        Anything exposing ``reverse_topk`` / ``reverse_kranks`` /
        ``products`` / ``weights`` — an
        :class:`~repro.queries.engine.RRQEngine`, a bare
        :class:`~repro.core.gir.GridIndexRRQ`, or any other library
        algorithm.
    config:
        Serving knobs; defaults are sensible for interactive use.
    """

    def __init__(self, engine, config: Optional[ServiceConfig] = None):
        self.engine = engine
        self.config = config or ServiceConfig()
        self.method = getattr(engine, "method", None) or getattr(
            engine, "name", type(engine).__name__
        ).lower()
        self.metrics = ServiceMetrics()
        self.tracer = Tracer(capacity=self.config.trace_capacity,
                             export_path=self.config.trace_export_path)
        self.slowlog = SlowQueryLog(
            threshold_s=self.config.slow_query_threshold_s,
            capacity=self.config.slowlog_capacity,
            path=self.config.slowlog_path,
        )
        self.cache = ResultCache(self.config.cache_capacity)
        self.scheduler = MicroBatchScheduler(
            engine,
            batch_window_s=self.config.batch_window_s,
            limits=self.config.limits,
            metrics=self.metrics,
        )
        self._dim = engine.products.dim

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_datasets(cls, products, weights, method: str = "gir",
                      config: Optional[ServiceConfig] = None,
                      **engine_kwargs) -> "QueryService":
        """Build the engine in-process and serve it."""
        from ..queries.engine import RRQEngine

        return cls(RRQEngine(products, weights, method=method,
                             **engine_kwargs), config=config)

    @classmethod
    def from_index_dir(cls, directory: PathLike,
                       config: Optional[ServiceConfig] = None
                       ) -> "QueryService":
        """Serve an index written by :func:`repro.core.storage.save_index`,
        or a raw data directory from ``repro-rrq generate``.

        The directory is checked against its manifest (every byte, CRC32)
        and, when it verifies, its kernel arrays are mapped
        (:func:`~repro.vectorized.kernelstore.load_kernel`) and served as
        they are: no Grid-index is read and no kernel is built.  A
        directory without kernel arrays (raw data, an index older than
        them) or with any artifact damaged is served from a kernel built
        in RAM over ``products.rrq`` / ``weights.rrq`` — only when those
        two verify — and that is counted once as
        ``rrq_fallback_total{from="kernel_store",to="rebuild",
        reason="absent"|"corrupt"}``; damage also raises a
        :class:`RuntimeWarning` naming the damaged artifacts.  Damaged or
        unreadable raw data refuses to start with
        :class:`~repro.errors.IndexCorruptionError`.
        """
        from ..errors import DataValidationError, IndexCorruptionError
        from ..storage.manifest import verify_manifest_dir
        from ..vectorized.kernelstore import load_kernel

        path = Path(directory)
        raw = ("products.rrq", "weights.rrq")
        if not all((path / name).is_file() for name in raw):
            raise DataValidationError(
                f"{directory}: not an index or data directory (missing "
                "products.rrq / weights.rrq; run 'repro-rrq generate' "
                "and 'repro-rrq build')")
        report = verify_manifest_dir(path)
        damaged = sorted(report["damaged"])
        if report["manifest"] == "missing":
            reason, damaged = "absent", []
        elif report["manifest"] == "corrupt" or \
                any(report["artifacts"].get(name) != "ok" for name in raw):
            raise IndexCorruptionError(
                f"{directory}: {', '.join(damaged)} damaged; the raw data "
                "cannot be trusted — rebuild the index from the original "
                "data set with 'repro-rrq build'",
                directory=str(directory), artifacts=tuple(damaged))
        elif "kernel.bin" not in report["artifacts"]:
            reason = "absent"
        elif damaged:
            reason = "corrupt"
        else:
            try:
                return cls(load_kernel(path), config=config)
            except (IndexCorruptionError, DataValidationError) as exc:
                reason, damaged = "corrupt", [f"kernel store ({exc})"]
        from ..data.io import load_products, load_weights
        from ..vectorized.girkernel import GirKernelRRQ

        try:
            kernel = GirKernelRRQ(load_products(path / "products.rrq"),
                                  load_weights(path / "weights.rrq"))
        except (ReproError, OSError) as exc:
            raise IndexCorruptionError(
                f"{directory}: raw data unreadable ({exc}); rebuild the "
                "index from the original data set with 'repro-rrq build'",
                directory=str(directory), artifacts=raw) from exc
        if damaged:
            warnings.warn(
                f"{directory}: {', '.join(damaged)} damaged; serving a "
                "kernel rebuilt from products.rrq / weights.rrq "
                "('repro-rrq build' rewrites the index)",
                RuntimeWarning, stacklevel=2)
        service = cls(kernel, config=config)
        service.metrics.record_fallback("kernel_store", "rebuild", reason)
        return service

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def resolve_query_point(self, vector=None, product: Optional[int] = None):
        """Turn a request's ``vector``/``product`` into a canonical point."""
        if (vector is None) == (product is None):
            raise InvalidParameterError(
                "provide exactly one of 'vector' or 'product'"
            )
        if product is not None:
            product = coerce(product, int, "product")
            size = self.engine.products.size
            if not 0 <= product < size:
                raise InvalidParameterError(
                    f"product index must be in [0, {size})"
                )
            vector = self.engine.products[product]
        return check_query_point(vector, self._dim)

    def _finish(self, kind: str, k: int, start: float,
                cache_hit: bool) -> None:
        """Close out one answered request: metrics, exemplar, slow log.

        The active trace id (if any) becomes the latency-histogram
        exemplar; a request at or above the slow-query threshold is
        recorded with its span tree and any kernel stats the scheduler
        annotated onto its spans.
        """
        latency_s = perf_counter() - start
        self.metrics.record_request(kind, latency_s, cache_hit=cache_hit,
                                    trace_id=current_trace_id())
        if not self.slowlog.should_log(latency_s):
            return
        entry = {
            "kind": kind,
            "k": int(k),
            "latency_s": latency_s,
            "cache_hit": cache_hit,
        }
        ctx = current()
        if ctx is not None:
            entry["trace_id"] = ctx.trace.trace_id
            entry["spans"] = ctx.trace.span_tree()
            for recorded in ctx.trace.spans():
                if "kernel_stats" in recorded.annotations:
                    entry["kernel"] = recorded.annotations["kernel_stats"]
                    break
        self.slowlog.record(entry)

    def query(self, vector=None, *, product: Optional[int] = None,
              kind: str = "rtk", k: int = 10,
              deadline_s: Optional[float] = None) -> dict:
        """Answer one request; returns the JSON-ready answer dict.

        Raises :class:`ServiceOverloadError` / :class:`DeadlineExceededError`
        under load and :class:`InvalidParameterError` for caller mistakes;
        any other failure propagates as it is (the HTTP frontend maps it
        to a status and counts a 5xx once).  A kernel that fails to build
        or to answer never reaches here: the scheduler answers that batch
        by its counted reference scan, byte-identical.
        Treat the returned dict as read-only: cache hits share it.

        When a trace is active (the HTTP frontend opens one per request)
        the whole call is a ``service.query`` span; the trace id rides
        into the scheduler and kernel, the latency histogram's exemplar,
        and the slow-query log.  Embedded callers that never start a
        trace pay only a ContextVar read.
        """
        start = perf_counter()
        fire("service.query")
        if kind not in ("rtk", "rkr"):
            raise InvalidParameterError("kind must be 'rtk' or 'rkr'")
        k = coerce(k, int, "k")
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        if deadline_s is not None:  # refused whether cached or not
            Deadline.after(deadline_s)
        # The span closes (joining the trace) before _finish runs, so a
        # slow-query record sees the full service/scheduler span tree.
        with span("service.query") as sp:
            sp.annotate("kind", kind)
            sp.annotate("k", k)
            encoded, cache_hit = self._answer(
                sp, vector, product, kind, k, deadline_s
            )
        self._finish(kind, k, start, cache_hit)
        return encoded

    def _answer(self, sp, vector, product, kind: str, k: int,
                deadline_s: Optional[float]):
        """The cache/scheduler pipeline behind :meth:`query`.

        Returns ``(encoded_answer, cache_hit)``; runs inside the
        ``service.query`` span (``sp``).
        """
        q_arr = self.resolve_query_point(vector, product)
        key = make_key(q_arr, kind, k, self.method)
        # Capture the cache generation *before* computing: a mutation
        # or promote that lands while the scheduler works moves the
        # generation and the put below is dropped, so an answer from
        # the old index can never re-poison a fresh cache.
        generation = self.cache.generation()
        cached = self.cache.get(key)
        if cached is not None:
            sp.annotate("cache_hit", True)
            return cached, True
        result = self.scheduler.answer(q_arr, kind, k, deadline_s)
        encoded = encode_result(result, kind)
        self.cache.put(key, encoded, generation=generation)
        return encoded, False

    def info(self) -> dict:
        """Static facts about the served engine (the ``/info`` body)."""
        from .. import __version__
        from ..vectorized.blasthreads import guarded_thread_counts

        products, weights = self.engine.products, self.engine.weights
        return {
            "service": "repro-rrq",
            "version": __version__,
            "method": self.method,
            # [] means the sweeps' one-thread BLAS guard guards nothing.
            "blas_threads": guarded_thread_counts(),
            "products": int(products.size),
            "weights": int(weights.size),
            "dim": int(products.dim),
            "value_range": float(products.value_range),
            "batch_window_ms": self.config.batch_window_s * 1000.0,
            "cache_capacity": self.config.cache_capacity,
            "max_queue_depth": self.config.limits.max_queue_depth,
            "max_batch": self.config.limits.max_batch,
            "default_deadline_s": self.config.limits.default_deadline_s,
        }

    def metrics_snapshot(self) -> dict:
        """Live counters (the JSON ``/metrics`` body)."""
        snap = self.metrics.snapshot()
        snap["cache"] = self.cache.stats()
        snap["slowlog"] = self.slowlog.stats()
        snap["traces"] = self.tracer.stats()
        return snap

    def traces_snapshot(self, trace_id: Optional[str] = None,
                        limit: Optional[int] = None) -> dict:
        """The ``GET /traces`` body (``?id=`` selects one trace)."""
        if trace_id is not None:
            trace = self.tracer.get(trace_id)
            return {"trace": trace, "found": trace is not None}
        return self.tracer.snapshot(limit)

    def healthz(self) -> dict:
        """Liveness body: cheap, allocation-light, never blocks on the queue.

        ``status`` is ``"ok"`` while the kernel answers and
        ``"degraded"`` — with ``fallback_reason`` (``kernel_error`` /
        ``kernel_build_error``) — from the scheduler's last fallback to
        its reference scan until a batch is next answered by the kernel.
        Degraded is still *healthy* — answers remain exact — so
        orchestrators should alert on it, not restart on it.
        """
        reason = self.scheduler.fallback_reason
        body = {
            "status": "ok" if reason is None else "degraded",
            "degraded": reason is not None,
            "uptime_s": self.metrics.uptime_s(),
            "queue_depth": self.scheduler.queue_depth(),
        }
        if reason is not None:
            body["fallback_reason"] = reason
        return body

    def close(self, drain: bool = True) -> None:
        """Stop the dispatcher thread; the service cannot answer afterwards.

        With ``drain`` (default) already-admitted requests are answered
        first and anything shed on the way down gets a structured 503.
        """
        self.scheduler.close(drain=drain)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DurableQueryService(QueryService):
    """Serves a :class:`~repro.durability.engine.DurableDynamicRRQ`.

    Adds three things to :class:`QueryService`:

    * **mutations** — :meth:`mutate` logs each write to the WAL before
      applying it (the engine acknowledges only after the append is
      durable) and invalidates the answer cache through the engine's
      change listener;
    * **roles** — a ``primary`` accepts writes; a ``standby`` refuses
      them with :class:`~repro.errors.NotPrimaryError` (HTTP 409) while
      a background :class:`~repro.durability.replica.ReplicaTailer`
      keeps it in sync with ``primary_url``.  :meth:`promote` flips a
      standby to primary (stops the tailer) — the client's failover
      path;
    * **replication feed** — :meth:`replication_feed` exposes the WAL
      tail for standbys (``GET /replicate``).
    """

    #: Mutation operations accepted over HTTP, keyed by (path, type).
    MUTATION_OPS = ("insert_product", "insert_weight", "delete_product",
                    "delete_weight", "modify_product", "modify_weight",
                    "compact", "snapshot")

    def __init__(self, engine, config: Optional[ServiceConfig] = None,
                 role: str = "primary", primary_url=None,
                 poll_interval_s: float = 0.05):
        if role not in ("primary", "standby"):
            raise InvalidParameterError("role must be 'primary' or 'standby'")
        super().__init__(engine, config=config)
        bind_dynamic(self.cache, engine)
        self.role = role
        self._tailer = None
        if role == "standby":
            if primary_url is None:
                raise InvalidParameterError(
                    "a standby needs primary_url (or a fetch callable) "
                    "to tail the primary's WAL feed"
                )
            from ..durability.replica import ReplicaTailer

            self._tailer = ReplicaTailer(
                engine, primary_url, poll_interval_s=poll_interval_s
            ).start()

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def mutate(self, op: str, payload: Optional[dict] = None) -> dict:
        """Apply one durable mutation; returns its JSON-ready receipt.

        The returned ``lsn`` is the acknowledgment: the record is on
        disk (per the fsync policy) before this method returns.  On a
        standby every op raises :class:`NotPrimaryError` so clients
        fail over to the primary.
        """
        payload = payload or {}
        if op not in self.MUTATION_OPS:
            raise InvalidParameterError(
                f"unknown mutation {op!r}; expected one of "
                f"{', '.join(self.MUTATION_OPS)}"
            )
        if self.role != "primary":
            self.metrics.record_mutation(op, rejected=True)
            raise NotPrimaryError(
                "this replica is a standby; send writes to the primary "
                "(or POST /promote first)"
            )
        fire("service.mutate")
        engine = self.engine
        if op == "insert_product":
            index, lsn = engine.insert_product(payload.get("vector"))
            body = {"op": op, "index": index, "lsn": lsn}
        elif op == "insert_weight":
            index, lsn = engine.insert_weight(
                payload.get("vector"),
                renormalize=bool(payload.get("renormalize", False)),
            )
            body = {"op": op, "index": index, "lsn": lsn}
        elif op in ("delete_product", "delete_weight"):
            if "index" not in payload:
                raise InvalidParameterError(f"{op} requires 'index'")
            index = coerce(payload["index"], int, "index")
            lsn = getattr(engine, op)(index)
            body = {"op": op, "index": index, "lsn": lsn}
        elif op in ("modify_product", "modify_weight"):
            if "index" not in payload:
                raise InvalidParameterError(f"{op} requires 'index'")
            old_index = coerce(payload["index"], int, "index")
            kwargs = {}
            if op == "modify_weight":
                kwargs["renormalize"] = bool(payload.get("renormalize",
                                                         False))
            index, lsn = getattr(engine, op)(
                old_index, payload.get("vector"), **kwargs
            )
            # ``index`` is the replacement row's (new) stable id.
            body = {"op": op, "index": index, "old_index": old_index,
                    "lsn": lsn}
        elif op == "compact":
            p_map, w_map, lsn = engine.compact()
            # Per stable index: itself while live, -1 once removed.
            body = {
                "op": op, "lsn": lsn,
                "product_map": [int(v) for v in p_map],
                "weight_map": [int(v) for v in w_map],
            }
        else:  # snapshot
            body = {"op": op, "lsn": engine.snapshot()}
        self.metrics.record_mutation(op)
        return body

    def handle_mutation_request(self, path: str, payload: dict) -> dict:
        """Map one HTTP mutation route onto :meth:`mutate`/:meth:`promote`."""
        if path == "/promote":
            return self.promote()
        if path == "/retarget":
            return self.retarget_primary(payload.get("primary_url"))
        if path in ("/insert", "/delete", "/modify"):
            target = payload.get("type", "product")
            if target not in ("product", "weight"):
                raise InvalidParameterError(
                    "'type' must be 'product' or 'weight'"
                )
            return self.mutate(f"{path[1:]}_{target}", payload)
        if path in ("/compact", "/snapshot"):
            return self.mutate(path[1:], payload)
        raise InvalidParameterError(f"unknown mutation route {path}")

    # ------------------------------------------------------------------
    # replication / roles
    # ------------------------------------------------------------------

    def replication_feed(self, since: int, limit: Optional[int] = None) -> dict:
        """The WAL tail after ``since`` (the ``GET /replicate`` body)."""
        if limit is None:
            return self.engine.replication_feed(int(since))
        return self.engine.replication_feed(int(since), int(limit))

    def promote(self) -> dict:
        """Make this replica the primary (idempotent).

        Stops the tailer first, so no primary records can arrive after
        local writes are accepted — the standby's WAL stays linear.
        The answer cache is flushed: entries cached while tailing may
        predate the final replicated records, and a fresh primary must
        never serve an answer computed against its standby-era state.
        """
        if self._tailer is not None:
            self._tailer.stop()
            self._tailer = None
        self.role = "primary"
        self.cache.invalidate()
        return {"role": self.role, "last_lsn": self.engine.last_lsn}

    def retarget_primary(self, primary_url) -> dict:
        """Point a standby's tailer at a new primary (``POST /retarget``).

        Used by the cluster supervisor after a failover: surviving
        standbys must follow the *promoted* replica, not the corpse of
        the old primary.  Only meaningful on a standby — a primary has
        no tailer and answers 409 so a misrouted retarget is loud.
        """
        if not primary_url:
            raise InvalidParameterError("/retarget requires 'primary_url'")
        if self.role != "standby" or self._tailer is None:
            raise NotPrimaryError(
                "retarget only applies to a standby with an active tailer"
            )
        self._tailer.retarget(str(primary_url))
        return {"role": self.role, "primary_url": str(primary_url).rstrip("/"),
                "last_lsn": self.engine.last_lsn}

    def replication_status(self) -> Optional[dict]:
        return self._tailer.status() if self._tailer is not None else None

    # ------------------------------------------------------------------
    # observability overrides
    # ------------------------------------------------------------------

    def info(self) -> dict:
        body = super().info()
        stats = self.engine.durability_stats()
        body.update(
            role=self.role,
            durable=True,
            directory=str(self.engine.directory),
            fsync=stats["wal"]["fsync_policy"],
            last_lsn=stats["last_lsn"],
            snapshot_lsn=stats["snapshot_lsn"],
        )
        storage = self.engine.storage_stats()
        body["segments"] = storage["segments"]
        body["delta_rows"] = storage["delta_rows"]
        return body

    def metrics_snapshot(self) -> dict:
        snap = super().metrics_snapshot()
        snap["durability"] = self.engine.durability_stats()
        snap["storage"] = self.engine.storage_stats()
        replication = self.replication_status()
        if replication is not None:
            snap["replication"] = replication
        return snap

    def healthz(self) -> dict:
        body = super().healthz()
        body["role"] = self.role
        body["last_lsn"] = self.engine.last_lsn
        replication = self.replication_status()
        if replication is not None:
            body["replication_lag"] = replication["lag"]
            if not replication["running"] or replication["lag"] < 0:
                body["status"] = "degraded"
                body["degraded"] = True
        return body

    def close(self, drain: bool = True) -> None:
        if self._tailer is not None:
            self._tailer.stop()
            self._tailer = None
        super().close(drain=drain)
        self.engine.close()


class _RequestHandler(RequestHandler):
    """Routes the endpoints; bodies are canonical JSON (or Prometheus text).

    Every ``/query`` and mutation request runs under a root trace span:
    the id comes from the caller's ``X-Trace-Id`` header when well-formed
    (else a fresh one is minted) and is echoed back as the response's
    ``X-Trace-Id`` — never inside the JSON body, which stays byte-exact
    across execution paths.
    """

    @property
    def service(self) -> QueryService:
        return self.server.service

    def _send_json(self, status: int, obj: dict,
                   trace_id: Optional[str] = None) -> None:
        body = canonical_json(obj)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if trace_id is not None:
            self.send_header("X-Trace-Id", trace_id)
        if status >= 400 and "retry_after_s" in obj:
            # Load shedding tells well-behaved clients when to come back.
            self.send_header("Retry-After",
                             str(max(1, int(round(obj["retry_after_s"])))))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; version=0.0.4") -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    _MUTATION_PATHS = ("/insert", "/delete", "/modify", "/compact",
                       "/snapshot", "/promote", "/retarget")

    #: Read routes a subclass adds: path -> the service method whose
    #: return value is the 200 body.
    _EXTRA_GET_ROUTES: Dict[str, str] = {}

    def _not_found(self, path: str) -> None:
        self._send_json(404, {"error": "NotFound", "message": path,
                              "status": 404})

    @staticmethod
    def _int_param(params, name: str) -> Optional[int]:
        raw = params.get(name, [None])[0]
        return coerce(raw, int, name) if raw is not None else None

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlsplit(self.path)
        if parsed.path == "/healthz":
            self._send_json(200, self.service.healthz())
        elif parsed.path == "/metrics":
            params = parse_qs(parsed.query)
            body = self.service.metrics_snapshot()
            if params.get("format", [None])[0] == "prometheus":
                self._send_text(200, render(
                    body, self.service.metrics.latency_histogram(),
                    self.server.idle_connections()))
            else:
                self._send_json(200, body)
        elif parsed.path == "/traces":
            try:
                params = parse_qs(parsed.query)
                body = self.service.traces_snapshot(
                    trace_id=params.get("id", [None])[0],
                    limit=self._int_param(params, "limit"),
                )
            except Exception as exc:  # structured, never a traceback
                self._send_json(http_status(exc), rejection_body(exc))
                return
            self._send_json(200, body)
        elif parsed.path == "/slowlog":
            try:
                params = parse_qs(parsed.query)
                body = self.service.slowlog.snapshot(
                    limit=self._int_param(params, "limit")
                )
            except Exception as exc:  # structured, never a traceback
                self._send_json(http_status(exc), rejection_body(exc))
                return
            self._send_json(200, body)
        elif parsed.path == "/info":
            self._send_json(200, {**self.service.info(),
                                  **self.server.startup})
        elif parsed.path == "/replicate" and hasattr(self.service,
                                                     "replication_feed"):
            try:
                params = parse_qs(parsed.query)
                feed = self.service.replication_feed(
                    self._int_param(params, "since") or 0,
                    self._int_param(params, "limit"))
            except Exception as exc:  # structured, never a traceback
                status = http_status(exc)
                if status >= 500:
                    self.service.metrics.record_error()
                self._send_json(status, rejection_body(exc))
                return
            self._send_json(200, feed)
        elif parsed.path in self._EXTRA_GET_ROUTES:
            method = getattr(self.service,
                             self._EXTRA_GET_ROUTES[parsed.path])
            self._send_json(200, method())
        else:
            self._not_found(parsed.path)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = urlsplit(self.path).path
        is_mutation = (path in self._MUTATION_PATHS
                       and hasattr(self.service, "handle_mutation_request"))
        if path != "/query" and not is_mutation:
            self._not_found(path)
            return
        root_name = "http.mutate" if is_mutation else "http.query"
        # The response is sent *after* the trace context closes, so the
        # finished trace is already in the ring by the time the caller
        # sees the answer — a client may GET /traces?id=... immediately.
        with self.service.tracer.trace(
            root_name, trace_id=self.headers.get("X-Trace-Id")
        ) as root:
            root.annotate("path", path)
            try:
                try:
                    payload = json.loads(self.body or b"{}")
                except (ValueError, RecursionError) as exc:
                    raise InvalidParameterError(
                        f"request body is not JSON ({exc})") from None
                if not isinstance(payload, dict):
                    raise InvalidParameterError(
                        "request body must be an object"
                    )
                if is_mutation:
                    answer = self.service.handle_mutation_request(path,
                                                                  payload)
                else:
                    timeout_ms = payload.get("timeout_ms")
                    answer = self.service.query(
                        payload.get("vector"),
                        product=payload.get("product"),
                        kind=payload.get("kind", "rtk"),
                        k=payload.get("k", 10),
                        deadline_s=(
                            coerce(timeout_ms, float, "timeout_ms") / 1000.0
                            if timeout_ms is not None else None),
                    )
                status, body = 200, answer
            except Exception as exc:  # structured rejection, no traceback
                root.status = "error"
                root.error = f"{type(exc).__name__}: {exc}"
                status = http_status(exc)
                if status >= 500:
                    self.service.metrics.record_error()
                body = rejection_body(exc)
        self._send_json(status, body, trace_id=root.trace_id)


class ReverseRankHTTPServer(HTTPServer):
    """One thread per connection over a shared :class:`QueryService`."""

    handler_class = _RequestHandler

    def __init__(self, address, service: QueryService, verbose: bool = False):
        super().__init__(address, self.handler_class)
        #: What the process had spent and loaded once the socket was
        #: bound; ``GET /info`` and the ``serve`` banners carry it.
        self.startup = {"startup_cpu_s": round(process_time(), 3),
                        "modules_loaded": len(sys.modules)}
        self.service = service
        self.verbose = verbose
        # The scheduler closes a coalescing window early once no
        # request is arriving; a ClusterService has none.
        scheduler = getattr(service, "scheduler", None)
        if scheduler is not None:
            scheduler.idle_connections = self.arriving
            scheduler.on_queued = self.handed_on

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(service: QueryService, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False) -> ReverseRankHTTPServer:
    """Bind (``port=0`` picks an ephemeral port) without starting to serve."""
    return ReverseRankHTTPServer((host, port), service, verbose=verbose)


@contextmanager
def serve_in_background(service: QueryService, host: str = "127.0.0.1",
                        port: int = 0) -> Iterator[ReverseRankHTTPServer]:
    """Serve on a daemon thread for the duration of the ``with`` block.

    Yields the bound server (``server.url`` is the base URL).  Shuts the
    HTTP server *and* the service's scheduler down on exit.
    """
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever,
                              name="rrq-http", daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        service.close()
