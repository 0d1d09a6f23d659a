"""The cluster's HTTP front door: the single-node JSON API, plus cluster routes.

:class:`ClusterService` wraps a
:class:`~repro.cluster.coordinator.ClusterCoordinator` behind exactly the
interface :class:`~repro.service.server._RequestHandler` expects from a
:class:`~repro.service.server.QueryService` (``query``, ``healthz``,
``metrics_snapshot``, ``traces_snapshot``, ``slowlog``, ``info``,
``handle_mutation_request``, ``tracer``, ``metrics``) — so the
battle-tested handler, canonical-JSON encoding, structured rejections,
trace-per-request plumbing and the Prometheus rendering of the
``/metrics`` body are reused verbatim.  Clients cannot tell a
coordinator from a single node by its query responses (they are
byte-identical, by construction) — only by the extra routes:

  =========  ==================  ====================================
  method     path                body
  =========  ==================  ====================================
  GET        /cluster/healthz    per-shard health fan-out + breakers
  GET        /cluster/topology   the membership/partition manifest
  =========  ==================  ====================================

Trace propagation: the handler opens one root trace per request (minting
or adopting ``X-Trace-Id``); the coordinator forwards that id in each
shard sub-request's ``X-Trace-Id`` header, and each worker's own handler
adopts it — so one trace id indexes the request's spans in the
coordinator's ``/traces`` *and* every involved worker's ``/traces``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional
from urllib.parse import urlsplit

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
from ..service.limits import coerce
from ..service.metrics import ServiceMetrics
from ..service.server import ReverseRankHTTPServer, _RequestHandler
from .coordinator import ClusterCoordinator


class ClusterService:
    """The coordinator dressed as a :class:`QueryService` for the HTTP layer.

    Owns the front door's observability (tracer, metrics, slow-query
    log) — the shards each keep their own, reachable through their own
    ports and joined to the coordinator's by the shared trace id.
    """

    def __init__(self, coordinator: ClusterCoordinator,
                 supervisor=None,
                 trace_capacity: int = DEFAULT_TRACE_CAPACITY,
                 trace_export_path: Optional[str] = None,
                 slow_query_threshold_s: Optional[float] =
                 DEFAULT_SLOW_THRESHOLD_S,
                 slowlog_capacity: int = DEFAULT_SLOWLOG_CAPACITY,
                 slowlog_path: Optional[str] = None):
        self.coordinator = coordinator
        #: Optional :class:`~repro.cluster.supervision.ClusterSupervisor`;
        #: when present its status rides along in ``/cluster/healthz``
        #: and ``/metrics`` so failovers are observable from the front
        #: door.
        self.supervisor = supervisor
        self.metrics = ServiceMetrics()
        self.tracer = Tracer(capacity=trace_capacity,
                             export_path=trace_export_path)
        self.slowlog = SlowQueryLog(threshold_s=slow_query_threshold_s,
                                    capacity=slowlog_capacity,
                                    path=slowlog_path)

    # ------------------------------------------------------------------
    # the handler-facing surface
    # ------------------------------------------------------------------

    def query(self, vector=None, *, product: Optional[int] = None,
              kind: str = "rtk", k: int = 10,
              deadline_s: Optional[float] = None) -> dict:
        """One scatter-gathered request, with front-door accounting."""
        start = perf_counter()
        k = coerce(k, int, "k")
        with span("cluster.query") as sp:
            sp.annotate("kind", kind)
            sp.annotate("k", k)
            encoded = self.coordinator.query(
                vector, product=product, kind=kind, k=k,
                deadline_s=deadline_s,
            )
        degraded = bool(encoded.get("degraded"))
        latency_s = perf_counter() - start
        self.metrics.record_request(kind, latency_s, cache_hit=False,
                                    degraded=degraded,
                                    trace_id=current_trace_id())
        if self.slowlog.should_log(latency_s):
            entry = {
                "kind": kind,
                "k": k,
                "latency_s": latency_s,
                "cache_hit": False,
                "degraded": degraded,
            }
            ctx = current()
            if ctx is not None:
                entry["trace_id"] = ctx.trace.trace_id
                entry["spans"] = ctx.trace.span_tree()
            self.slowlog.record(entry)
        return encoded

    def handle_mutation_request(self, path: str, payload: dict) -> dict:
        """Route one mutation through the coordinator (ownership-aware)."""
        receipt = self.coordinator.route_mutation(path, payload)
        self.metrics.record_mutation(receipt.get("op", path.lstrip("/")))
        return receipt

    def healthz(self) -> dict:
        """Cheap front-door liveness (``/cluster/healthz`` probes shards)."""
        stats = self.coordinator.stats()
        degraded = any(state != "closed"
                       for state in stats["breakers"].values())
        body = {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "role": "coordinator",
            "shards": stats["shards"],
            "partitioner": stats["partitioner"],
            "breakers": stats["breakers"],
            "uptime_s": self.metrics.uptime_s(),
            "degraded_queries": stats["degraded_queries"],
        }
        return body

    def cluster_healthz(self) -> dict:
        """The ``GET /cluster/healthz`` body: live per-shard probes."""
        body = self.coordinator.shard_health()
        if self.supervisor is not None:
            body["supervision"] = self.supervisor.status()
        return body

    def topology_snapshot(self) -> dict:
        """The ``GET /cluster/topology`` body: the membership manifest."""
        body = self.coordinator.topology.to_dict()
        body["next_global"] = self.coordinator.stats()["next_global"]
        return body

    def info(self) -> dict:
        from .. import __version__

        stats = self.coordinator.stats()
        return {
            "service": "repro-rrq-cluster",
            "version": __version__,
            "role": "coordinator",
            "method": "cluster",
            "shards": stats["shards"],
            "partitioner": stats["partitioner"],
            "total_weights": stats["total_weights"],
            "shard_timeout_s": self.coordinator.shard_timeout_s,
            "fallback": stats["fallback_available"],
            "endpoints": {
                str(spec.shard_id): list(spec.endpoints)
                for spec in self.coordinator.topology.shards
            },
        }

    def metrics_snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        # A node's scheduler records these; a coordinator dispatches no
        # batch, sweeps no kernel and takes no node fallback.
        for section in ("batches", "kernel", "fallbacks"):
            del snap[section]
        snap["slowlog"] = self.slowlog.stats()
        snap["traces"] = self.tracer.stats()
        snap["cluster"] = self.coordinator.stats()
        if self.supervisor is not None:
            snap["supervision"] = self.supervisor.status()
        return snap

    def traces_snapshot(self, trace_id: Optional[str] = None,
                        limit: Optional[int] = None) -> dict:
        if trace_id is not None:
            trace = self.tracer.get(trace_id)
            return {"trace": trace, "found": trace is not None}
        return self.tracer.snapshot(limit)

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
        self.coordinator.close()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ClusterRequestHandler(_RequestHandler):
    """The single-node handler plus the ``/cluster/*`` read routes."""

    server_version = "repro-rrq-cluster"

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = urlsplit(self.path).path
        if path == "/cluster/healthz":
            self._send_json(200, self.service.cluster_healthz())
        elif path == "/cluster/topology":
            self._send_json(200, self.service.topology_snapshot())
        else:
            super().do_GET()


class ClusterHTTPServer(ReverseRankHTTPServer):
    """One thread per connection over a shared :class:`ClusterService`."""

    handler_class = _ClusterRequestHandler


def make_cluster_server(service: ClusterService, host: str = "127.0.0.1",
                        port: int = 0,
                        verbose: bool = False) -> ClusterHTTPServer:
    """Bind the coordinator's front door (``port=0`` → ephemeral port)."""
    return ClusterHTTPServer((host, port), service, verbose=verbose)


@contextmanager
def serve_cluster_in_background(service: ClusterService,
                                host: str = "127.0.0.1",
                                port: int = 0) -> Iterator[ClusterHTTPServer]:
    """Serve the coordinator on a daemon thread for the ``with`` block."""
    server = make_cluster_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever,
                              name="rrq-cluster-http", daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        service.close()
