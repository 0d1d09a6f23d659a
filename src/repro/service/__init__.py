"""repro.service — the always-on query-serving subsystem.

Turns the offline library into an embeddable server: a micro-batching
scheduler coalesces concurrent requests into shared BLAS sweeps
(:mod:`.scheduler`), an LRU cache short-circuits repeated queries
(:mod:`.cache`), admission limits shed load with structured 429/504
rejections (:mod:`.limits`), and live qps/latency/batch/cache counters
feed ``GET /metrics`` (:mod:`.metrics`) — as JSON or, with
``?format=prometheus``, as Prometheus text exposition with trace-id
exemplars.  :mod:`.server` wires it all behind a JSON/HTTP frontend
on its own request layer (:mod:`.httpd`) and :mod:`.client` talks to it.

Observability (:mod:`repro.obs`): every HTTP request runs under a trace
(``X-Trace-Id`` in/out) whose span tree — ingress, scheduler dispatch,
kernel execution, WAL append — is readable at ``GET /traces``; requests
over the slow-query threshold land in ``GET /slowlog`` with their spans
and kernel stats attached.  See ``docs/observability.md``.

Quick start::

    from repro.service import QueryService, serve_in_background, ServiceClient

    service = QueryService.from_datasets(P, W, method="gir")
    with serve_in_background(service) as server:
        client = ServiceClient(server.url)
        client.query(P[0], kind="rtk", k=10)

Everything is stdlib + numpy; there is nothing to install.

Resilience: the service degrades instead of dying.  A kernel that fails
to build or to answer hands its batch to the scheduler's one declared
fallback, the exact reference scan — counted in ``rrq_fallback_total``
and shown as ``degraded`` on ``/healthz`` until the kernel answers again;
shutdown drains the queue with structured 503s; the client retries
429/503/transport failures with jittered exponential backoff under a
total deadline.  See ``docs/operations.md``.

Durability: :class:`.server.DurableQueryService` serves a write-ahead-
logged dynamic engine (:mod:`repro.durability`), adding mutation
endpoints (``POST /insert``, ``/delete``, ``/compact``, ``/snapshot``),
a WAL feed for hot standbys (``GET /replicate``), standby promotion
(``POST /promote``), and client-side endpoint failover.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "cache": ["ResultCache", "bind_dynamic", "make_key"],
    "client": ["ServiceClient"],
    "limits": ["Deadline", "ServiceLimits", "http_status", "rejection_body"],
    "metrics": ["ServiceMetrics", "percentile"],
    "scheduler": ["DEFAULT_BATCH_WINDOW_S", "MicroBatchScheduler"],
    "server": ["DurableQueryService", "QueryService", "ReverseRankHTTPServer",
               "ServiceConfig", "canonical_json", "encode_result",
               "make_server", "serve_in_background"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "QueryService", "DurableQueryService", "ServiceConfig", "ServiceClient",
    "ReverseRankHTTPServer", "make_server", "serve_in_background",
    "MicroBatchScheduler", "DEFAULT_BATCH_WINDOW_S",
    "ResultCache", "bind_dynamic", "make_key",
    "ServiceLimits", "Deadline", "http_status", "rejection_body",
    "ServiceMetrics", "percentile",
    "encode_result", "canonical_json",
]
