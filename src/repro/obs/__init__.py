"""repro.obs — observability: tracing, Prometheus exposition, slow queries.

The cross-cutting layer every other subsystem reports into:

* :mod:`.trace` — trace ids and spans, propagated from HTTP ingress
  through the scheduler, kernel, and durability layers via a
  ContextVar; finished traces land in a bounded ring (``GET /traces``)
  with optional JSON-lines export.  Instrumentation is free when no
  trace is active.
* :mod:`.prom` — Prometheus text exposition
  (``GET /metrics?format=prometheus``): counters, gauges, histograms
  with trace-id exemplars, plus the lint parser CI scrapes with.
* :mod:`.slowlog` — the structured slow-query log (threshold
  configurable; entries carry the span tree and kernel stats).

Everything here is stdlib-only, so any layer may depend on it without
cycles.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "prom": ["LATENCY_BUCKETS_S", "Exposition", "Histogram",
             "lint_exposition"],
    "slowlog": ["DEFAULT_SLOW_THRESHOLD_S", "DEFAULT_SLOWLOG_CAPACITY",
                "SlowQueryLog"],
    "trace": ["DEFAULT_TRACE_CAPACITY", "Span", "Trace", "Tracer", "current",
              "current_trace_id", "detached", "new_trace_id",
              "sanitize_trace_id", "span", "use_context"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "Tracer", "Trace", "Span", "span", "current", "current_trace_id",
    "use_context", "detached", "new_trace_id", "sanitize_trace_id",
    "DEFAULT_TRACE_CAPACITY",
    "Histogram", "Exposition", "lint_exposition",
    "LATENCY_BUCKETS_S",
    "SlowQueryLog", "DEFAULT_SLOW_THRESHOLD_S", "DEFAULT_SLOWLOG_CAPACITY",
]
