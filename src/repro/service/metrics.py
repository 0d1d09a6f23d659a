"""Service-level metrics: the numbers behind ``GET /metrics``.

The library already counts algorithmic work (:class:`repro.stats.counters.
OpCounter`) and wall-clock samples (:class:`repro.stats.timing.Timer`);
this module aggregates both across *requests* and adds the serving-side
dimensions the paper never needed: throughput (qps), latency percentiles,
micro-batch sizes, admission rejections, and the cache hit rate.  Both
renderings — the original JSON body and the Prometheus text exposition
(``?format=prometheus``, built with :mod:`repro.obs.prom`) — come from
the same counters, so they can never disagree.

Everything is guarded by one lock — the snapshot is cheap (a few hundred
floats at most) and taken far less often than it is updated, so a single
mutex beats cleverness.  :meth:`snapshot` builds every nested dict fresh
*under that lock*, so a concurrent ``/metrics`` read can never observe a
half-folded kernel or stage map (the concurrency test hammers exactly
this).  Latency samples are bounded so a long-running server cannot grow
without limit; percentiles therefore describe the most recent
``max_samples`` requests, which is what an operator wants anyway.

Clock discipline: every duration (uptime, qps denominators, latencies)
is computed from :func:`time.monotonic` / :func:`time.perf_counter`.
Wall-clock time appears exactly once, as the human-readable
``started_at`` timestamp — a backwards NTP step can therefore never
yield negative uptime or a skewed qps (the regression test pins it).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from ..obs.prom import LATENCY_BUCKETS_S, Exposition, Histogram
from ..stats.counters import OpCounter
from ..stats.timing import Timer, percentile

__all__ = ["ServiceMetrics", "percentile", "DEFAULT_MAX_SAMPLES"]

#: Latency samples retained for percentile estimation.
DEFAULT_MAX_SAMPLES = 4096


class ServiceMetrics:
    """Aggregated request/batch/cache statistics for one service.

    The scheduler reports batches, the service frontend reports request
    outcomes, and :meth:`snapshot` / :meth:`prometheus` render both into
    the ``/metrics`` bodies.  ``record_request`` accepts the request's
    trace id, which becomes the exemplar on the matching latency bucket
    — the hop from a latency spike on a dashboard back to the exact
    trace in ``GET /traces``.
    """

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES):
        self._lock = threading.Lock()
        self._started = time.time()  # wall-clock: display timestamp only
        self._started_mono = time.monotonic()
        self._latency = Timer()
        self._max_samples = max_samples
        self._requests_total = 0
        self._requests_by_kind: Dict[str, int] = {}
        self._cache_hits = 0
        self._rejected_overload = 0
        self._rejected_deadline = 0
        self._rejected_unavailable = 0
        self._errors = 0
        self._degraded = 0
        self._batches = 0
        self._coalesced_batches = 0
        self._batched_requests = 0
        self._max_batch_size = 0
        self._windows = {"expired": 0, "complete": 0, "full": 0}
        self._ops = OpCounter()
        self._kernel_queries = 0
        self._kernel_stage_s = {"filter": 0.0, "refine": 0.0, "merge": 0.0}
        self._kernel_pairs = {"total": 0, "case1": 0, "case2": 0,
                              "refined": 0, "domin_skipped": 0, "f32": 0}
        self._kernel_fused = {"batches": 0, "queries": 0}
        self._kernel_weights_pruned = 0
        #: (from, to, reason) -> batches handed to a slower exact route.
        self._fallbacks: Dict[tuple, int] = {}
        self._mutations_total = 0
        self._mutations_by_op: Dict[str, int] = {}
        self._mutations_rejected = 0
        self._latency_hist = Histogram(LATENCY_BUCKETS_S)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record_request(self, kind: str, latency_s: float,
                       cache_hit: bool = False,
                       degraded: bool = False,
                       trace_id: Optional[str] = None) -> None:
        """One successfully answered request (``degraded``: flagged by the
        cluster coordinator's degraded-shard fallback).

        ``trace_id`` (when the request was traced) becomes the exemplar
        on the latency-histogram bucket this observation lands in.
        """
        with self._lock:
            self._requests_total += 1
            self._requests_by_kind[kind] = (
                self._requests_by_kind.get(kind, 0) + 1
            )
            if cache_hit:
                self._cache_hits += 1
            if degraded:
                self._degraded += 1
            self._latency.samples.append(latency_s)
            if len(self._latency.samples) > self._max_samples:
                del self._latency.samples[: -self._max_samples]
            self._latency_hist.observe(latency_s, exemplar=trace_id)

    def record_rejection(self, overload: bool) -> None:
        """One admission rejection (429 when ``overload`` else 504)."""
        with self._lock:
            if overload:
                self._rejected_overload += 1
            else:
                self._rejected_deadline += 1

    def record_unavailable(self) -> None:
        """One request shed because the service is shutting down (503)."""
        with self._lock:
            self._rejected_unavailable += 1

    def record_error(self) -> None:
        """One request that failed for a non-admission reason."""
        with self._lock:
            self._errors += 1

    def record_mutation(self, op: str, rejected: bool = False) -> None:
        """One mutation request (insert/delete/modify/compact/snapshot).

        ``rejected`` counts mutations refused by role checks (a write
        sent to a standby, HTTP 409) — they never reach the WAL.
        """
        with self._lock:
            if rejected:
                self._mutations_rejected += 1
                return
            self._mutations_total += 1
            self._mutations_by_op[op] = self._mutations_by_op.get(op, 0) + 1

    def record_kernel(self, stats: dict) -> None:
        """Fold one blocked-kernel stats snapshot into the counters.

        ``stats`` is the dict produced by
        :meth:`repro.vectorized.girkernel.KernelStats.snapshot` — queries
        served, per-stage wall-clock (filter/refine/merge) and the pair
        classification tallies.
        """
        with self._lock:
            self._kernel_queries += stats["queries"]
            for stage in self._kernel_stage_s:
                self._kernel_stage_s[stage] += stats["stage_s"][stage]
            for key in self._kernel_pairs:
                self._kernel_pairs[key] += stats["pairs"].get(key, 0)
            fused = stats.get("fused", {})
            self._kernel_fused["batches"] += fused.get("batches", 0)
            self._kernel_fused["queries"] += fused.get("queries", 0)
            self._kernel_weights_pruned += stats["weights_pruned"]

    def record_fallback(self, source: str, target: str, reason: str) -> None:
        """One micro-batch the ``source`` route handed to ``target``.

        Every degraded route is exact but slower; counting each hand-over
        with its reason is what keeps a broken fast path from looking
        like a healthy slow service.
        """
        key = (source, target, reason)
        with self._lock:
            self._fallbacks[key] = self._fallbacks.get(key, 0) + 1

    def record_batch(self, size: int, counter: Optional[OpCounter] = None,
                     closed: Optional[str] = None) -> None:
        """One dispatched micro-batch of ``size`` coalesced requests, and
        what ``closed`` its window: the clock (``expired``), nobody left
        to wait for (``complete``) or ``max_batch`` (``full``)."""
        with self._lock:
            self._batches += 1
            if closed is not None:
                self._windows[closed] += 1
            self._batched_requests += size
            if size > 1:
                self._coalesced_batches += 1
            if size > self._max_batch_size:
                self._max_batch_size = size
            if counter is not None:
                self._ops.merge(counter)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def uptime_s(self) -> float:
        """Seconds since the metrics object (≈ the service) was created.

        Monotonic by construction: wall-clock steps (NTP corrections,
        manual clock changes) cannot make this negative or jump.
        """
        return time.monotonic() - self._started_mono

    def snapshot(self, cache_stats: Optional[dict] = None,
                 durability: Optional[dict] = None,
                 replication: Optional[dict] = None,
                 storage: Optional[dict] = None) -> dict:
        """A JSON-ready dict of everything ``/metrics`` exposes.

        Every nested dict is freshly built under the lock (the kernel
        stage/pair maps are copied, never aliased), so the caller owns
        the result outright and no concurrent ``record_*`` can mutate or
        tear it.  ``durability`` (WAL/snapshot counters from
        :meth:`~repro.durability.engine.DurableDynamicRRQ.
        durability_stats`), ``replication`` (standby tailer status) and
        ``storage`` (the segment store's health dict) are attached
        verbatim when the serving stack provides them.
        """
        with self._lock:
            samples = list(self._latency.samples)
            uptime = time.monotonic() - self._started_mono
            qps = self._requests_total / uptime if uptime > 0 else 0.0
            mean_batch = (
                self._batched_requests / self._batches if self._batches else 0.0
            )
            snap = {
                "started_at": self._started,
                "uptime_s": uptime,
                "requests": {
                    "total": self._requests_total,
                    "by_kind": dict(self._requests_by_kind),
                    "cache_hits": self._cache_hits,
                    "rejected_overload": self._rejected_overload,
                    "rejected_deadline": self._rejected_deadline,
                    "rejected_unavailable": self._rejected_unavailable,
                    "errors": self._errors,
                    "degraded": self._degraded,
                },
                "qps": qps,
                "latency_ms": {
                    "count": len(samples),
                    "mean": (sum(samples) / len(samples) * 1000.0
                             if samples else 0.0),
                    "p50": percentile(samples, 0.50) * 1000.0,
                    "p95": percentile(samples, 0.95) * 1000.0,
                    "p99": percentile(samples, 0.99) * 1000.0,
                },
                "batches": {
                    "total": self._batches,
                    "coalesced": self._coalesced_batches,
                    "batched_requests": self._batched_requests,
                    "mean_size": mean_batch,
                    "max_size": self._max_batch_size,
                    "windows": dict(self._windows),
                },
                "ops": self._ops.snapshot(),
                "kernel": {
                    "queries": self._kernel_queries,
                    "stage_s": dict(self._kernel_stage_s),
                    "pairs": dict(self._kernel_pairs),
                    "fused": dict(self._kernel_fused),
                    "weights_pruned": self._kernel_weights_pruned,
                },
                "fallbacks": {
                    "total": sum(self._fallbacks.values()),
                    "routes": [
                        {"from": source, "to": target, "reason": reason,
                         "count": count}
                        for (source, target, reason), count
                        in sorted(self._fallbacks.items())
                    ],
                },
                "mutations": {
                    "total": self._mutations_total,
                    "by_op": dict(self._mutations_by_op),
                    "rejected_not_primary": self._mutations_rejected,
                },
            }
        if cache_stats is not None:
            snap["cache"] = cache_stats
        if durability is not None:
            snap["durability"] = durability
        if replication is not None:
            snap["replication"] = replication
        if storage is not None:
            snap["storage"] = storage
        return snap

    def prometheus(self, cache_stats: Optional[dict] = None,
                   durability: Optional[dict] = None,
                   replication: Optional[dict] = None,
                   slowlog: Optional[dict] = None,
                   traces: Optional[dict] = None,
                   storage: Optional[dict] = None) -> str:
        """The ``GET /metrics?format=prometheus`` body.

        Histogram state is captured under the lock; rendering happens
        outside it.  Metric names and labels are documented in
        ``docs/observability.md`` — change them there first.
        """
        with self._lock:
            uptime = time.monotonic() - self._started_mono
            qps = self._requests_total / uptime if uptime > 0 else 0.0
            by_kind = dict(self._requests_by_kind)
            rejections = {
                "overload": self._rejected_overload,
                "deadline": self._rejected_deadline,
                "unavailable": self._rejected_unavailable,
            }
            errors = self._errors
            cache_hits = self._cache_hits
            degraded = self._degraded
            batches = self._batches
            coalesced = self._coalesced_batches
            batched_requests = self._batched_requests
            max_batch = self._max_batch_size
            windows = dict(self._windows)
            kernel_queries = self._kernel_queries
            stage_s = dict(self._kernel_stage_s)
            kernel_pairs = dict(self._kernel_pairs)
            kernel_fused = dict(self._kernel_fused)
            weights_pruned = self._kernel_weights_pruned
            # A zero sample keeps the series present for rate() alerts.
            fallbacks = dict(self._fallbacks) or {
                ("kernel", "reference_scan", "kernel_error"): 0}
            mutations_by_op = dict(self._mutations_by_op)
            mutations_rejected = self._mutations_rejected
            latency_hist = self._latency_hist.snapshot()

        exp = Exposition()
        exp.gauge("rrq_uptime_seconds",
                  "Seconds since the service started (monotonic clock).",
                  uptime)
        exp.gauge("rrq_qps", "Requests per second over the uptime window.",
                  qps)
        for kind in sorted(by_kind):
            exp.counter("rrq_requests_total",
                        "Successfully answered requests by query kind.",
                        by_kind[kind], labels={"kind": kind})
        if not by_kind:
            exp.counter("rrq_requests_total",
                        "Successfully answered requests by query kind.",
                        0, labels={"kind": "rtk"})
        for reason in ("overload", "deadline", "unavailable"):
            exp.counter("rrq_requests_rejected_total",
                        "Requests rejected at admission, by reason "
                        "(429 overload, 504 deadline, 503 unavailable).",
                        rejections[reason], labels={"reason": reason})
        exp.counter("rrq_request_errors_total",
                    "Requests that failed for a non-admission reason.",
                    errors)
        exp.counter("rrq_cache_hits_total",
                    "Requests answered from the LRU result cache.",
                    cache_hits)
        exp.counter("rrq_degraded_responses_total",
                    "Responses flagged degraded by a shard fallback.",
                    degraded)
        exp.histogram("rrq_request_latency_seconds",
                      "Service-side request latency; bucket exemplars "
                      "carry the trace id of the last request observed.",
                      latency_hist)
        exp.counter("rrq_batches_total",
                    "Micro-batches dispatched by the scheduler.", batches)
        exp.counter("rrq_batches_coalesced_total",
                    "Micro-batches that coalesced more than one request.",
                    coalesced)
        exp.counter("rrq_batched_requests_total",
                    "Requests answered through micro-batches.",
                    batched_requests)
        exp.gauge("rrq_batch_size_max",
                  "Largest micro-batch dispatched so far.", max_batch)
        for closed in sorted(windows):
            exp.counter("rrq_batch_window_total",
                        "Coalescing windows by what closed them: the clock "
                        "(expired), no idle connection left to wait for "
                        "(complete) or max_batch (full).",
                        windows[closed], labels={"closed": closed})
        exp.counter("rrq_kernel_queries_total",
                    "Queries answered by the blocked GIR kernel.",
                    kernel_queries)
        for stage in ("filter", "refine", "merge"):
            exp.counter("rrq_kernel_stage_seconds_total",
                        "Cumulative kernel wall-clock by stage.",
                        stage_s[stage], labels={"stage": stage})
        for klass in ("total", "case1", "case2", "refined",
                      "domin_skipped", "f32"):
            exp.counter("rrq_kernel_pairs_total",
                        "(p, w) pairs by score-bracket classification "
                        "outcome (the paper's Table-4 accounting; 'f32' "
                        "counts pairs classified by the float32 prefilter).",
                        kernel_pairs[klass], labels={"class": klass})
        exp.counter("rrq_kernel_fused_batches_total",
                    "Fused multi-query kernel passes (one shared "
                    "tile gemm per coalesced batch).",
                    kernel_fused["batches"])
        exp.counter("rrq_kernel_fused_queries_total",
                    "Queries answered inside a fused multi-query pass.",
                    kernel_fused["queries"])
        exp.counter("rrq_kernel_weights_pruned_total",
                    "Weight vectors pruned by the k/minRank abort or the "
                    "rank-interval cap before refinement.", weights_pruned)
        for (source, target, reason), count in sorted(fallbacks.items()):
            exp.counter("rrq_fallback_total",
                        "Micro-batches a failed fast route handed to a "
                        "slower exact one, and static starts that rebuilt "
                        "the kernel instead of mapping it, by reason.",
                        count, labels={"from": source, "to": target,
                                       "reason": reason})
        for op in sorted(mutations_by_op):
            exp.counter("rrq_mutations_total",
                        "Durable mutations applied, by operation.",
                        mutations_by_op[op], labels={"op": op})
        exp.counter("rrq_mutations_rejected_total",
                    "Mutations refused by role checks (sent to a standby).",
                    mutations_rejected)
        if cache_stats is not None:
            exp.gauge("rrq_cache_entries", "Entries in the result cache.",
                      cache_stats.get("entries", 0))
            exp.gauge("rrq_cache_capacity", "Result cache capacity.",
                      cache_stats.get("capacity", 0))
            exp.counter("rrq_cache_lookup_hits_total",
                        "Result-cache lookup hits.",
                        cache_stats.get("hits", 0))
            exp.counter("rrq_cache_lookup_misses_total",
                        "Result-cache lookup misses.",
                        cache_stats.get("misses", 0))
            exp.counter("rrq_cache_invalidations_total",
                        "Result-cache invalidations (mutations flush).",
                        cache_stats.get("invalidations", 0))
        if durability is not None:
            wal = durability.get("wal", {})
            exp.gauge("rrq_wal_last_lsn",
                      "Highest acknowledged WAL log sequence number.",
                      durability.get("last_lsn", 0))
            exp.gauge("rrq_snapshot_lsn",
                      "LSN of the latest committed snapshot.",
                      durability.get("snapshot_lsn", 0))
            exp.counter("rrq_wal_appends_total",
                        "Records appended to the write-ahead log.",
                        wal.get("appends", 0))
            exp.counter("rrq_wal_fsyncs_total",
                        "fsync calls issued by the WAL writer.",
                        wal.get("fsyncs", 0))
        if replication is not None:
            exp.gauge("rrq_replication_lag",
                      "Primary LSN minus local LSN at the last poll "
                      "(-1 before the first successful poll).",
                      replication.get("lag", -1))
            exp.counter("rrq_replication_applied_total",
                        "Replicated records applied by the tailer.",
                        replication.get("applied_records", 0))
            exp.counter("rrq_replication_errors_total",
                        "Replication poll errors.",
                        replication.get("poll_errors", 0))
        if slowlog is not None:
            exp.counter("rrq_slow_queries_total",
                        "Requests recorded by the slow-query log.",
                        slowlog.get("recorded_total", 0))
            threshold = slowlog.get("threshold_s")
            if threshold is not None:
                exp.gauge("rrq_slow_query_threshold_seconds",
                          "Latency threshold of the slow-query log.",
                          threshold)
        if traces is not None:
            exp.counter("rrq_traces_finished_total",
                        "Traces completed and stored in the ring.",
                        traces.get("finished_total", 0))
        if storage is not None:
            exp.gauge("rrq_storage_segments",
                      "Immutable segments in the store.",
                      storage.get("segments", 0))
            exp.gauge("rrq_storage_delta_rows",
                      "Buffered delta mutations since the last seal.",
                      storage.get("delta_rows", 0))
            exp.gauge("rrq_storage_live_fraction",
                      "Fraction of physically stored rows that are live.",
                      storage.get("live_fraction", 1.0))
            exp.gauge("rrq_storage_dead_fraction",
                      "Fraction of physically stored rows that are dead "
                      "(the compaction trigger).",
                      storage.get("dead_fraction", 0.0))
            exp.gauge("rrq_storage_pinned_snapshots",
                      "MVCC snapshots currently pinned by readers.",
                      storage.get("pinned_snapshots", 0))
            exp.gauge("rrq_storage_retired_segments_pending",
                      "Retired segments kept alive by pinned snapshots.",
                      storage.get("retired_pending", 0))
            exp.gauge("rrq_storage_manifest_generation",
                      "Committed store manifest generation.",
                      storage.get("manifest_generation", 0))
            exp.gauge("rrq_storage_manifest_lsn",
                      "WAL barrier of the committed store manifest.",
                      storage.get("manifest_lsn", 0))
            exp.counter("rrq_storage_seals_total",
                        "Delta seals (new segments committed).",
                        storage.get("seals_total", 0))
            exp.counter("rrq_storage_compactions_total",
                        "Segment-merge compactions committed.",
                        storage.get("compactions_total", 0))
            exp.counter("rrq_storage_compaction_seconds_total",
                        "Cumulative wall-clock spent compacting.",
                        storage.get("compaction_seconds_total", 0.0))
            exp.counter("rrq_storage_segments_retired_total",
                        "Segments superseded by compaction.",
                        storage.get("segments_retired_total", 0))
        return exp.render()
