"""Service-level metrics: the numbers behind ``GET /metrics``.

The library already counts algorithmic work (:class:`repro.stats.counters.
OpCounter`) and wall-clock samples; this module aggregates both across
*requests* and adds the serving-side dimensions the paper never needed:
throughput (qps), latency percentiles, micro-batch sizes, admission
rejections, and the cache hit rate.

The JSON body is the single source.  :data:`FAMILIES` is the one table
of Prometheus families, each naming the JSON leaf it reads, and
:func:`render` walks it over a service's ``metrics_snapshot()`` body
(``?format=prometheus``, built with :mod:`repro.obs.prom`) — on a static
node, a durable node and the cluster coordinator alike — so the two
bodies cannot disagree.  A new counter is written where it is recorded
and in one table row.

Everything is guarded by one lock — the snapshot is cheap (a few hundred
floats at most) and taken far less often than it is updated, so a single
mutex beats cleverness.  The counters are kept in the nested shape they
are published in, and :meth:`ServiceMetrics.snapshot` copies them
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
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from ..obs.prom import LATENCY_BUCKETS_S, Exposition, Histogram
from ..stats.counters import OpCounter
from ..stats.timing import percentile

__all__ = ["ServiceMetrics", "percentile", "DEFAULT_MAX_SAMPLES",
           "Family", "FAMILIES", "render"]

#: Latency samples retained for percentile estimation.
DEFAULT_MAX_SAMPLES = 4096


def _copy(tree: dict) -> dict:
    """A copy of a nested dict that shares no dict with ``tree``."""
    return {key: _copy(value) if isinstance(value, dict) else value
            for key, value in tree.items()}


class ServiceMetrics:
    """Aggregated request/batch/cache statistics for one service.

    The scheduler reports batches, the service frontend reports request
    outcomes, and :meth:`snapshot` publishes both as the ``/metrics``
    JSON body.  ``record_request`` accepts the request's trace id, which
    becomes the exemplar on the matching latency bucket — the hop from a
    latency spike on a dashboard back to the exact trace in
    ``GET /traces``.
    """

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES):
        self._lock = threading.Lock()
        self._started = time.time()  # wall-clock: display timestamp only
        self._started_mono = time.monotonic()
        self._samples: list = []
        self._max_samples = max_samples
        self._latency_hist = Histogram(LATENCY_BUCKETS_S)
        self._ops = OpCounter()
        #: (from, to, reason) -> batches handed to a slower exact route.
        self._fallbacks: Dict[tuple, int] = {}
        # The counters, in the nested shape the JSON body publishes.
        self._requests = {
            "total": 0, "by_kind": {}, "cache_hits": 0,
            "rejected_overload": 0, "rejected_deadline": 0,
            "rejected_unavailable": 0, "errors": 0, "degraded": 0,
        }
        self._batches = {
            "total": 0, "coalesced": 0, "batched_requests": 0,
            "max_size": 0,
            "windows": {"expired": 0, "complete": 0, "full": 0},
        }
        self._kernel = {
            "queries": 0,
            "stage_s": {"filter": 0.0, "refine": 0.0, "merge": 0.0},
            "pairs": {"total": 0, "case1": 0, "case2": 0, "refined": 0,
                      "domin_skipped": 0, "f32": 0},
            "fused": {"batches": 0, "queries": 0},
            "weights_pruned": 0,
        }
        self._mutations = {"total": 0, "by_op": {},
                           "rejected_not_primary": 0}

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
        requests = self._requests
        with self._lock:
            requests["total"] += 1
            by_kind = requests["by_kind"]
            by_kind[kind] = by_kind.get(kind, 0) + 1
            if cache_hit:
                requests["cache_hits"] += 1
            if degraded:
                requests["degraded"] += 1
            self._samples.append(latency_s)
            if len(self._samples) > self._max_samples:
                del self._samples[: -self._max_samples]
            self._latency_hist.observe(latency_s, exemplar=trace_id)

    def record_rejection(self, overload: bool) -> None:
        """One admission rejection (429 when ``overload`` else 504)."""
        key = "rejected_overload" if overload else "rejected_deadline"
        with self._lock:
            self._requests[key] += 1

    def record_unavailable(self) -> None:
        """One request shed because the service is shutting down (503)."""
        with self._lock:
            self._requests["rejected_unavailable"] += 1

    def record_error(self) -> None:
        """One request that failed for a non-admission reason."""
        with self._lock:
            self._requests["errors"] += 1

    def record_mutation(self, op: str, rejected: bool = False) -> None:
        """One mutation request (insert/delete/modify/compact/snapshot).

        ``rejected`` counts mutations refused by role checks (a write
        sent to a standby, HTTP 409) — they never reach the WAL.
        """
        mutations = self._mutations
        with self._lock:
            if rejected:
                mutations["rejected_not_primary"] += 1
                return
            mutations["total"] += 1
            by_op = mutations["by_op"]
            by_op[op] = by_op.get(op, 0) + 1

    def record_kernel(self, stats: dict) -> None:
        """Fold one blocked-kernel stats snapshot into the counters.

        ``stats`` is the dict produced by
        :meth:`repro.vectorized.girkernel.KernelStats.snapshot` — queries
        served, per-stage wall-clock (filter/refine/merge) and the pair
        classification tallies.
        """
        kernel = self._kernel
        fused = stats.get("fused", {})
        with self._lock:
            kernel["queries"] += stats["queries"]
            for stage in kernel["stage_s"]:
                kernel["stage_s"][stage] += stats["stage_s"][stage]
            for key in kernel["pairs"]:
                kernel["pairs"][key] += stats["pairs"].get(key, 0)
            for key in kernel["fused"]:
                kernel["fused"][key] += fused.get(key, 0)
            kernel["weights_pruned"] += stats["weights_pruned"]

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
        batches = self._batches
        with self._lock:
            batches["total"] += 1
            if closed is not None:
                batches["windows"][closed] += 1
            batches["batched_requests"] += size
            if size > 1:
                batches["coalesced"] += 1
            if size > batches["max_size"]:
                batches["max_size"] = size
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

    def latency_histogram(self) -> dict:
        """The latency histogram with its exemplars (for :func:`render`)."""
        with self._lock:
            return self._latency_hist.snapshot()

    def snapshot(self) -> dict:
        """The counters of the ``/metrics`` JSON body (a service adds the
        sections it owns: ``cache``, ``durability``, ``cluster``, …).

        The counters are copied under the lock (no inner dict is
        aliased), so the caller owns the result outright and no
        concurrent ``record_*`` can mutate or tear it; uptime, qps, the
        latency percentiles, the mean batch size and the fallback
        total/routes are derived from that copy.
        """
        with self._lock:
            uptime = time.monotonic() - self._started_mono
            requests = _copy(self._requests)
            batches = _copy(self._batches)
            kernel = _copy(self._kernel)
            mutations = _copy(self._mutations)
            ops = self._ops.snapshot()
            fallbacks = sorted(self._fallbacks.items())
            samples = list(self._samples)
        batches["mean_size"] = (batches["batched_requests"] / batches["total"]
                                if batches["total"] else 0.0)
        return {
            "started_at": self._started,
            "uptime_s": uptime,
            "requests": requests,
            "qps": requests["total"] / uptime if uptime > 0 else 0.0,
            "latency_ms": {
                "count": len(samples),
                "mean": (sum(samples) / len(samples) * 1000.0
                         if samples else 0.0),
                "p50": percentile(samples, 0.50) * 1000.0,
                "p95": percentile(samples, 0.95) * 1000.0,
                "p99": percentile(samples, 0.99) * 1000.0,
            },
            "batches": batches,
            "ops": ops,
            "kernel": kernel,
            "fallbacks": {
                "total": sum(count for _, count in fallbacks),
                "routes": [
                    {"from": source, "to": target, "reason": reason,
                     "count": count}
                    for (source, target, reason), count in fallbacks
                ],
            },
            "mutations": mutations,
        }


# ----------------------------------------------------------------------
# the Prometheus rendering of the JSON body
# ----------------------------------------------------------------------

class Family(NamedTuple):
    """One Prometheus family, read off one leaf of the ``/metrics`` body.

    ``path`` is the dotted path of the leaf; a family whose leaf is
    absent (or ``None``) is not rendered, which is how a section only
    some services publish (``cache``, ``durability``, ``cluster``, …)
    stays out of the others' scrapes.  Without ``label`` the leaf is one
    sample.  With a ``label`` name the leaf is a dict, one sample per
    key (or per ``keys`` entry: label value -> key of the leaf); with a
    tuple of names it is a list of records, each carrying those labels
    and a ``count``.  ``value`` maps a leaf value to its sample (a
    breaker state to 0/1), and ``default`` stands in for an empty leaf
    so a series stays present for ``rate()`` alerts.
    """

    name: str
    type: str
    path: str
    help: str
    label: Union[None, str, Tuple[str, ...]] = None
    keys: Optional[Dict[str, str]] = None
    value: Optional[Callable] = None
    default: object = None


def _not_closed(state: str) -> int:
    return 0 if state == "closed" else 1


#: Every family a ``?format=prometheus`` scrape can carry, in scrape
#: order.  ``docs/observability.md`` §2 lists the same names (a test
#: holds the two together) — change them there first.
FAMILIES = (
    Family("rrq_uptime_seconds", "gauge", "uptime_s",
           "Seconds since the service started (monotonic clock)."),
    Family("rrq_qps", "gauge", "qps",
           "Requests per second over the uptime window."),
    Family("rrq_requests_total", "counter", "requests.by_kind",
           "Successfully answered requests by query kind.",
           label="kind", default={"rtk": 0}),
    Family("rrq_requests_rejected_total", "counter", "requests",
           "Requests rejected at admission, by reason (429 overload, "
           "504 deadline, 503 unavailable).",
           label="reason", keys={"overload": "rejected_overload",
                                 "deadline": "rejected_deadline",
                                 "unavailable": "rejected_unavailable"}),
    Family("rrq_request_errors_total", "counter", "requests.errors",
           "Requests that failed for a non-admission reason."),
    Family("rrq_cache_hits_total", "counter", "requests.cache_hits",
           "Requests answered from the LRU result cache."),
    Family("rrq_degraded_responses_total", "counter", "requests.degraded",
           "Responses flagged degraded by a shard fallback."),
    Family("rrq_request_latency_seconds", "histogram", "latency_histogram",
           "Service-side request latency; bucket exemplars carry the "
           "trace id of the last request observed."),
    Family("rrq_batches_total", "counter", "batches.total",
           "Micro-batches dispatched by the scheduler."),
    Family("rrq_batches_coalesced_total", "counter", "batches.coalesced",
           "Micro-batches that coalesced more than one request."),
    Family("rrq_batched_requests_total", "counter",
           "batches.batched_requests",
           "Requests answered through micro-batches."),
    Family("rrq_batch_size_max", "gauge", "batches.max_size",
           "Largest micro-batch dispatched so far."),
    Family("rrq_batch_window_total", "counter", "batches.windows",
           "Coalescing windows by what closed them: the clock (expired), "
           "no request left arriving (complete) or max_batch "
           "(full).", label="closed"),
    Family("rrq_kernel_queries_total", "counter", "kernel.queries",
           "Queries answered by the blocked GIR kernel."),
    Family("rrq_kernel_stage_seconds_total", "counter", "kernel.stage_s",
           "Cumulative kernel wall-clock by stage.", label="stage"),
    Family("rrq_kernel_pairs_total", "counter", "kernel.pairs",
           "(p, w) pairs by score-bracket classification outcome (the "
           "paper's Table-4 accounting; 'f32' counts pairs classified by "
           "the float32 prefilter).", label="class"),
    Family("rrq_kernel_fused_batches_total", "counter",
           "kernel.fused.batches",
           "Fused multi-query kernel passes (one shared tile gemm per "
           "coalesced batch)."),
    Family("rrq_kernel_fused_queries_total", "counter",
           "kernel.fused.queries",
           "Queries answered inside a fused multi-query pass."),
    Family("rrq_kernel_weights_pruned_total", "counter",
           "kernel.weights_pruned",
           "Weight vectors pruned by the k/minRank abort or the "
           "rank-interval cap before refinement."),
    Family("rrq_fallback_total", "counter", "fallbacks.routes",
           "Micro-batches a failed fast route handed to a slower exact "
           "one, and static starts that rebuilt the kernel instead of "
           "mapping it, by reason.",
           label=("from", "to", "reason"),
           default=[{"from": "kernel", "to": "reference_scan",
                     "reason": "kernel_error", "count": 0}]),
    Family("rrq_mutations_total", "counter", "mutations.by_op",
           "Durable mutations applied, by operation.", label="op"),
    Family("rrq_mutations_rejected_total", "counter",
           "mutations.rejected_not_primary",
           "Mutations refused by role checks (sent to a standby)."),
    Family("rrq_cache_entries", "gauge", "cache.entries",
           "Entries in the result cache."),
    Family("rrq_cache_capacity", "gauge", "cache.capacity",
           "Result cache capacity."),
    Family("rrq_cache_lookup_hits_total", "counter", "cache.hits",
           "Result-cache lookup hits."),
    Family("rrq_cache_lookup_misses_total", "counter", "cache.misses",
           "Result-cache lookup misses."),
    Family("rrq_cache_invalidations_total", "counter",
           "cache.invalidations",
           "Result-cache invalidations (mutations flush)."),
    Family("rrq_wal_last_lsn", "gauge", "durability.last_lsn",
           "Highest acknowledged WAL log sequence number."),
    Family("rrq_snapshot_lsn", "gauge", "durability.snapshot_lsn",
           "LSN of the latest committed snapshot."),
    Family("rrq_wal_appends_total", "counter", "durability.wal.appends",
           "Records appended to the write-ahead log."),
    Family("rrq_wal_fsyncs_total", "counter", "durability.wal.fsyncs",
           "fsync calls issued by the WAL writer."),
    Family("rrq_replication_lag", "gauge", "replication.lag",
           "Primary LSN minus local LSN at the last poll (-1 before the "
           "first successful poll)."),
    Family("rrq_replication_applied_total", "counter",
           "replication.applied_records",
           "Replicated records applied by the tailer."),
    Family("rrq_replication_errors_total", "counter",
           "replication.poll_errors", "Replication poll errors."),
    Family("rrq_slow_queries_total", "counter", "slowlog.recorded_total",
           "Requests recorded by the slow-query log."),
    Family("rrq_slow_query_threshold_seconds", "gauge",
           "slowlog.threshold_s",
           "Latency threshold of the slow-query log."),
    Family("rrq_traces_finished_total", "counter", "traces.finished_total",
           "Traces completed and stored in the ring."),
    Family("rrq_storage_segments", "gauge", "storage.segments",
           "Immutable segments in the store."),
    Family("rrq_storage_delta_rows", "gauge", "storage.delta_rows",
           "Buffered delta mutations since the last seal."),
    Family("rrq_storage_live_fraction", "gauge", "storage.live_fraction",
           "Fraction of physically stored rows that are live."),
    Family("rrq_storage_dead_fraction", "gauge", "storage.dead_fraction",
           "Fraction of physically stored rows that are dead (the "
           "compaction trigger)."),
    Family("rrq_storage_pinned_snapshots", "gauge",
           "storage.pinned_snapshots",
           "MVCC snapshots currently pinned by readers."),
    Family("rrq_storage_retired_segments_pending", "gauge",
           "storage.retired_pending",
           "Retired segments kept alive by pinned snapshots."),
    Family("rrq_storage_manifest_generation", "gauge",
           "storage.manifest_generation",
           "Committed store manifest generation."),
    Family("rrq_storage_manifest_lsn", "gauge", "storage.manifest_lsn",
           "WAL barrier of the committed store manifest."),
    Family("rrq_storage_seals_total", "counter", "storage.seals_total",
           "Delta seals (new segments committed)."),
    Family("rrq_storage_compactions_total", "counter",
           "storage.compactions_total",
           "Segment-merge compactions committed."),
    Family("rrq_storage_compaction_seconds_total", "counter",
           "storage.compaction_seconds_total",
           "Cumulative wall-clock spent compacting."),
    Family("rrq_storage_segments_retired_total", "counter",
           "storage.segments_retired_total",
           "Segments superseded by compaction."),
    Family("rrq_cluster_shards", "gauge", "cluster.shards",
           "Shards in the serving topology."),
    Family("rrq_cluster_breaker_open", "gauge", "cluster.breakers",
           "Per-shard circuit state (1 = not closed).",
           label="shard", value=_not_closed),
    Family("rrq_cluster_failovers", "counter", "cluster.failovers",
           "Primary routing flips applied."),
    Family("rrq_cluster_hedged_probes", "counter", "cluster.hedge.probes",
           "Backup probes issued to standbys."),
    Family("rrq_cluster_hedge_wins", "counter", "cluster.hedge.wins",
           "Hedged probes answered before the primary."),
    Family("rrq_cluster_shed_queries", "counter",
           "cluster.shedding.shed_queries",
           "Queries rejected by the in-flight bound."),
    Family("rrq_cluster_promotions", "counter", "supervision.promotions",
           "Standby promotions performed by the supervisor."),
    Family("rrq_cluster_worker_restarts", "counter", "supervision.restarts",
           "Dead workers restarted as standbys."),
    Family("rrq_http_idle_connections", "gauge", "http.idle_connections",
           "Open connections waiting for their next request."),
)


def _leaf(body: dict, path: str):
    for key in path.split("."):
        if not isinstance(body, dict) or key not in body:
            return None
        body = body[key]
    return body


def _samples(family: Family, leaf):
    """``(labels, value)`` for each sample ``family`` reads off ``leaf``."""
    if not leaf and family.default is not None:
        leaf = family.default
    if family.label is None:
        yield None, leaf
    elif isinstance(family.label, tuple):
        for record in leaf:
            yield ({name: record[name] for name in family.label},
                   record["count"])
    else:
        pairs = ([(key, leaf[sub]) for key, sub in family.keys.items()]
                 if family.keys is not None else sorted(leaf.items()))
        for key, value in pairs:
            yield ({family.label: key},
                   family.value(value) if family.value else value)


def render(body: dict, latency: Optional[dict] = None,
           idle_connections: Optional[int] = None) -> str:
    """The ``GET /metrics?format=prometheus`` body of one ``/metrics``
    JSON ``body``.

    ``latency`` is :meth:`ServiceMetrics.latency_histogram` (its bucket
    exemplars are what the JSON body cannot carry) and
    ``idle_connections`` the HTTP server's count of parked connections;
    a family whose input is missing is left out.
    """
    source = dict(body, latency_histogram=latency)
    if idle_connections is not None:
        source["http"] = {"idle_connections": idle_connections}
    exp = Exposition()
    for family in FAMILIES:
        leaf = _leaf(source, family.path)
        if leaf is None:
            continue
        add = getattr(exp, family.type)
        for labels, value in _samples(family, leaf):
            add(family.name, family.help, value, labels=labels)
    return exp.render()
