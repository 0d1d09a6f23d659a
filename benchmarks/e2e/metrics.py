"""From raw records to named metrics, and comparing two reports.

Every timing is a best-of-passes statistic: request ``i`` of the replayed
sequence has a best time ``b_i``, its minimum over the measured passes,
and the metrics are *means* of ``b_i``.  On this kind of box a fixed
Python loop runs 1.4x slower for seconds at a time, which moves medians
and means over all samples by 6-19 % between runs of unchanged code; and
replies stall on a 40 ms delayed-ACK timer with a 4 ms tick, so medians
move in 4 ms steps.  Raw-sample statistics are kept, as per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.stats.timing import percentile

from loadgen import PassRecord, Request, Round
from trace import Recorder, request_trees

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Metric = Dict[str, object]  # {"value": float, "unit": str}


@dataclass
class ServerRun:
    """What one server process contributed to a workload's measurement."""

    setup_s: float
    passes: List[Tuple[List[Round], PassRecord]] = field(default_factory=list)
    metrics_delta: dict = field(default_factory=dict)
    metrics_end: dict = field(default_factory=dict)
    cpu_s: float = 0.0
    threads: float = 0.0
    rss_peak_mb: float = 0.0
    dir_bytes: int = 0


def numeric_delta(after, before):
    """``after - before`` over the numeric leaves of two /metrics bodies."""
    if isinstance(after, dict):
        before = before if isinstance(before, dict) else {}
        return {key: numeric_delta(value, before.get(key))
                for key, value in after.items()}
    if isinstance(after, bool) or not isinstance(after, (int, float)):
        return after
    return after - (before if isinstance(before, (int, float)) else 0)


def numeric_sum(left, right):
    """Leaf-wise sum of two deltas of the same shape."""
    if isinstance(left, dict):
        return {key: numeric_sum(value, right[key])
                for key, value in left.items()}
    if isinstance(left, bool) or not isinstance(left, (int, float)):
        return left
    return left + right


def total_delta(runs: Sequence["ServerRun"]) -> dict:
    """The /metrics delta of the measured phase, summed over servers."""
    return functools.reduce(numeric_sum, (run.metrics_delta for run in runs))


def _metric(value: float, unit: str) -> Metric:
    return {"value": float(value), "unit": unit}


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _latencies_by_round(rounds: Sequence[Round], record: PassRecord,
                        ) -> List[float]:
    """The pass's latencies, the two replies of a pair round ranked faster
    then slower.  Which connection's reply waits out the 40 ms delayed ACK
    is an equilibrium of the two sockets that usually, not always, settles
    the same way on every server; a minimum taken per connection over
    servers that settled differently would report no stall at all (seen:
    burst2_cold rtk_ms 8.4 against 29.4).  Both requests of a pair are of
    one kind, so per-kind means lose nothing by the ranking."""
    replies = iter(record.replies)
    return [latency for rnd in rounds
            for latency in sorted(next(replies).latency_s for _ in rnd)]


class BestOfPasses:
    """Per-position best times over every measured pass of every server."""

    def __init__(self, runs: Sequence[ServerRun]):
        passes = [p for run in runs for p in run.passes]
        self.requests: List[Request] = [
            req for rnd in passes[0][0] for req in rnd]
        self.samples = [_latencies_by_round(rounds, record)
                        for rounds, record in passes]
        self.best = [min(column) for column in zip(*self.samples)]
        self.best_round_s = [min(column) for column in
                             zip(*(record.round_s for _, record in passes))]
        self.calibration_s = [c for _, record in passes
                              for c in record.calibration_s]
        self.pass_count = len(passes)

    def best_of(self, *kinds: str) -> List[float]:
        return [b for b, req in zip(self.best, self.requests)
                if req.kind in kinds]

    def best_of_writes(self) -> List[float]:
        return [b for b, req in zip(self.best, self.requests)
                if not req.is_read]


def client_metrics(runs: Sequence[ServerRun]) -> Dict[str, Metric]:
    """What a caller of the service sees.  BENCHMARK.json decides which of
    these are gated end-to-end metrics and which are only reported."""
    best = BestOfPasses(runs)
    reads = sorted(best.best_of("rtk", "rkr"), reverse=True)
    tail = reads[:max(1, math.ceil(len(reads) / 5))]
    return {
        "setup_s": _metric(min(run.setup_s for run in runs), "s"),
        "rtk_ms": _metric(1e3 * _mean(best.best_of("rtk")), "ms"),
        "rkr_ms": _metric(1e3 * _mean(best.best_of("rkr")), "ms"),
        "read_tail_ms": _metric(1e3 * _mean(tail), "ms"),
        "ops_qps": _metric(len(best.requests) / sum(best.best_round_s), "1/s"),
        "rss_peak_mb": _metric(max(run.rss_peak_mb for run in runs), "MB"),
    }


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def untraced_layers(runs: Sequence[ServerRun]) -> Dict[str, Metric]:
    """Per-layer metrics from client records (C), /metrics deltas over the
    measured phase (M) and /proc (P).  Counts are per pass or per query,
    so they repeat whatever number of passes fitted into the run."""
    best = BestOfPasses(runs)
    passes = best.pass_count
    ops = passes * len(best.requests)
    delta = total_delta(runs)
    end = runs[-1].metrics_end
    batches, kernel, req = delta["batches"], delta["kernel"], delta["requests"]
    queries = batches["batched_requests"]
    singles = batches["total"] - batches["coalesced"]
    cache = delta.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    evictions = (cache.get("misses", 0) - cache.get("entries", 0)
                 if end.get("cache", {}).get("capacity") else 0)
    wal = delta.get("durability", {}).get("wal", {})
    storage = end.get("storage", {})
    live_rows = storage.get("live_products", 0) + storage.get("live_weights", 0)
    all_samples = [s for row in best.samples for s in row]
    first_pass = runs[0].passes[0]
    reply_bytes = [len(reply.body) for reply in first_pass[1].replies]
    return {
        "service.server.reply_bytes": _metric(_mean(reply_bytes), "bytes"),
        "service.server.write_ms": _metric(
            1e3 * _mean(best.best_of_writes()), "ms"),
        "service.cache.hit_rate": _metric(
            _ratio(cache.get("hits", 0), lookups), "ratio"),
        "service.cache.evictions": _metric(evictions / passes, "count"),
        "service.limits.rejected": _metric(
            req["rejected_overload"] + req["rejected_deadline"]
            + req["rejected_unavailable"], "count"),
        "service.scheduler.batch_mean": _metric(
            _ratio(queries, batches["total"]), "count"),
        "service.scheduler.coalesced_share": _metric(
            _ratio(queries - singles, queries), "ratio"),
        "core.gir.pairwise_per_query": _metric(
            _ratio(delta["ops"]["pairwise"], queries), "count"),
        "core.gir.refined_per_query": _metric(
            _ratio(delta["ops"]["refined"], queries), "count"),
        "vectorized.girkernel.filter_s": _metric(
            kernel["stage_s"]["filter"] / passes, "s"),
        "vectorized.girkernel.refine_s": _metric(
            kernel["stage_s"]["refine"] / passes, "s"),
        "vectorized.girkernel.merge_s": _metric(
            kernel["stage_s"]["merge"] / passes, "s"),
        "vectorized.girkernel.filter_rate": _metric(
            _ratio(kernel["pairs"]["case1"] + kernel["pairs"]["case2"],
                   kernel["pairs"]["total"]), "ratio"),
        "vectorized.girkernel.pairs_total": _metric(
            kernel["pairs"]["total"] / passes, "count"),
        "vectorized.girkernel.refined_pairs": _metric(
            kernel["pairs"]["refined"] / passes, "count"),
        "storage.store.bytes_per_live_row": _metric(
            _ratio(runs[-1].dir_bytes, live_rows), "bytes"),
        "durability.wal.fsyncs": _metric(
            wal.get("fsyncs", 0) / passes, "count"),
        "durability.wal.bytes_per_write": _metric(
            _ratio(wal.get("bytes_written", 0), wal.get("appends", 0)),
            "bytes"),
        "durability.engine.recover_s": _metric(_mean(
            [run.metrics_end.get("durability", {}).get("replay_time_s", 0.0)
             for run in runs]), "s"),
        "proc.cpu_s_per_op": _metric(
            sum(run.cpu_s for run in runs) / ops, "s"),
        "proc.threads": _metric(max(run.threads for run in runs), "threads"),
        "client.inflation": _metric(
            _ratio(_mean(all_samples), _mean(best.best)) - 1.0, "ratio"),
        "client.raw_p99_ms": _metric(
            1e3 * percentile(all_samples, 0.99), "ms"),
        "client.noise_ratio": _metric(
            _ratio(statistics.median(best.calibration_s),
                   min(best.calibration_s)), "ratio"),
    }


@dataclass
class TracedPass:
    """The traced replay's single measured pass and what surrounded it."""

    recorder: Recorder
    rounds: List[Round]
    record: PassRecord
    trace_ids: List[str]
    window: Tuple[float, float]
    q1_batch_s: List[float]


#: Spans that hand a request on and do no work of a layer: their own time
#: is the part of a request that no probe explains.
ROUTING_SPANS = ("server.handler", "server.query", "server.mutate",
                 "scheduler.dispatch")
#: Largest share of the traced pass's summed latency that may be such time.
UNATTRIBUTED_LIMIT = 0.10


def traced_layers(traced: TracedPass, untraced_rtk_ms: float,
                  ) -> Tuple[Dict[str, Metric], dict]:
    """Per-layer metrics from the traced replay (T), plus the share of
    the pass's latency that sits in no layer's probe."""
    rec = traced.recorder
    absent = set(rec.missing_spans())
    in_pass = rec.window(*traced.window)
    trees = request_trees(in_pass)
    requests = [req for rnd in traced.rounds for req in rnd]

    def mean_ms(name: str, spans=None, scale: float = 1e3) -> Optional[float]:
        if name in absent:
            return None
        pool = [s for s in (in_pass if spans is None else spans)
                if s.name == name]
        return scale * _mean([s.duration for s in pool])

    gaps, parses, encodes, waits = [], [], [], []
    rtk_latency, routing_s, traced_latency_s = [], 0.0, 0.0
    for req, reply, trace_id in zip(requests, traced.record.replies,
                                    traced.trace_ids):
        if req.kind == "rtk":
            rtk_latency.append(reply.latency_s)
        tree = trees.get(trace_id)
        if tree is None:
            continue
        handler = tree.handler
        gaps.append(reply.latency_s - handler.duration)
        entered = tree.named("server.query") + tree.named("server.mutate")
        if entered:
            parses.append(entered[0].start - handler.start)
        encodes.append(sum(s.duration for s in tree.named("server.encode")))
        for wait in tree.named("scheduler.answer"):
            busy = sum(min(d.end, wait.end) - d.start
                       for d in tree.children_of(wait)
                       if d.name == "scheduler.dispatch")
            waits.append(wait.duration - busy)
        # Layer self times and the gap add up to the latency by
        # construction; what can go wrong is that the time sits in no
        # layer's probe.  Then it is own time of a span that only routes
        # (a dispatch may outlive the request; that part is not counted).
        routing_s += sum(tree.self_time(s, until=handler.end)
                         for s in tree.spans if s.name in ROUTING_SPANS)
        traced_latency_s += reply.latency_s

    setup = rec.spans
    builds = [s for s in in_pass if s.name == "snapkernel.build"]
    top_level_init = [s for s in setup if s.name == "gir.init"
                      and (s.parent is None
                           or setup[s.parent].name != "index.load")]
    values = {
        "net.gap_ms": (1e3 * _mean(gaps) if gaps else None, "ms"),
        "service.server.handler_ms": (mean_ms("server.handler"), "ms"),
        "service.server.parse_ms": (1e3 * _mean(parses), "ms"),
        "service.server.encode_ms": (
            None if "server.encode" in absent else 1e3 * _mean(encodes), "ms"),
        "service.cache.get_us": (mean_ms("cache.get", scale=1e6), "us"),
        "service.scheduler.wait_ms": (
            None if "scheduler.answer" in absent else 1e3 * _mean(waits),
            "ms"),
        "service.scheduler.dispatch_ms": (mean_ms("scheduler.dispatch"), "ms"),
        "queries.engine.rtk_ms": (mean_ms("engine.rtk"), "ms"),
        "queries.engine.rkr_ms": (mean_ms("engine.rkr"), "ms"),
        "vectorized.girkernel.batch_ms": (mean_ms("girkernel.batch"), "ms"),
        "vectorized.girkernel.build_ms": (
            mean_ms("girkernel.build", setup), "ms"),
        "vectorized.girkernel.q1_batch_ms": (
            1e3 * _mean(traced.q1_batch_s), "ms"),
        "core.storage.build_s": (
            None if "index.save" in absent else
            sum(s.duration for s in top_level_init)
            + sum(s.duration for s in setup if s.name == "index.save"), "s"),
        "core.storage.load_s": (mean_ms("index.load", setup, scale=1.0), "s"),
        "storage.store.write_ms": (mean_ms("store.write"), "ms"),
        "storage.store.pin_us": (mean_ms("store.pin", scale=1e6), "us"),
        "storage.store.seal_ms": (mean_ms("store.seal"), "ms"),
        "storage.store.compact_ms": (mean_ms("store.compact"), "ms"),
        "storage.snapshot.query_ms": (mean_ms("snapshot.query"), "ms"),
        "storage.kernel.build_ms": (mean_ms("snapkernel.build"), "ms"),
        "storage.kernel.builds_per_pass": (
            None if "snapkernel.build" in absent else float(len(builds)),
            "count"),
        "durability.wal.append_ms": (mean_ms("wal.append"), "ms"),
        "durability.snapshot_ms": (mean_ms("durable.snapshot"), "ms"),
        "obs.trace.overhead": (
            _ratio(1e3 * _mean(rtk_latency), untraced_rtk_ms) - 1.0, "ratio"),
    }
    # The driver's result line wants a number for every metric: an absent
    # probe reads 0 there and is named in ``missing_probes``.
    metrics = {name: _metric(0.0 if value is None else value, unit)
               for name, (value, unit) in values.items()}
    detail = {
        "missing_probes": sorted(rec.missing),
        "null_metrics": sorted(name for name, (value, _) in values.items()
                               if value is None),
        "traced_requests": len(trees),
        "pass_requests": len(requests),
        "unattributed_share": (routing_s / traced_latency_s
                               if traced_latency_s else None),
        "builds_per_pass": len(builds),
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# comparing two suite reports
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def bounds() -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` of the end-to-end metrics."""
    return {m["name"]: (m["better"], m["bound"])
            for m in load_spec()["end_to_end"]}


def compare(before: dict, after: dict, either_way: bool = False,
            ) -> Tuple[List[str], bool]:
    """Per workload and end-to-end metric: both values, relative change
    in the worse direction, the bound, and whether any bound is exceeded.

    ``either_way`` is for two runs of the same code, which must agree: a
    second run that is better by more than the bound means the first was
    worse by as much.  A workload that one report lacks exceeds."""
    lines, ok = [], True
    lines.append(f"{'workload':12s} {'metric':13s} {'before':>11s} "
                 f"{'after':>11s} {'worse by':>9s} {'bound':>6s}")
    limits = bounds()
    for workload in sorted(set(before["workloads"]) | set(after["workloads"])):
        reports = [suite["workloads"].get(workload) for suite in (before, after)]
        if None in reports:
            ok = False
            lines.append(f"{workload:12s} missing from one report  EXCEEDED")
            continue
        for name, (better, bound) in limits.items():
            a, b = (r["end_to_end"][name]["value"] for r in reports)
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = ""
            if worse > bound or either_way and -worse > bound:
                ok, flag = False, "  EXCEEDED"
            lines.append(f"{workload:12s} {name:13s} {a:11.4f} {b:11.4f} "
                         f"{worse:+9.2%} {bound:6.0%}{flag}")
    return lines, ok
