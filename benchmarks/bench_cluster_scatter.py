#!/usr/bin/env python
"""Scatter-gather cluster vs a single serving node, end to end over HTTP.

Stands up the two deployments the repo can actually run —

* **single**: one ``repro-rrq serve --durable`` worker process holding
  all of ``W``;
* **cluster**: a :class:`~repro.cluster.LocalCluster` (coordinator front
  door + N worker processes, ``W`` range-partitioned, products
  replicated)

— and drives the same pinned product queries through both, RTK and RKR,
measuring wall-clock per request at the client.  Every cluster answer is
checked byte-identical (canonical JSON) to the single-node answer, and
no response may carry a ``degraded`` flag: the speedup only counts if
the answers are exact.

Every ``serve --durable`` worker answers with one blocked-kernel sweep
over its own weight slice, so each worker sweeps ``1/N`` of ``W`` — but
the shards only run *concurrently* when the machine has cores to run
them on.  The expected speedup is roughly ``min(workers, cpu_count)``
minus the coordinator's overhead (one HTTP hop + the k-smallest merge,
both sub-millisecond at these sizes); on a single-core box the bench
therefore measures pure coordination overhead, which is why
``machine.cpu_count`` is part of the committed report.

Default sizes follow the kernel trajectory configs (|P| = 1500,
|W| = 100k, d = 4); results land in ``BENCH_cluster.json``.

Examples::

    PYTHONPATH=src python benchmarks/bench_cluster_scatter.py
    PYTHONPATH=src python benchmarks/bench_cluster_scatter.py --smoke
    PYTHONPATH=src python benchmarks/bench_cluster_scatter.py --workers 5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

DEFAULT_PRODUCTS = 1500
DEFAULT_WEIGHTS = 100_000
DEFAULT_DIM = 4
DEFAULT_WORKERS = 3
DEFAULT_QUERIES = 4
DEFAULT_K = 10
DEFAULT_SEED = 7

#: Per-shard budget far above any answer: a 100k-weight RKR sweep takes
#: under 0.1 s on one node (2 vCPUs), and a shard cut off by the timeout
#: would be answered by the coordinator's fallback instead of measured.
SHARD_TIMEOUT_S = 120.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Coordinator + N workers vs one serving node "
                    "(writes BENCH_cluster.json)")
    parser.add_argument("--products", type=int, default=DEFAULT_PRODUCTS)
    parser.add_argument("--weights", type=int, default=DEFAULT_WEIGHTS)
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        help="cluster worker-process count (default 3)")
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES,
                        help="pinned product query points per kind")
    parser.add_argument("-k", type=int, default=DEFAULT_K)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny config (seconds) for a quick check")
    parser.add_argument("--hedge", action="store_true",
                        help="also bench hedged vs unhedged reads against "
                             "a cluster whose shard-0 primary straggles "
                             "(each shard gets one standby)")
    parser.add_argument("--straggle-ms", type=float, default=150.0,
                        help="injected per-query latency on the shard-0 "
                             "primary in --hedge mode (default 150)")
    parser.add_argument("--out", default="BENCH_cluster.json")
    return parser


def timed_queries(client, queries, k: int, kind: str, progress):
    """Serial closed-loop requests; returns (latencies, answers)."""
    latencies: List[float] = []
    answers = []
    for i, q in enumerate(queries):
        start = time.perf_counter()
        # timeout_ms lifts the server's 10s dispatch deadline too: a
        # full-W RKR walk on the single node takes longer than that.
        answer = client.query(list(q), kind=kind, k=k, timeout_s=600.0,
                              timeout_ms=300_000.0)
        latencies.append(time.perf_counter() - start)
        answers.append(answer)
        progress(f"    {kind} query {i}: {latencies[-1]:.2f}s")
    return latencies, answers


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench.harness import machine_info
    from repro.cluster import LocalCluster
    from repro.cluster.launcher import WorkerProcess
    from repro.data.synthetic import uniform_products, uniform_weights
    from repro.durability import DurableDynamicRRQ
    from repro.service.client import ServiceClient
    from repro.service.server import canonical_json
    from repro.stats.timing import percentile

    import numpy as np
    import tempfile
    from pathlib import Path

    args = build_parser().parse_args(argv)
    if args.smoke:
        args.products = min(args.products, 200)
        args.weights = min(args.weights, 2000)
        args.queries = min(args.queries, 2)

    def progress(message: str) -> None:
        print(message, flush=True)

    products = uniform_products(size=args.products, dim=args.dim,
                                seed=args.seed)
    weights = uniform_weights(size=args.weights, dim=args.dim,
                              seed=args.seed + 1)
    rng = np.random.default_rng(args.seed + 2)
    query_indices = [int(i) for i in
                     rng.integers(0, products.size, args.queries)]
    queries = [products[i] for i in query_indices]
    base = Path(tempfile.mkdtemp(prefix="rrq-bench-cluster-"))

    progress(f"data: |P|={products.size} |W|={weights.size} d={args.dim}; "
             f"{args.queries} pinned product queries x rtk/rkr, "
             f"k={args.k}")

    report = {
        "benchmark": "cluster_scatter",
        "schema": 1,
        "created_utc": time.strftime(  # wall-clock: report timestamp
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_info(),
        "params": {
            "n_products": args.products, "n_weights": args.weights,
            "dim": args.dim, "workers": args.workers, "k": args.k,
            "queries": args.queries, "seed": args.seed,
            "partitioner": "range", "smoke": bool(args.smoke),
        },
        "query_indices": query_indices,
        "ok": True,
    }

    # --- single node: one durable worker over the full data -----------
    progress("single node: bootstrapping + starting 1 worker...")
    single_dir = base / "single"
    start = time.perf_counter()
    DurableDynamicRRQ.bootstrap(single_dir, products, weights,
                                fsync="never").close()
    worker = WorkerProcess(single_dir, "--fsync", "never",
                           start_timeout_s=120.0)
    single = {}
    try:
        client = ServiceClient(worker.url, retries=0)
        client.wait_until_healthy(timeout_s=120.0)
        single["startup_s"] = time.perf_counter() - start
        progress(f"  up in {single['startup_s']:.1f}s at {worker.url}")
        single_answers = {}
        for kind in ("rtk", "rkr"):
            latencies, answers = timed_queries(client, queries, args.k,
                                               kind, progress)
            single_answers[kind] = answers
            single[kind] = {
                "p50_s": percentile(latencies, 0.50),
                "max_s": max(latencies),
                "total_s": sum(latencies),
            }
    finally:
        worker.terminate()

    # --- cluster: coordinator + N workers over partitioned W ----------
    progress(f"cluster: bootstrapping + starting {args.workers} workers...")
    start = time.perf_counter()
    cluster_report = {}
    with LocalCluster(products, weights, num_workers=args.workers,
                      base_dir=base / "cluster", fsync="never",
                      shard_timeout_s=SHARD_TIMEOUT_S,
                      start_timeout_s=120.0) as cluster:
        client = cluster.client(retries=0)
        cluster_report["startup_s"] = time.perf_counter() - start
        progress(f"  up in {cluster_report['startup_s']:.1f}s "
                 f"at {cluster.url}")
        mismatches = 0
        for kind in ("rtk", "rkr"):
            latencies, answers = timed_queries(client, queries, args.k,
                                               kind, progress)
            for got, want in zip(answers, single_answers[kind]):
                if "degraded" in got or \
                        canonical_json(got) != canonical_json(want):
                    mismatches += 1
            cluster_report[kind] = {
                "p50_s": percentile(latencies, 0.50),
                "max_s": max(latencies),
                "total_s": sum(latencies),
                "speedup_vs_single":
                    (single[kind]["p50_s"] / percentile(latencies, 0.50)
                     if latencies and percentile(latencies, 0.50) > 0
                     else 0.0),
            }
        report["mismatches"] = mismatches
        report["ok"] = mismatches == 0

    report["single"] = single
    report["cluster"] = cluster_report

    # --- hedged reads vs an injected straggler ------------------------
    # Same data, same queries, but the shard-0 primary answers every
    # query args.straggle_ms late and every shard carries one standby.
    # Unhedged, the scatter-gather can never beat the straggler; hedged,
    # the coordinator's backup probe to the standby should mask it —
    # without changing a single answer byte.
    if args.hedge:
        report["params"]["straggle_ms"] = args.straggle_ms
        straggler = {0: ("--chaos-latency-ms",
                         str(int(args.straggle_ms)))}
        hedge_report = {}
        for label, hedged in (("unhedged", False), ("hedged", True)):
            progress(f"{label} straggler cluster: starting "
                     f"{args.workers} primaries + standbys...")
            start = time.perf_counter()
            with LocalCluster(products, weights,
                              num_workers=args.workers,
                              base_dir=base / f"hedge-{label}",
                              fsync="never",
                              shard_timeout_s=SHARD_TIMEOUT_S,
                              start_timeout_s=120.0,
                              replicas=1, hedge=hedged,
                              worker_extra_args=straggler) as cluster:
                client = cluster.client(retries=0)
                entry = {"startup_s": time.perf_counter() - start}
                progress(f"  up in {entry['startup_s']:.1f}s")
                mismatches = 0
                for kind in ("rtk", "rkr"):
                    latencies, answers = timed_queries(
                        client, queries, args.k, kind, progress)
                    for got, want in zip(answers, single_answers[kind]):
                        if "degraded" in got or \
                                canonical_json(got) != \
                                canonical_json(want):
                            mismatches += 1
                    entry[kind] = {
                        "p50_s": percentile(latencies, 0.50),
                        "p95_s": percentile(latencies, 0.95),
                        "max_s": max(latencies),
                    }
                entry["mismatches"] = mismatches
                if hedged:
                    stats = cluster.coordinator.stats()["hedge"]
                    entry["hedged_probes"] = stats["probes"]
                    entry["hedge_wins"] = stats["wins"]
                hedge_report[label] = entry
                report["mismatches"] += mismatches
                report["ok"] = report["mismatches"] == 0
        for kind in ("rtk", "rkr"):
            slow = hedge_report["unhedged"][kind]["p95_s"]
            fast = hedge_report["hedged"][kind]["p95_s"]
            hedge_report[f"{kind}_tail_cut"] = \
                (slow / fast) if fast > 0 else 0.0
            progress(f"hedge {kind}: unhedged p95 {slow:.3f}s -> "
                     f"hedged p95 {fast:.3f}s "
                     f"(x{hedge_report[f'{kind}_tail_cut']:.2f} tail cut, "
                     f"{hedge_report['hedged']['hedge_wins']} wins / "
                     f"{hedge_report['hedged']['hedged_probes']} probes)")
        report["hedge"] = hedge_report

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    cores = report["machine"].get("cpu_count") or 1
    for kind in ("rtk", "rkr"):
        progress(f"{kind}: single p50 {single[kind]['p50_s']:.2f}s, "
                 f"cluster p50 {cluster_report[kind]['p50_s']:.2f}s "
                 f"(x{cluster_report[kind]['speedup_vs_single']:.2f} "
                 f"over {args.workers} workers on {cores} core(s); "
                 f"ideal ~x{min(args.workers, cores)})")
    progress(f"wrote {args.out} (ok={report['ok']})")
    if not report["ok"]:
        print(f"error: {report['mismatches']} cluster answers diverged "
              f"from the single node or arrived degraded",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
