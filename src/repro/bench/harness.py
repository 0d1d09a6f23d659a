"""The perf-regression harness behind ``BENCH_kernel.json``.

Future PRs need a trajectory: a pinned-seed, machine-stamped record of
how fast the blocked kernel is *today*, so a regression (or a claimed
win) is a diff against a committed JSON file instead of an anecdote.
This module is that harness.  For each configuration it

1. generates the workload (paper distributions, pinned seeds),
2. answers the same queries with the per-weight ``GridIndexRRQ`` loop
   and the blocked kernel
   (:class:`~repro.vectorized.girkernel.GirKernelRRQ`),
3. records nearest-rank p50 per-query latency, speedups, and the
   kernel's pair-classification counts (the paper's filtering story), and
4. **verifies** every kernel answer against the per-weight loop and an
   independent oracle (:class:`~repro.algorithms.naive.NaiveRRQ` on
   small configs, :class:`~repro.vectorized.batch.BatchOracle` on large
   ones) — a divergence marks the run ``ok: false``, which
   ``benchmarks/perf_harness.py`` turns into a failing exit code.

Entry points: :func:`run_harness` (programmatic) and
``benchmarks/perf_harness.py`` (script, the one command line).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import __version__
from ..algorithms.naive import NaiveRRQ
from ..core.gir import GridIndexRRQ
from ..data.synthetic import generate_products, generate_weights
from ..errors import DataValidationError, InvalidParameterError
from ..service.metrics import percentile
from ..vectorized.batch import BatchOracle
from ..vectorized.blasthreads import guarded_thread_counts
from ..vectorized.girkernel import GirKernelRRQ, KernelStats

#: Seed offsets keep products / weights / query sampling independent.
DEFAULT_SEED = 7

#: Above this many (p, w) pairs the exact-oracle check switches from the
#: per-pair NaiveRRQ scan to the chunked BatchOracle rank sweep (both are
#: exact and kernel-independent; the sweep is just affordable at scale).
_NAIVE_ORACLE_LIMIT = 5_000_000

#: Keys a configuration dict must provide.
_REQUIRED_KEYS = ("name", "n_products", "n_weights", "dim", "k", "queries")

#: The committed trajectory (|W| = 100k, the acceptance scale).
DEFAULT_CONFIGS: Tuple[dict, ...] = (
    {"name": "uniform-d4-w100k", "p_dist": "UN", "w_dist": "UN",
     "n_products": 1500, "n_weights": 100_000, "dim": 4, "k": 10,
     "queries": 3, "partitions": 32},
    {"name": "clustered-d4-w100k", "p_dist": "CL", "w_dist": "CL",
     "n_products": 1500, "n_weights": 100_000, "dim": 4, "k": 10,
     "queries": 3, "partitions": 32},
)

#: Tiny pinned-seed configs for CI: seconds to run, still verifying
#: byte-identity against the naive oracle.
SMOKE_CONFIGS: Tuple[dict, ...] = (
    {"name": "smoke-uniform-d3", "p_dist": "UN", "w_dist": "UN",
     "n_products": 300, "n_weights": 2500, "dim": 3, "k": 8,
     "queries": 3, "partitions": 32},
    {"name": "smoke-clustered-d5", "p_dist": "CL", "w_dist": "CL",
     "n_products": 250, "n_weights": 2000, "dim": 5, "k": 5,
     "queries": 3, "partitions": 32},
)


def machine_info() -> dict:
    """Where the numbers came from — required context for comparing runs."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": guarded_thread_counts(),
        "repro_version": __version__,
    }


def load_configs(path) -> List[dict]:
    """Read and validate a JSON config file (a list of config dicts)."""
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"{path}: no such config file")
    try:
        configs = json.loads(path.read_text())
    except ValueError as exc:
        raise DataValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(configs, list) or not configs:
        raise DataValidationError(
            f"{path}: expected a non-empty JSON list of config objects"
        )
    for cfg in configs:
        if not isinstance(cfg, dict):
            raise DataValidationError(f"{path}: configs must be objects")
        missing = [key for key in _REQUIRED_KEYS if key not in cfg]
        if missing:
            raise DataValidationError(
                f"{path}: config {cfg.get('name', '?')!r} missing keys: "
                f"{', '.join(missing)}"
            )
    return configs


def _timed_queries(answer, queries: Sequence[np.ndarray], k: int,
                   warm: bool = False) -> Tuple[List[float], list]:
    """Per-query wall-clock and answers for one ``answer(q, k)`` callable.

    ``warm`` times a query as the best of ``_FUSED_REPEATS`` calls after
    one untimed call: a single cold call's p50 of three swung 128 ↔
    225 ms between runs of one build on a shared box, which no 25 % gate
    can sit on.  The scalar loop is seconds per query and stays one call.
    """
    times, answers = [], []
    for q in queries:
        if warm:
            answer(q, k)
        elapsed, value = _min_timed(lambda: answer(q, k),
                                    _FUSED_REPEATS if warm else 1)
        answers.append(value)
        times.append(elapsed)
    return times, answers


def _kind_report(gir_times: List[float], kernel_times: List[float]) -> dict:
    gir_p50 = percentile(gir_times, 0.50)
    kernel_p50 = percentile(kernel_times, 0.50)
    return {
        "gir_p50_s": gir_p50,
        "kernel_p50_s": kernel_p50,
        "kernel_speedup": gir_p50 / kernel_p50 if kernel_p50 > 0 else 0.0,
    }


def run_config(cfg: dict, seed: int = DEFAULT_SEED,
               verify: bool = True) -> dict:
    """Benchmark + verify one configuration; returns its JSON-ready record."""
    name = cfg["name"]
    queries_n = int(cfg["queries"])
    k = int(cfg["k"])
    if min(queries_n, k, cfg["n_products"], cfg["n_weights"],
           cfg["dim"]) < 1:
        raise InvalidParameterError(
            f"config {name!r}: sizes, dim, k and queries must be positive"
        )
    products = generate_products(cfg.get("p_dist", "UN"),
                                 int(cfg["n_products"]), int(cfg["dim"]),
                                 seed=seed)
    weights = generate_weights(cfg.get("w_dist", "UN"),
                               int(cfg["n_weights"]), int(cfg["dim"]),
                               seed=seed + 1)
    partitions = int(cfg.get("partitions", 32))
    gir = GridIndexRRQ(products, weights, partitions=partitions)
    kernel = GirKernelRRQ.from_gir(gir)
    rng = np.random.default_rng(seed + 2)
    idx = rng.choice(products.size, size=min(queries_n, products.size),
                     replace=False)
    queries = [products.values[i] for i in idx]

    record = {
        "name": name,
        "params": dict(cfg),
        "seed": seed,
        "query_indices": [int(i) for i in idx],
    }
    identical = True
    for kind in ("rtk", "rkr"):
        gir_fn = gir.reverse_topk if kind == "rtk" else gir.reverse_kranks
        kernel_fn = (kernel.reverse_topk if kind == "rtk"
                     else kernel.reverse_kranks)
        gir_times, gir_answers = _timed_queries(gir_fn, queries, k)
        kernel_times, kernel_answers = _timed_queries(
            kernel_fn, queries, k, warm=True)
        identical &= gir_answers == kernel_answers
        if verify:
            oracle = _oracle(products, weights)
            oracle_fn = (oracle.reverse_topk if kind == "rtk"
                         else oracle.reverse_kranks)
            identical &= all(
                oracle_fn(q, k) == answer
                for q, answer in zip(queries, kernel_answers)
            )
        record[kind] = _kind_report(gir_times, kernel_times)

    # One serial pass over the kernel: the record's per-query p50/p95,
    # and their sum.
    batch_times = []
    for q in queries:
        start = perf_counter()
        kernel.reverse_topk(q, k)
        batch_times.append(perf_counter() - start)
    record["batch"] = {
        "workers": 1,
        "elapsed_s": sum(batch_times),
        "per_query_p50_s": percentile(batch_times, 0.50),
        "per_query_p95_s": percentile(batch_times, 0.95),
    }
    record["kernel_stats"] = _full_kernel_stats(kernel, queries, k)
    record["verified"] = bool(identical)
    record["oracle"] = (
        ("naive" if _use_naive(products, weights) else "batch")
        if verify else "none"
    )
    return record


def _use_naive(products, weights) -> bool:
    return products.size * weights.size <= _NAIVE_ORACLE_LIMIT


def _oracle(products, weights):
    """An exact engine that shares no code with the kernel under test."""
    if _use_naive(products, weights):
        return NaiveRRQ(products, weights)
    return BatchOracle(products, weights)


def _full_kernel_stats(kernel: GirKernelRRQ, queries: Sequence[np.ndarray],
                       k: int) -> dict:
    """Pair-classification counts accumulated over one full query sweep.

    Split per query kind: RTK and RKR sweeps land in *separate* stats
    objects, so ``rtk["queries"]`` / ``rkr["queries"]`` each equal the
    number of benchmark queries (the merged object used to report their
    sum — "queries": 6 for a 3-query config).
    """
    per_kind = {}
    for kind in ("rtk", "rkr"):
        fn = kernel.reverse_topk if kind == "rtk" else kernel.reverse_kranks
        stats = KernelStats()
        for q in queries:
            fn(q, k)
            if kernel.last_stats is not None:
                stats.merge(kernel.last_stats)
        per_kind[kind] = stats.snapshot()
    return per_kind


def run_harness(configs: Optional[Sequence[dict]] = None,
                seed: int = DEFAULT_SEED, verify: bool = True, out=None,
                progress=None) -> dict:
    """Run every configuration; optionally write the JSON file.

    Returns the full report dict; ``report["ok"]`` is False when any
    kernel answer diverged from the per-weight loop or the
    oracle (the property the whole optimization is worthless without).
    """
    configs = list(configs) if configs is not None else list(DEFAULT_CONFIGS)
    if out is not None:
        out = Path(out)
        if not out.parent.is_dir():  # fail before minutes of benchmarking
            raise DataValidationError(
                f"{out}: parent directory does not exist"
            )
    records = []
    for cfg in configs:
        if progress is not None:
            progress(f"config {cfg['name']} ...")
        records.append(run_config(cfg, seed=seed, verify=verify))
    report = {
        "schema": 1,
        "benchmark": "girkernel",
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "machine": machine_info(),
        "configs": records,
        "ok": all(record["verified"] for record in records),
    }
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


# ----------------------------------------------------------------------
# the fused-batch / cold-start harness (BENCH_fused.json)
# ----------------------------------------------------------------------

#: The committed fused trajectory: Q-8 coalesced batches at the |W|=100k
#: acceptance scale, plus the mmap-vs-rebuild cold-start race.
FUSED_CONFIGS: Tuple[dict, ...] = (
    {"name": "fused-uniform-d6-w100k", "p_dist": "UN", "w_dist": "UN",
     "n_products": 1500, "n_weights": 100_000, "dim": 6, "k": 10,
     "queries": 8},
    {"name": "fused-clustered-d6-w100k", "p_dist": "CL", "w_dist": "CL",
     "n_products": 1500, "n_weights": 100_000, "dim": 6, "k": 10,
     "queries": 8},
)

#: Tiny fused configs for CI smoke (seconds, oracle-verified).
FUSED_SMOKE_CONFIGS: Tuple[dict, ...] = (
    {"name": "fused-smoke-uniform-d3", "p_dist": "UN", "w_dist": "UN",
     "n_products": 300, "n_weights": 2500, "dim": 3, "k": 8,
     "queries": 8},
)

#: Timing repeats per measurement; the minimum is recorded (standard
#: microbenchmark practice — the minimum is the least noisy estimator
#: of the true cost on a shared machine).
_FUSED_REPEATS = 3


def _min_timed(fn, repeats: int = _FUSED_REPEATS):
    """Best-of-N wall clock and the last invocation's return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = perf_counter()
        value = fn()
        best = min(best, perf_counter() - start)
    return best, value


def _pick_query_indices(P: np.ndarray, queries_n: int, k: int,
                        rng) -> np.ndarray:
    """Sample query products that exercise the filter stage.

    A product dominated by ``k`` or more others is answered by the
    Domin pre-pass alone (RTK returns empty before any bound work), so
    a batch of such queries measures nothing.  Prefer products with
    fewer than ``k`` dominators; fall back to arbitrary products only
    when the dataset does not have enough of them.
    """
    order = rng.permutation(P.shape[0])
    chosen: list = []
    skipped: list = []
    for i in order:
        if len(chosen) == queries_n:
            break
        n_dom = int(np.count_nonzero(np.all(P < P[i], axis=1)))
        if n_dom < k:
            chosen.append(int(i))
        else:
            skipped.append(int(i))
    chosen.extend(skipped[: queries_n - len(chosen)])
    return np.asarray(chosen[:queries_n], dtype=np.intp)


def run_fused_config(cfg: dict, seed: int = DEFAULT_SEED,
                     verify: bool = True) -> dict:
    """Benchmark one config's fused-batch and cold-start story.

    For each query kind the whole ``queries``-sized batch is answered
    (a) sequentially — one batch of one per query — and
    (b) as one batch through the same sweep; wall clock and the
    kernel's filter-stage seconds are recorded for both, along with a
    byte-identity check (fused vs sequential vs oracle).  The
    cold-start race times a full kernel rebuild from the raw data
    against an mmap load of the persisted kernel store.
    """
    import tempfile

    from .kernelstore_probe import probe_cold_start

    name = cfg["name"]
    queries_n = int(cfg["queries"])
    k = int(cfg["k"])
    if min(queries_n, k, cfg["n_products"], cfg["n_weights"],
           cfg["dim"]) < 1:
        raise InvalidParameterError(
            f"config {name!r}: sizes, dim, k and queries must be positive"
        )
    products = generate_products(cfg.get("p_dist", "UN"),
                                 int(cfg["n_products"]), int(cfg["dim"]),
                                 seed=seed)
    weights = generate_weights(cfg.get("w_dist", "UN"),
                               int(cfg["n_weights"]), int(cfg["dim"]),
                               seed=seed + 1)
    kernel = GirKernelRRQ(products, weights)
    rng = np.random.default_rng(seed + 2)
    idx = _pick_query_indices(products.values, queries_n, k, rng)
    queries = [products.values[i] for i in idx]

    record = {
        "name": name,
        "params": dict(cfg),
        "seed": seed,
        "query_indices": [int(i) for i in idx],
        "batch_q": len(queries),
    }
    identical = True
    for kind in ("rtk", "rkr"):
        single = (kernel.reverse_topk if kind == "rtk"
                  else kernel.reverse_kranks)
        batched = (kernel.reverse_topk_batch if kind == "rtk"
                   else kernel.reverse_kranks_batch)

        def run_sequential():
            answers, stats = [], KernelStats()
            for q in queries:
                answers.append(single(q, k))
                stats.merge(kernel.last_stats)
            return answers, stats

        def run_fused():
            answers = batched(queries, k)
            return answers, kernel.last_stats

        seq_wall, (seq_answers, seq_stats) = _min_timed(run_sequential)
        fused_wall, (fused_answers, fused_stats) = _min_timed(run_fused)
        identical &= seq_answers == fused_answers
        if verify:
            oracle = _oracle(products, weights)
            oracle_fn = (oracle.reverse_topk if kind == "rtk"
                         else oracle.reverse_kranks)
            identical &= all(oracle_fn(q, k) == answer
                             for q, answer in zip(queries, fused_answers))
        record[f"fused_{kind}"] = {
            "sequential_wall_s": seq_wall,
            "fused_wall_s": fused_wall,
            "wall_speedup": seq_wall / fused_wall if fused_wall > 0 else 0.0,
            "sequential_filter_s": seq_stats.filter_s,
            "fused_filter_s": fused_stats.filter_s,
            "filter_speedup": (seq_stats.filter_s / fused_stats.filter_s
                               if fused_stats.filter_s > 0 else 0.0),
            "fused_stats": fused_stats.snapshot(),
        }

    with tempfile.TemporaryDirectory() as store_dir:
        record["cold_start"], cold_ok = probe_cold_start(
            products, weights, kernel, store_dir,
            query=queries[0], k=k, repeats=_FUSED_REPEATS,
        )
        identical &= cold_ok
    record["verified"] = bool(identical)
    record["oracle"] = (
        ("naive" if _use_naive(products, weights) else "batch")
        if verify else "none"
    )
    return record


def run_fused_harness(configs: Optional[Sequence[dict]] = None,
                      seed: int = DEFAULT_SEED, verify: bool = True,
                      out=None, progress=None) -> dict:
    """Run the fused/cold-start configs; optionally write BENCH_fused.json."""
    configs = (list(configs) if configs is not None
               else list(FUSED_CONFIGS))
    if out is not None:
        out = Path(out)
        if not out.parent.is_dir():
            raise DataValidationError(
                f"{out}: parent directory does not exist"
            )
    records = []
    for cfg in configs:
        if progress is not None:
            progress(f"config {cfg['name']} ...")
        records.append(run_fused_config(cfg, seed=seed, verify=verify))
    report = {
        "schema": 1,
        "benchmark": "girkernel-fused",
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "machine": machine_info(),
        "configs": records,
        "ok": all(record["verified"] for record in records),
    }
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


#: (kind, metric) pairs the regression gate compares, config by config.
GATED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("rtk", "kernel_p50_s"),
    ("rkr", "kernel_p50_s"),
)

#: The fused report's gated metrics: fused batch wall clock per kind
#: plus the mmap cold-start time (all one-sided, like the kernel gate).
FUSED_GATED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("fused_rtk", "fused_wall_s"),
    ("fused_rkr", "fused_wall_s"),
    ("cold_start", "mmap_load_s"),
)

#: Default regression budget: fail CI past this p50 slowdown.
DEFAULT_MAX_REGRESS_PCT = 25.0

#: Budget of the pair-count gate.  ``kernel_stats.<kind>.pairs.total``
#: repeats to the digit for one build, seed and config, so a frugality
#: regression shows where a timing on a shared box cannot.
COUNT_MAX_REGRESS_PCT = 1.0


def check_regression(report: dict, baseline: dict,
                     max_regress_pct: float = DEFAULT_MAX_REGRESS_PCT,
                     metrics: Tuple[Tuple[str, str], ...] = GATED_METRICS,
                     ) -> dict:
    """Gate ``report`` against a committed ``baseline`` (BENCH_kernel.json).

    Configs are matched by name; for each match the gated metrics
    (kernel p50 per kind) may be at most ``max_regress_pct`` percent
    slower than the baseline.  Faster is always fine — the gate is
    one-sided, a regression detector rather than a noise detector.

    Where both sides carry ``kernel_stats`` the pairs each kind's sweeps
    classified (``kernel_stats.<kind>.pairs.total``) are gated too,
    one-sided at :data:`COUNT_MAX_REGRESS_PCT`: counts, not timings, so
    they are listed apart and not part of ``compared``.

    Returns a JSON-ready verdict::

        {"ok": bool, "max_regress_pct": float, "compared": int,
         "checks": [{"config", "kind", "metric", "baseline_s",
                     "current_s", "regress_pct", "ok"}, ...],
         "count_checks": [{"config", "kind", "metric", "baseline",
                           "current", "regress_pct", "ok"}, ...]}

    ``ok`` is False when any check fails **or when nothing could be
    compared at all** — a gate silently comparing zero metrics (e.g.
    smoke configs against the full-size baseline) would pass forever
    without gating anything.
    """
    if max_regress_pct < 0:
        raise InvalidParameterError("max_regress_pct must be >= 0")
    baseline_by_name = {cfg.get("name"): cfg
                        for cfg in baseline.get("configs", [])}
    checks: List[dict] = []
    count_checks: List[dict] = []
    for record in report.get("configs", []):
        base = baseline_by_name.get(record.get("name"))
        if base is None:
            continue
        for kind in ("rtk", "rkr"):
            old, new = (side.get("kernel_stats", {}).get(kind, {})
                        .get("pairs", {}).get("total")
                        for side in (base, record))
            if not old or new is None:
                continue
            regress_pct = (int(new) - int(old)) / int(old) * 100.0
            count_checks.append({
                "config": record["name"],
                "kind": kind,
                "metric": "kernel_stats.pairs.total",
                "baseline": int(old),
                "current": int(new),
                "regress_pct": regress_pct,
                "ok": regress_pct <= COUNT_MAX_REGRESS_PCT,
            })
        for kind, metric in metrics:
            old = base.get(kind, {}).get(metric)
            new = record.get(kind, {}).get(metric)
            if old is None or new is None or old <= 0:
                continue
            regress_pct = (float(new) - float(old)) / float(old) * 100.0
            checks.append({
                "config": record["name"],
                "kind": kind,
                "metric": metric,
                "baseline_s": float(old),
                "current_s": float(new),
                "regress_pct": regress_pct,
                "ok": regress_pct <= max_regress_pct,
            })
    return {
        "ok": bool(checks) and all(check["ok"]
                                   for check in checks + count_checks),
        "max_regress_pct": float(max_regress_pct),
        "compared": len(checks),
        "checks": checks,
        "count_checks": count_checks,
    }
