"""Serving-side auto-tuning: trigger, probe, and zero-downtime hot-swap.

:class:`ServiceTuner` closes the loop around one
:class:`~repro.service.server.QueryService`:

* **trigger** — the live ``KernelStats`` tallies folded into
  ``/metrics`` give the serving undecided+refined fraction; the tuner
  fires only when it crosses the threshold (or on an explicit
  ``POST /tuner`` / ``repro-rrq tune``-style force).
* **probe** — the engine's datasets are materialized (for MVCC engines
  through a *pinned snapshot*, so the copy is consistent and mutations
  keep flowing) and handed to the offline
  :class:`~repro.tuning.tuner.AutoTuner`.
* **swap** — only a winner that measured better by at least
  ``min_improvement`` *and* proved byte-identical to ``NaiveRRQ`` on
  the probe workload is allowed to serve:

  - static engines: the scheduler's batch-path kernel is replaced by a
    single reference assignment
    (:meth:`~repro.service.scheduler.MicroBatchScheduler.swap_kernel`);
    in-flight micro-batches finish on the old kernel, the next batch
    sees the new one — no lock, no downtime.
  - MVCC engines: ``engine.snapshot()`` seals the delta and flips the
    CURRENT manifest (the PR-8 path), then the scheduler adopts the
    tuned config for its snapshot kernels; pinned snapshots keep
    in-flight batches on the old generation.

  Either way the result cache is invalidated after the flip — its
  generation keying drops any in-flight put that raced the swap.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from ..data.datasets import ProductSet, WeightSet
from .tuner import (
    DEFAULT_PROBE_QUERIES,
    DEFAULT_SEED,
    AutoTuner,
    CandidateConfig,
    default_config,
    poor_filtering,
)

__all__ = ["ServiceTuner", "DEFAULT_TUNE_THRESHOLD",
           "DEFAULT_MIN_IMPROVEMENT"]

#: Undecided+refined fraction above which the trigger fires.
DEFAULT_TUNE_THRESHOLD = 0.35

#: Minimum measured improvement a winner needs to earn a swap.
DEFAULT_MIN_IMPROVEMENT = 0.01


class ServiceTuner:
    """One service's workload-adaptive tuning loop.

    Runs inline (``run_once``; the ``POST /tuner`` handler) or on its
    own daemon thread (``interval_s > 0``; ``serve --auto-tune``).  All
    tuning work happens under one lock off the dispatcher thread, so at
    most one rebuild is in flight and serving latency never pays for
    candidate scoring.
    """

    def __init__(self, service, threshold: float = DEFAULT_TUNE_THRESHOLD,
                 min_improvement: float = DEFAULT_MIN_IMPROVEMENT,
                 probe_queries: int = DEFAULT_PROBE_QUERIES,
                 interval_s: float = 0.0, seed: int = DEFAULT_SEED,
                 k: int = 10):
        self.service = service
        self.threshold = float(threshold)
        self.min_improvement = float(min_improvement)
        self.probe_queries = int(probe_queries)
        self.interval_s = float(interval_s)
        self.seed = int(seed)
        self.k = int(k)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._current: Optional[CandidateConfig] = None
        self._last_report: Optional[dict] = None
        self._last_status = "idle"
        self._runs = 0
        self._swaps = 0

    # ------------------------------------------------------------------
    # trigger
    # ------------------------------------------------------------------

    def serving_fraction(self) -> Optional[float]:
        """The live undecided+refined fraction from the metrics tallies.

        ``None`` until the kernel has classified at least one pair —
        a cold service has nothing to tune on.
        """
        kernel = self.service.metrics.snapshot()["kernel"]
        pairs = kernel["pairs"]
        total = int(pairs.get("total", 0))
        if total <= 0:
            return None
        undecided = max(0, total - int(pairs.get("case1", 0))
                        - int(pairs.get("case2", 0)))
        return (undecided + int(pairs.get("refined", 0))) / total

    def should_tune(self) -> Optional[dict]:
        """The trigger verdict (``None`` before any kernel traffic)."""
        fraction = self.serving_fraction()
        if fraction is None:
            return None
        return poor_filtering(
            {"fractions": {"undecided": fraction, "refined": 0.0}},
            threshold=self.threshold,
        )

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------

    def _datasets(self):
        """A consistent ``(ProductSet, WeightSet)`` copy of the engine.

        MVCC engines are read through a pinned snapshot (released before
        returning — the tuner holds plain copies, never pins, so it can
        never stall compaction).  ``None`` when the engine exposes no
        tunable dataset (an empty side, or neither snapshots nor static
        sets).
        """
        engine = self.service.engine
        pin = getattr(engine, "pin_snapshot", None)
        if pin is not None:
            snap = pin()
            try:
                p_rows, _ = snap.live_products()
                w_rows, _ = snap.live_weights()
                if p_rows.shape[0] == 0 or w_rows.shape[0] == 0:
                    return None
                products = ProductSet(
                    np.array(p_rows, dtype=np.float64, copy=True),
                    value_range=snap.value_range,
                )
                weights = WeightSet(
                    np.array(w_rows, dtype=np.float64, copy=True)
                )
            finally:
                snap.release()
            return products, weights
        products = getattr(engine, "products", None)
        weights = getattr(engine, "weights", None)
        if isinstance(products, ProductSet) and isinstance(weights,
                                                           WeightSet):
            return products, weights
        return None

    def _current_config(self) -> CandidateConfig:
        """The config serving right now (baseline for scoring)."""
        if self._current is not None:
            return self._current
        algorithm = getattr(self.service.engine, "algorithm",
                            self.service.engine)
        try:
            partitions = getattr(algorithm, "partitions", None)
            if partitions is None:
                partitions = getattr(getattr(algorithm, "grid", None),
                                     "partitions", None)
            if partitions:
                return CandidateConfig(
                    partitions=int(partitions),
                    use_domin=bool(getattr(algorithm, "use_domin", True)),
                )
        except Exception:
            pass
        return default_config()

    # ------------------------------------------------------------------
    # the loop body
    # ------------------------------------------------------------------

    def run_once(self, force: bool = False) -> dict:
        """One detect → enumerate/score → verify → swap pass.

        With ``force`` the trigger check is skipped (the ``POST /tuner``
        default — an operator asking for a run means it).  Returns a
        JSON-ready outcome dict; the full report is kept for ``status``.
        """
        with self._lock:
            self._runs += 1
            trigger = self.should_tune()
            if not force and (trigger is None or not trigger["poor"]):
                self._last_status = "skipped"
                self.service.metrics.record_tuner(
                    "skipped",
                    fraction=(trigger or {}).get(
                        "undecided_refined_fraction"),
                )
                return {"status": "skipped", "trigger": trigger}
            datasets = self._datasets()
            if datasets is None:
                self._last_status = "skipped"
                self.service.metrics.record_tuner("skipped")
                return {"status": "skipped",
                        "reason": "engine exposes no tunable dataset"}
            products, weights = datasets
            current = self._current_config()
            tuner = AutoTuner(
                products, weights, k=self.k,
                probe_queries=self.probe_queries, seed=self.seed,
                current=current,
            )
            report = tuner.tune()
            winner = CandidateConfig.from_dict(report["winner"]["config"])
            swap = (
                report["verified"]
                and report["improvement"] >= self.min_improvement
                and winner.short() != current.short()
            )
            if swap:
                self._swap(tuner, report, winner)
                self._swaps += 1
                status = "swapped"
            else:
                status = "rejected"
            served = report["winner"] if swap else report["baseline"]
            fraction = served["measured"]["undecided_refined_fraction"]
            self._last_status = status
            self._last_report = report
            self.service.metrics.record_tuner(
                status, improvement=report["improvement"],
                fraction=fraction,
            )
            return {
                "status": status,
                "trigger": trigger,
                "improvement": report["improvement"],
                "verified": report["verified"],
                "winner": report["winner"]["config"],
                "winner_label": report["winner"]["label"],
                "baseline_label": report["baseline"]["label"],
                "undecided_refined_fraction": fraction,
            }

    def _swap(self, tuner: AutoTuner, report: dict,
              winner: CandidateConfig) -> None:
        """Flip the verified winner in with zero downtime."""
        engine = self.service.engine
        scheduler = self.service.scheduler
        if getattr(engine, "pin_snapshot", None) is not None:
            # MVCC path: seal the delta and flip CURRENT so a fresh
            # generation exists, then rebuild snapshot kernels under the
            # tuned config.  Pinned snapshots keep in-flight batches on
            # the old generation until they release.
            engine.snapshot()
            scheduler.set_snapshot_tuning(winner)
        else:
            scheduler.swap_kernel(tuner.build_winner(report), winner)
        self._current = winner
        # Generation keying makes any in-flight put racing this flip
        # land dead: it carries the pre-invalidate generation.
        self.service.cache.invalidate()

    # ------------------------------------------------------------------
    # background thread
    # ------------------------------------------------------------------

    def start(self) -> "ServiceTuner":
        """Start the periodic loop (no-op unless ``interval_s > 0``)."""
        if self.interval_s > 0 and self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="rrq-tuner", daemon=True
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.run_once(force=False)
            except Exception:
                # A failed tuning pass must never take serving down.
                self.service.metrics.record_tuner("rejected")

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """The ``GET /tuner`` body."""
        trigger = self.should_tune()
        body = {
            "enabled": True,
            "auto": self.interval_s > 0,
            "interval_s": self.interval_s,
            "threshold": self.threshold,
            "min_improvement": self.min_improvement,
            "probe_queries": self.probe_queries,
            "seed": self.seed,
            "runs": self._runs,
            "swaps": self._swaps,
            "last_status": self._last_status,
            "trigger": trigger,
            "current_config": (self._current.as_dict()
                               if self._current is not None else None),
        }
        report = self._last_report
        if report is not None:
            body["last_report"] = {
                "improvement": report["improvement"],
                "verified": report["verified"],
                "winner": report["winner"]["config"],
                "winner_label": report["winner"]["label"],
                "baseline_label": report["baseline"]["label"],
                "candidates": len(report["candidates"]),
            }
        return body
