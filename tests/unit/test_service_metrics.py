"""ServiceMetrics: clock discipline, snapshot atomicity, Prometheus text.

Three bug classes this file pins down:

* **wall-clock leakage** — durations must come from monotonic clocks, so
  a backwards NTP step can never produce negative uptime or a latency
  sample; a source scan enforces that every remaining ``time.time()``
  call in the library is a marked human-readable timestamp;
* **torn snapshots** — ``snapshot()`` must be internally consistent and
  own its dicts even while eight threads hammer the recorders;
* **exposition fidelity** — the Prometheus rendering must lint clean and
  agree with the JSON body it is derived from.
"""

import re
import threading
import time
from pathlib import Path

import pytest

from repro.obs.prom import lint_exposition
from repro.service.metrics import ServiceMetrics

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

KERNEL_STATS = {
    "queries": 1,
    "stage_s": {"filter": 0.001, "refine": 0.002, "merge": 0.0005},
    "pairs": {"total": 100, "case1": 60, "case2": 30, "refined": 10,
              "domin_skipped": 5},
    "weights_pruned": 2,
}


class TestClockDiscipline:
    def test_uptime_never_negative_when_wall_clock_steps_back(self, monkeypatch):
        """Regression: a backwards wall-clock step must not skew uptime.

        ``time.time`` jumping into the past (NTP correction, manual
        clock change) used to be a risk for any duration computed from
        wall-clock deltas; uptime and qps must come from the monotonic
        clock and stay non-negative.
        """
        metrics = ServiceMetrics()
        metrics.record_request("rtk", 0.001)
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
        assert metrics.uptime_s() >= 0.0
        snap = metrics.snapshot()
        assert snap["uptime_s"] >= 0.0
        assert snap["qps"] >= 0.0
        # started_at stays the honest wall-clock birth timestamp.
        assert snap["started_at"] == pytest.approx(metrics._started)

    def test_no_unmarked_wall_clock_in_library(self):
        """Every ``time.time()`` in src/ is a marked display timestamp.

        Durations must use ``time.monotonic`` / ``time.perf_counter``;
        the only legitimate wall-clock reads are human-readable
        timestamps, and each must carry a ``wall-clock`` marker comment
        so this scan (and reviewers) can tell them apart at a glance.
        """
        pattern = re.compile(r"\btime\.time\(\)")
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                if pattern.search(line) and "wall-clock" not in line:
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
        assert offenders == [], (
            "unmarked time.time() calls (use a monotonic clock for "
            "durations, or add a '# wall-clock' marker for display "
            "timestamps):\n" + "\n".join(offenders)
        )


class TestSnapshotIsolation:
    def test_snapshot_owns_its_dicts(self):
        """Mutating after snapshot must not change the snapshot."""
        metrics = ServiceMetrics()
        metrics.record_request("rtk", 0.01)
        metrics.record_kernel(dict(KERNEL_STATS))
        metrics.record_mutation("insert_product")
        snap = metrics.snapshot()
        metrics.record_request("rkr", 0.02)
        metrics.record_kernel(dict(KERNEL_STATS))
        metrics.record_mutation("insert_product")
        assert snap["requests"]["total"] == 1
        assert snap["requests"]["by_kind"] == {"rtk": 1}
        assert snap["kernel"]["pairs"]["total"] == 100
        assert snap["kernel"]["stage_s"]["filter"] == \
            pytest.approx(0.001)
        assert snap["mutations"]["by_op"] == {"insert_product": 1}

    def test_concurrent_recording_never_tears_a_snapshot(self):
        """8 writer threads vs a snapshot reader: invariants must hold.

        Each recorded kernel stat adds exactly 100 pairs split 60/30/10,
        each request is 1 of a known kind, each batch adds its size to
        batched_requests — so any snapshot taken mid-flight must show
        internally consistent sums.  A torn read (half-folded kernel
        dict, aliased inner map) breaks one of the asserted identities.
        """
        metrics = ServiceMetrics()
        stop = threading.Event()
        errors = []

        def writer(i):
            kind = "rtk" if i % 2 == 0 else "rkr"
            while not stop.is_set():
                metrics.record_request(kind, 0.001, cache_hit=(i % 3 == 0))
                metrics.record_kernel(dict(KERNEL_STATS))
                metrics.record_batch(4)
                metrics.record_mutation("insert_product")

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                snap = metrics.snapshot()
                try:
                    pairs = snap["kernel"]["pairs"]
                    assert pairs["total"] % 100 == 0
                    assert pairs["case1"] * 10 == pairs["total"] * 6
                    assert pairs["case2"] * 10 == pairs["total"] * 3
                    assert (pairs["case1"] + pairs["case2"]
                            + pairs["refined"]) == pairs["total"]
                    assert pairs["total"] == \
                        snap["kernel"]["queries"] * 100
                    by_kind = snap["requests"]["by_kind"]
                    assert sum(by_kind.values()) == \
                        snap["requests"]["total"]
                    batches = snap["batches"]
                    assert batches["batched_requests"] == \
                        batches["total"] * 4
                    assert snap["mutations"]["by_op"].get(
                        "insert_product", 0
                    ) == snap["mutations"]["total"]
                except AssertionError as exc:
                    errors.append(str(exc))
                    break
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5.0)
        assert errors == []

    def test_concurrent_prometheus_render_lints_clean(self):
        """Rendering while writers run must still produce a valid body."""
        metrics = ServiceMetrics()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                metrics.record_request("rtk", 0.002, trace_id="hot")
                metrics.record_kernel(dict(KERNEL_STATS))

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(20):
                assert lint_exposition(metrics.prometheus()) == []
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5.0)


class TestPrometheusRendering:
    def test_lints_clean_and_matches_json(self):
        metrics = ServiceMetrics()
        metrics.record_request("rtk", 0.003, trace_id="abc123")
        metrics.record_request("rkr", 0.004)
        metrics.record_rejection(overload=True)
        metrics.record_kernel(dict(KERNEL_STATS))
        metrics.record_batch(3)
        metrics.record_mutation("compact")
        text = metrics.prometheus(
            cache_stats={"capacity": 10, "entries": 2, "hits": 1,
                         "misses": 3, "invalidations": 0},
            durability={"wal": {"appends": 7, "fsyncs": 7},
                        "last_lsn": 7, "snapshot_lsn": 3},
            replication={"lag": 0, "applied_records": 7,
                         "poll_errors": 0},
            slowlog={"recorded_total": 1, "threshold_s": 0.25},
            traces={"finished_total": 2},
        )
        assert lint_exposition(text) == []
        assert 'rrq_requests_total{kind="rtk"} 1' in text
        assert 'rrq_requests_total{kind="rkr"} 1' in text
        assert 'rrq_requests_rejected_total{reason="overload"} 1' in text
        assert 'rrq_kernel_pairs_total{class="case1"} 60' in text
        assert 'rrq_mutations_total{op="compact"} 1' in text
        assert "rrq_wal_appends_total 7" in text
        assert "rrq_replication_lag 0" in text
        assert "rrq_slow_queries_total 1" in text
        assert "rrq_traces_finished_total 2" in text
        # The latency observation carries its trace id as an exemplar.
        assert 'trace_id="abc123"' in text

    def test_window_tallies_read_the_same_in_both_bodies(self):
        metrics = ServiceMetrics()
        metrics.record_batch(2, closed="complete")
        metrics.record_batch(2, closed="complete")
        metrics.record_batch(1, closed="expired")
        batches = metrics.snapshot()["batches"]
        assert batches["windows"] == {"expired": 1, "complete": 2, "full": 0}
        assert (batches["total"], batches["coalesced"]) == (3, 2)
        text = metrics.prometheus()
        assert lint_exposition(text) == []
        for closed, count in batches["windows"].items():
            assert (f'rrq_batch_window_total{{closed="{closed}"}} {count}'
                    in text)

    def test_empty_metrics_still_lint_clean(self):
        assert lint_exposition(ServiceMetrics().prometheus()) == []

    def test_latency_histogram_counts_requests(self):
        metrics = ServiceMetrics()
        for latency in (0.0001, 0.003, 0.2, 9.0):
            metrics.record_request("rtk", latency)
        text = metrics.prometheus()
        assert "rrq_request_latency_seconds_count 4" in text
        assert 'rrq_request_latency_seconds_bucket{le="+Inf"} 4' in text
