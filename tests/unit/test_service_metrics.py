"""ServiceMetrics: clock discipline, snapshot atomicity, Prometheus text.

Three bug classes this file pins down:

* **wall-clock leakage** — durations must come from monotonic clocks, so
  a backwards NTP step can never produce negative uptime or a latency
  sample; a source scan enforces that every remaining ``time.time()``
  call in the library is a marked human-readable timestamp;
* **torn snapshots** — ``snapshot()`` must be internally consistent and
  own its dicts even while eight threads hammer the recorders;
* **exposition fidelity** — the Prometheus rendering must lint clean and
  agree with the JSON body it is derived from, on a node, a durable
  standby and the cluster coordinator, and ``docs/observability.md`` §2
  must name exactly the families the table renders.
"""

import re
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import NotPrimaryError
from repro.obs.prom import lint_exposition
from repro.service.metrics import FAMILIES, ServiceMetrics, render

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"
DOCS = Path(__file__).resolve().parents[2] / "docs"

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
                assert lint_exposition(render(
                    metrics.snapshot(), metrics.latency_histogram())) == []
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5.0)


_SAMPLE_RE = re.compile(r'^(\w+)(?:\{(.*)\})? (\S+)')
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')


def _parse(text):
    """family name -> [(labels, value)] for every sample of a scrape."""
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        samples.setdefault(name, []).append(
            (dict(_LABEL_RE.findall(labels or "")), float(value)))
    return samples


def _leaf(body, path):
    for key in path.split("."):
        if not isinstance(body, dict) or key not in body:
            return None
        body = body[key]
    return body


def assert_matches_json(text, body):
    """Every sample equals the JSON leaf its table row names; a family
    whose leaf the body lacks is not in the scrape."""
    assert lint_exposition(text) == []
    samples = _parse(text)
    for family in FAMILIES:
        if family.type == "histogram" or family.path.startswith("http."):
            continue  # not read off the JSON body
        leaf = _leaf(body, family.path)
        got = samples.get(family.name, [])
        if leaf is None:
            assert got == [], family.name
            continue
        if family.label is None:
            assert got == [({}, float(leaf))], family.name
        elif isinstance(family.label, tuple):
            records = leaf or family.default
            assert sorted(got, key=repr) == sorted(
                ({name: str(rec[name]) for name in family.label},
                 float(rec["count"])) for rec in records), family.name
        else:
            source = leaf or family.default or {}
            if family.keys:
                source = {key: leaf[sub] for key, sub in family.keys.items()}
            assert {labels[family.label]: value for labels, value in got} \
                == {str(key): float(family.value(raw) if family.value
                                    else raw)
                    for key, raw in source.items()}, family.name


def _coordinator_body():
    from repro.cluster import ClusterCoordinator, ClusterTopology
    from repro.cluster.router_server import ClusterService

    topology = ClusterTopology.build([["http://127.0.0.1:9"]] * 3, 30)
    # The supervisor's status() is all /metrics reads of it.
    supervisor = SimpleNamespace(
        status=lambda: {"running": True, "promotions": 2, "restarts": 1},
        stop=lambda: None)
    with ClusterService(ClusterCoordinator(topology),
                        supervisor=supervisor) as service:
        service.metrics.record_request("rtk", 0.004, degraded=True,
                                       trace_id="c1")
        service.coordinator.breakers[1].record_failure()
        for _ in range(5):
            service.coordinator.breakers[2].record_failure()
        return (service.metrics_snapshot(),
                service.metrics.latency_histogram())


def _standby_body(tmp_path):
    from repro.durability import DurableDynamicRRQ
    from repro.service.server import DurableQueryService, ServiceConfig

    config = ServiceConfig(batch_window_s=0.0)
    primary = DurableQueryService(
        DurableDynamicRRQ(tmp_path / "p", dim=3, fsync="never"),
        config=config)
    try:
        for vector in ([0.2, 0.3, 0.1], [0.5, 0.1, 0.4]):
            primary.mutate("insert_product", {"vector": vector})
        primary.mutate("insert_weight", {"vector": [0.3, 0.3, 0.4]})
        standby = DurableQueryService(
            DurableDynamicRRQ(tmp_path / "s", dim=3, fsync="never"),
            config=config, role="standby",
            primary_url=primary.engine.replication_feed,
            poll_interval_s=0.01)
        try:
            deadline = time.monotonic() + 10.0
            while standby.replication_status()["lag"] != 0:
                assert time.monotonic() < deadline, "standby never caught up"
                time.sleep(0.01)
            standby.query([0.3, 0.2, 0.1], kind="rkr", k=1)
            with pytest.raises(NotPrimaryError):
                standby.mutate("insert_product", {"vector": [0.1] * 3})
            return (standby.metrics_snapshot(),
                    standby.metrics.latency_histogram())
        finally:
            standby.close()
    finally:
        primary.close()


class TestPrometheusRendering:
    def test_lints_clean_and_matches_json(self, tmp_path):
        metrics = ServiceMetrics()
        metrics.record_request("rtk", 0.003, trace_id="abc123")
        metrics.record_request("rkr", 0.004)
        metrics.record_rejection(overload=True)
        metrics.record_kernel(dict(KERNEL_STATS))
        metrics.record_batch(3)
        metrics.record_mutation("compact")
        body = dict(
            metrics.snapshot(),
            cache={"capacity": 10, "entries": 2, "hits": 1,
                   "misses": 3, "invalidations": 0},
            durability={"wal": {"appends": 7, "fsyncs": 7},
                        "last_lsn": 7, "snapshot_lsn": 3},
            replication={"lag": 0, "applied_records": 7,
                         "poll_errors": 0},
            slowlog={"recorded_total": 1, "threshold_s": 0.25},
            traces={"finished_total": 2},
        )
        text = render(body, metrics.latency_histogram())
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
        # The same holds for the scrapes of a cluster coordinator (its
        # rrq_cluster_* families, a closed, a counting and an open
        # breaker) and of a durable standby (replication, storage).
        for body, latency in (
                (body, None), _coordinator_body(), _standby_body(tmp_path)):
            text = render(body, latency, idle_connections=0)
            assert_matches_json(text, body)
            assert "\nrrq_http_idle_connections 0\n" in text
        coordinator_text = render(_coordinator_body()[0])
        coordinator = _parse(coordinator_text)
        assert coordinator["rrq_cluster_breaker_open"] == [
            ({"shard": "0"}, 0.0), ({"shard": "1"}, 0.0),
            ({"shard": "2"}, 1.0)]
        assert coordinator["rrq_degraded_responses_total"] == [({}, 1.0)]
        assert coordinator["rrq_cluster_promotions"] == [({}, 2.0)]
        assert "rrq_cluster_degraded_queries" not in coordinator
        # A node's scheduler sections are not a coordinator's: none of
        # their 12 families is in its scrape.
        node_only = {family.name for family in FAMILIES
                     if family.path.split(".")[0]
                     in ("batches", "kernel", "fallbacks")}
        assert len(node_only) == 12
        assert [name for name in node_only
                if name in coordinator
                or f" {name} " in coordinator_text] == []

    def test_docs_name_every_family(self):
        """docs/observability.md §2 is the contract: its table names
        every family the renderer can emit, and nothing else."""
        text = (DOCS / "observability.md").read_text()
        section = text.split("## 2. Prometheus exposition", 1)[1]
        section = section.split("\n## ", 1)[0]
        named = set()
        for line in section.splitlines():
            if line.startswith("|"):
                first_cell = line.split("|")[1]
                named.update(re.findall(r"`(rrq_\w+)`", first_cell))
        assert named == {family.name for family in FAMILIES}

    def test_window_tallies_read_the_same_in_both_bodies(self):
        metrics = ServiceMetrics()
        metrics.record_batch(2, closed="complete")
        metrics.record_batch(2, closed="complete")
        metrics.record_batch(1, closed="expired")
        batches = metrics.snapshot()["batches"]
        assert batches["windows"] == {"expired": 1, "complete": 2, "full": 0}
        assert (batches["total"], batches["coalesced"]) == (3, 2)
        text = render(metrics.snapshot())
        assert lint_exposition(text) == []
        for closed, count in batches["windows"].items():
            assert (f'rrq_batch_window_total{{closed="{closed}"}} {count}'
                    in text)

    def test_empty_metrics_still_lint_clean(self):
        metrics = ServiceMetrics()
        assert lint_exposition(render(metrics.snapshot(),
                                      metrics.latency_histogram())) == []

    def test_latency_histogram_counts_requests(self):
        metrics = ServiceMetrics()
        for latency in (0.0001, 0.003, 0.2, 9.0):
            metrics.record_request("rtk", latency)
        text = render(metrics.snapshot(), metrics.latency_histogram())
        assert "rrq_request_latency_seconds_count 4" in text
        assert 'rrq_request_latency_seconds_bucket{le="+Inf"} 4' in text
