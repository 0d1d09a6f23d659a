"""Unit tests for repro.obs: tracing, Prometheus exposition, slow log."""

import json
import math
import threading

import pytest

from repro.errors import InvalidParameterError
from repro.obs.prom import (
    LATENCY_BUCKETS_S,
    Exposition,
    Histogram,
    lint_exposition,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    MAX_SPANS_PER_TRACE,
    Tracer,
    current,
    current_trace_id,
    new_trace_id,
    sanitize_trace_id,
    span,
    use_context,
)


class TestTraceIds:
    def test_new_trace_id_shape_and_uniqueness(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 32 and all(c in "0123456789abcdef" for c in a)

    def test_sanitize_accepts_well_formed(self):
        assert sanitize_trace_id("req-42.A_b") == "req-42.A_b"

    @pytest.mark.parametrize("bad", [
        None, "", "has space", "new\nline", 'quo"te', "x" * 65,
        "ünïcode", "semi;colon",
    ])
    def test_sanitize_replaces_malformed(self, bad):
        got = sanitize_trace_id(bad)
        assert got != bad
        assert len(got) == 32  # a fresh uuid4 hex


class TestSpansAndContext:
    def test_dark_span_is_noop(self):
        assert current() is None
        with span("anything") as sp:
            sp.annotate("k", 1)  # must not raise
            assert sp.trace_id is None
        assert current_trace_id() is None

    def test_root_and_child_span_tree(self):
        tracer = Tracer()
        with tracer.trace("root", trace_id="t1") as root:
            assert root.trace_id == "t1"
            assert current_trace_id() == "t1"
            with span("child") as child:
                child.annotate("depth", 1)
                with span("grandchild"):
                    pass
        stored = tracer.get("t1")
        assert stored is not None
        assert stored["root"] == "root"
        assert stored["span_count"] == 3
        (root_node,) = stored["spans"]
        assert root_node["name"] == "root"
        (child_node,) = root_node["children"]
        assert child_node["name"] == "child"
        assert child_node["annotations"] == {"depth": 1}
        (grand,) = child_node["children"]
        assert grand["name"] == "grandchild"
        assert grand["children"] == []

    def test_span_durations_nonnegative_and_nested(self):
        tracer = Tracer()
        with tracer.trace("root", trace_id="t"):
            with span("inner"):
                pass
        trace = tracer.get("t")
        (root_node,) = trace["spans"]
        inner = root_node["children"][0]
        assert root_node["duration_s"] >= inner["duration_s"] >= 0.0

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.trace("root", trace_id="t"):
                with span("child"):
                    raise ValueError("boom")
        trace = tracer.get("t")
        (root_node,) = trace["spans"]
        assert root_node["status"] == "error"
        assert "boom" in root_node["error"]
        child = root_node["children"][0]
        assert child["status"] == "error"

    def test_context_resets_after_trace(self):
        tracer = Tracer()
        with tracer.trace("root"):
            assert current() is not None
        assert current() is None

    def test_cross_thread_handoff(self):
        """current() + use_context() carries one trace across threads."""
        tracer = Tracer()
        seen = {}

        def worker(ctx):
            with use_context(ctx):
                seen["trace_id"] = current_trace_id()
                with span("worker.step"):
                    pass
            seen["after"] = current_trace_id()

        with tracer.trace("root", trace_id="xthread"):
            ctx = current()
            t = threading.Thread(target=worker, args=(ctx,))
            t.start()
            t.join()
        assert seen["trace_id"] == "xthread"
        assert seen["after"] is None
        trace = tracer.get("xthread")
        (root_node,) = trace["spans"]
        assert [c["name"] for c in root_node["children"]] == ["worker.step"]

    def test_span_cap_drops_excess(self):
        tracer = Tracer()
        with tracer.trace("root", trace_id="big"):
            for _ in range(MAX_SPANS_PER_TRACE + 10):
                with span("s"):
                    pass
        trace = tracer.get("big")
        assert trace["span_count"] == MAX_SPANS_PER_TRACE
        assert trace["spans_dropped"] > 0


class TestTracerRing:
    def test_ring_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.trace("r", trace_id=f"t{i}"):
                pass
        snap = tracer.snapshot()
        assert snap["finished_total"] == 5
        ids = [t["trace_id"] for t in snap["traces"]]
        assert ids == ["t4", "t3", "t2"]  # most recent first
        assert tracer.get("t0") is None

    def test_snapshot_limit(self):
        tracer = Tracer()
        for i in range(4):
            with tracer.trace("r", trace_id=f"t{i}"):
                pass
        assert len(tracer.snapshot(limit=2)["traces"]) == 2

    def test_export_jsonl(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(export_path=str(path))
        with tracer.trace("a", trace_id="e1"):
            pass
        with tracer.trace("b", trace_id="e2"):
            pass
        lines = path.read_text().strip().splitlines()
        assert [json.loads(line)["trace_id"] for line in lines] == \
            ["e1", "e2"]

    def test_export_failure_counted_not_raised(self, tmp_path):
        tracer = Tracer(export_path=str(tmp_path))  # a directory: open fails
        with tracer.trace("a"):
            pass
        assert tracer.export_errors == 1
        assert tracer.stats()["finished_total"] == 1


class TestHistogram:
    def test_cumulative_counts(self):
        h = Histogram((0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        les = [b["le"] for b in snap["buckets"]]
        counts = [b["count"] for b in snap["buckets"]]
        assert les == [0.1, 1.0, math.inf]
        assert counts == [1, 3, 4]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)

    def test_boundary_lands_in_its_bucket(self):
        """An observation equal to a bound belongs to that bucket (le=)."""
        h = Histogram((0.1, 1.0))
        h.observe(0.1)
        snap = h.snapshot()
        assert snap["buckets"][0]["count"] == 1

    def test_non_finite_dropped(self):
        h = Histogram((1.0,))
        h.observe(float("nan"))
        h.observe(float("inf"))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["dropped_non_finite"] == 2
        assert math.isfinite(snap["sum"])

    def test_exemplar_kept_per_bucket(self):
        h = Histogram((0.1, 1.0))
        h.observe(0.05, exemplar="first")
        h.observe(0.06, exemplar="second")
        h.observe(0.5)  # no exemplar: previous one survives
        snap = h.snapshot()
        assert snap["buckets"][0]["exemplar"] == ("second", 0.06)
        assert snap["buckets"][1]["exemplar"] is None

    @pytest.mark.parametrize("bad", [(), (1.0, 1.0), (2.0, 1.0),
                                     (1.0, float("inf"))])
    def test_bad_buckets_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            Histogram(bad)

    def test_default_bucket_tuples_valid(self):
        Histogram(LATENCY_BUCKETS_S)


class TestExposition:
    def test_render_and_lint_roundtrip(self):
        exp = Exposition()
        exp.counter("x_total", "Things counted.", 3)
        exp.counter("y_total", "By label.", 1, labels={"kind": "a"})
        exp.counter("y_total", "By label.", 2, labels={"kind": "b"})
        exp.gauge("z", "A gauge.", 1.5)
        h = Histogram((0.1, 1.0))
        h.observe(0.05, exemplar="trace-1")
        exp.histogram("lat_seconds", "Latency.", h.snapshot())
        text = exp.render()
        assert lint_exposition(text) == []
        assert text.count("# HELP y_total") == 1
        assert 'y_total{kind="a"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert '# {trace_id="trace-1"} 0.05' in text

    def test_conflicting_kind_rejected(self):
        exp = Exposition()
        exp.counter("m", "h", 1)
        with pytest.raises(InvalidParameterError):
            exp.gauge("m", "h", 1)

    def test_bad_names_rejected(self):
        exp = Exposition()
        with pytest.raises(InvalidParameterError):
            exp.counter("bad name", "h", 1)
        with pytest.raises(InvalidParameterError):
            exp.counter("ok", "h", 1, labels={"bad-label": "v"})

    def test_label_escaping(self):
        exp = Exposition()
        exp.counter("m_total", "h", 1, labels={"op": 'a"b\nc\\d'})
        text = exp.render()
        assert 'op="a\\"b\\nc\\\\d"' in text
        assert lint_exposition(text) == []

    def test_lint_catches_duplicates_and_gaps(self):
        assert lint_exposition("m_total 1\n")  # no HELP/TYPE
        dup = ("# HELP m h\n# TYPE m counter\nm 1\nm 1\n")
        assert any("duplicate series" in p for p in lint_exposition(dup))
        twice = ("# HELP m h\n# TYPE m counter\n"
                 "# HELP m h\n# TYPE m counter\nm 1\n")
        problems = lint_exposition(twice)
        assert any("duplicate HELP" in p for p in problems)
        assert any("duplicate TYPE" in p for p in problems)

    def test_lint_catches_incomplete_histogram(self):
        text = ("# HELP h x\n# TYPE h histogram\n"
                'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n')
        assert any('le="+Inf"' in p for p in lint_exposition(text))

    def test_lint_catches_non_numeric_value(self):
        text = "# HELP m h\n# TYPE m counter\nm oops\n"
        assert any("non-numeric" in p or "unparseable" in p
                   for p in lint_exposition(text))


class TestSlowQueryLog:
    def test_threshold_gate(self):
        log = SlowQueryLog(threshold_s=0.1)
        assert not log.should_log(0.05)
        assert log.should_log(0.1)
        assert log.should_log(1.0)

    def test_disabled_with_none(self):
        log = SlowQueryLog(threshold_s=None)
        assert not log.should_log(1e9)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            SlowQueryLog(threshold_s=-0.1)

    def test_record_and_snapshot(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=2)
        for i in range(3):
            log.record({"kind": "rtk", "latency_s": 0.5 + i})
        snap = log.snapshot()
        assert snap["recorded_total"] == 3
        assert len(snap["entries"]) == 2  # capacity evicted the oldest
        assert snap["entries"][0]["latency_s"] == 2.5  # most recent first
        assert snap["entries"][0]["threshold_s"] == 0.0
        assert "logged_at" in snap["entries"][0]

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_s=0.0, path=str(path))
        log.record({"kind": "rkr", "latency_s": 1.0, "trace_id": "t9"})
        (line,) = path.read_text().strip().splitlines()
        entry = json.loads(line)
        assert entry["trace_id"] == "t9"
        assert log.sink_errors == 0

    def test_sink_failure_counted_not_raised(self, tmp_path):
        log = SlowQueryLog(threshold_s=0.0, path=str(tmp_path))  # directory
        log.record({"kind": "rtk", "latency_s": 1.0})
        assert log.sink_errors == 1
        assert log.stats()["recorded_total"] == 1
