"""Integration: one trace id, end to end.

The acceptance bar for the observability subsystem: a trace id supplied
at HTTP ingress (``X-Trace-Id``) must be visible, for the *same
request*, in all three places it is promised —

* the span tree at ``GET /traces?id=...`` (ingress → service → kernel);
* the slow-query log entry at ``GET /slowlog``;
* the Prometheus latency-histogram exemplar at
  ``GET /metrics?format=prometheus``;

while the JSON answer body stays byte-identical to the untraced answer
(the id travels only in the response header).
"""

import json
import threading
import urllib.request

import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.data.synthetic import uniform_products, uniform_weights
from repro.obs.prom import lint_exposition
from repro.service import (
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceLimits,
    canonical_json,
    encode_result,
    serve_in_background,
)


@pytest.fixture(scope="module")
def data():
    P = uniform_products(160, 4, seed=2301)
    W = uniform_weights(130, 4, seed=2302)
    return P, W


def _make_service(data, **config_kwargs):
    P, W = data
    config_kwargs.setdefault("batch_window_s", 0.15)
    config_kwargs.setdefault("limits", ServiceLimits(max_batch=32))
    return QueryService.from_datasets(
        P, W, method="gir", config=ServiceConfig(**config_kwargs)
    )


@pytest.fixture()
def served(data):
    """Threshold 0.0: every request lands in the slow-query log."""
    service = _make_service(data, slow_query_threshold_s=0.0)
    with serve_in_background(service) as server:
        client = ServiceClient(server.url)
        client.wait_until_healthy()
        yield service, client


def _post_query(base_url, payload, trace_id=None, timeout=30):
    headers = {"Content-Type": "application/json"}
    if trace_id is not None:
        headers["X-Trace-Id"] = trace_id
    request = urllib.request.Request(
        base_url + "/query", data=json.dumps(payload).encode(),
        method="POST", headers=headers,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _get_json(base_url, path, timeout=30):
    with urllib.request.urlopen(base_url + path, timeout=timeout) as resp:
        return json.loads(resp.read())


def _spans(node):
    yield node
    for child in node["children"]:
        yield from _spans(child)


def _span_names(node):
    return (span["name"] for span in _spans(node))


class TestTraceIdEndToEnd:
    def test_one_id_in_traces_slowlog_and_exemplar(self, served, data):
        service, client = served
        P, W = data
        trace_id = "e2e-trace-7"
        status, headers, body = _post_query(
            client.base_url, {"product": 3, "kind": "rtk", "k": 10},
            trace_id=trace_id,
        )
        assert status == 200
        # (1) echoed on the response, never inside the body: the bytes
        # must equal the canonical untraced answer exactly.
        assert headers["X-Trace-Id"] == trace_id
        expected = NaiveRRQ(P, W).reverse_topk(P[3], 10)
        assert body == canonical_json(encode_result(expected, "rtk"))
        assert b"trace_id" not in body

        # (2) the span tree is readable under that id.
        found = _get_json(client.base_url, f"/traces?id={trace_id}")
        assert found["found"] is True
        trace = found["trace"]
        assert trace["trace_id"] == trace_id
        (root,) = trace["spans"]
        names = list(_span_names(root))
        assert names[0] == "http.query"
        assert "service.query" in names
        # A batch of one is answered by the same kernel sweep as any
        # other dispatch, never by the reference scan, and its span
        # carries the sweep's stats.
        assert "reference_scan.query" not in names
        (dispatch,) = [s for s in _spans(root) if s["name"] == "kernel.batch"]
        notes = dispatch["annotations"]
        assert notes["batch_size"] == 1 and notes["fused"] is False
        assert notes["kernel_stats"]["queries"] == 1
        assert notes["kernel_stats"]["fused"]["queries"] == 0
        # The span encloses the sweep it reports on.
        assert dispatch["duration_s"] >= \
            sum(notes["kernel_stats"]["stage_s"].values())

        # (3) the slow-query log (threshold 0.0) captured the request,
        # with the same id and the span tree attached.
        slowlog = _get_json(client.base_url, "/slowlog")
        entries = [e for e in slowlog["entries"]
                   if e.get("trace_id") == trace_id]
        assert len(entries) == 1
        entry = entries[0]
        assert entry["kind"] == "rtk" and entry["k"] == 10
        assert entry["latency_s"] >= 0.0
        # The log captures the spans closed so far: the service span and
        # everything under it (the http root is still open when the
        # entry is cut).
        assert any("service.query" in _span_names(s)
                   for s in entry["spans"])
        # ... and the Table-4 profile of the sweep that answered it.
        assert entry["kernel"] == notes["kernel_stats"]
        assert entry["kernel"]["pairs"]["total"] > 0

        # (4) a live Prometheus scrape lints clean and carries the id
        # as a latency-bucket exemplar.
        with urllib.request.urlopen(
            client.base_url + "/metrics?format=prometheus", timeout=30
        ) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert lint_exposition(text) == []
        assert [line for line in text.splitlines()
                if line.startswith("rrq_request_latency_seconds_bucket")
                and f'trace_id="{trace_id}"' in line]
        assert "filter_rate" not in text  # a constant, no longer scraped

    def test_generated_id_when_header_absent(self, served):
        _, client = served
        status, headers, _ = _post_query(
            client.base_url, {"product": 1, "kind": "rkr", "k": 4}
        )
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        assert len(trace_id) == 32  # freshly minted uuid hex
        found = _get_json(client.base_url, f"/traces?id={trace_id}")
        assert found["found"] is True

    def test_malformed_header_replaced_not_echoed(self, served):
        _, client = served
        status, headers, _ = _post_query(
            client.base_url, {"product": 2, "kind": "rtk", "k": 5},
            trace_id="bad id with spaces",
        )
        assert status == 200
        assert headers["X-Trace-Id"] != "bad id with spaces"
        assert len(headers["X-Trace-Id"]) == 32

    def test_error_response_still_carries_trace_id(self, served):
        _, client = served
        trace_id = "err-trace-1"
        status, headers, body = _post_query(
            client.base_url, {"product": 0, "kind": "sideways", "k": 5},
            trace_id=trace_id,
        )
        assert status == 400
        assert headers["X-Trace-Id"] == trace_id
        assert json.loads(body)["error"]
        found = _get_json(client.base_url, f"/traces?id={trace_id}")
        assert found["found"] is True
        (root,) = found["trace"]["spans"]
        assert root["status"] == "error"

    def test_coalesced_batch_traces_kernel_span(self, served):
        """Concurrent traced requests: at least one trace shows a
        shared sweep (``kernel.batch`` with ``fused``) under its root."""
        service, client = served
        kernel_traced = []

        def round_trip(round_no):
            barrier = threading.Barrier(16)
            ids = [f"batch-{round_no}-{i}" for i in range(16)]

            def hit(i):
                barrier.wait()
                _post_query(client.base_url,
                            {"product": (round_no * 16 + i) % 100,
                             "kind": "rtk", "k": 6},
                            trace_id=ids[i])

            threads = [threading.Thread(target=hit, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return ids

        for round_no in range(5):
            ids = round_trip(round_no)
            for tid in ids:
                found = _get_json(client.base_url, f"/traces?id={tid}")
                if not found["found"]:
                    continue
                (root,) = found["trace"]["spans"]
                names = list(_span_names(root))
                if any(s["name"] == "kernel.batch"
                       and s["annotations"]["fused"]
                       and s["annotations"]["batch_size"] > 1
                       for s in _spans(root)):
                    kernel_traced.append((tid, names))
            if kernel_traced:
                break

        assert kernel_traced, "no trace ever showed the batched path"
        _, names = kernel_traced[0]
        assert names[0] == "http.query"
        assert "service.query" in names


class TestSlowlogThreshold:
    def test_high_threshold_logs_nothing(self, data):
        service = _make_service(data, slow_query_threshold_s=30.0)
        with serve_in_background(service) as server:
            client = ServiceClient(server.url)
            client.wait_until_healthy()
            status, _, _ = _post_query(
                client.base_url, {"product": 5, "kind": "rtk", "k": 5}
            )
            assert status == 200
            slowlog = _get_json(client.base_url, "/slowlog")
            assert slowlog["recorded_total"] == 0
            assert slowlog["entries"] == []
            assert slowlog["threshold_s"] == 30.0

    def test_disabled_threshold_logs_nothing(self, data):
        service = _make_service(data, slow_query_threshold_s=None)
        with serve_in_background(service) as server:
            client = ServiceClient(server.url)
            client.wait_until_healthy()
            status, _, _ = _post_query(
                client.base_url, {"product": 5, "kind": "rtk", "k": 5}
            )
            assert status == 200
            slowlog = _get_json(client.base_url, "/slowlog")
            assert slowlog["recorded_total"] == 0


class TestTracesEndpoint:
    def test_limit_and_miss(self, served):
        _, client = served
        for i in range(4):
            _post_query(client.base_url,
                        {"product": i, "kind": "rtk", "k": 3},
                        trace_id=f"ring-{i}")
        snap = _get_json(client.base_url, "/traces?limit=2")
        assert len(snap["traces"]) == 2
        assert snap["finished_total"] >= 4
        miss = _get_json(client.base_url, "/traces?id=never-was")
        assert miss == {"found": False, "trace": None}
