"""Integration: the HTTP service answers exactly like the offline library.

The acceptance bar for the serving subsystem: a served ``POST /query``
answer (rtk and rkr) must be **byte-identical** to the canonical encoding
of the corresponding :class:`NaiveRRQ`/:class:`RRQEngine` answer, with the
micro-batched path actually exercised (at least one coalesced batch of
size > 1 visible in ``/metrics``).
"""

import json
import threading
import urllib.request

import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import DeadlineExceededError, InvalidParameterError
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
    P = uniform_products(160, 4, seed=2101)
    W = uniform_weights(130, 4, seed=2102)
    return P, W


@pytest.fixture(scope="module")
def naive(data):
    return NaiveRRQ(*data)


@pytest.fixture()
def served(data):
    """A live server (GIR engine, generous batch window) plus its client."""
    P, W = data
    service = QueryService.from_datasets(
        P, W, method="gir",
        config=ServiceConfig(
            batch_window_s=0.15,
            limits=ServiceLimits(max_batch=32),
        ),
    )
    with serve_in_background(service) as server:
        yield service, ServiceClient(server.url)


class TestAnswerFidelity:
    def test_rtk_and_rkr_byte_identical_to_naive(self, served, data, naive):
        """Raw response bytes == canonical encoding of the naive answer."""
        service, client = served
        client.wait_until_healthy()
        P, _ = data
        for product, kind, k in ((3, "rtk", 10), (11, "rkr", 5)):
            expected = (naive.reverse_topk(P[product], k) if kind == "rtk"
                        else naive.reverse_kranks(P[product], k))
            expected_bytes = canonical_json(encode_result(expected, kind))
            request = urllib.request.Request(
                client.base_url + "/query",
                data=json.dumps({"product": product, "kind": kind,
                                 "k": k}).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                body = response.read()
            assert body == expected_bytes

    def test_concurrent_threads_hit_the_batched_path(self, served, data,
                                                     naive):
        """Concurrent rtk/rkr requests: all answers exact, >=1 coalesced
        batch of size > 1 reported by /metrics."""
        service, client = served
        client.wait_until_healthy()
        P, _ = data
        answers = {}
        errors = []

        def round_trip(round_no):
            indices = range(round_no * 16, round_no * 16 + 16)
            barrier = threading.Barrier(16)

            def hit(i):
                barrier.wait()
                kind = "rtk" if i % 2 == 0 else "rkr"
                k = 8 if kind == "rtk" else 4
                try:
                    answers[(i, kind, k)] = client.query(
                        product=i, kind=kind, k=k)
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [threading.Thread(target=hit, args=(i,))
                       for i in indices]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        # Bursts of 16 unique queries against a 150 ms window; retry a few
        # rounds so a pathologically slow machine cannot flake the assert.
        for round_no in range(5):
            round_trip(round_no)
            if client.metrics()["batches"]["coalesced"] >= 1:
                break

        assert not errors
        for (i, kind, k), got in answers.items():
            expected = (naive.reverse_topk(P[i], k) if kind == "rtk"
                        else naive.reverse_kranks(P[i], k))
            assert canonical_json(got) == canonical_json(
                encode_result(expected, kind)), (i, kind, k)

        metrics = client.metrics()
        assert metrics["batches"]["coalesced"] >= 1
        assert metrics["batches"]["max_size"] > 1
        assert metrics["requests"]["total"] >= 16

    def test_cache_hit_on_repeat(self, served, data):
        service, client = served
        client.wait_until_healthy()
        first = client.query(product=7, kind="rtk", k=6)
        before = client.metrics()["cache"]["hits"]
        second = client.query(product=7, kind="rtk", k=6)
        assert first == second
        after = client.metrics()
        assert after["cache"]["hits"] == before + 1
        assert after["requests"]["cache_hits"] >= 1


class TestEndpoints:
    def test_healthz_info_metrics(self, served, data):
        service, client = served
        health = client.wait_until_healthy()
        assert health["status"] == "ok"
        info = client.info()
        P, W = data
        assert info["products"] == P.size
        assert info["weights"] == W.size
        assert info["method"] == "gir"
        metrics = client.metrics()
        for section in ("requests", "latency_ms", "batches", "cache", "ops"):
            assert section in metrics

    def test_rejections_are_structured(self, served):
        service, client = served
        client.wait_until_healthy()
        with pytest.raises(InvalidParameterError):
            client.query(product=10_000)          # out of range -> 400
        with pytest.raises(InvalidParameterError):
            client.query(vector=[1.0, 2.0])       # wrong dim -> 400
        with pytest.raises(InvalidParameterError):
            client._request("GET", "/nope")       # 404
        with pytest.raises(DeadlineExceededError):
            client.query(product=1, kind="rtk", k=3, timeout_ms=0)  # 504

    def test_tuner_endpoints_are_gone(self, served):
        """The auto-tuner is deleted: its paths are unknown paths."""
        import urllib.error

        service, client = served
        client.wait_until_healthy()
        for data_ in (None, b'{"force": true}'):  # GET, then POST
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(urllib.request.Request(
                    client.base_url + "/tuner", data=data_), timeout=5)
            assert refused.value.code == 404
            assert json.loads(refused.value.read()) == {
                "error": "NotFound", "message": "/tuner", "status": 404}
        assert "tuner" not in client.metrics()
        assert "auto_tune" not in client.info()

    def test_sugar_helpers_match_dicts(self, served, data, naive):
        service, client = served
        client.wait_until_healthy()
        P, _ = data
        assert client.reverse_topk(P[5], k=9) == \
            naive.reverse_topk(P[5], 9).weights
        assert client.reverse_kranks(P[5], k=3) == \
            naive.reverse_kranks(P[5], 3).entries
