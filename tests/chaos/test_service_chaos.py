"""Chaos tests for the self-healing service layer.

Under injected engine failures, index corruption, and mid-flight
shutdown, the service must degrade — never lie.  Each test drives the
stack through a deterministic :class:`FaultPlan` and checks two things:
the *signalling* (counted fallbacks, ``/healthz`` state, structured
4xx/5xx) and the *answers* (byte-identical to the exact naive scan, per
:func:`tests.chaos.conftest.assert_exact_answer`).

A node has one degraded route: the scheduler's counted reference scan,
taken when the kernel fails to build or to answer.  Nothing else — a
caller's mistake, a failure outside the kernel — is degradation.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.core.storage import save_index
from repro.data.datasets import ProductSet, WeightSet
from repro.errors import (
    ServiceOverloadError,
    ServiceUnavailableError,
)
from repro.resilience.faults import FaultPlan, inject
from repro.service import (
    DurableQueryService,
    QueryService,
    ServiceClient,
    ServiceConfig,
    serve_in_background,
)
from repro.service.server import canonical_json

from .conftest import assert_exact_answer


def make_service(datasets, **config_kwargs):
    P, W = datasets
    config_kwargs.setdefault("batch_window_s", 0.0)
    return QueryService.from_datasets(P, W, method="gir",
                                      config=ServiceConfig(**config_kwargs))


def make_durable_service(tmp_path, datasets=None):
    """A durable primary; with ``datasets`` its rows are inserted in
    order, so stable ids equal the static indices and the session's
    naive oracle answers for it too."""
    from repro.durability import DurableDynamicRRQ

    if datasets is None:
        engine = DurableDynamicRRQ(tmp_path / "wal", dim=4, fsync="never")
    else:
        P, W = datasets
        engine = DurableDynamicRRQ(tmp_path / "wal", dim=4, fsync="never",
                                   value_range=P.value_range)
        for row in P.values:
            engine.insert_product(row)
        for row in W.values:
            engine.insert_weight(row)
    return DurableQueryService(engine,
                               config=ServiceConfig(batch_window_s=0.0))


def broken_kernel(seed, times):
    return FaultPlan(seed=seed).add(
        "scheduler.kernel", "raise", times=times,
        exception=lambda: RuntimeError("injected kernel failure"))


def post(url, path, payload):
    """``(status, body)`` of one JSON POST, error statuses included."""
    request = urllib.request.Request(url + path,
                                     data=json.dumps(payload).encode())
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as refused:
        return refused.code, json.loads(refused.read())


def degrade_then_heal(service, P, oracle, seed):
    """Three kernel faults, then none: every answer exact and
    unflagged, one reference-scan fallback counted per batch, and
    ``/healthz`` degraded with its reason exactly while they last."""
    with inject(broken_kernel(seed, times=3)) as injector:
        for i, kind, k in [(0, "rtk", 7), (1, "rkr", 4), (2, "rtk", 7)]:
            response = service.query(list(P[i]), kind=kind, k=k)
            assert "degraded" not in response
            assert_exact_answer(response, oracle, P[i], kind, k)
            health = service.healthz()
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            assert health["fallback_reason"] == "kernel_error"
        assert injector.fired("scheduler.kernel") == 3

        # The faults are spent: the next batch is the kernel's again.
        response = service.query(list(P[20]), kind="rtk", k=7)
        assert_exact_answer(response, oracle, P[20], "rtk", 7)
    health = service.healthz()
    assert health["status"] == "ok"
    assert health["degraded"] is False
    assert "fallback_reason" not in health
    assert "breaker" not in health

    snap = service.metrics_snapshot()
    assert snap["fallbacks"]["routes"] == [
        {"from": "kernel", "to": "reference_scan", "reason": "kernel_error",
         "count": 3}]
    assert snap["requests"]["degraded"] == 0
    assert snap["requests"]["errors"] == 0


class TestBreakerDegradation:
    """The ids predate the behaviour: the node's breaker and its second
    naive engine are gone, and the scheduler's reference scan is the
    one degraded route these tests drive."""

    def test_engine_faults_degrade_then_self_heal(self, datasets,
                                                  naive_oracle, chaos_seed):
        P, _ = datasets
        with make_service(datasets) as service:
            degrade_then_heal(service, P, naive_oracle, chaos_seed)

    def test_durable_kernel_faults_degrade_then_heal(
            self, datasets, naive_oracle, chaos_seed, tmp_path):
        P, _ = datasets
        with make_durable_service(tmp_path, datasets) as service:
            degrade_then_heal(service, P, naive_oracle, chaos_seed)

    def test_reference_scan_answers_are_cached(self, datasets,
                                                 naive_oracle, chaos_seed):
        """A reference-scan answer is the kernel's answer, byte for
        byte, so the cache keeps it and a healed kernel is not asked
        again."""
        P, _ = datasets
        q = P[33]
        with make_service(datasets) as service:
            with inject(broken_kernel(chaos_seed, times=1)):
                first = service.query(list(q), kind="rtk", k=6)
            again = service.query(list(q), kind="rtk", k=6)
            assert canonical_json(again) == canonical_json(first)
            assert "degraded" not in first
            assert_exact_answer(first, naive_oracle, q, "rtk", 6)
            assert service.cache.stats()["hits"] == 1
            assert service.metrics_snapshot()["fallbacks"]["total"] == 1


class TestNoFalseDegradation:
    """What reaches the service past the scheduler is the caller's
    mistake or a failure outside the kernel: it is answered with its own
    status and counted once, and it never degrades the node."""

    def test_negative_timeout_is_a_plain_400(self, datasets):
        with serve_in_background(make_service(datasets)) as server:
            # Refused whether the answer is cached or not.
            for cached in (False, True):
                status, body = post(server.url, "/query",
                                    {"product": 3, "timeout_ms": -5})
                assert status == 400
                assert body["error"] == "InvalidParameterError"
                assert "degraded" not in body
                if not cached:
                    assert post(server.url, "/query",
                                {"product": 3})[0] == 200
            client = ServiceClient(server.url)
            assert client.metrics()["requests"]["errors"] == 0
            assert client.healthz()["status"] == "ok"

    def test_queries_before_first_insert_stay_healthy(self, tmp_path):
        q = [0.3, 0.1, 0.4, 0.2]
        service = make_durable_service(tmp_path)
        with serve_in_background(service) as server:
            for _ in range(5):
                status, body = post(server.url, "/query", {"vector": q})
                assert status == 400, body
            client = ServiceClient(server.url)
            product, weight = [0.2, 0.2, 0.5, 0.1], [0.4, 0.3, 0.2, 0.1]
            client.insert_product(product)
            client.insert_weight(weight)
            status, body = post(server.url, "/query",
                                {"vector": q, "kind": "rtk", "k": 1})
            assert status == 200, body
            oracle = NaiveRRQ(ProductSet([product]), WeightSet([weight]))
            assert_exact_answer(body, oracle, q, "rtk", 1)
            assert client.healthz()["status"] == "ok"
            assert client.metrics()["requests"]["errors"] == 0

    def test_one_dispatch_failure_is_one_500(self, datasets, chaos_seed):
        plan = FaultPlan(seed=chaos_seed).add(
            "scheduler.dispatch", "raise", times=1,
            exception=lambda: RuntimeError("injected dispatch failure"))
        with serve_in_background(make_service(datasets)) as server:
            with inject(plan) as injector:
                status, body = post(server.url, "/query", {"product": 3})
                assert injector.fired("scheduler.dispatch") == 1
            assert status == 500
            assert body == {"error": "RuntimeError",
                            "message": "injected dispatch failure",
                            "status": 500}
            snap = ServiceClient(server.url).metrics()
            assert snap["requests"]["errors"] == 1
            assert snap["fallbacks"]["total"] == 0


    def test_internal_type_error_is_a_500(self, datasets, chaos_seed):
        """A bare ``TypeError`` past the input checks is the server's
        bug: a counted 500, never the caller's 400."""
        plan = FaultPlan(seed=chaos_seed).add(
            "scheduler.dispatch", "raise", times=1,
            exception=lambda: TypeError("internal bug"))
        with serve_in_background(make_service(datasets)) as server:
            with inject(plan) as injector:
                status, body = post(server.url, "/query", {"product": 3})
                assert injector.fired("scheduler.dispatch") == 1
            assert status == 500
            assert body["error"] == "TypeError"
            assert ServiceClient(server.url).metrics()[
                "requests"]["errors"] == 1

    def test_malformed_fields_are_400_and_uncounted(self, datasets,
                                                    tmp_path):
        with serve_in_background(make_service(datasets)) as node, \
                serve_in_background(
                    make_durable_service(tmp_path, datasets)) as durable:
            for url in (node.url, durable.url):
                for path, data in MALFORMED_QUERIES:
                    status, body = send(url, path, data)
                    assert status == 400, (path, data, body)
                    assert body["error"] in CALLER_ERRORS, body
            for path, data in MALFORMED_MUTATIONS:
                status, body = send(durable.url, path, data)
                assert status == 400, (path, data, body)
                assert body["error"] in CALLER_ERRORS, body
            for url in (node.url, durable.url):
                client = ServiceClient(url)
                assert client.metrics()["requests"]["errors"] == 0
                assert client.healthz()["status"] == "ok"

    def test_malformed_fields_at_the_coordinator_are_400_and_uncounted(
            self):
        """Refused before any shard sees them: no shard's breaker
        counts a caller's mistake (the shards here do not even exist)."""
        from repro.cluster import ClusterCoordinator, ClusterTopology
        from repro.cluster.router_server import (
            ClusterService,
            serve_cluster_in_background,
        )

        topology = ClusterTopology.build([["http://127.0.0.1:9"]] * 2, 20)
        service = ClusterService(ClusterCoordinator(topology))
        with serve_cluster_in_background(service) as server:
            for path, data in MALFORMED_QUERIES + MALFORMED_MUTATIONS:
                status, body = send(server.url, path, data)
                assert status == 400, (path, data, body)
                assert body["error"] in CALLER_ERRORS, body
            assert service.metrics_snapshot()["requests"]["errors"] == 0
            for breaker in service.coordinator.breakers:
                assert breaker.snapshot()["consecutive_failures"] == 0


#: A caller's mistakes, each refused with a structured 400.
CALLER_ERRORS = ("InvalidParameterError", "DataValidationError",
                 "DimensionMismatchError")
MALFORMED_QUERIES = [
    ("/query", b"{not json"),
    ("/query", b"\xff\xfe"),
    ("/query", b"[1, 2]"),
    ("/query", {"product": 3, "k": "abc"}),
    ("/query", {"product": 3, "k": [1]}),
    ("/query", {"product": 3, "k": 1e400}),
    ("/query", {"product": 3, "timeout_ms": "soon"}),
    ("/query", {"product": 3, "timeout_ms": [5]}),
    ("/query", {"product": 3, "timeout_ms": float("nan")}),  # was a 504
    ("/query", {"product": 3, "timeout_ms": 1e400}),  # was a 500
    ("/query", {"product": "three"}),
    ("/query", {"product": [3]}),
    ("/query", {"product": 3, "kind": "xyz"}),
    ("/query", {"vector": ["a", 1, 1, 1]}),
    ("/query", {"vector": {"a": 1}}),
    ("/query", {"vector": [[1], [1, 2]]}),
    ("/traces?limit=abc", None),
    ("/slowlog?limit=1.5", None),
]
MALFORMED_MUTATIONS = [
    ("/insert", {"type": "product", "vector": ["a", 1, 1, 1]}),
    ("/insert", {"type": "weight", "vector": {"a": 1}}),
    ("/delete", {"type": "weight", "index": "abc"}),
    ("/delete", {"type": "product", "index": [1]}),
]


def send(url, path, data):
    """``(status, body)`` of a GET (``data`` None) or a POST of ``data``
    (raw bytes, or an object sent as JSON)."""
    if data is not None and not isinstance(data, bytes):
        data = json.dumps(data).encode()
    request = urllib.request.Request(url + path, data=data)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as refused:
        return refused.code, json.loads(refused.read())


class TestCorruptIndexOverHTTP:
    def test_corrupt_index_serves_degraded_but_exact(self, built_index,
                                                     naive_oracle, tmp_path):
        """A damaged index starts on a kernel rebuilt from its raw data:

        counted once as a ``kernel_store`` rebuild and warned about by
        name, then every answer is byte-exact and unflagged — the
        rebuilt kernel is the same kernel, not a degraded engine."""
        save_index(tmp_path / "idx", built_index)
        meta = tmp_path / "idx" / "grid.meta"
        meta.write_bytes(b"\x00" * meta.stat().st_size)

        with pytest.warns(RuntimeWarning, match="grid.meta"):
            service = QueryService.from_index_dir(
                tmp_path / "idx", config=ServiceConfig(batch_window_s=0.0))
        with serve_in_background(service) as server:
            client = ServiceClient(server.url)
            health = client.wait_until_healthy()
            assert health["status"] == "ok"

            for i, kind, k in [(0, "rtk", 9), (41, "rkr", 3)]:
                q = built_index.products[i]
                response = client.query(list(q), kind=kind, k=k)
                assert "degraded" not in response
                assert_exact_answer(response, naive_oracle, q, kind, k)
        assert service.metrics_snapshot()["fallbacks"]["routes"] == [
            {"from": "kernel_store", "to": "rebuild", "reason": "corrupt",
             "count": 1}]


class TestClientRetries:
    def test_client_rides_out_transient_429s(self, datasets, naive_oracle,
                                             chaos_seed):
        """Two injected admission rejections, then success — invisible to

        the caller thanks to jittered retries."""
        P, _ = datasets
        service = make_service(datasets)
        plan = FaultPlan(seed=chaos_seed).add(
            "service.query", "raise", times=2,
            exception=lambda: ServiceOverloadError("injected overload"))
        with service, serve_in_background(service) as server:
            client = ServiceClient(server.url, retries=3,
                                   backoff_base_s=0.005)
            client.wait_until_healthy()
            with inject(plan) as injector:
                q = P[5]
                response = client.query(list(q), kind="rtk", k=8)
                assert injector.fired("service.query") == 2
            assert "degraded" not in response
            assert_exact_answer(response, naive_oracle, q, "rtk", 8)

    def test_retries_exhausted_surface_the_overload(self, datasets,
                                                    chaos_seed):
        P, _ = datasets
        service = make_service(datasets)
        plan = FaultPlan(seed=chaos_seed).add(
            "service.query", "raise", times=None,
            exception=lambda: ServiceOverloadError("injected overload"))
        with service, serve_in_background(service) as server:
            client = ServiceClient(server.url, retries=1,
                                   backoff_base_s=0.001)
            client.wait_until_healthy()
            with inject(plan) as injector:
                with pytest.raises(ServiceOverloadError,
                                   match="injected overload"):
                    client.query(list(P[0]), kind="rtk", k=5)
                assert injector.fired("service.query") == 2  # 1 + 1 retry


class TestShutdownOverHTTP:
    def test_drained_shutdown_rejects_with_structured_503(self, datasets):
        P, _ = datasets
        service = make_service(datasets)
        with serve_in_background(service) as server:
            client = ServiceClient(server.url, retries=0)
            client.wait_until_healthy()
            assert client.query(list(P[0]), kind="rtk", k=5)["weights"] \
                is not None
            service.close(drain=True)
            with pytest.raises(ServiceUnavailableError,
                               match="shutting down"):
                client.query(list(P[1]), kind="rtk", k=5)
            snap = client.metrics()
            assert snap["requests"]["rejected_unavailable"] >= 1


class TestExactnessUnderSustainedChaos:
    def test_every_successful_answer_is_exact(self, datasets, naive_oracle,
                                              chaos_seed):
        """The headline invariant: a sustained, probabilistic mix of

        latency and kernel faults may slow responses or send them down
        the reference scan — every response is still byte-identical to
        naive, and every fallback is counted."""
        P, _ = datasets
        plan = (FaultPlan(seed=chaos_seed)
                .add("scheduler.kernel", "raise", times=None,
                     probability=0.3,
                     exception=lambda: RuntimeError("flaky kernel"))
                .add("service.query", "latency", times=None,
                     probability=0.2, latency_s=0.001))
        answered = 0
        with make_service(datasets, cache_capacity=8) as service, \
                inject(plan) as injector:
            for i in range(40):
                q = P[i % P.size]
                kind = "rtk" if i % 2 == 0 else "rkr"
                k = 3 + (i % 5)
                response = service.query(list(q), kind=kind, k=k)
                answered += 1
                assert "degraded" not in response
                assert_exact_answer(response, naive_oracle, q, kind, k)
            fired = injector.fired("scheduler.kernel")
        assert answered == 40
        fallbacks = service.metrics_snapshot()["fallbacks"]
        assert fallbacks["total"] > 0  # the plan really did bite
        assert fallbacks["total"] == fired
