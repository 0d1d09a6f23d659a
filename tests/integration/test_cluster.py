"""Acceptance tests for the cluster: real worker processes, real kills.

The ISSUE bar, verbatim: a coordinator over 3 worker processes returns
byte-identical RTK/RKR answers to ``NaiveRRQ``, **including with one
worker SIGKILLed mid-run** (responses flagged ``"degraded_shards"``),
and a single ``X-Trace-Id`` appears in both the coordinator's and a
worker's ``/traces``.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.cluster import LocalCluster
from repro.data.datasets import ProductSet, WeightSet
from repro.data.synthetic import uniform_products, uniform_weights
from repro.service.server import canonical_json, encode_result

NUM_WORKERS = 3


def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode())


def _post(url, payload, headers=None, timeout=30.0):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return (json.loads(response.read().decode()),
                response.headers.get("X-Trace-Id"))


@pytest.fixture(scope="module")
def datasets():
    products = uniform_products(size=110, dim=3, seed=611)
    weights = uniform_weights(size=84, dim=3, seed=612)
    return products, weights


@pytest.fixture(scope="module")
def cluster(datasets, tmp_path_factory):
    products, weights = datasets
    with LocalCluster(products, weights, num_workers=NUM_WORKERS,
                      base_dir=tmp_path_factory.mktemp("cluster")) as c:
        yield c


def expected(oracle, q, kind, k):
    if kind == "rtk":
        return encode_result(oracle.reverse_topk(q, k), "rtk")
    return encode_result(oracle.reverse_kranks(q, k), "rkr")


@pytest.mark.timeout(240)
class TestClusterAcceptance:
    def test_byte_identical_to_naive_over_full_data(self, cluster,
                                                    datasets):
        products, weights = datasets
        oracle = NaiveRRQ(products, weights)
        client = cluster.client()
        rng = np.random.default_rng(613)
        for _ in range(4):
            q = products[int(rng.integers(0, products.size))]
            for kind in ("rtk", "rkr"):
                got = client.query(list(q), kind=kind, k=9)
                assert canonical_json(got) == canonical_json(
                    expected(oracle, q, kind, 9))

    def test_one_trace_id_spans_coordinator_and_workers(self, cluster,
                                                        datasets):
        products, _ = datasets
        trace_id = "acceptancetrace7"
        _, echoed = _post(
            cluster.url + "/query",
            {"vector": list(products[4]), "kind": "rtk", "k": 5},
            headers={"X-Trace-Id": trace_id})
        assert echoed == trace_id
        # The same id indexes the request's spans at the coordinator...
        coord = _get(cluster.url + f"/traces?id={trace_id}")
        assert coord["found"] is True

        def names(nodes):
            for node in nodes:
                yield node["name"]
                yield from names(node["children"])

        span_names = set(names(coord["trace"]["spans"]))
        assert "cluster.scatter_gather" in span_names
        assert "cluster.shard_query" in span_names
        # ...and at every worker the fan-out touched.
        worker_hits = []
        for worker in cluster.workers:
            snapshot = _get(worker.url + f"/traces?id={trace_id}")
            worker_hits.append(snapshot["found"])
        assert all(worker_hits)

    def test_cluster_introspection_routes(self, cluster):
        topology = _get(cluster.url + "/cluster/topology")
        assert topology["num_shards"] == NUM_WORKERS
        assert [s["shard_id"] for s in topology["shards"]] == \
            list(range(NUM_WORKERS))
        health = _get(cluster.url + "/cluster/healthz")
        assert health["status"] == "ok"
        assert [s["status"] for s in health["shards"]] == \
            ["ok"] * NUM_WORKERS
        info = _get(cluster.url + "/info")
        assert info["role"] == "coordinator"
        assert info["shards"] == NUM_WORKERS

    def test_sigkill_mid_run_stays_byte_identical_and_flagged(
            self, cluster, datasets):
        products, weights = datasets
        oracle = NaiveRRQ(products, weights)
        client = cluster.client()
        rng = np.random.default_rng(617)

        # Mid-run: answers flowing before the kill...
        q0 = products[int(rng.integers(0, products.size))]
        before = client.query(list(q0), kind="rkr", k=7)
        assert "degraded_shards" not in before

        cluster.kill_worker(1)  # SIGKILL — no goodbye, no flush
        assert not cluster.workers[1].alive

        # ...and byte-identical answers after it, flagged degraded.
        for _ in range(3):
            q = products[int(rng.integers(0, products.size))]
            for kind in ("rtk", "rkr"):
                got = client.query(list(q), kind=kind, k=7)
                assert got.pop("degraded") is True
                assert got.pop("degraded_shards") == [1]
                assert canonical_json(got) == canonical_json(
                    expected(oracle, q, kind, 7))

        health = _get(cluster.url + "/cluster/healthz")
        assert health["status"] == "unreachable"
        assert health["shards"][1]["status"] == "unreachable"


@pytest.mark.timeout(240)
class TestClusterMutations:
    """Ownership-aware write routing over a separate (mutable) cluster."""

    @pytest.fixture()
    def fresh_cluster(self, datasets, tmp_path):
        products, weights = datasets
        with LocalCluster(products, weights, num_workers=NUM_WORKERS,
                          base_dir=tmp_path) as c:
            yield c

    def test_weight_insert_routes_to_owner_and_serves(self, fresh_cluster,
                                                      datasets):
        products, weights = datasets
        client = fresh_cluster.client()
        new_w = [0.5, 0.3, 0.2]
        receipt, _ = _post(fresh_cluster.url + "/insert",
                           {"type": "weight", "vector": new_w})
        assert receipt["op"] == "insert_weight"
        # Range partitioner appends to the last shard; the new weight's
        # global id continues the global sequence.
        assert receipt["shard"] == NUM_WORKERS - 1
        assert receipt["index"] == weights.size

        oracle = NaiveRRQ(products, WeightSet(
            np.vstack([weights.values, new_w])))
        q = products[9]
        got = client.query(list(q), kind="rkr", k=int(weights.size) + 1)
        assert canonical_json(got) == canonical_json(
            expected(oracle, q, "rkr", int(weights.size) + 1))

    def test_product_insert_broadcasts_consistently(self, fresh_cluster,
                                                    datasets):
        products, weights = datasets
        client = fresh_cluster.client()
        new_p = [0.41, 0.52, 0.63]
        receipt, _ = _post(fresh_cluster.url + "/insert",
                           {"type": "product", "vector": new_p})
        assert receipt["op"] == "insert_product"
        assert receipt["index"] == products.size
        assert len(receipt["shards"]) == NUM_WORKERS

        oracle = NaiveRRQ(
            ProductSet(np.vstack([products.values, new_p]),
                       value_range=products.value_range),
            weights)
        got = client.query(product=receipt["index"], kind="rtk", k=6)
        assert canonical_json(got) == canonical_json(
            expected(oracle, np.array(new_p), "rtk", 6))

    def test_compact_is_broadcast_cluster_wide(self, fresh_cluster, datasets):
        """Compaction is physical on every worker's store: shard-local
        ids survive it, nothing is logged, answers do not move."""
        products, weights = datasets
        client = fresh_cluster.client()
        q = products[9]
        dead, _ = _post(fresh_cluster.url + "/delete",
                        {"type": "product", "index": 3})
        receipt, _ = _post(fresh_cluster.url + "/compact", {})
        assert receipt["op"] == "compact"
        assert sorted(receipt["shards"]) == [
            str(s) for s in range(NUM_WORKERS)]
        for shard, got in receipt["shards"].items():
            assert got["lsn"] == dead["shards"][shard]["lsn"]
            assert got["product_map"][3] == -1
            assert got["product_map"][4] == 4
            assert got["weight_map"] == list(range(len(got["weight_map"])))
        oracle = NaiveRRQ(
            ProductSet(np.delete(products.values, 3, axis=0),
                       value_range=products.value_range), weights)
        after = client.query(list(q), kind="rkr", k=6)
        assert canonical_json(after) == canonical_json(
            expected(oracle, q, "rkr", 6))
