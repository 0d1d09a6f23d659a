"""Coordinator semantics over in-process HTTP workers.

The workers here are real ``serve_in_background`` HTTP servers (sockets,
threads, canonical JSON) — only the *processes* are elided, which keeps
these tests fast; the subprocess/SIGKILL acceptance path lives in
``tests/integration/test_cluster.py``.
"""

from contextlib import ExitStack

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.cluster import (
    ClusterCoordinator,
    ClusterTopology,
    partition_weight_indices,
)
from repro.data.datasets import WeightSet
from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import InvalidParameterError, ServiceUnavailableError
from repro.service.server import (
    QueryService,
    canonical_json,
    encode_result,
    serve_in_background,
)

PRODUCTS = uniform_products(size=90, dim=3, seed=421)
WEIGHTS = uniform_weights(size=70, dim=3, seed=422)
ORACLE = NaiveRRQ(PRODUCTS, WEIGHTS)


def start_cluster(stack, partitioner="range", shards=3):
    """3 in-process HTTP workers over weight slices + a coordinator."""
    owned = partition_weight_indices(WEIGHTS.size, shards, partitioner)
    urls = []
    for s in range(shards):
        service = QueryService.from_datasets(
            PRODUCTS, WeightSet(WEIGHTS.values[owned[s]]), method="naive")
        server = stack.enter_context(serve_in_background(service))
        urls.append(server.url)
    topology = ClusterTopology.build([[u] for u in urls], WEIGHTS.size,
                                     partitioner)
    coordinator = ClusterCoordinator(topology, products=PRODUCTS,
                                     weights=WEIGHTS, shard_timeout_s=10.0)
    stack.callback(coordinator.close)
    return coordinator, urls


def expected(q, kind, k):
    if kind == "rtk":
        return encode_result(ORACLE.reverse_topk(q, k), "rtk")
    return encode_result(ORACLE.reverse_kranks(q, k), "rkr")


class TestScatterGather:
    @pytest.mark.parametrize("partitioner", ["range"])
    @pytest.mark.parametrize("kind", ["rtk", "rkr"])
    def test_byte_identical_to_single_node(self, partitioner, kind):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack, partitioner)
            rng = np.random.default_rng(7)
            for _ in range(4):
                q = PRODUCTS[int(rng.integers(0, PRODUCTS.size))]
                got = coordinator.query(list(q), kind=kind, k=8)
                assert canonical_json(got) == \
                    canonical_json(expected(q, kind, 8))

    def test_product_reference_queries(self):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            got = coordinator.query(product=11, kind="rkr", k=5)
            assert canonical_json(got) == \
                canonical_json(expected(PRODUCTS[11], "rkr", 5))

    def test_parameter_validation(self):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            with pytest.raises(InvalidParameterError):
                coordinator.query([0.1] * 3, kind="nope")
            with pytest.raises(InvalidParameterError):
                coordinator.query([0.1] * 3, k=0)
            with pytest.raises(InvalidParameterError):
                coordinator.query([0.1] * 3, product=1)
            with pytest.raises(InvalidParameterError):
                coordinator.query()

    def test_a_mistake_only_a_shard_can_see_is_a_400_not_a_failure(self):
        """Without the products the coordinator cannot check a product
        index or a vector's dimension; the shards' 400s are the answer
        and never count against their breakers (three used to open
        every breaker and 503 the next healthy query)."""
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            coordinator.products = None
            coordinator.weights = None
            for _ in range(6):
                with pytest.raises(InvalidParameterError):
                    coordinator.query(product=PRODUCTS.size, k=4)
                with pytest.raises(InvalidParameterError):
                    coordinator.query([0.1] * 4, k=4)
            assert set(coordinator.stats()["breakers"].values()) == \
                {"closed"}
            got = coordinator.query(product=11, kind="rtk", k=5)
            assert canonical_json(got) == \
                canonical_json(expected(PRODUCTS[11], "rtk", 5))


class TestPartialFailure:
    @pytest.mark.parametrize("kind", ["rtk", "rkr"])
    def test_dead_shard_with_fallback_stays_exact(self, kind):
        with ExitStack() as stack:
            coordinator, urls = start_cluster(stack)
            # Point shard 1's client at a dead port: its sub-requests
            # fail like a crashed worker's would.
            coordinator.clients[1].endpoints = ["http://127.0.0.1:9"]
            q = PRODUCTS[3]
            got = coordinator.query(list(q), kind=kind, k=6)
            assert got.pop("degraded") is True
            assert got.pop("degraded_shards") == [1]
            assert canonical_json(got) == canonical_json(expected(q, kind, 6))

    def test_dead_shard_without_fallback_is_flagged_partial(self):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            coordinator.products = None
            coordinator.weights = None
            coordinator.clients[0].endpoints = ["http://127.0.0.1:9"]
            q = PRODUCTS[3]
            got = coordinator.query(list(q), kind="rtk", k=6)
            assert got["degraded"] is True
            assert got["degraded_shards"] == [0]
            full = set(expected(q, "rtk", 6)["weights"])
            missing = set(coordinator.topology.owned_globals(0).tolist())
            assert set(got["weights"]) == full - missing

    def test_all_shards_dead_without_fallback_raises(self):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            coordinator.products = None
            coordinator.weights = None
            for client in coordinator.clients:
                client.endpoints = ["http://127.0.0.1:9"]
            with pytest.raises(ServiceUnavailableError):
                coordinator.query([0.2, 0.2, 0.2], kind="rtk", k=4)

    def test_all_shards_dead_with_fallback_stays_exact(self):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            for client in coordinator.clients:
                client.endpoints = ["http://127.0.0.1:9"]
            q = PRODUCTS[8]
            got = coordinator.query(list(q), kind="rkr", k=6)
            assert got.pop("degraded") is True
            assert got.pop("degraded_shards") == [0, 1, 2]
            assert canonical_json(got) == canonical_json(expected(q, "rkr", 6))

    def test_breaker_opens_after_repeated_failures(self):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            coordinator.clients[2].endpoints = ["http://127.0.0.1:9"]
            from repro.cluster.coordinator import SHARD_BREAKER_THRESHOLD

            for _ in range(SHARD_BREAKER_THRESHOLD):
                coordinator.query([0.2, 0.2, 0.2], kind="rtk", k=4)
            assert coordinator.stats()["breakers"]["2"] != "closed"
            # Queries keep answering exactly through the fallback.
            q = PRODUCTS[1]
            got = coordinator.query(list(q), kind="rtk", k=4)
            assert got.pop("degraded") is True
            got.pop("degraded_shards")
            assert canonical_json(got) == canonical_json(expected(q, "rtk", 4))

    def test_shard_health_reports_unreachable(self):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            coordinator.clients[1].endpoints = ["http://127.0.0.1:9"]
            health = coordinator.shard_health(timeout_s=0.5)
            assert health["status"] == "unreachable"
            statuses = [s["status"] for s in health["shards"]]
            assert statuses == ["ok", "unreachable", "ok"]


class TestMutationRouting:
    def test_compact_is_broadcast(self):
        """Physical on a worker's store, so it goes to every shard like
        /snapshot (these static workers have no such route and say so)."""
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            with pytest.raises(
                    ServiceUnavailableError,
                    match=r"broadcast compact failed on shard\(s\) 0 .*, "
                          r"1 .*, 2 "):
                coordinator.route_mutation("/compact", {})

    def test_unknown_route_is_rejected(self):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            with pytest.raises(InvalidParameterError):
                coordinator.route_mutation("/truncate", {})

    def test_promote_requires_shard(self):
        with ExitStack() as stack:
            coordinator, _ = start_cluster(stack)
            with pytest.raises(InvalidParameterError, match="shard"):
                coordinator.route_mutation("/promote", {})
            with pytest.raises(InvalidParameterError, match="replica"):
                coordinator.route_mutation(
                    "/promote", {"shard": 0,
                                 "endpoint": "http://127.0.0.1:1"})
