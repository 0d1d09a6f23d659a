"""Property: the cluster's scatter-gather merge is shard-count invariant
(hypothesis).

A cluster splits ``W`` with
:func:`~repro.cluster.topology.partition_weight_indices` and each worker
sweeps one :class:`~repro.vectorized.girkernel.GirKernelRRQ` over its
slice.  The coordinator maps every slice-local answer back to global
indices (:meth:`~repro.cluster.topology.ClusterTopology.to_global`) and
merges: RTK is the union, RKR the k lexicographically smallest pairs
(:func:`~repro.queries.types.make_rkr_result`).  That merge must break
rank ties identically no matter how ``W`` is partitioned — among equal
ranks the smaller global index wins, and that ordering must survive any
per-slice truncation.  The adversarial dataset below makes ties the
common case, not the corner case: every weight vector appears five
times, so every rank is shared by (at least) a five-way tie spanning
shard boundaries.

Invariant: for any query point and any k, ``W`` split 1, 2 and 5 ways
produces **byte-identical** canonical JSON — and all of them match the
exact naive scan over the whole ``W``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.naive import NaiveRRQ
from repro.cluster.topology import ClusterTopology, partition_weight_indices
from repro.data.datasets import WeightSet
from repro.data.synthetic import uniform_products
from repro.queries.types import RTKResult, make_rkr_result
from repro.service.server import canonical_json, encode_result
from repro.stats.counters import OpCounter
from repro.vectorized.girkernel import GirKernelRRQ

DIM = 3
SHARD_COUNTS = (1, 2, 5)


def adversarial_weights(unique=12, copies=5, seed=733):
    """Every weight repeated ``copies`` times -> dense cross-shard ties."""
    rng = np.random.default_rng(seed)
    base = rng.random((unique, DIM)) + 1e-3
    base /= base.sum(axis=1, keepdims=True)
    values = np.repeat(base, copies, axis=0)
    # Interleave so the copies of one weight land on *different* shards
    # under the range partitioner (repeat would keep them adjacent).
    order = np.arange(unique * copies).reshape(unique, copies).T.ravel()
    return WeightSet(values[order])


class SlicedCluster:
    """``W`` split ``shards`` ways, one kernel per slice as a worker
    holds it, merged the way the coordinator merges."""

    def __init__(self, products, weights, shards):
        self.topology = ClusterTopology.build(
            [[f"http://127.0.0.1:{9000 + s}"] for s in range(shards)],
            weights.size, "range")
        self.owned = partition_weight_indices(weights.size, shards, "range")
        self.kernels = [GirKernelRRQ(products,
                                     WeightSet(weights.values[indices]))
                        for indices in self.owned]

    def reverse_topk(self, q, k):
        qualifying = frozenset(
            self.topology.to_global(shard, int(j))
            for shard, kernel in enumerate(self.kernels)
            for j in kernel.reverse_topk(q, k).weights)
        return RTKResult(weights=qualifying, k=k, counter=OpCounter())

    def reverse_kranks(self, q, k):
        pairs = [(rank, self.topology.to_global(shard, int(j)))
                 for shard, kernel in enumerate(self.kernels)
                 for rank, j in kernel.reverse_kranks(q, k).entries]
        return make_rkr_result(pairs, k, OpCounter())


@pytest.fixture(scope="module")
def engines():
    products = uniform_products(size=80, dim=DIM, seed=731)
    weights = adversarial_weights()
    naive = NaiveRRQ(products, weights)
    sliced = {shards: SlicedCluster(products, weights, shards)
              for shards in SHARD_COUNTS}
    return products, naive, sliced


query_points = st.lists(
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    min_size=DIM, max_size=DIM,
)


@given(q=query_points, k=st.integers(min_value=1, max_value=70))
@settings(max_examples=40, deadline=None)
def test_rkr_merge_is_shard_count_invariant(engines, q, k):
    _, naive, sliced = engines
    q_arr = np.array(q)
    reference = canonical_json(
        encode_result(naive.reverse_kranks(q_arr, k), "rkr"))
    for shards, cluster in sliced.items():
        got = canonical_json(
            encode_result(cluster.reverse_kranks(q_arr, k), "rkr"))
        assert got == reference, f"{shards}-shard RKR merge diverged"


@given(q=query_points, k=st.integers(min_value=1, max_value=20))
@settings(max_examples=25, deadline=None)
def test_rtk_union_is_shard_count_invariant(engines, q, k):
    _, naive, sliced = engines
    q_arr = np.array(q)
    reference = canonical_json(
        encode_result(naive.reverse_topk(q_arr, k), "rtk"))
    for shards, cluster in sliced.items():
        got = canonical_json(
            encode_result(cluster.reverse_topk(q_arr, k), "rtk"))
        assert got == reference, f"{shards}-shard RTK union diverged"


def test_ties_actually_span_shards(engines):
    """The dataset earns its name: equal-rank runs cross shard bounds."""
    products, naive, sliced = engines
    entries = naive.reverse_kranks(products[0], 60).entries
    ranks = [rank for rank, _ in entries]
    assert len(ranks) != len(set(ranks)), "no rank ties - dataset too easy"
    topology = sliced[5].topology

    tied = {}
    for rank, idx in entries:
        tied.setdefault(rank, []).append(idx)
    crossing = any(len({topology.owner_of(i) for i in group}) > 1
                   for group in tied.values() if len(group) > 1)
    assert crossing, "every tie group fell inside one shard"
