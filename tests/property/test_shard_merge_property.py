"""Property: the scatter-gather merge is shard-count invariant (hypothesis).

The RKR k-smallest merge in ``ShardedGirRRQ._scatter_gather`` must break
rank ties identically no matter how ``W`` is partitioned — among equal
ranks the smaller weight index wins, and that ordering must survive any
per-shard truncation.  The adversarial dataset below makes ties the
common case, not the corner case: every weight vector appears five
times, so every rank is shared by (at least) a five-way tie spanning
shard boundaries.

Invariant: for any query point and any k, engines sharded 1, 2 and 5
ways produce **byte-identical** canonical JSON — and all of them match
the exact naive scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import WeightSet
from repro.data.synthetic import uniform_products
from repro.service.server import canonical_json, encode_result
from repro.vectorized.shard import ShardedGirRRQ

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


@pytest.fixture(scope="module")
def engines():
    products = uniform_products(size=80, dim=DIM, seed=731)
    weights = adversarial_weights()
    naive = NaiveRRQ(products, weights)
    sharded = {
        shards: ShardedGirRRQ(products, weights, shards=shards)
        for shards in SHARD_COUNTS
    }
    yield products, naive, sharded
    for engine in sharded.values():
        engine.close()


query_points = st.lists(
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    min_size=DIM, max_size=DIM,
)


@given(q=query_points, k=st.integers(min_value=1, max_value=70))
@settings(max_examples=40, deadline=None)
def test_rkr_merge_is_shard_count_invariant(engines, q, k):
    _, naive, sharded = engines
    q_arr = np.array(q)
    reference = canonical_json(
        encode_result(naive.reverse_kranks(q_arr, k), "rkr"))
    for shards, engine in sharded.items():
        got = canonical_json(
            encode_result(engine.reverse_kranks(q_arr, k), "rkr"))
        assert got == reference, f"{shards}-shard RKR merge diverged"


@given(q=query_points, k=st.integers(min_value=1, max_value=20))
@settings(max_examples=25, deadline=None)
def test_rtk_union_is_shard_count_invariant(engines, q, k):
    _, naive, sharded = engines
    q_arr = np.array(q)
    reference = canonical_json(
        encode_result(naive.reverse_topk(q_arr, k), "rtk"))
    for shards, engine in sharded.items():
        got = canonical_json(
            encode_result(engine.reverse_topk(q_arr, k), "rtk"))
        assert got == reference, f"{shards}-shard RTK union diverged"


def test_ties_actually_span_shards(engines):
    """The dataset earns its name: equal-rank runs cross shard bounds."""
    products, naive, sharded = engines
    entries = naive.reverse_kranks(products[0], 60).entries
    ranks = [rank for rank, _ in entries]
    assert len(ranks) != len(set(ranks)), "no rank ties - dataset too easy"
    five = sharded[5]

    def shard_of(idx):
        return next(s for s, (lo, hi) in enumerate(five._ranges)
                    if lo <= idx < hi)

    tied = {}
    for rank, idx in entries:
        tied.setdefault(rank, []).append(idx)
    crossing = any(len({shard_of(i) for i in group}) > 1
                   for group in tied.values() if len(group) > 1)
    assert crossing, "every tie group fell inside one shard"
