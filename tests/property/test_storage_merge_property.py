"""Property: the cross-segment snapshot merge is byte-identical to a
single-index oracle (hypothesis).

The adversarial construction makes cross-segment rank ties the common
case: product rows are drawn from a tiny finite value grid and every
row is repeated in *different* segments (seals are forced between the
copies), so a query's rank under a weight is assembled from per-segment
counts that individually tie.  Weights are likewise duplicated across
segments, so the RKR ``(rank, id)`` tie-break must pick the smaller
*global* id even when the candidates live in different segments (or in
the unsealed delta).

Invariant, for any query point and any k: the pinned-snapshot merge
path and the densified :class:`SnapshotKernel` both produce canonical
JSON **byte-identical** to ``NaiveRRQ`` over the snapshot's live rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.service.server import canonical_json, encode_result
from repro.storage import SegmentStore, SnapshotKernel

DIM = 3
GRID = (0.15, 0.35, 0.55, 0.75)  # tiny finite grid -> dense duplicates
COPIES = 3


def _adversarial_rows(rng, count):
    """Product rows whose coordinates come from the finite grid."""
    return np.asarray(GRID)[rng.integers(0, len(GRID), size=(count, DIM))]


def _adversarial_weights(rng, count):
    """Weights from a tiny set of directions (exact duplicates abound)."""
    base = np.eye(DIM) * 0.6 + 0.2
    picks = base[rng.integers(0, DIM, size=count)]
    return picks / picks.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """A multi-segment store with duplicates straddling every boundary."""
    rng = np.random.default_rng(9313)
    store = SegmentStore(DIM, partitions=8,
                         directory=tmp_path_factory.mktemp("store"))
    p_rows = _adversarial_rows(rng, 14)
    w_rows = _adversarial_weights(rng, 10)
    # Copy c of every row goes into segment c: identical rows (hence
    # identical ranks, identical weight vectors) in different segments.
    for _ in range(COPIES):
        for row in p_rows:
            store.insert_product(row)
        for w in w_rows:
            store.insert_weight(w)
        store.seal(force=True)
    # A fourth copy stays in the mutable delta; a few deletes spread the
    # dead set across the manifest and the delta.
    for row in p_rows[:6]:
        store.insert_product(row)
    for w in w_rows[:4]:
        store.insert_weight(w)
    live_p = store.products.live_indices()
    for victim in live_p[:: len(live_p) // 4]:
        store.remove_product(int(victim))
    store.remove_weight(int(store.weights.live_indices()[1]))

    snap = store.pin()
    p_live, _ = snap.live_products()
    w_live, w_gids = snap.live_weights()
    oracle = NaiveRRQ(ProductSet(p_live, value_range=store.value_range),
                      WeightSet(w_live))
    kernel = SnapshotKernel.build(snap)
    yield snap, oracle, w_gids, kernel
    snap.release()
    store.close()


query_points = st.lists(
    st.sampled_from([0.0, 0.15, 0.2, 0.35, 0.55, 0.75, 0.9]),
    min_size=DIM, max_size=DIM,
)


def _oracle_json(oracle, w_gids, q, k, kind):
    if kind == "rtk":
        res = oracle.reverse_topk(q, k)
        remapped = frozenset(int(w_gids[j]) for j in res.weights)
        payload = type(res)(weights=remapped, k=res.k, counter=res.counter)
    else:
        res = oracle.reverse_kranks(q, k)
        entries = tuple((rank, int(w_gids[j])) for rank, j in res.entries)
        payload = type(res)(entries=entries, k=res.k, counter=res.counter)
    return canonical_json(encode_result(payload, kind))


@given(q=query_points, k=st.integers(min_value=1, max_value=35))
@settings(max_examples=40, deadline=None)
def test_rkr_merge_matches_single_index_oracle(pinned, q, k):
    snap, oracle, w_gids, kernel = pinned
    q_arr = np.array(q)
    reference = _oracle_json(oracle, w_gids, q_arr, k, "rkr")
    for label, backend in (("merge", snap), ("kernel", kernel)):
        got = canonical_json(
            encode_result(backend.reverse_kranks(q_arr, k), "rkr"))
        assert got == reference, f"{label} RKR diverged from the oracle"


@given(q=query_points, k=st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_rtk_merge_matches_single_index_oracle(pinned, q, k):
    snap, oracle, w_gids, kernel = pinned
    q_arr = np.array(q)
    reference = _oracle_json(oracle, w_gids, q_arr, k, "rtk")
    for label, backend in (("merge", snap), ("kernel", kernel)):
        got = canonical_json(
            encode_result(backend.reverse_topk(q_arr, k), "rtk"))
        assert got == reference, f"{label} RTK diverged from the oracle"


@given(seed=st.integers(min_value=0, max_value=2**20),
       seals=st.integers(min_value=0, max_value=3))
@settings(max_examples=15, deadline=None)
def test_random_mutation_schedules_preserve_parity(seed, seals):
    """Fresh store per example: random inserts/deletes with random seal
    points must keep the merge path equal to the oracle everywhere."""
    rng = np.random.default_rng(seed)
    store = SegmentStore(DIM, partitions=8)
    for round_ in range(seals + 1):
        for row in _adversarial_rows(rng, 6):
            store.insert_product(row)
        for w in _adversarial_weights(rng, 4):
            store.insert_weight(w)
        live = store.products.live_indices()
        if len(live) > 4:
            store.remove_product(int(live[rng.integers(len(live))]))
        if round_ < seals:
            store.seal(force=True)
    with store.pin() as snap:
        p_live, _ = snap.live_products()
        w_live, w_gids = snap.live_weights()
        oracle = NaiveRRQ(ProductSet(p_live, value_range=1.0),
                          WeightSet(w_live))
        for _ in range(3):
            q = np.asarray(GRID)[rng.integers(0, len(GRID), DIM)]
            k = int(rng.integers(1, 9))
            assert (canonical_json(
                        encode_result(snap.reverse_kranks(q, k), "rkr"))
                    == _oracle_json(oracle, w_gids, q, k, "rkr"))
