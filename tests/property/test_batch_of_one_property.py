"""Property tests: a lone request is a batch of one through the kernel.

The scheduler has one read route — every dispatch, whatever its size,
is a tile sweep of the blocked kernel — so the answer to a query must
not depend on whether it arrived alone or with neighbours.  For static
engines and for the MVCC store (after inserts, tombstones, a seal and a
compaction), addressed by product id and by vector, including the edge
cases that take early exits inside the sweep (``k >= |W|``, RTK answers
emptied by the Domin pre-pass, a query duplicated in ``P``), dims 2–8:

* the served bytes equal the canonical encoding of ``NaiveRRQ``'s answer;
* the same query answered inside a Q >= 2 batch yields the same bytes;
* uncoalesced traffic never counts as fused (``kernel.fused.queries``
  stays 0) and never takes a fallback.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.data.synthetic import generate_products, generate_weights
from repro.durability import DurableDynamicRRQ
from repro.queries.engine import RRQEngine
from repro.service import (
    QueryService,
    ServiceConfig,
    ServiceLimits,
    canonical_json,
    encode_result,
)
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import DurableQueryService

KINDS = ("rtk", "rkr")


def _naive_bytes(naive, q, kind, k, w_gids=None):
    """Canonical bytes of the oracle's answer (weights remapped to the
    store's stable ids when ``w_gids`` is given)."""
    if kind == "rtk":
        res = naive.reverse_topk(q, k)
        if w_gids is not None:
            res = type(res)(weights=frozenset(int(w_gids[j])
                                              for j in res.weights),
                            k=res.k, counter=res.counter)
    else:
        res = naive.reverse_kranks(q, k)
        if w_gids is not None:
            res = type(res)(entries=tuple((rank, int(w_gids[j]))
                                          for rank, j in res.entries),
                            k=res.k, counter=res.counter)
    return canonical_json(encode_result(res, kind))


def _one_coalesced_batch(engine, queries, kind, k):
    """The same queries as one staged micro-batch (Q >= 2)."""
    scheduler = MicroBatchScheduler(
        engine, batch_window_s=5.0, auto_start=False,
        limits=ServiceLimits(max_batch=len(queries)),
    )
    futures = [scheduler.submit(q, kind, k) for q in queries]
    scheduler.start()
    try:
        results = [f.result(timeout=30) for f in futures]
    finally:
        scheduler.close()
    batches = scheduler.metrics.snapshot()["batches"]
    assert batches["total"] == batches["coalesced"] == 1
    return [canonical_json(encode_result(r, kind)) for r in results]


def _check(service, engine, naive, targets, ks, w_gids=None):
    """``targets`` are ``(request kwargs, query vector)`` pairs."""
    asked = 0
    for kind in KINDS:
        for k in ks:
            expected = [_naive_bytes(naive, q, kind, k, w_gids)
                        for _, q in targets]
            alone = [canonical_json(service.query(kind=kind, k=k, **how))
                     for how, _ in targets]
            asked += len(targets)
            assert alone == expected
            together = _one_coalesced_batch(
                engine, [q for _, q in targets], kind, k)
            assert together == expected
    snap = service.metrics.snapshot()
    assert snap["batches"]["coalesced"] == 0
    assert snap["kernel"]["queries"] == asked
    assert snap["kernel"]["fused"] == {"batches": 0, "queries": 0}
    assert snap["fallbacks"]["total"] == 0


@given(
    st.integers(2, 8),
    st.sampled_from(["UN", "CL"]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=15, deadline=None)
def test_static_batch_of_one_identical(dim, dist, seed):
    rng = np.random.default_rng(seed)
    base = generate_products(dist, 60, dim, seed=seed)
    # Row 60 duplicates row 5: a query that ties with a product.
    P = ProductSet(np.vstack([base.values, base.values[5]]),
                   value_range=base.value_range)
    W = generate_weights("CL" if dist == "CL" else "UN", 45, dim,
                         seed=seed + 1)
    engine = RRQEngine(P, W, method="gir", partitions=8)
    naive = NaiveRRQ(P, W)
    off_grid = rng.uniform(0.05, 0.95, size=dim) * P.value_range
    # Nearly every product dominates this point: RTK comes back empty
    # from the Domin pre-pass without a single tile.
    dominated = P.values.max(axis=0) * 0.999
    pick = int(rng.integers(P.size))
    targets = [
        ({"product": 5}, P[5]),
        ({"product": 60}, P[60]),
        ({"product": pick}, P[pick]),
        ({"vector": off_grid.tolist()}, off_grid),
        ({"vector": dominated.tolist()}, dominated),
    ]
    ks = (1, int(rng.integers(2, 15)), W.size, W.size + 7)
    service = QueryService(engine, config=ServiceConfig(
        batch_window_s=0.0, cache_capacity=0))
    try:
        _check(service, engine, naive, targets, ks)
    finally:
        service.close()


@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_mvcc_batch_of_one_identical(dim, seed):
    rng = np.random.default_rng(seed)

    def weight():
        w = rng.uniform(0.05, 1.0, dim)
        return w / w.sum()

    with tempfile.TemporaryDirectory() as root:
        engine = DurableDynamicRRQ(root, dim=dim, backend="segmented",
                                   partitions=8, seal_every=0,
                                   auto_compact=False, fsync="never")
        service = DurableQueryService(engine, config=ServiceConfig(
            batch_window_s=0.0, cache_capacity=0))
        try:
            p_ids = [engine.insert_product(rng.uniform(0, 0.9, dim))[0]
                     for _ in range(40)]
            w_ids = [engine.insert_weight(weight())[0] for _ in range(30)]
            engine.delete_product(p_ids[3])
            engine.delete_weight(w_ids[4])
            engine.snapshot()                      # seals the delta
            twin = rng.uniform(0, 0.9, dim)        # q duplicated in P
            p_ids += [engine.insert_product(twin)[0] for _ in range(2)]
            w_ids += [engine.insert_weight(weight())[0] for _ in range(6)]
            engine.delete_product(p_ids[10])       # tombstone in a segment
            engine.compact()
            p_ids.append(engine.insert_product(rng.uniform(0, 0.9, dim))[0])
            engine.delete_weight(w_ids[-1])        # live delta + tombstone

            snap = engine.pin_snapshot()
            try:
                p_rows, p_gids = snap.live_products()
                w_rows, w_gids = snap.live_weights()
                value_range = snap.value_range
            finally:
                snap.release()
            naive = NaiveRRQ(ProductSet(p_rows, value_range=value_range),
                             WeightSet(w_rows))
            off_grid = rng.uniform(0.05, 0.85, size=dim)
            dominated = p_rows.max(axis=0) * 0.999
            twin_gid = int(p_gids[-2])
            pick = int(rng.integers(len(p_gids)))
            targets = [
                ({"product": twin_gid}, twin),
                ({"product": int(p_gids[pick])}, p_rows[pick]),
                ({"vector": off_grid.tolist()}, off_grid),
                ({"vector": dominated.tolist()}, dominated),
            ]
            n_w = len(w_gids)
            ks = (1, int(rng.integers(2, 12)), n_w, n_w + 5)
            _check(service, engine, naive, targets, ks, w_gids)
        finally:
            service.close()  # closes the engine too
