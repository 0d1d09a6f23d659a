"""Property tests for the dynamic engine (the memory-only segment
store): random mutation sequences, with a seal somewhere in between,
must never desynchronize it from a freshly built oracle over the live
rows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.storage import SegmentStore

OPS = st.lists(
    st.tuples(st.sampled_from(["ip", "iw", "rp", "rw", "seal"]),
              st.integers(0, 2**31 - 1)),
    min_size=0, max_size=25,
)


def apply_ops(engine, ops, rng):
    for op, seed in ops:
        local = np.random.default_rng(seed)
        if op == "ip":
            engine.insert_product(local.random(engine.dim) * 0.999)
        elif op == "iw":
            engine.insert_weight(local.dirichlet(np.ones(engine.dim)))
        elif op == "rp":
            live = engine.products.live_indices()
            if live.size > 3:  # keep enough rows to query
                engine.remove_product(int(local.choice(live)))
        elif op == "rw":
            live = engine.weights.live_indices()
            if live.size > 3:
                engine.remove_weight(int(local.choice(live)))
        else:
            engine.seal(force=True)


def live_oracle(engine):
    return NaiveRRQ(
        ProductSet(engine.products.live_values(),
                   value_range=engine.value_range),
        WeightSet(engine.weights.live_values()),
    ), engine.weights.live_indices()


@given(OPS, st.integers(0, 2**31 - 1), st.integers(1, 12),
       st.booleans())
@settings(max_examples=30, deadline=None)
def test_mutations_preserve_agreement(ops, seed, k, compact):
    rng = np.random.default_rng(seed)
    base_P = ProductSet(rng.random((30, 3)) * 0.999, value_range=1.0)
    base_W = WeightSet(rng.dirichlet(np.ones(3), size=25))
    engine = SegmentStore.from_datasets(base_P, base_W, partitions=8)
    apply_ops(engine, ops, rng)
    if compact:
        engine.compact()
    q = engine.products[int(engine.products.live_indices()[0])]
    naive, w_map = live_oracle(engine)
    expected_rtk = frozenset(
        int(w_map[j]) for j in naive.reverse_topk(q, k).weights
    )
    assert engine.reverse_topk(q, k).weights == expected_rtk
    expected_rkr = tuple(sorted(
        (rank, int(w_map[j])) for rank, j in naive.reverse_kranks(q, k).entries
    ))
    assert engine.reverse_kranks(q, k).entries == expected_rkr
