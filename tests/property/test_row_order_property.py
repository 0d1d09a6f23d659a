"""Answers do not depend on the order of the product rows.

``GirKernelRRQ`` hands its core the product rows sorted by coordinate
sum, and an RKR sweep starts from a rank limit seeded off a few exact
scores; both lean on a rank being a *count* over ``P`` and an answer
naming weights only.  So for the dataset as given and for any row
permutation of it, RTK sets and RKR entries must be the same, and equal
``NaiveRRQ``'s.  Coordinates come from a handful of values and weight
rows repeat, so equal sums (the stable sort's ties), duplicate products,
duplicates of the query, equal scores and equal ranks are all common.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.vectorized.girkernel import GirKernelRRQ


@given(
    st.integers(2, 4),
    st.sampled_from(["float32", "float64"]),
    st.booleans(),                           # use_domin
    st.integers(3, 40),                      # |P|
    st.integers(2, 30),                      # |W|
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_answers_survive_any_row_order(dim, filter_dtype, use_domin,
                                       n_products, n_weights, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 4, size=(n_products, dim)) / 4.0
    base = rng.integers(1, 4, size=(max(2, n_weights // 3), dim)) / 1.0
    base /= base.sum(axis=1, keepdims=True)
    W = WeightSet(base[rng.integers(0, base.shape[0], size=n_weights)])
    queries = [rows[int(rng.integers(n_products))],
               rng.integers(0, 5, size=dim) / 4.0]
    ks = sorted({1, 2, int(rng.integers(1, n_weights + 2))})
    kernels = [
        GirKernelRRQ(ProductSet(order_rows, value_range=1.0), W,
                     partitions=4, w_block=8, p_block=8,
                     filter_dtype=filter_dtype, use_domin=use_domin)
        for order_rows in (rows, rows[rng.permutation(n_products)])
    ]
    naive = NaiveRRQ(ProductSet(rows, value_range=1.0), W)
    for k in ks:
        for q in queries:
            rtk = naive.reverse_topk(q, k).weights
            rkr = naive.reverse_kranks(q, k).entries
            for kernel in kernels:
                assert kernel.reverse_topk(q, k).weights == rtk
                assert kernel.reverse_kranks(q, k).entries == rkr
        for kernel in kernels:
            assert [r.entries for r in
                    kernel.reverse_kranks_batch(queries, k)] == [
                naive.reverse_kranks(q, k).entries for q in queries]
