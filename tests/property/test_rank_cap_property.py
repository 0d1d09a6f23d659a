"""Property tests aimed at the boundary of the RKR rank-interval cap.

At the end of a W-block the kernel drops, unrefined, every column whose
certain-better count exceeds the k-th smallest of (ranks already held ∪
the block's rank upper bounds).  The cases that could make such a cut
wrong are all about *equal* ranks and *short* candidate lists, so the
data here is built to produce them: every weight row appears several
times (equal ranks whose winner is decided by index, inside one block
and across block borders), ``|W|`` sits one either side of a block
multiple, ``k`` runs from 1 past ``|W|``, and a kernel is also built
over a ``W[lo:hi]`` slice the way a cluster worker holds one.  Every
answer must equal ``NaiveRRQ``'s, for both filter dtypes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.vectorized.girkernel import GirKernelRRQ

W_BLOCK = 8


def _duplicated_weights(rng, n_weights, dim, copies):
    """``n_weights`` rows drawn from ``n_weights // copies + 1`` distinct
    vectors, shuffled so the copies land in different blocks."""
    base = rng.random((n_weights // copies + 1, dim)) + 1e-3
    base /= base.sum(axis=1, keepdims=True)
    return base[rng.integers(0, base.shape[0], size=n_weights)]


@given(
    st.integers(2, 5),
    st.sampled_from(["float32", "float64"]),
    st.integers(1, 4),                       # whole blocks
    st.sampled_from([-1, 0, 1]),             # |W| = blocks * w_block + this
    st.integers(2, 5),                       # copies of each weight row
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rkr_matches_naive_at_the_cap_boundary(dim, filter_dtype, blocks,
                                               edge, copies, seed):
    rng = np.random.default_rng(seed)
    n_weights = max(2, blocks * W_BLOCK + edge)
    # Coarse product coordinates: many products share a score, so rank
    # ties arise between *different* weights too.
    P = ProductSet(rng.integers(0, 6, size=(40, dim)) / 6.0)
    W = _duplicated_weights(rng, n_weights, dim, copies)
    kernel = GirKernelRRQ(P, WeightSet(W), partitions=8, w_block=W_BLOCK,
                          p_block=16, filter_dtype=filter_dtype)
    naive = NaiveRRQ(P, WeightSet(W))
    lo = int(rng.integers(0, n_weights - 1))
    hi = int(rng.integers(lo + 1, n_weights + 1))
    naive_range = NaiveRRQ(P, WeightSet(W[lo:hi]))
    kernel_range = GirKernelRRQ(P, WeightSet(W[lo:hi]), partitions=8,
                                w_block=W_BLOCK, p_block=16,
                                filter_dtype=filter_dtype)
    queries = [P[int(rng.integers(P.size))], rng.uniform(0.05, 0.95, dim)]
    ks = (1, 2, int(rng.integers(3, n_weights + 1)), n_weights,
          n_weights + 3)
    for k in ks:
        for q in queries:
            expected = naive.reverse_kranks(q, k).entries
            assert kernel.reverse_kranks(q, k).entries == expected
            # A worker's route: one W[lo:hi] slice, local top-k.
            assert (kernel_range.reverse_kranks(q, k).entries
                    == naive_range.reverse_kranks(q, k).entries)
        # Both queries in one sweep: the cap is per query.
        together = kernel.reverse_kranks_batch(queries, k)
        assert [r.entries for r in together] == [
            naive.reverse_kranks(q, k).entries for q in queries]
