"""Property tests aimed at the band a score tile leaves undecided.

A tile of the blocked kernel holds float32 (or float64) *scores*; a pair
is settled by the tile alone only when its score clears ``f_w(q)`` by
more than the filter dtype can have rounded it — ``f32_gamma`` relative
on the float32 path, the near-tie half-width ``tol`` on the float64 path
— and everything closer goes to ``_refine``.  The products here are
built to sit inside and just outside that band: for each query ``q`` and
each ``eps`` in :data:`EPSILONS` there are

* *scaled* copies ``q * (1 +/- eps)``: ``f_w(p) = f_w(q) * (1 +/- eps)``
  under every weight at once, and
* *tilted* copies ``q +/- eps * f_w(q) * v / (w . v)`` along a mixed-sign
  direction ``v``: exactly that gap under one chosen weight ``w``, and a
  gap of the same order, either sign, under all the others

— gaps float64 resolves and float32 cannot.  Answers must equal
``NaiveRRQ``'s, and with a ``k`` no column is pruned at every pair inside
the band must be counted in ``pairs_refined``: gating the float32 tile
with the unwidened float64 gates decides those pairs off seven digits
and fails both checks.
"""

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.stats.counters import OpCounter
from repro.vectorized.girkernel import (
    FILTER_DTYPES,
    GirKernelRRQ,
    KernelCore,
    KernelStats,
    f32_gamma,
)

EPSILONS = (0.0, 2.0 ** -52, 2.0 ** -30, 2.0 ** -24, 2.0 ** -22, 2.0 ** -20)
N_QUERIES = 4
W_BLOCK = 8
N_WEIGHTS = 2 * W_BLOCK + 1


def _adversarial(dim, seed):
    """Queries, weights and the products built around them."""
    rng = np.random.default_rng(seed)
    W = rng.random((N_WEIGHTS, dim)) + 1e-3
    W[0, 1:] = 0.0                           # a one-hot weight
    W /= W.sum(axis=1, keepdims=True)
    queries = rng.uniform(0.2, 0.8, size=(N_QUERIES, dim))
    rows = [rng.uniform(0.0, 0.99, size=(20, dim))]
    for q in queries:
        for eps in EPSILONS:
            w = W[int(rng.integers(N_WEIGHTS))]
            v = rng.uniform(0.5, 1.0, dim) * rng.choice((-1.0, 1.0), dim)
            v[0] = abs(v[0]) + dim           # keeps w . v away from zero
            tilt = eps * (w @ q) * v / (w @ v)
            rows.append(np.stack([q * (1.0 + eps), q * (1.0 - eps),
                                  q + tilt, q - tilt]))
    P = np.concatenate(rows)
    return queries, W, P[rng.permutation(P.shape[0])]


def _band_pairs(P, W, q, use_domin, rel):
    """Classified pairs of ``q`` within ``rel * f_w(q)`` of ``f_w(q)``."""
    excluded = np.all(P == q, axis=1)
    if use_domin:
        excluded |= np.all(P < q, axis=1)
    fq = W @ q
    gap = np.abs(W @ P[~excluded].T - fq[:, None])
    return int(np.count_nonzero(gap <= rel * fq[:, None]))


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("use_domin", [True, False])
@pytest.mark.parametrize("filter_dtype", FILTER_DTYPES)
@pytest.mark.parametrize("dim", [2, 4, 20])
def test_pairs_float32_cannot_separate_are_refined(dim, filter_dtype,
                                                   use_domin, seed):
    queries, W, P = _adversarial(dim, seed)
    products, weights = ProductSet(P), WeightSet(W)
    naive = NaiveRRQ(products, weights)
    kernel = GirKernelRRQ(products, weights, partitions=8, w_block=W_BLOCK,
                          p_block=32, filter_dtype=filter_dtype,
                          use_domin=use_domin)
    assert kernel.filter_dtype == filter_dtype
    # Every gap at or below ``inside`` is in the undecided band whatever
    # the rounding did, none beyond ``outside`` is: on float32
    # ``gamma = 4 * gamma_{d+2}`` less the score's own ``gamma_{d+2}``,
    # on float64 ``tol = 1e-9 * (1 + f_w(q))`` with ``f_w(q) <= 0.8``.
    if filter_dtype == "float32":
        inside, outside = 2.0 ** -22 * 1.0001, 2.0 * f32_gamma(dim)
    else:
        inside, outside = 2.0 ** -30 * 1.0001, 1e-8
    everything = P.shape[0] + 1              # a k no column is pruned at

    def check(batch):
        for k in (3, everything):
            got = kernel.reverse_topk_batch(batch, k)
            assert [r.weights for r in got] == [
                naive.reverse_topk(q, k).weights for q in batch]
        stats = kernel.last_stats
        must = sum(_band_pairs(P, W, q, use_domin, inside) for q in batch)
        may = sum(_band_pairs(P, W, q, use_domin, outside) for q in batch)
        # The scaled copies with 2**-30 <= eps <= 2**-22 alone, under
        # every weight (on float64: eps = 2**-30).
        assert must >= len(batch) * N_WEIGHTS
        assert must <= stats.pairs_refined <= may
        assert (stats.pairs_case1 + stats.pairs_case2 + stats.pairs_refined
                == stats.pairs_total)
        for k in (1, 3, N_WEIGHTS + 2):
            got = kernel.reverse_kranks_batch(batch, k)
            assert [r.entries for r in got] == [
                naive.reverse_kranks(q, k).entries for q in batch]

    for q in queries:
        check([q])                           # direct tallies
    check(list(queries))                     # one sort, both gate sets


def test_negative_coordinate_falls_back_to_float64():
    """``s32 * (1 -/+ gamma)`` brackets a sum of non-negative terms only:
    a hand-built core with a negative entry (the data-set containers
    refuse one) filters in float64 and still ranks exactly."""
    rng = np.random.default_rng(5)
    P = rng.uniform(0.0, 1.0, size=(70, 3))
    W = rng.random((40, 3))
    W /= W.sum(axis=1, keepdims=True)
    q = np.array([0.5, 0.4, 0.6])
    assert KernelCore(P, W).filter_dtype == "float32"
    for negative in ("P", "W"):
        P2, W2 = P.copy(), W.copy()
        (P2 if negative == "P" else W2)[7, 1] = -0.25
        core = KernelCore(P2, W2, w_block=16, p_block=32)
        assert core.filter_dtype == "float64"
        assert core.P32 is None and core.W32 is None
        ranks = (P2 @ W2.T < W2 @ q).sum(axis=0)
        stats = KernelStats()
        hits = core.rtk_indices(q, 30, 0, 40, OpCounter(), stats)
        assert sorted(hits) == np.flatnonzero(ranks < 30).tolist()
        assert stats.pairs_f32 == 0 < stats.pairs_total
        pairs = core.rkr_pairs(q, 5, 0, 40, OpCounter(), KernelStats())
        assert sorted(pairs) == sorted(
            (int(r), j) for j, r in enumerate(ranks))[:5]
