"""Unit tests for repro.vectorized.girkernel (the weight-blocked kernel)."""

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.core.gir import GridIndexRRQ
from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import InvalidParameterError
from repro.queries.engine import RRQEngine
from repro.stats.counters import OpCounter
from repro.vectorized import girkernel
from repro.vectorized.girkernel import GirKernelRRQ, KernelStats


@pytest.fixture
def data():
    P = uniform_products(180, 5, seed=31)
    W = uniform_weights(150, 5, seed=32)
    return P, W


class TestConstruction:
    def test_partitions_is_accepted_and_inert(self, data):
        """``benchmarks/e2e/run.py`` still passes it; nothing reads it."""
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        assert kernel.use_domin
        assert not hasattr(kernel, "grid") and not hasattr(kernel, "PA")
        other = GirKernelRRQ(P, W, partitions=3)
        assert other.core.P.tobytes() == kernel.core.P.tobytes()
        assert other.core.W32.tobytes() == kernel.core.W32.tobytes()

    def test_from_gir_takes_data_and_use_domin(self, data):
        P, W = data
        gir = GridIndexRRQ(P, W, partitions=8, use_domin=False)
        kernel = GirKernelRRQ.from_gir(gir)
        assert kernel.products is gir.products
        assert kernel.weights is gir.weights
        assert kernel.use_domin is False

    def test_rejects_bad_blocks(self, data):
        P, W = data
        with pytest.raises(InvalidParameterError):
            GirKernelRRQ(P, W, w_block=0)
        with pytest.raises(InvalidParameterError):
            GirKernelRRQ(P, W, p_block=-1)

    def test_memory_report(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        report = kernel.memory_report()
        # One float32 copy per side, same shapes as P and W; a float64
        # core holds none.
        assert report["f32_copy_bytes"] == (P.values.nbytes
                                            + W.values.nbytes) // 2
        assert report["original_bytes"] == P.values.nbytes + W.values.nbytes
        assert set(report) == {"f32_copy_bytes", "original_bytes"}
        assert GirKernelRRQ(P, W, filter_dtype="float64").memory_report()[
            "f32_copy_bytes"] == 0

    def test_registered_engine_method(self, data):
        P, W = data
        engine = RRQEngine(P, W, method="gir-kernel")
        naive = NaiveRRQ(P, W)
        assert (engine.reverse_topk(P[0], 7).weights
                == naive.reverse_topk(P[0], 7).weights)


class TestEquivalence:
    """Byte-identity against both the per-weight loop and the naive scan."""

    @pytest.mark.parametrize("w_block,p_block", [(1024, 2048), (7, 16), (1, 1)])
    def test_any_blocking_matches_gir(self, data, w_block, p_block):
        P, W = data
        gir = GridIndexRRQ(P, W, partitions=16)
        kernel = GirKernelRRQ(P, W, partitions=16,
                              w_block=w_block, p_block=p_block)
        for qi in (0, 50, 177):
            q = P[qi]
            for k in (1, 5, 40):
                assert (kernel.reverse_topk(q, k)
                        == gir.reverse_topk(q, k))
                assert (kernel.reverse_kranks(q, k).entries
                        == gir.reverse_kranks(q, k).entries)

    def test_matches_naive(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        naive = NaiveRRQ(P, W)
        for qi in (3, 99):
            q = P[qi]
            for k in (1, 7, 25):
                assert (kernel.reverse_topk(q, k).weights
                        == naive.reverse_topk(q, k).weights)
                assert (kernel.reverse_kranks(q, k).entries
                        == naive.reverse_kranks(q, k).entries)

    def test_use_domin_false_equivalent(self, data):
        P, W = data
        naive = NaiveRRQ(P, W)
        kernel = GirKernelRRQ(P, W, partitions=16, use_domin=False)
        q = P.values.max(axis=0) * 0.999  # heavy domination pressure
        for k in (1, 3, 20):
            assert (kernel.reverse_topk(q, k).weights
                    == naive.reverse_topk(q, k).weights)
            assert (kernel.reverse_kranks(q, k).entries
                    == naive.reverse_kranks(q, k).entries)

    def test_domin_abort_empty_rtk(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        q = P.values.max(axis=0) * 0.999
        result = kernel.reverse_topk(q, 3)
        assert result.weights == frozenset()
        assert kernel.last_stats.pairs_domin_skipped >= 0

    def test_k_exceeds_weights(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        naive = NaiveRRQ(P, W)
        result = kernel.reverse_kranks(P[0], W.size + 50)
        assert len(result.entries) == W.size
        assert result.entries == naive.reverse_kranks(P[0], W.size + 50).entries
        rtk = kernel.reverse_topk(P[0], W.size + 50)
        assert rtk.weights == naive.reverse_topk(P[0], W.size + 50).weights


class TestStats:
    def test_last_stats_populated(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        kernel.reverse_topk(P[0], 10)
        stats = kernel.last_stats
        assert isinstance(stats, KernelStats)
        assert stats.queries == 1
        assert stats.pairs_total > 0
        assert stats.pairs_decided == stats.pairs_case1 + stats.pairs_case2

    def test_snapshot_shape(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        kernel.reverse_kranks(P[0], 5)
        snap = kernel.last_stats.snapshot()
        assert set(snap) == {"queries", "stage_s", "pairs",
                             "weights_pruned", "fused"}
        assert set(snap["stage_s"]) == {"filter", "refine", "merge"}
        assert set(snap["pairs"]) == {"total", "case1", "case2",
                                      "refined", "domin_skipped", "f32"}
        assert set(snap["fused"]) == {"batches", "queries"}

    @pytest.mark.parametrize("use_domin", [True, False])
    def test_excluded_rows_are_no_case(self, use_domin):
        """On a sweep that prunes nothing (RTK, k > |P|: every weight
        qualifies) every classified pair is case 1, case 2 or refined,
        and a query's excluded rows — its duplicates and, with Domin,
        its dominators — are none of them: ``pairs_total`` is
        ``(|P| - |excluded|) x |W|``."""
        P = uniform_products(300, 4, seed=61)
        W = uniform_weights(170, 4, seed=62)
        rows = P.values
        q = rows[np.argsort(rows.sum(axis=1))[240]]
        # Two more copies of q: three duplicate rows in all.
        P = type(P)(np.vstack([rows, q, q]), value_range=P.value_range)
        rows = P.values
        excluded = np.all(rows == q, axis=1)
        dominators = np.all(rows < q, axis=1)
        if use_domin:
            excluded |= dominators
        assert excluded.sum() >= 3 and dominators.sum() > 0
        kernel = GirKernelRRQ(P, W, w_block=64, p_block=128,
                              use_domin=use_domin)
        result = kernel.reverse_topk(q, P.size + 1)
        assert sorted(result.weights) == list(range(W.size))
        stats, counter = kernel.last_stats, result.counter
        assert stats.weights_pruned == 0
        assert (stats.pairs_case1 + stats.pairs_case2 + stats.pairs_refined
                == stats.pairs_total
                == (P.size - int(excluded.sum())) * W.size)
        assert stats.pairs_domin_skipped == (
            int(dominators.sum()) * W.size if use_domin else 0)
        assert (counter.filtered_case1, counter.filtered_case2) == (
            stats.pairs_case1, stats.pairs_case2)

    def test_merge_accumulates(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        total = KernelStats()
        for qi in (0, 1, 2):
            kernel.reverse_topk(P[qi], 5)
            total.merge(kernel.last_stats)
        assert total.queries == 3
        assert total.pairs_total >= kernel.last_stats.pairs_total

    def test_counter_tallies_refinements(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16)
        result = kernel.reverse_topk(P[0], 10)
        assert result.counter.pairwise > 0


class TestGateTallies:
    """Direct comparison and the sorted tally count the same hits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("nq", [1, girkernel.DIRECT_COUNT_MAX_Q,
                                    girkernel.DIRECT_COUNT_MAX_Q + 1, 9])
    def test_direct_equals_sorted_equals_dense(self, monkeypatch, dtype, nq):
        rng = np.random.default_rng(nq)
        cols, rows = 37, 53
        # Few distinct values, so gates land *on* scores: the strict
        # high side and the non-strict (nextafter) low side must differ
        # exactly there.
        S = (rng.integers(0, 8, size=(cols, rows)) / 8.0).astype(dtype)
        g_hi = (rng.integers(0, 8, size=(cols, nq)) / 8.0).astype(dtype)
        g_lo = g_hi + dtype(0.125)
        pruned = rng.random((cols, nq)) < 0.3
        g_hi[pruned] = -np.inf
        g_lo[pruned] = -np.inf
        dense = ((S[:, :, None] < g_hi[:, None, :]).sum(axis=1),
                 (S[:, :, None] <= g_lo[:, None, :]).sum(axis=1))
        assert (dense[1] > dense[0]).any() and not dense[0][pruned].any()
        kept = S.copy()
        for cut in (nq, nq - 1):            # direct side, sorted side
            monkeypatch.setattr(girkernel, "DIRECT_COUNT_MAX_Q", cut)
            case1, lowhit = girkernel._gate_tallies(S, g_hi, g_lo)
            np.testing.assert_array_equal(case1, dense[0])
            np.testing.assert_array_equal(lowhit, dense[1])
            # The replay reads the tile by row position afterwards.
            np.testing.assert_array_equal(S, kept)


class TestRankIntervalCap:
    """The benchmark's shape (UNxUN, d=4, 1000 x 2000, k=10, data seeds
    7/8), product 532 from the middle of the coordinate-sum ranking."""

    #: Measured at the commit before the cap: the sweep classified this
    #: many pairs (and refined 181,652: every undecided pair of the
    #: columns alive at block end, when a tile held grid bounds).
    PARENT_PAIRS_TOTAL = 1_601_960

    def test_batch_of_one_rkr_refines_a_fraction(self):
        P = uniform_products(1000, 4, seed=7)
        W = uniform_weights(2000, 4, seed=8)
        kernel = GirKernelRRQ(P, W, partitions=32)
        result, = kernel.reverse_kranks_batch([P[532]], 10)
        assert result.entries == NaiveRRQ(P, W).reverse_kranks(
            P[532], 10).entries
        stats = kernel.last_stats
        # The cap acts after classification: it refines fewer pairs.
        # What classifies fewer is the seeded limit over sum-ordered
        # product rows (TestSeededLimit).
        assert stats.pairs_total * 2 < self.PARENT_PAIRS_TOTAL
        # A tile of scores leaves only float32's rounding band undecided
        # (11,008 pairs when it held 32-cell grid bounds).
        assert stats.pairs_refined <= 8
        assert stats.weights_pruned > 1500

    def test_capped_pairs_land_in_the_never_refined_bucket(self, monkeypatch):
        """``case1 + case2 + undecided + refined == pairs_total`` with
        every term counted on its own: *undecided* is the sweep's
        ``gap`` over the columns it dropped (limit or cap), *refined* the
        ``gap`` over the columns it kept."""
        P = uniform_products(1000, 4, seed=7)
        W = uniform_weights(2000, 4, seed=8)
        kernel = GirKernelRRQ(P, W, partitions=32)
        gaps = {"kept": 0, "dropped": 0, "capped": 0, "columns_dropped": 0}
        exact_counts = girkernel.KernelCore._exact_counts

        def tally(core, batch, block, ws, qi, alive, counter, stats):
            gap = block.gap[qi]
            gaps["kept"] += int(gap[alive].sum())
            gaps["dropped"] += int(gap[~alive].sum())
            # Live after the tiles, dropped by the cap alone.
            gaps["capped"] += int(gap[block.active[qi] & ~alive].sum())
            gaps["columns_dropped"] += int(np.count_nonzero(~alive))
            return exact_counts(core, batch, block, ws, qi, alive, counter,
                                stats)

        monkeypatch.setattr(girkernel.KernelCore, "_exact_counts", tally)
        # Product 63, not 532: since the sweep settles whole boxes by
        # their rank floor before the first tile, 532 leaves no
        # undecided pair in either bucket (1 dropped, 0 kept before);
        # 63 still has the cap drop undecided pairs.
        kernel.reverse_kranks(P[63], 10)
        stats = kernel.last_stats
        undecided = (stats.pairs_total - stats.pairs_case1
                     - stats.pairs_case2 - stats.pairs_refined)
        assert stats.pairs_refined == gaps["kept"] <= 8
        assert undecided == gaps["dropped"] > 3 * gaps["kept"]
        assert gaps["capped"] > 0
        assert stats.weights_pruned == gaps["columns_dropped"]
        assert stats.pairs_total * 2 < self.PARENT_PAIRS_TOTAL
        assert (stats.pairs_case1 + stats.pairs_case2 + gaps["dropped"]
                + gaps["kept"]) == stats.pairs_total


class TestDominEmptiedQuery:
    def test_leaves_a_mixed_batch_before_the_sweep(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16, w_block=32)
        dominated = P.values.max(axis=0) * 0.999
        alone, = kernel.reverse_topk_batch([P[0]], 3)
        alone_total = kernel.last_stats.pairs_total
        empty, mixed = kernel.reverse_topk_batch([dominated, P[0]], 3)
        assert empty.weights == frozenset()
        assert mixed.weights == alone.weights
        stats = kernel.last_stats
        # Still one dispatched pair ...
        assert (stats.queries, stats.fused_queries) == (2, 2)
        # ... but the emptied query rode no tile: not one f_w(q) score.
        assert empty.counter.pairwise == 0
        assert mixed.counter.pairwise == alone.counter.pairwise
        assert stats.pairs_total == alone_total


def _answers(engine, kind, queries, k):
    """RTK weight sets / RKR entries of ``queries``, one call each."""
    if kind == "rtk":
        return [engine.reverse_topk(q, k).weights for q in queries]
    return [engine.reverse_kranks(q, k).entries for q in queries]


def _batch_answers(kernel, kind, queries, k):
    if kind == "rtk":
        return [r.weights for r in kernel.reverse_topk_batch(queries, k)]
    return [r.entries for r in kernel.reverse_kranks_batch(queries, k)]


class TestWorkspace:
    """Tiles, tally masks and the stacked sort live in one reused
    per-thread buffer; the answers cannot tell."""

    @pytest.mark.parametrize("products", [(532,), (532, 100)])
    def test_warm_sweep_allocates_nothing_tile_sized(self, products):
        """The benchmark's shape: a sweep that allocated its tiles
        fresh peaked at 13.4 MB (15.3 MB for the pair)."""
        import tracemalloc

        P = uniform_products(1000, 4, seed=7)
        W = uniform_weights(2000, 4, seed=8)
        kernel = GirKernelRRQ(P, W, partitions=32)
        queries = [P[i] for i in products]
        kernel.reverse_kranks_batch(queries, 10)
        kernel.reverse_kranks_batch(queries, 10)
        tracemalloc.start()
        try:
            results = kernel.reverse_kranks_batch(queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000
        assert [r.entries for r in results] == _answers(
            NaiveRRQ(P, W), "rkr", queries, 10)

    @pytest.mark.parametrize("filter_dtype", girkernel.FILTER_DTYPES)
    def test_eight_threads_sweep_one_kernel(self, filter_dtype):
        """Two sweeps in flight never share a workspace: eight threads
        (the box has two cores), each with its own queries, on one
        kernel whose |W| spans several blocks."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        P = uniform_products(300, 4, seed=41)
        W = uniform_weights(700, 4, seed=42)
        kernel = GirKernelRRQ(P, W, partitions=16, w_block=256,
                              filter_dtype=filter_dtype)
        naive = NaiveRRQ(P, W)
        pool = [P[i] for i in range(0, 300, 13)]
        expected = {kind: _answers(naive, kind, pool, 5)
                    for kind in ("rtk", "rkr")}

        def sweep(t):
            for turn in range(4):
                for nq in (1, 2, 5):
                    idx = [(3 * t + turn + j) % len(pool) for j in range(nq)]
                    for kind in ("rtk", "rkr"):
                        got = _batch_answers(kernel, kind,
                                             [pool[i] for i in idx], 5)
                        assert got == [expected[kind][i] for i in idx], (
                            t, turn, nq, kind)
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as threads:
                futures = [threads.submit(sweep, t) for t in range(8)]
                assert all(f.result(timeout=120) for f in futures)
        finally:
            sys.setswitchinterval(interval)

    def test_a_tile_past_the_bound_is_a_plain_array(self, data, monkeypatch):
        """With room for 16k bytes every tile (64 x 180 cells a side)
        and stacked sort overflows while a tally mask still fits: the
        same ``take`` hands out plain arrays and nothing more is kept."""
        P, W = data
        monkeypatch.setattr(girkernel, "_workspace", girkernel._Workspace())
        monkeypatch.setattr(girkernel, "_WORKSPACE_BYTES", 16 * 1024)
        naive = NaiveRRQ(P, W)
        for filter_dtype in girkernel.FILTER_DTYPES:
            kernel = GirKernelRRQ(P, W, partitions=16, w_block=64,
                                  filter_dtype=filter_dtype)
            for kind in ("rtk", "rkr"):
                for queries in ([P[3]], [P[i] for i in (3, 50, 99, 120, 177)]):
                    assert (_batch_answers(kernel, kind, queries, 7)
                            == _answers(naive, kind, queries, 7))
        assert girkernel._workspace.buf.size == 16 * 1024

    def test_a_sweep_that_raises_leaves_the_next_one_correct(self, data,
                                                             monkeypatch):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16, w_block=64)
        refine = girkernel.KernelCore._refine
        calls = []

        def failing(core, *args):
            calls.append(1)
            if len(calls) == 2:          # the second W-block, tiles stored
                raise RuntimeError("mid-block")
            return refine(core, *args)

        monkeypatch.setattr(girkernel.KernelCore, "_refine", failing)
        with pytest.raises(RuntimeError, match="mid-block"):
            kernel.reverse_kranks_batch([P[3]], 7)
        monkeypatch.setattr(girkernel.KernelCore, "_refine", refine)
        naive = NaiveRRQ(P, W)
        for kind in ("rkr", "rtk"):
            assert (_batch_answers(kernel, kind, [P[3], P[99]], 7)
                    == _answers(naive, kind, [P[3], P[99]], 7))

    @pytest.mark.parametrize("n_weights", [63, 65])
    def test_ragged_last_block(self, n_weights):
        """|W| one off the block size, and a slice ``W[lo:hi]`` (what a
        cluster worker holds) that ends inside a block: the per-block
        reset at a short block."""
        from repro.data.datasets import WeightSet

        P = uniform_products(120, 4, seed=51)
        W = uniform_weights(n_weights, 4, seed=52)
        kernel = GirKernelRRQ(P, W, partitions=16, w_block=64, p_block=32)
        naive = NaiveRRQ(P, W)
        queries = [P[5], P[60]]
        for kind in ("rtk", "rkr"):
            assert (_batch_answers(kernel, kind, queries, 4)
                    == _answers(naive, kind, queries, 4))
        lo, hi = 7, n_weights - 9
        part = NaiveRRQ(P, WeightSet(W.values[lo:hi]))
        small = GirKernelRRQ(P, WeightSet(W.values[lo:hi]), partitions=16,
                             w_block=20, p_block=32)
        for q in queries:
            assert (small.reverse_kranks(q, 4).entries
                    == part.reverse_kranks(q, 4).entries)
            assert (small.reverse_topk(q, 4).weights
                    == part.reverse_topk(q, 4).weights)

    def test_plain_batch_call_sweeps_at_one_blas_thread(self, data,
                                                        two_threads):
        """No caller above the kernel has to remember the guard."""
        from repro.vectorized import blasthreads

        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16, w_block=64)
        classify = kernel.core.classify_batch
        seen = []

        def recording(*args):
            seen.append(blasthreads.thread_counts())
            return classify(*args)

        kernel.core.classify_batch = recording
        kernel.reverse_kranks_batch([P[3]], 7)
        assert seen == [[1]] * 3                 # 150 weights, three blocks
        assert blasthreads.thread_counts() == [2]


def _bench_shape():
    """The end-to-end benchmark's data: UNxUN, d=4, 1000 x 2000."""
    return (uniform_products(1000, 4, seed=7),
            uniform_weights(2000, 4, seed=8))


class TestSeededLimit:
    """An RKR sweep starts from ``k-th smallest rank upper bound + 1`` of
    the weights that score q lowest in its own first block."""

    @pytest.mark.parametrize("filter_dtype", girkernel.FILTER_DTYPES)
    def test_tie_at_the_seed_rank_below_every_candidate(self, filter_dtype):
        """Every weight ranks q exactly ``R``: the seed's witnesses are
        the high indices (they score q lowest), the answer is the k
        lowest.  A limit of ``R`` instead of ``R + 1`` prunes them all."""
        from repro.data.datasets import ProductSet, WeightSet

        k, R, n_weights = 3, 6, 40
        rng = np.random.default_rng(5)
        P = ProductSet(np.vstack([rng.uniform(0.05, 0.15, size=(R, 2)),
                                  rng.uniform(0.85, 0.95, size=(30, 2))]))
        # f_w(q) = 0.6 - 0.2 a falls with a.  The first k rows are one
        # duplicated vector with the smallest a, so they are no seed
        # candidates (4k = 12 of 40) and sit below every one of them.
        a = np.concatenate([np.full(k, 0.05),
                            np.linspace(0.1, 0.9, n_weights - k)])
        W = WeightSet(np.column_stack([a, 1.0 - a]))
        q = np.array([0.4, 0.6])
        kernel = GirKernelRRQ(P, W, partitions=16, filter_dtype=filter_dtype)
        result = kernel.reverse_kranks(q, k)
        assert result.entries == tuple((R, j) for j in range(k))
        assert result.entries == NaiveRRQ(P, W).reverse_kranks(q, k).entries
        # The seed was as tight as a seed gets, and pruned nobody wrongly.
        seeds = kernel.core._seed_limits(
            kernel.core.prepare_batch(q[None, :]), [k], [OpCounter()],
            KernelStats())
        assert seeds.tolist() == [R + 1]

    @pytest.mark.parametrize("lo,hi", [
        (50, 52),        # shorter than k: no seed
        (50, 61),        # shorter than SEED_CANDIDATES * k
        (50, 70),        # one whole block
        (43, 117),       # several blocks, ragged both ends
    ])
    def test_a_range_is_seeded_from_its_own_weights(self, lo, hi):
        """A kernel over the slice ``W[lo:hi]``, as a cluster worker
        holds one: the best-ranked weights of the full ``W`` sit *before*
        ``lo``, and the coordinator's merge needs the k best of exactly
        the slice."""
        from repro.data.datasets import WeightSet

        k = 4
        assert 52 - 50 < k <= 61 - 50 < girkernel.SEED_CANDIDATES * k
        P = uniform_products(150, 4, seed=61)
        W = uniform_weights(120, 4, seed=62)
        q = P[70]
        ranks = [rank for rank, _ in sorted(
            NaiveRRQ(P, W).reverse_kranks(q, W.size).entries,
            key=lambda entry: entry[1])]
        W = WeightSet(W.values[np.argsort(ranks, kind="stable")])
        kernel = GirKernelRRQ(P, WeightSet(W.values[lo:hi]), partitions=16,
                              w_block=20, p_block=32)
        part = NaiveRRQ(P, WeightSet(W.values[lo:hi]))
        assert (kernel.reverse_kranks(q, k).entries
                == part.reverse_kranks(q, k).entries)

    @pytest.mark.parametrize("use_domin", [True, False])
    @pytest.mark.parametrize("filter_dtype", girkernel.FILTER_DTYPES)
    def test_fused_batch_with_its_own_k_per_query(self, data, filter_dtype,
                                                  use_domin):
        """k = 1 and k = 50 beside a query nearly everything dominates:
        one seed per query, each from its own k."""
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=16, w_block=64,
                              filter_dtype=filter_dtype, use_domin=use_domin)
        naive = NaiveRRQ(P, W)
        queries = [P[3], P[99], P.values.max(axis=0) * 0.999]
        ks = [1, 50, 7]
        results = kernel.reverse_kranks_batch(queries, ks)
        assert [r.entries for r in results] == [
            naive.reverse_kranks(q, k).entries for q, k in zip(queries, ks)]

    def test_seed_scores_are_counted_as_exact_scores_not_as_pairs(self):
        """``SEED_CANDIDATES * k`` weights x |P| exact scores go to the
        operation counter; ``pairs_total`` stays what classification
        saw, and a seed-pruned column is a pruned weight like any
        other."""
        P, W = _bench_shape()
        kernel = GirKernelRRQ(P, W, partitions=32)
        result, = kernel.reverse_kranks_batch([P[532]], 10)
        stats, counter = kernel.last_stats, result.counter
        seed_scores = girkernel.SEED_CANDIDATES * 10 * P.size
        # A classified pair is a scored pair (its tile cell), a refined
        # pair is scored a second time, exactly.
        assert counter.points_accessed == (stats.pairs_total
                                           + stats.pairs_refined
                                           + seed_scores)
        # One f_w(q) per weight on top of those, and one bound per
        # product and box floored: the 63 kd boxes of the two W-blocks.
        assert counter.nodes_accessed == 63
        assert counter.pairwise == (W.size + counter.points_accessed
                                    + P.size * counter.nodes_accessed)
        assert counter.refined == stats.pairs_refined
        assert counter.early_terminations == stats.weights_pruned
        # No table is read and no boundary sum formed.
        assert (counter.grid_lookups, counter.additions,
                counter.approx_accessed) == (0, 0, 0)
        assert (counter.filtered_case1, counter.filtered_case2) == (
            stats.pairs_case1, stats.pairs_case2)
        # Every classified pair took the float32 prefilter; the seed's
        # float64 scores are no classified pairs.
        assert stats.pairs_f32 == stats.pairs_total
        # A first block shorter than k has no seed and pays for none.
        from repro.data.datasets import WeightSet

        nine = GirKernelRRQ(P, WeightSet(W.values[:9]), partitions=32)
        short = nine.reverse_kranks(P[532], 10)
        unseeded = short.counter
        assert len(short.entries) == 9
        # The query itself and its 26 dominators are no classified pair.
        rows, q = P.values, P[532]
        excluded = np.all(rows == q, axis=1) | np.all(rows < q, axis=1)
        assert int(excluded.sum()) == 27
        assert unseeded.points_accessed == (9 * (P.size - 27)
                                            + unseeded.refined)
        assert unseeded.pairwise == 9 + unseeded.points_accessed

    def test_frugality_pin_on_the_benchmark_shape(self):
        """The 20 strata-centre products of ``benchmarks/e2e`` as batches
        of one.  Counts repeat exactly, so this catches a frugality
        regression no timing gate on a shared box can: 33,448,464 pairs
        before the seed and the row order, 19,351,896 with them and
        262,595 of those refined; 17,612,424 and none since a tile
        holds scores; 15,507,867 since a query's excluded rows (itself,
        its dominators) are no classified pair; 4,077,636 since ``W`` is
        swept in kd-box order, seeded from all of ``W``, and a box whose
        rank floor reaches the limit never enters a tile."""
        P, W = _bench_shape()
        kernel = GirKernelRRQ(P, W, partitions=32)
        order = np.argsort(P.values.sum(axis=1), kind="stable")
        pool = [int(order[int((j + 0.5) * P.size / 20)]) for j in range(20)]
        total = refined = 0
        for p in pool:
            kernel.reverse_kranks_batch([P[p]], 10)
            total += kernel.last_stats.pairs_total
            refined += kernel.last_stats.pairs_refined
        assert total <= 4_200_000
        assert refined <= 40
