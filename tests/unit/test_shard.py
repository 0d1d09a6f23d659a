"""Unit tests for repro.vectorized.shard (shared-memory single-query sharding)."""

import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import InvalidParameterError
from repro.vectorized.girkernel import GirKernelRRQ
from repro.vectorized.shard import ShardedGirRRQ


@pytest.fixture(scope="module")
def data():
    P = uniform_products(150, 4, seed=41)
    W = uniform_weights(130, 4, seed=42)
    return P, W


@pytest.fixture(scope="module")
def sharded(data):
    """One pool for the whole module — worker startup is the slow part."""
    P, W = data
    engine = ShardedGirRRQ(P, W, shards=3)
    yield engine
    engine.close()


class TestEquivalence:
    def test_rtk_matches_naive(self, data, sharded):
        P, W = data
        naive = NaiveRRQ(P, W)
        for qi in (0, 60, 149):
            for k in (1, 7, 50):
                assert (sharded.reverse_topk(P[qi], k).weights
                        == naive.reverse_topk(P[qi], k).weights)

    def test_rkr_matches_naive(self, data, sharded):
        P, W = data
        naive = NaiveRRQ(P, W)
        for qi in (2, 77):
            for k in (1, 5, 30):
                assert (sharded.reverse_kranks(P[qi], k).entries
                        == naive.reverse_kranks(P[qi], k).entries)

    def test_k_exceeds_weights(self, data, sharded):
        P, W = data
        result = sharded.reverse_kranks(P[0], W.size + 10)
        assert len(result.entries) == W.size

    def test_merged_stats_single_query(self, data, sharded):
        P, W = data
        # An undominated point: the Domin floor can't short-circuit, so
        # every shard must actually classify pairs.
        q = P.values.min(axis=0) * 0.9
        sharded.reverse_topk(q, 5)
        stats = sharded.last_stats
        assert stats is not None
        assert stats.queries == 1  # shards merge into one logical scan
        assert stats.pairs_total > 0

    def test_reuses_supplied_kernel(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=8)
        with ShardedGirRRQ(P, W, shards=2, kernel=kernel) as engine:
            assert engine.kernel is kernel
            naive = NaiveRRQ(P, W)
            assert (engine.reverse_topk(P[5], 9).weights
                    == naive.reverse_topk(P[5], 9).weights)


class TestSegments:
    """One shared-memory segment per array the core holds: ``P``, ``W``
    and, on the float32 filter path, their two float32 copies."""

    def test_float32_core_shares_four_arrays(self, sharded):
        core = sharded.kernel.core
        assert core.filter_dtype == "float32"
        assert sorted(shm.size for shm in sharded._segments) == sorted(
            arr.nbytes for arr in (core.P, core.W, core.P32, core.W32))

    def test_float64_core_shares_two_and_workers_stay_float64(self, data):
        P, W = data
        kernel = GirKernelRRQ(P, W, partitions=8, filter_dtype="float64")
        naive = NaiveRRQ(P, W)
        with ShardedGirRRQ(P, W, shards=2, kernel=kernel) as engine:
            assert len(engine._segments) == 2
            assert (engine.reverse_kranks(P[5], 9).entries
                    == naive.reverse_kranks(P[5], 9).entries)
            assert engine.last_stats.pairs_total > 0
            assert engine.last_stats.pairs_f32 == 0


class TestLifecycle:
    def test_rejects_bad_shards(self, data):
        P, W = data
        with pytest.raises(InvalidParameterError):
            ShardedGirRRQ(P, W, shards=0)

    def test_post_close_serial_fallback(self, data):
        P, W = data
        engine = ShardedGirRRQ(P, W, shards=2)
        engine.close()
        naive = NaiveRRQ(P, W)
        # Still answers, exactly, from the in-process kernel.
        assert (engine.reverse_kranks(P[3], 7).entries
                == naive.reverse_kranks(P[3], 7).entries)
        assert engine.last_stats is not None

    def test_close_idempotent(self, data):
        P, W = data
        engine = ShardedGirRRQ(P, W, shards=2)
        engine.close()
        engine.close()  # second close is a no-op, not an error

    def test_shards_capped_at_weights(self):
        P = uniform_products(40, 3, seed=1)
        W = uniform_weights(2, 3, seed=2)
        with ShardedGirRRQ(P, W, shards=8) as engine:
            assert engine.shards <= 2
            naive = NaiveRRQ(P, W)
            assert (engine.reverse_topk(P[0], 1).weights
                    == naive.reverse_topk(P[0], 1).weights)


class TestShutdownSafety:
    """Regressions for GC/interpreter-exit crashes in close()/__del__."""

    def test_half_built_instance_closes_cleanly(self):
        # A constructor that raises before _pool/_segments exist still
        # gets __del__ -> close(); neither may raise AttributeError.
        engine = ShardedGirRRQ.__new__(ShardedGirRRQ)
        engine.close()
        engine.__del__()

    def test_failed_constructor_leaves_no_raising_garbage(self, data):
        import gc

        P, W = data
        with pytest.raises(InvalidParameterError):
            ShardedGirRRQ(P, W, shards=0)
        gc.collect()  # collects the half-built instance; must not raise

    def test_interpreter_exit_without_close_is_silent(self):
        # An engine alive at interpreter shutdown is torn down by GC
        # after arbitrary module teardown; "Exception ignored" on stderr
        # is the failure mode this guards against.
        import subprocess
        import sys

        script = (
            "from repro.data.synthetic import uniform_products, "
            "uniform_weights\n"
            "from repro.vectorized.shard import ShardedGirRRQ\n"
            "P = uniform_products(30, 3, seed=1)\n"
            "W = uniform_weights(20, 3, seed=2)\n"
            "engine = ShardedGirRRQ(P, W, shards=2)\n"
            "engine.reverse_topk(P[0], 3)\n"
            "# deliberately no close(): exit with the pool still up\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, timeout=120,
            env={**__import__("os").environ, "PYTHONPATH": "src"},
        )
        assert result.returncode == 0, result.stderr
        assert "Exception ignored" not in result.stderr
        assert "Traceback" not in result.stderr
