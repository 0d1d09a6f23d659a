"""Unit tests for DurableDynamicRRQ (repro.durability.engine) and the
store satellites it leans on (structured delete errors, compact maps,
the live view).
"""

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.data.synthetic import uniform_products, uniform_weights
from repro.durability import (
    DurableDynamicRRQ,
    durability_report,
    read_wal,
    wal_path,
)
from repro.durability.wal import WalRecord, WalWriter
from repro.errors import (
    DataValidationError,
    DimensionMismatchError,
    InvalidParameterError,
)
from repro.storage import SegmentStore


def oracle_answers(engine, q, k):
    """Exact answers over the engine's live rows, in stable-index space."""
    pv, wv = engine.products, engine.weights
    naive = NaiveRRQ(
        ProductSet(pv.live_values(), value_range=pv.value_range),
        WeightSet(wv.live_values()),
    )
    w_map = list(wv.live_indices())
    rtk = frozenset(int(w_map[j]) for j in naive.reverse_topk(q, k).weights)
    rkr = tuple(sorted((rank, int(w_map[j]))
                       for rank, j in naive.reverse_kranks(q, k).entries))
    return rtk, rkr


def assert_exact(engine, q, k):
    rtk, rkr = oracle_answers(engine, q, k)
    assert engine.reverse_topk(q, k).weights == rtk
    assert engine.reverse_kranks(q, k).entries == rkr


@pytest.fixture
def rng():
    return np.random.default_rng(902)


def mutate_a_bit(engine, rng, products=30, weights=12):
    for _ in range(products):
        engine.insert_product(rng.random(engine.params["dim"]) * 0.99)
    for _ in range(weights):
        w = rng.random(engine.params["dim"]) + 1e-3
        engine.insert_weight(w / w.sum())
    engine.delete_product(2)
    if products > 11:
        engine.delete_product(11)
    engine.delete_weight(min(3, weights - 1))


class TestRecovery:
    def test_reopen_replays_to_identical_answers(self, tmp_path, rng):
        q = rng.random(4) * 0.9
        with DurableDynamicRRQ(tmp_path / "db", dim=4,
                               fsync="never") as engine:
            mutate_a_bit(engine, rng)
            live_rtk = engine.reverse_topk(q, 5).weights
            live_rkr = engine.reverse_kranks(q, 5).entries
            acked = engine.last_lsn
        with DurableDynamicRRQ(tmp_path / "db", fsync="never") as recovered:
            assert recovered.last_lsn == acked
            assert recovered.replayed_records == acked  # no snapshot yet
            assert recovered.reverse_topk(q, 5).weights == live_rtk
            assert recovered.reverse_kranks(q, 5).entries == live_rkr
            assert_exact(recovered, q, 5)

    def test_snapshot_truncates_wal_and_recovery_uses_it(self, tmp_path, rng):
        q = rng.random(4) * 0.9
        with DurableDynamicRRQ(tmp_path / "db", dim=4,
                               fsync="never") as engine:
            mutate_a_bit(engine, rng)
            barrier = engine.snapshot()
            engine.insert_product(rng.random(4) * 0.9)
            tail_len = engine.last_lsn - barrier
            live = engine.reverse_topk(q, 5).weights
        records, _, _ = read_wal(wal_path(tmp_path / "db"))
        assert len(records) == tail_len  # prefix truncated at the barrier
        report = durability_report(tmp_path / "db")
        assert report["storage"]["lsn"] == barrier
        with DurableDynamicRRQ(tmp_path / "db", fsync="never") as recovered:
            assert recovered.snapshot_lsn == barrier
            assert recovered.replayed_records == tail_len
            assert recovered.reverse_topk(q, 5).weights == live

    def test_auto_snapshot_every(self, tmp_path, rng):
        with DurableDynamicRRQ(tmp_path / "db", dim=3, fsync="never",
                               snapshot_every=10) as engine:
            for _ in range(25):
                engine.insert_product(rng.random(3) * 0.9)
            assert engine.snapshots_taken == 2
            assert engine.snapshot_lsn == 20

    def test_fresh_directory_requires_dim(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="dim"):
            DurableDynamicRRQ(tmp_path / "empty")

    def test_persisted_params_win_over_constructor(self, tmp_path, rng):
        with DurableDynamicRRQ(tmp_path / "db", dim=3, value_range=2.0,
                               fsync="never") as engine:
            engine.insert_product(rng.random(3))
        with DurableDynamicRRQ(tmp_path / "db", dim=7, value_range=9.0,
                               fsync="never") as recovered:
            assert recovered.params["dim"] == 3
            assert recovered.params["value_range"] == 2.0

    def test_durability_report_on_healthy_directory(self, tmp_path, rng):
        with DurableDynamicRRQ(tmp_path / "db", dim=3,
                               fsync="never") as engine:
            mutate_a_bit(engine, rng, products=5, weights=3)
            barrier = engine.snapshot()
            engine.insert_product(rng.random(3) * 0.9)
        report = durability_report(tmp_path / "db")
        assert report["ok"]
        assert "snapshot" not in report  # one barrier: the store manifest
        assert report["storage"]["status"] == "ok"
        assert report["storage"]["lsn"] == barrier
        assert report["storage"]["segments"] == 1
        assert report["wal"]["status"] == "ok"
        assert report["wal"]["records"] == 1

    def test_rebuild_record_in_an_old_log_is_skipped(self, tmp_path, rng):
        """Logs written before the op was dropped still replay, on the
        primary's recovery and on a standby's apply."""
        q = rng.random(3) * 0.9
        with DurableDynamicRRQ(tmp_path / "db", dim=3,
                               fsync="never") as engine:
            mutate_a_bit(engine, rng, products=5, weights=3)
            before = engine.reverse_kranks(q, 3).entries
            lsn = engine.last_lsn
        with WalWriter(wal_path(tmp_path / "db"), fsync="never",
                       next_lsn=lsn + 1) as wal:
            wal.append("rebuild", {})
        with DurableDynamicRRQ(tmp_path / "db", fsync="never") as recovered:
            assert recovered.last_lsn == lsn + 1
            assert recovered.reverse_kranks(q, 3).entries == before
            assert recovered.apply_replicated(
                WalRecord(lsn + 2, "rebuild", {}))
            assert recovered.last_lsn == lsn + 2
            assert recovered.reverse_kranks(q, 3).entries == before


class TestValidation:
    def test_rejected_mutation_leaves_no_wal_record(self, tmp_path):
        engine = DurableDynamicRRQ(tmp_path / "db", dim=3, fsync="never")
        before = engine.last_lsn
        with pytest.raises(DataValidationError, match="sums to"):
            engine.insert_weight([0.9, 0.9, 0.9])
        with pytest.raises(DimensionMismatchError):
            engine.insert_product([0.1, 0.2])  # wrong dimensionality
        assert engine.last_lsn == before
        records, _, _ = read_wal(wal_path(tmp_path / "db"))
        assert records == []
        engine.close()

    def test_delete_out_of_range_is_structured(self, tmp_path):
        engine = DurableDynamicRRQ(tmp_path / "db", dim=3, fsync="never")
        engine.insert_product([0.1, 0.2, 0.3])
        with pytest.raises(InvalidParameterError, match="out of range"):
            engine.delete_product(5)
        with pytest.raises(InvalidParameterError, match="out of range"):
            engine.delete_weight(0)
        assert engine.last_lsn == 1  # only the insert was acknowledged
        engine.close()

    def test_delete_tombstoned_is_structured(self, tmp_path):
        engine = DurableDynamicRRQ(tmp_path / "db", dim=3, fsync="never")
        engine.insert_product([0.1, 0.2, 0.3])
        engine.insert_product([0.3, 0.2, 0.1])
        engine.delete_product(0)
        with pytest.raises(InvalidParameterError, match="deleted"):
            engine.delete_product(0)
        engine.close()


class TestDynamicSatellites:
    """The raw store's structured errors and compact maps."""

    def test_kill_distinguishes_out_of_range_from_tombstoned(self):
        engine = SegmentStore(dim=2)
        engine.insert_product(np.array([0.1, 0.2]))
        with pytest.raises(InvalidParameterError, match="out of range"):
            engine.remove_product(3)
        engine.remove_product(0)
        with pytest.raises(InvalidParameterError,
                           match="already deleted"):
            engine.remove_product(0)

    def test_compact_returns_old_to_new_maps(self, tmp_path, rng):
        engine = DurableDynamicRRQ(tmp_path / "db", dim=3, fsync="never")
        for _ in range(6):
            engine.insert_product(rng.random(3) * 0.9)
        w = rng.random(3) + 1e-3
        engine.insert_weight(w / w.sum())
        engine.delete_product(1)
        engine.delete_product(4)
        before = engine.last_lsn
        p_map, w_map, lsn = engine.compact()
        # Ids are stable: a live id maps to itself, a dead one to -1.
        assert list(p_map) == [0, -1, 2, 3, -1, 5]
        assert list(w_map) == [0]
        assert lsn == engine.last_lsn == before  # physical: nothing logged
        assert engine.products.live_count == 4
        assert engine.fragmentation() == 0.0
        engine.close()

    def test_live_view_has_no_static_values(self, tmp_path):
        """No ``.values``: the rows move under mutation, so the serving
        stack reads them through a pinned snapshot."""
        engine = DurableDynamicRRQ(tmp_path / "db", dim=2, fsync="never")
        engine.insert_product([0.1, 0.2])
        assert not hasattr(engine.products, "values")
        assert engine.products.dim == 2
        assert engine.products.size == 1
        engine.close()


class TestBootstrap:
    def test_bootstrap_matches_naive_and_feeds_standbys(self, tmp_path):
        P = uniform_products(50, 3, value_range=1.0, seed=11)
        W = uniform_weights(20, 3, seed=12)
        naive = NaiveRRQ(P, W)
        engine = DurableDynamicRRQ.bootstrap(tmp_path / "db", P, W,
                                             fsync="never")
        q = P[7]
        assert engine.reverse_topk(q, 5).weights == \
            naive.reverse_topk(q, 5).weights
        # The initial state was logged as one reset record, so a standby
        # tailing from LSN 0 receives everything.
        feed = engine.replication_feed(0)
        standby = DurableDynamicRRQ(tmp_path / "standby", dim=3,
                                    fsync="never")
        for raw in feed["records"]:
            standby.apply_replicated(WalRecord(raw["lsn"], raw["op"],
                                               raw["data"]))
        assert standby.last_lsn == engine.last_lsn
        assert standby.reverse_topk(q, 5).weights == \
            naive.reverse_topk(q, 5).weights
        engine.close()
        standby.close()

    def test_bootstrap_of_existing_directory_recovers(self, tmp_path):
        P = uniform_products(30, 3, value_range=1.0, seed=21)
        W = uniform_weights(10, 3, seed=22)
        first = DurableDynamicRRQ.bootstrap(tmp_path / "db", P, W,
                                            fsync="never")
        idx, _ = first.insert_product(np.array([0.5, 0.5, 0.5]))
        acked = first.last_lsn
        first.close()
        again = DurableDynamicRRQ.bootstrap(tmp_path / "db", P, W,
                                            fsync="never")
        assert again.last_lsn == acked  # recovery won; no re-seed
        assert again.num_products == P.size + 1
        again.close()


class TestStats:
    def test_durability_stats_shape(self, tmp_path, rng):
        with DurableDynamicRRQ(tmp_path / "db", dim=3,
                               fsync="always") as engine:
            mutate_a_bit(engine, rng, products=4, weights=2)
            engine.snapshot()
            stats = engine.durability_stats()
        assert stats["wal"]["fsync_policy"] == "always"
        assert stats["wal"]["appends"] == stats["last_lsn"]
        assert stats["wal"]["fsyncs"] >= stats["wal"]["appends"]
        assert stats["snapshots_taken"] == 1
        assert stats["snapshot_lsn"] == stats["last_lsn"]
        assert stats["replayed_records"] == 0
        assert stats["replay_time_s"] >= 0.0
