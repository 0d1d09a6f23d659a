"""Unit tests for the MVCC segment store (``repro.storage``).

Contract under test: every query answer — the store's own reads or a
directly built kernel — is **byte-identical** to ``NaiveRRQ``
over the same live rows, across seals, compactions, and concurrent
mutations; pinned snapshots are immune to everything that happens after
the pin; retired segment files survive exactly as long as a pin holds
them.
"""

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.errors import InvalidParameterError
from repro.service.server import canonical_json, encode_result
from repro.storage import SegmentStore, SnapshotKernel

DIM = 3


def _rng(seed=4201):
    return np.random.default_rng(seed)


def fill(store, rng, n_products=24, n_weights=16):
    """Insert a deterministic population; returns (product gids, weight gids)."""
    pids = [store.insert_product(rng.uniform(0, 0.95, DIM))
            for _ in range(n_products)]
    wids = []
    for _ in range(n_weights):
        w = rng.uniform(0.05, 1.0, DIM)
        wids.append(store.insert_weight(w / w.sum()))
    return pids, wids


def naive_reference(store):
    """(NaiveRRQ over the live rows, local->global weight id map)."""
    with store.pin() as snap:
        p_rows, _ = snap.live_products()
        w_rows, w_gids = snap.live_weights()
    naive = NaiveRRQ(ProductSet(p_rows, value_range=store.value_range),
                     WeightSet(w_rows))
    return naive, w_gids


def assert_parity(backend, store, rng, k=5, queries=4):
    """``backend`` answers == gid-remapped NaiveRRQ answers, byte-for-byte."""
    naive, w_gids = naive_reference(store)
    for _ in range(queries):
        q = rng.uniform(0, 0.95, DIM)
        expected_rtk = frozenset(int(w_gids[j])
                                 for j in naive.reverse_topk(q, k).weights)
        assert backend.reverse_topk(q, k).weights == expected_rtk
        naive_rkr = naive.reverse_kranks(q, k)
        expected = tuple((rank, int(w_gids[j]))
                         for rank, j in naive_rkr.entries)
        got = backend.reverse_kranks(q, k)
        assert got.entries == expected
        # And the wire encodings agree byte-for-byte.
        assert (canonical_json(encode_result(got, "rkr"))
                == canonical_json(encode_result(
                    type(got)(entries=expected, k=k, counter=got.counter),
                    "rkr")))


class TestMemoryStore:
    def test_insert_then_query_matches_naive(self):
        rng = _rng()
        store = SegmentStore(DIM, partitions=8)
        fill(store, rng)
        assert_parity(store, store, rng)

    def test_seal_boundaries_do_not_change_answers(self, tmp_path):
        rng = _rng(77)
        store = SegmentStore(DIM, partitions=8, directory=tmp_path)
        for round_ in range(4):
            fill(store, rng, n_products=10, n_weights=6)
            assert store.seal(force=True) is not None
        assert store.storage_stats()["segments"] == 4
        assert_parity(store, store, rng)

    def test_deletes_span_segments(self, tmp_path):
        rng = _rng(78)
        store = SegmentStore(DIM, partitions=8, directory=tmp_path)
        pids, wids = fill(store, rng)
        store.seal(force=True)
        # Kill sealed rows (manifest dead set) and delta rows alike.
        store.remove_product(pids[0])
        store.remove_weight(wids[1])
        fill(store, rng, n_products=6, n_weights=4)
        store.remove_product(store.insert_product(rng.uniform(0, 0.9, DIM)))
        assert_parity(store, store, rng)

    def test_modify_replaces_and_tombstones(self):
        rng = _rng(79)
        store = SegmentStore(DIM, partitions=8)
        pids, wids = fill(store, rng, n_products=8, n_weights=5)
        new_pid = store.modify_product(pids[2], rng.uniform(0, 0.9, DIM))
        assert new_pid not in pids
        w = rng.uniform(0.1, 1.0, DIM)
        new_wid = store.modify_weight(wids[0], w, renormalize=True)
        assert new_wid not in wids
        with pytest.raises(InvalidParameterError):
            store.products[pids[2]]
        with pytest.raises(InvalidParameterError):
            store.weights[wids[0]]
        assert_parity(store, store, rng)

    def test_validation_errors(self):
        rng = _rng(80)
        store = SegmentStore(DIM, partitions=8)
        fill(store, rng, n_products=4, n_weights=3)
        with pytest.raises(InvalidParameterError):
            store.remove_product(999)
        store.remove_product(0)
        with pytest.raises(InvalidParameterError):
            store.remove_product(0)  # double delete
        with pytest.raises(InvalidParameterError):
            store.reverse_topk(np.zeros(DIM), 0)


class TestSnapshotIsolation:
    def test_pinned_reader_survives_mutations_and_compaction(self, tmp_path):
        """ISSUE acceptance: pin, 100+ mutations + full compaction, then
        the pinned answers still match NaiveRRQ on the *pinned* state."""
        rng = _rng(90)
        store = SegmentStore(DIM, partitions=8, directory=tmp_path)
        fill(store, rng, n_products=30, n_weights=20)
        store.seal(force=True)

        snap = store.pin()
        p_rows, _ = snap.live_products()
        w_rows, w_gids = snap.live_weights()
        pinned_naive = NaiveRRQ(
            ProductSet(p_rows.copy(), value_range=store.value_range),
            WeightSet(w_rows.copy()))
        queries = [rng.uniform(0, 0.95, DIM) for _ in range(5)]
        before = [canonical_json(encode_result(snap.reverse_kranks(q, 5),
                                               "rkr"))
                  for q in queries]

        # 100+ mutations, several seals, then a full compaction.
        mutations = 0
        for _ in range(110):
            roll = rng.random()
            if roll < 0.5:
                store.insert_product(rng.uniform(0, 0.9, DIM))
            elif roll < 0.75:
                w = rng.uniform(0.1, 1.0, DIM)
                store.insert_weight(w / w.sum())
            else:
                live = store.products.live_indices()
                store.remove_product(int(live[rng.integers(len(live))]))
            mutations += 1
            if mutations % 25 == 0:
                store.seal(force=True)
        store.seal(force=True)
        store.compact()
        assert store.storage_stats()["segments"] == 1

        for q, expected in zip(queries, before):
            got = canonical_json(encode_result(snap.reverse_kranks(q, 5),
                                               "rkr"))
            assert got == expected
            ref = frozenset(int(w_gids[j])
                            for j in pinned_naive.reverse_topk(q, 5).weights)
            assert snap.reverse_topk(q, 5).weights == ref
        snap.release()

    def test_retired_segment_files_live_until_release(self, tmp_path):
        rng = _rng(91)
        store = SegmentStore(DIM, partitions=8, directory=tmp_path)
        for _ in range(3):
            fill(store, rng, n_products=8, n_weights=5)
            store.seal(force=True)
        old_dirs = [seg.directory for seg in store._segments]
        assert all(d is not None and d.is_dir() for d in old_dirs)

        snap = store.pin()
        store.compact()
        # The pin holds every pre-compaction segment directory alive.
        assert all(d.is_dir() for d in old_dirs)
        assert store.storage_stats()["retired_pending"] == len(old_dirs)
        snap.release()
        assert not any(d.exists() for d in old_dirs)
        assert store.storage_stats()["retired_pending"] == 0
        assert_parity(store, store, rng)

    def test_compaction_drops_dead_rows_and_keeps_answers(self, tmp_path):
        rng = _rng(92)
        store = SegmentStore(DIM, partitions=8, directory=tmp_path)
        pids, wids = fill(store, rng)
        store.seal(force=True)
        for pid in pids[:5]:
            store.remove_product(pid)
        store.remove_weight(wids[0])
        store.seal(force=True)
        p_map, w_map = store.compact()
        assert all(p_map[pid] == -1 for pid in pids[:5])
        assert w_map[wids[0]] == -1
        assert all(p_map[pid] == pid for pid in pids[5:])
        stats = store.storage_stats()
        assert stats["dead_products"] == 0 and stats["dead_weights"] == 0
        assert_parity(store, store, rng)


class TestPersistence:
    def test_round_trip_from_directory(self, tmp_path):
        rng = _rng(100)
        store = SegmentStore(DIM, partitions=8, directory=tmp_path)
        pids, _ = fill(store, rng)
        store.remove_product(pids[3])
        store.seal(force=True)
        store.checkpoint(store.applied_lsn)
        queries = [rng.uniform(0, 0.95, DIM) for _ in range(3)]
        expected = [canonical_json(encode_result(store.reverse_kranks(q, 4),
                                                 "rkr"))
                    for q in queries]
        store.close()

        reopened = SegmentStore.from_directory(tmp_path)
        try:
            assert reopened.num_products == store.num_products
            assert reopened.num_weights == store.num_weights
            for q, ref in zip(queries, expected):
                got = canonical_json(
                    encode_result(reopened.reverse_kranks(q, 4), "rkr"))
                assert got == ref
        finally:
            reopened.close()

    def test_state_arrays_round_trip(self):
        rng = _rng(101)
        store = SegmentStore(DIM, partitions=8)
        pids, _ = fill(store, rng, n_products=10, n_weights=6)
        store.remove_product(pids[1])
        state = store.state_arrays()

        clone = SegmentStore(DIM, partitions=8)
        clone.load_state_arrays(state["products"], state["p_alive"],
                                state["weights"], state["w_alive"])
        assert clone.num_products == store.num_products
        assert clone.num_weights == store.num_weights
        q = rng.uniform(0, 0.9, DIM)
        assert (clone.reverse_topk(q, 3).weights
                == store.reverse_topk(q, 3).weights)

    def test_storage_stats_shape(self, tmp_path):
        store = SegmentStore(DIM, partitions=8, directory=tmp_path)
        fill(store, _rng(102), n_products=6, n_weights=4)
        stats = store.storage_stats()
        for key in ("backend", "segments", "delta_rows", "live_products",
                    "live_weights", "live_fraction", "dead_fraction",
                    "generation", "manifest_generation", "manifest_lsn",
                    "pinned_snapshots", "retired_pending", "seals_total",
                    "compactions_total", "per_segment"):
            assert key in stats, key
        assert stats["backend"] == "segmented"

    def test_storage_stats_count_the_dead_where_they_lie(self, tmp_path):
        """Tombstones over two segments and the delta: the per-segment
        counts, the totals and the fractions all come from one pass over
        each dead-set union and agree with the store's own accessors."""
        rng = _rng(103)
        store = SegmentStore(DIM, partitions=8, directory=tmp_path)
        first_p, first_w = fill(store, rng, n_products=8, n_weights=5)
        store.seal(force=True)
        second_p, _ = fill(store, rng, n_products=6, n_weights=4)
        store.seal(force=True)
        store.remove_product(first_p[0])       # folded into the manifest
        store.seal(force=True)
        store.remove_product(first_p[1])       # still in the delta's set
        store.remove_product(second_p[2])
        store.remove_weight(first_w[3])
        store.remove_product(store.insert_product(rng.uniform(0, 0.9, DIM)))
        stats = store.storage_stats()
        assert [(s["dead_products"], s["dead_weights"])
                for s in stats["per_segment"]] == [(2, 1), (1, 0)]
        seg = store._segments[0]
        assert stats["per_segment"][0]["bytes"] == (seg.p_rows.nbytes
                                                    + seg.w_rows.nbytes)
        assert "w_range" not in stats["per_segment"][0]
        assert (stats["dead_products"], stats["dead_weights"]) == (4, 1)
        assert stats["live_products"] == store.num_products == 14 - 3
        assert stats["live_weights"] == store.num_weights == 9 - 1
        assert stats["dead_fraction"] == pytest.approx(store.fragmentation())
        assert stats["live_fraction"] == pytest.approx(19 / 24)


class TestDenseReaders:
    def test_snapshot_kernel_matches_merge_path(self, tmp_path):
        rng = _rng(110)
        store = SegmentStore(DIM, partitions=8, directory=tmp_path)
        for _ in range(3):
            fill(store, rng, n_products=12, n_weights=8)
            store.seal(force=True)
        fill(store, rng, n_products=5, n_weights=3)  # live delta too
        with store.pin() as snap:
            kernel = SnapshotKernel.build(snap)
            assert kernel is not None and kernel.matches(snap)
            assert_parity(kernel, store, rng)
        store.insert_product(rng.uniform(0, 0.9, DIM))
        with store.pin() as snap2:
            assert not kernel.matches(snap2)


class TestKernelMemo:
    """One memo, one builder: the store holds the kernel of the last
    (generation, variant) a read saw and builds each exactly once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        real = SnapshotKernel.build.__func__
        seen = []

        def counting(cls, snap, **kwargs):
            seen.append(snap.generation)
            return real(cls, snap, **kwargs)

        monkeypatch.setattr(SnapshotKernel, "build", classmethod(counting))
        return seen

    def test_concurrent_reads_of_one_generation_share_one_build(
            self, builds):
        import sys
        import threading

        rng = _rng(131)
        store = SegmentStore(DIM, partitions=8)
        fill(store, rng, n_products=40, n_weights=30)
        store.seal(force=True)
        fill(store, rng, n_products=5, n_weights=5)
        queries = [rng.uniform(0, 0.95, DIM) for _ in range(8)]
        answers = [None] * 8
        barrier = threading.Barrier(8)

        def read(i):
            barrier.wait(timeout=10)
            answers[i] = [store.reverse_kranks(queries[i], 5).entries
                          for _ in range(5)]

        threads = [threading.Thread(target=read, args=(i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1
        naive, w_gids = naive_reference(store)
        for q, got in zip(queries, answers):
            want = tuple((rank, int(w_gids[j]))
                         for rank, j in naive.reverse_kranks(q, 5).entries)
            assert got == [want] * 5

        store.insert_weight(np.full(DIM, 1.0 / DIM))
        for q in queries[:3]:  # a write between reads: one more build
            store.reverse_kranks(q, 5)
        assert len(builds) == 2 and builds[1] != builds[0]
        assert_parity(store, store, rng)
        assert len(builds) == 2


class TestDurableBackendResolution:
    def test_fresh_directory_is_segmented(self, tmp_path):
        import json

        from repro.durability import DurableDynamicRRQ

        engine = DurableDynamicRRQ(tmp_path / "d", dim=DIM)
        try:
            assert engine.storage_stats()["backend"] == "segmented"
            assert (tmp_path / "d" / "segments" / "CURRENT").exists()
            params = json.loads((tmp_path / "d" / "engine.json").read_text())
            assert params["backend"] == "segmented"
        finally:
            engine.close()

    def test_segmented_persists_and_conflicts_refuse(self, tmp_path):
        from repro.durability import DurableDynamicRRQ

        rng = _rng(120)
        path = tmp_path / "d"
        engine = DurableDynamicRRQ(path, dim=DIM, backend="segmented",
                                   auto_compact=False)
        engine.insert_product(rng.uniform(0, 0.9, DIM))
        engine.close()

        reopened = DurableDynamicRRQ(path)
        try:
            assert reopened.num_products == 1
        finally:
            reopened.close()

        for gone in ("flat", "auto"):
            with pytest.raises(InvalidParameterError, match="backend"):
                DurableDynamicRRQ(path, backend=gone)
