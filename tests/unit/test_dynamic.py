"""Unit tests for the dynamic (updatable) engine: the memory-only
``SegmentStore`` — inserts, tombstones, modifies and compaction must
never desynchronize it from an exact scan over the live rows."""

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.data.synthetic import uniform_products, uniform_weights
from repro.errors import DataValidationError, InvalidParameterError
from repro.storage import MutableDelta, SegmentStore
from repro.storage.delta import MIN_CAPACITY


def oracle_for_live(engine):
    """A NaiveRRQ over the engine's live rows, with index translation."""
    products = ProductSet(engine.products.live_values(),
                          value_range=engine.value_range)
    weights = WeightSet(engine.weights.live_values())
    return NaiveRRQ(products, weights), engine.weights.live_indices()


def assert_agrees(engine, q, k):
    naive, w_map = oracle_for_live(engine)
    expected_rtk = frozenset(int(w_map[j]) for j in naive.reverse_topk(q, k).weights)
    got_rtk = engine.reverse_topk(q, k).weights
    assert got_rtk == expected_rtk
    expected_rkr = tuple(
        sorted((rank, int(w_map[j]))
               for rank, j in naive.reverse_kranks(q, k).entries)
    )
    got_rkr = engine.reverse_kranks(q, k).entries
    assert got_rkr == expected_rkr


@pytest.fixture
def seeded_engine():
    P = uniform_products(120, 4, value_range=1.0, seed=501)
    W = uniform_weights(100, 4, seed=502)
    return SegmentStore.from_datasets(P, W, partitions=16), P, W


class TestConstruction:
    def test_from_datasets_counts(self, seeded_engine):
        engine, P, W = seeded_engine
        assert engine.num_products == 120
        assert engine.num_weights == 100
        assert engine.fragmentation() == 0.0
        # One sealed segment, ids = the containers' row numbers.
        stats = engine.storage_stats()
        assert stats["segments"] == 1 and stats["delta_rows"] == 0
        np.testing.assert_array_equal(engine.products[7], P.values[7])
        np.testing.assert_array_equal(engine.weights[99], W.values[99])
        assert_agrees(engine, P.values[0], 8)

    def test_empty_engine_rejects_queries(self):
        engine = SegmentStore(dim=3)
        with pytest.raises(InvalidParameterError):
            engine.reverse_topk(np.zeros(3), 5)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SegmentStore(dim=0)
        with pytest.raises(InvalidParameterError):
            SegmentStore(dim=3, value_range=-1)


class TestInsert:
    def test_matches_oracle_after_inserts(self, seeded_engine):
        engine, P, W = seeded_engine
        rng = np.random.default_rng(503)
        for _ in range(30):
            engine.insert_product(rng.random(4) * 0.999)
        for _ in range(20):
            engine.insert_weight(rng.dirichlet(np.ones(4)))
        assert_agrees(engine, P.values[0], 8)

    def test_growth_beyond_initial_capacity(self):
        engine = SegmentStore(dim=2, value_range=1.0, partitions=8)
        rng = np.random.default_rng(504)
        for _ in range(100):  # > MIN_CAPACITY, forces several doublings
            engine.insert_product(rng.random(2) * 0.99)
        for _ in range(60):
            engine.insert_weight(rng.dirichlet(np.ones(2)))
        assert engine.num_products == 100
        assert_agrees(engine, engine.products[0], 5)

    def test_insert_validation(self, seeded_engine):
        engine, _, _ = seeded_engine
        with pytest.raises(DataValidationError):
            engine.insert_product(np.array([2.0, 0.1, 0.1, 0.1]))  # >= range
        with pytest.raises(DataValidationError):
            engine.insert_weight(np.array([0.5, 0.1, 0.1, 0.1]))  # bad sum
        assert engine.insert_weight(np.array([2.0, 1.0, 0.5, 0.5]),
                                    renormalize=True) >= 0


class TestRemove:
    def test_matches_oracle_after_removals(self, seeded_engine):
        engine, P, _ = seeded_engine
        for idx in (0, 5, 7, 119):
            engine.remove_product(idx)
        for idx in (1, 50, 99):
            engine.remove_weight(idx)
        assert engine.num_products == 116
        assert engine.num_weights == 97
        assert_agrees(engine, P.values[3], 6)

    def test_remove_then_query_excludes_row(self, seeded_engine):
        engine, P, _ = seeded_engine
        q = P.values[10]
        before = engine.reverse_kranks(q, 5)
        victim = before.entries[0][1]
        engine.remove_weight(victim)
        after = engine.reverse_kranks(q, 5)
        assert victim not in after.weights

    def test_double_remove_rejected(self, seeded_engine):
        engine, _, _ = seeded_engine
        engine.remove_product(3)
        with pytest.raises(InvalidParameterError):
            engine.remove_product(3)

    def test_interleaved_mutations(self, seeded_engine):
        engine, P, _ = seeded_engine
        rng = np.random.default_rng(506)
        for step in range(25):
            action = step % 4
            if action == 0:
                engine.insert_product(rng.random(4) * 0.99)
            elif action == 1:
                engine.insert_weight(rng.dirichlet(np.ones(4)))
            elif action == 2:
                live = engine.products.live_indices()
                engine.remove_product(int(rng.choice(live)))
            else:
                live = engine.weights.live_indices()
                engine.remove_weight(int(rng.choice(live)))
            if step == 12:
                engine.seal(force=True)  # mutations span a seal boundary
        assert_agrees(engine, P.values[20], 7)


class TestCompact:
    def test_compact_preserves_answers(self, seeded_engine):
        engine, P, _ = seeded_engine
        for idx in range(0, 40, 3):
            engine.remove_product(idx)
        for idx in range(0, 30, 4):
            engine.remove_weight(idx)
        q = P.values[50]
        before_rkr = engine.reverse_kranks(q, 6)
        frag = engine.fragmentation()
        assert frag > 0
        engine.compact()
        assert engine.fragmentation() == 0.0
        # Compaction is physical: ids, hence answers, do not move.
        assert engine.reverse_kranks(q, 6).entries == before_rkr.entries
        assert_agrees(engine, q, 6)

    def test_compact_maps(self, seeded_engine):
        engine, _, _ = seeded_engine
        engine.remove_product(0)
        p_map, w_map = engine.compact()
        assert p_map[0] == -1
        assert p_map[1] == 1  # ids are stable: nothing shifts down
        assert np.all(w_map == np.arange(len(w_map)))


class TestModify:
    def test_modify_product_tombstones_and_reinserts(self, seeded_engine):
        engine, P, _ = seeded_engine
        replacement = np.clip(P.values[1] * 0.5, 0, 0.9)
        new_idx = engine.modify_product(3, replacement)
        assert new_idx == engine.products.size - 1
        with pytest.raises(InvalidParameterError):
            engine.products[3]
        np.testing.assert_array_equal(engine.products[new_idx], replacement)
        assert_agrees(engine, P.values[10], 5)

    def test_modify_weight_renormalizes(self, seeded_engine):
        engine, P, _ = seeded_engine
        raw = np.ones(4) * 2.5
        new_idx = engine.modify_weight(2, raw, renormalize=True)
        np.testing.assert_allclose(engine.weights[new_idx], np.full(4, 0.25))
        with pytest.raises(InvalidParameterError):
            engine.weights[2]
        assert_agrees(engine, P.values[11], 5)

    def test_modify_validates_before_mutating(self, seeded_engine):
        engine, _, _ = seeded_engine
        with pytest.raises(DataValidationError):
            engine.modify_product(3, np.full(4, 2.0))  # out of range
        engine.products[3]  # still live: validation ran first
        with pytest.raises(DataValidationError):
            engine.modify_weight(2, np.full(4, 0.5))  # sums to 2.0
        engine.weights[2]


class TestLiveViewConcurrency:
    def test_read_during_append_is_coherent(self):
        """A reader racing appends (including delta buffer growth) must
        never pair a new count with an old buffer, tear a half-written
        row, or crash.  Rows are constant-valued so any torn or
        misaligned read shows up as a non-constant row."""
        import threading

        dim = 4
        total = MIN_CAPACITY * 64  # force several copy-on-grow cycles
        store = SegmentStore(dim=dim)
        view = store.products
        errors = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                try:
                    rows = view.live_values()
                    if rows.size:
                        # Every published row is constant-valued.
                        if not np.all(rows == rows[:, :1]):
                            errors.append("torn row observed")
                            return
                    idx = view.size - 1
                    if idx >= 0:
                        row = view[idx]
                        if not np.all(row == row[0]):
                            errors.append(f"torn row at {idx}")
                            return
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(f"{type(exc).__name__}: {exc}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            for i in range(total):
                store.insert_product(np.full(dim, (i % 97) / 97.0))
        finally:
            done.set()
            for t in threads:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert view.live_count == total

    def test_old_views_frozen_after_growth(self):
        delta = MutableDelta(2)
        for i in range(MIN_CAPACITY):
            delta.append_product(np.full(2, float(i)), i)
        view = delta.freeze()
        frozen = view["p_rows"].copy()
        for i in range(MIN_CAPACITY * 3):  # grows at least twice
            delta.append_product(np.full(2, -1.0), MIN_CAPACITY + i)
        np.testing.assert_array_equal(view["p_rows"], frozen)
        assert view["p_ids"].shape[0] == MIN_CAPACITY
