"""Reopening a durable directory that an earlier process — or an earlier
format — left behind.

Two things a restart must not do: answer from what the *previous*
process derived (the kernel is in-RAM state of one process; with
``kernel_cache_dir`` set it used to be persisted under a generation
number that restarts at 0), and refuse or misread a directory written
while segments still carried a private Grid-index.  ``segmented_tail``
under ``tests/fixtures/`` is such a directory (see the README there):
``chunk`` in ``engine.json`` and the manifest ``params``; ``partitions``
/ ``chunk`` / ``w_range`` in every ``segment.json``.
"""

import json

import numpy as np

from repro.algorithms.naive import NaiveRRQ
from repro.data.datasets import ProductSet, WeightSet
from repro.data.synthetic import uniform_products, uniform_weights
from repro.durability import DurableDynamicRRQ
from repro.durability.wal import WalRecord
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import canonical_json, encode_result
from repro.storage import read_current_manifest

from .test_migrate import assert_matches, golden


def test_restart_with_a_kernel_cache_serves_this_lifes_rows(tmp_path):
    """Life A: open, insert a weight, read, snapshot, close.  Life B:
    open, insert a *different* weight, read.  Both reads happen at
    in-memory generation 1; life B's answer must hold life B's weight."""
    P = uniform_products(40, 3, seed=941)
    W = uniform_weights(12, 3, seed=942)
    db, cache = tmp_path / "db", str(tmp_path / "cache")
    DurableDynamicRRQ.bootstrap(db, P, W, fsync="never").close()
    q = P.values[5]

    def live(inserted):
        durable = DurableDynamicRRQ(db, fsync="never", auto_compact=False)
        scheduler = MicroBatchScheduler(durable, batch_window_s=0.0,
                                        kernel_cache_dir=cache)
        try:
            durable.insert_weight(inserted)
            served = canonical_json(encode_result(
                scheduler.answer(q, "rtk", 40), "rtk"))
            fallbacks = scheduler.metrics.snapshot()["fallbacks"]["total"]
            durable.snapshot()
        finally:
            scheduler.close()
            durable.close()
        return served, fallbacks

    live([0.7, 0.2, 0.1])
    served, fallbacks = live([0.1, 0.2, 0.7])

    rows = np.vstack([W.values, [0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    naive = NaiveRRQ(ProductSet(P.values, value_range=P.value_range),
                     WeightSet(rows))
    want = naive.reverse_topk(q, 40)  # k = |P|: every weight qualifies
    assert W.size + 1 in want.weights
    assert served == canonical_json(encode_result(want, "rtk"))
    assert fallbacks == 0


class TestGoldenSegmentedDirectory:
    def test_opens_answers_and_drops_chunk_on_the_next_commit(
            self, tmp_path):
        db, expected, model = golden("segmented_tail", tmp_path)
        seg_root = db / "segments"
        assert json.loads((db / "engine.json").read_text())["chunk"] == 64
        old = {path.parent.name for path in seg_root.glob("seg-*/segment.json")}
        assert old and all(
            {"partitions", "chunk", "w_range"}
            <= set(json.loads((seg_root / name / "segment.json").read_text()))
            for name in old)

        with DurableDynamicRRQ(db, fsync="never",
                               auto_compact=False) as engine:
            assert engine.replayed_records == 6  # the tail past the barrier
            assert engine.engine.partitions == 8
            assert_matches(engine, expected, model)
            assert engine.snapshot() == expected["last_lsn"]
            assert_matches(engine, expected, model)

        assert "chunk" not in json.loads((db / "engine.json").read_text())
        manifest = read_current_manifest(seg_root)
        assert "chunk" not in manifest["params"]
        assert manifest["params"]["partitions"] == 8
        (new,) = set(manifest["segments"]) - old
        assert set(json.loads((seg_root / new / "segment.json").read_text())) \
            == {"format", "name", "dim", "n_products", "n_weights"}

        with DurableDynamicRRQ(db, fsync="never") as again:
            assert again.replayed_records == 0
            assert_matches(again, expected, model)

    def test_reset_record_applies_with_or_without_chunk(self, tmp_path):
        """A primary of either vintage may feed this standby: ``chunk``
        in a reset's params neither fails nor reads as "different
        parameters" (which would throw the store away)."""
        with DurableDynamicRRQ(tmp_path / "db", dim=3, partitions=8,
                               fsync="never") as engine:
            store = engine.engine
            params = {"dim": 3, "value_range": 1.0, "partitions": 8}
            for lsn, extra in ((5, {"chunk": 256}), (9, {})):
                weights = [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]
                products = [[0.1 * lsn / 10, 0.2, 0.3], [0.4, 0.5, 0.6]]
                assert engine.apply_replicated(WalRecord(lsn, "reset", {
                    "params": dict(params, **extra),
                    "products": products, "p_alive": [True, True],
                    "weights": weights, "w_alive": [True, False],
                }))
                assert engine.engine is store
                assert engine.last_lsn == lsn
                assert engine.num_products == 2 and engine.num_weights == 1
                np.testing.assert_array_equal(engine.products[0],
                                              products[0])
            assert "chunk" not in engine.params
