"""Reopening a durable directory that an earlier process — or an earlier
format — left behind.

Three things a restart must not do: answer from what the *previous*
process derived (the kernel is in-RAM state of one process; a static
kernel cache once persisted it under a generation number that restarts
at 0), refuse or misread a directory written while segments still
carried a private Grid-index, or misread one in the flat format.
``segmented_tail`` under ``tests/fixtures/`` is the second kind (see the
README there): ``chunk`` in ``engine.json`` and the manifest ``params``;
``partitions`` / ``chunk`` / ``w_range`` in every ``segment.json``.  A
flat directory (``snapshot-*/`` behind a root ``CURRENT``) is refused.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.cli import main
from repro.data.datasets import ProductSet, WeightSet
from repro.data.synthetic import uniform_products, uniform_weights
from repro.durability import DurableDynamicRRQ
from repro.durability.wal import WalRecord
from repro.errors import DataValidationError, InvalidParameterError
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import canonical_json, encode_result
from repro.storage import read_current_manifest

from ..model import LiveModel

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def golden(name, tmp_path):
    """A scratch copy of one golden directory plus its expected state."""
    db = tmp_path / "db"
    shutil.copytree(FIXTURES / name, db)
    expected = json.loads((db / "expected.json").read_text())
    (db / "expected.json").unlink()
    model = LiveModel()
    for side, size in (("products", expected["next_pid"]),
                       ("weights", expected["next_wid"])):
        rows = expected[side]
        setattr(model, side, [
            np.array(rows[str(i)]) if str(i) in rows else None
            for i in range(size)])
    return db, expected, model


def assert_matches(engine, expected, model):
    """Answers == NaiveRRQ over the expected rows."""
    assert engine.last_lsn == expected["last_lsn"]
    assert engine.products.size == expected["next_pid"]
    assert engine.weights.size == expected["next_wid"]
    assert list(engine.products.live_indices()) == model.live_products()
    assert list(engine.weights.live_indices()) == model.live_weights()
    rng = np.random.default_rng(5)
    for _ in range(4):
        q = rng.random(3) * 0.9
        rtk, rkr = model.answers(q, 3)
        assert engine.reverse_topk(q, 3).weights == rtk
        assert engine.reverse_kranks(q, 3).entries == rkr


def test_restart_with_a_kernel_cache_serves_this_lifes_rows(tmp_path):
    """Life A: open, insert a weight, read, snapshot, close.  Life B:
    open, insert a *different* weight, read.  Both reads happen at
    in-memory generation 1; life B's answer must hold life B's weight."""
    P = uniform_products(40, 3, seed=941)
    W = uniform_weights(12, 3, seed=942)
    db = tmp_path / "db"
    DurableDynamicRRQ.bootstrap(db, P, W, fsync="never").close()
    q = P.values[5]

    def live(inserted):
        durable = DurableDynamicRRQ(db, fsync="never", auto_compact=False)
        scheduler = MicroBatchScheduler(durable, batch_window_s=0.0)
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


class TestFlatDirectoryIsRefused:
    """The flat format (``snapshot-<lsn>/`` behind a root ``CURRENT``) is
    not read any more: opening one names the last commit that reads it
    and changes nothing on disk."""

    @pytest.mark.parametrize("layout", ["backend_key", "snapshot", "wal"])
    def test_refused_with_the_commit_that_reads_it(self, tmp_path, layout):
        db = tmp_path / "db"
        db.mkdir()
        params = {"dim": 3, "value_range": 1.0, "partitions": 32}
        if layout == "backend_key":
            params["backend"] = "flat"
        elif layout == "snapshot":
            (db / "CURRENT").write_text('{"snapshot": "snapshot-16"}')
            (db / "snapshot-000000000016").mkdir()
        (db / "wal.log").write_bytes(b"")
        (db / "engine.json").write_text(json.dumps(params))
        before = sorted(p.name for p in db.iterdir())
        for _ in range(2):  # refusing changes nothing: it refuses again
            with pytest.raises(DataValidationError, match="b548621"):
                DurableDynamicRRQ(db, fsync="never")
        assert sorted(p.name for p in db.iterdir()) == before

    def test_flat_backend_is_no_longer_accepted(self, tmp_path, capsys):
        with pytest.raises(InvalidParameterError, match="flat"):
            DurableDynamicRRQ(tmp_path / "db", dim=3, backend="flat")
        assert not (tmp_path / "db").exists()
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(tmp_path / "db"), "--durable", "--dim", "3",
                  "--storage", "flat"])
        assert excinfo.value.code == 2
        assert "--storage" in capsys.readouterr().err
