"""Migration on open of a flat-format durability directory.

The golden directories under ``tests/fixtures/`` were written by the
last commit that could write the flat format (see the README there):
``flat_snapshot_tail`` is a committed ``snapshot-<lsn>/`` plus a WAL
tail, ``flat_wal_only`` never snapshotted.  Both tails hold insert /
delete / modify / ``compact`` / ``rebuild`` records and more writes
under the post-compact ids; ``expected.json`` is the flat engine's own
live state when it closed.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.durability import DurableDynamicRRQ, durability_report
from repro.durability.wal import WalRecord, read_wal, wal_path
from repro.errors import IndexCorruptionError, InvalidParameterError
from repro.resilience.faults import FaultPlan, inject

from ..model import LiveModel

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
GOLDEN = ("flat_snapshot_tail", "flat_wal_only")


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
    """Answers == NaiveRRQ over the expected rows, post-compact ids."""
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


def is_flat(db):
    return (json.loads((db / "engine.json").read_text())["backend"] == "flat"
            and not (db / "segments").exists())


@pytest.mark.parametrize("name", GOLDEN)
class TestGoldenDirectories:
    def test_migrates_once_then_opens_as_a_plain_store(self, name, tmp_path):
        db, expected, model = golden(name, tmp_path)
        assert is_flat(db)
        wal_before = wal_path(db).read_bytes()
        with DurableDynamicRRQ(db, fsync="never") as engine:
            assert_matches(engine, expected, model)
            # Everything is behind the new barrier: nothing to replay,
            # and the log was left for the next checkpoint to truncate.
            assert engine.snapshot_lsn == expected["last_lsn"]
            assert engine.replayed_records == 0
            assert wal_path(db).read_bytes() == wal_before
        body = json.loads((db / "engine.json").read_text())
        assert body["backend"] == "segmented"
        assert not (db / "CURRENT").exists()
        assert not list(db.glob("snapshot-*"))
        report = durability_report(db)
        assert report["ok"]
        assert report["storage"]["lsn"] == expected["last_lsn"]

        manifest = (db / "segments" / "CURRENT").read_bytes()
        with DurableDynamicRRQ(db, fsync="never") as again:
            # Not migrated twice: the committed manifest is untouched.
            assert (db / "segments" / "CURRENT").read_bytes() == manifest
            assert_matches(again, expected, model)
            # The store keeps serving writes under the migrated ids.
            index, lsn = again.insert_product([0.1, 0.2, 0.3])
            assert index == expected["next_pid"]
            assert lsn == expected["last_lsn"] + 1
            assert again.snapshot() == lsn
        assert read_wal(wal_path(db))[0] == []

    def test_crash_before_the_commit_migrates_again(self, name, tmp_path):
        db, expected, model = golden(name, tmp_path)
        plan = FaultPlan(seed=1).add("migrate.commit", "io_error")
        with inject(plan) as injector:
            with pytest.raises(OSError):
                DurableDynamicRRQ(db, fsync="never")
        assert injector.fired() == 1
        # The flat files are still authoritative, beside a complete but
        # uncommitted segments/ that the next open throws away.
        body = json.loads((db / "engine.json").read_text())
        assert body["backend"] == "flat"
        assert (db / "segments" / "CURRENT").exists()
        assert (db / "CURRENT").exists() == (name == "flat_snapshot_tail")
        with DurableDynamicRRQ(db, fsync="never") as engine:
            assert_matches(engine, expected, model)

    def test_directory_without_the_backend_key_is_detected(
            self, name, tmp_path):
        """Directories older than the key are flat by layout."""
        db, expected, model = golden(name, tmp_path)
        body = json.loads((db / "engine.json").read_text())
        del body["backend"]
        (db / "engine.json").write_text(json.dumps(body))
        with DurableDynamicRRQ(db, fsync="never") as engine:
            assert_matches(engine, expected, model)
        assert json.loads(
            (db / "engine.json").read_text())["backend"] == "segmented"


class TestRefusals:
    def test_corrupt_flat_snapshot_still_refuses(self, tmp_path):
        db, _, _ = golden("flat_snapshot_tail", tmp_path)
        target = next(db.glob("snapshot-*")) / "products.mat"
        data = bytearray(target.read_bytes())
        data[-5] ^= 0xFF
        target.write_bytes(bytes(data))
        for _ in range(2):  # refusing changes nothing: it refuses again
            with pytest.raises(IndexCorruptionError, match="snapshot"):
                DurableDynamicRRQ(db, fsync="never")
            assert is_flat(db)

    def test_torn_flat_pointer_refuses(self, tmp_path):
        db, _, _ = golden("flat_snapshot_tail", tmp_path)
        (db / "CURRENT").write_bytes(b'{"snapsh')
        with pytest.raises(IndexCorruptionError, match="CURRENT"):
            DurableDynamicRRQ(db, fsync="never")

    def test_flat_backend_is_no_longer_accepted(self, tmp_path, capsys):
        with pytest.raises(InvalidParameterError, match="flat"):
            DurableDynamicRRQ(tmp_path / "db", dim=3, backend="flat")
        assert not (tmp_path / "db").exists()
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(tmp_path / "db"), "--durable", "--dim", "3",
                  "--storage", "flat"])
        assert excinfo.value.code == 2
        assert "--storage" in capsys.readouterr().err


class TestMigratedReplication:
    def test_flat_era_records_never_ship_past_a_compact(self, tmp_path):
        """A standby behind the flat ``compact`` cannot replay the
        renumbering: it is handed the full state instead."""
        db, expected, model = golden("flat_wal_only", tmp_path)
        compact_lsn = next(r.lsn for r in read_wal(wal_path(db))[0]
                           if r.op == "compact")
        with DurableDynamicRRQ(db, fsync="never") as primary:
            assert primary.replication_feed(compact_lsn - 3)["reset"]
            tail = primary.replication_feed(compact_lsn)
            assert not tail["reset"]
            assert tail["records"][0]["op"] == "rebuild"
            feed = primary.replication_feed(0)
            standby = DurableDynamicRRQ(tmp_path / "standby", dim=3,
                                        fsync="never")
            with standby:
                for raw in feed["records"]:
                    standby.apply_replicated(
                        WalRecord(raw["lsn"], raw["op"], raw["data"]))
                assert_matches(standby, expected, model)
