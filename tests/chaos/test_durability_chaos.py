"""Chaos tests for the durability layer.

The contract under attack (ISSUE acceptance): after **any** injected
crash — mid-append, torn WAL tail, checkpoint interrupted between its
segment write and the manifest commit — recovery must yield answers
byte-identical to a fresh exact scan over exactly the acknowledged
mutation prefix.  Acknowledged writes are never lost; unacknowledged
writes are atomically absent.  Mid-log damage to acknowledged history
must refuse with a structured :class:`WalCorruptionError`, never serve
silently wrong answers.
"""

import numpy as np
import pytest

from repro.durability import DurableDynamicRRQ, durability_report
from repro.durability.wal import read_wal, wal_path
from repro.errors import IndexCorruptionError, WalCorruptionError
from repro.resilience.faults import FaultPlan, InjectedCrashError, inject

from ..model import LiveModel


def _mutation_stream(rng, dim, count):
    """A deterministic mixed stream of (op, payload) mutations."""
    stream, live_p, live_w = [], [], []
    for i in range(count):
        roll = rng.random()
        if roll < 0.45 or len(live_p) < 3:
            stream.append(("insert_product", list(rng.random(dim) * 0.95)))
            live_p.append(len(live_p) + len([s for s in stream
                                             if s[0] == "delete_product"]))
        elif roll < 0.7:
            w = rng.random(dim) + 1e-3
            stream.append(("insert_weight", list(w / w.sum())))
        elif roll < 0.85 and live_p:
            stream.append(("delete_product", None))
        else:
            stream.append(("compact", None))
    return stream


def _apply_stream(engine, stream):
    """Apply mutations until one crashes; returns the acked count.

    Deletions pick the lowest live product index at apply time so the
    same prefix of the stream always produces the same state.  A
    compaction is physical: it takes no LSN and is not counted.
    """
    acked = 0
    for op, payload in stream:
        try:
            if op == "insert_product":
                engine.insert_product(payload)
            elif op == "insert_weight":
                engine.insert_weight(payload)
            elif op == "delete_product":
                live = engine.products.live_indices()
                if len(live) == 0:
                    continue
                engine.delete_product(int(live[0]))
            else:
                engine.compact()
                continue
        except (InjectedCrashError, OSError):
            return acked, (op, payload)
        acked += 1
    return acked, None


def _replay_reference(stream, acked):
    """The acked prefix applied to the rows + liveness model."""
    reference = LiveModel()
    count = 0
    for op, payload in stream:
        if count >= acked:
            break
        if op == "compact":
            continue
        if op == "insert_product":
            reference.insert_product(payload)
        elif op == "insert_weight":
            reference.insert_weight(payload)
        else:
            live = reference.live_products()
            if not live:
                continue
            reference.delete_product(live[0])
        count += 1
    return reference


def assert_equals_naive_over_acked(recovered, reference, rng, k=5):
    """Recovered answers == exact scan over the model's live rows."""
    assert recovered.num_products == len(reference.live_products())
    assert recovered.num_weights == len(reference.live_weights())
    assert list(recovered.products.live_indices()) == \
        reference.live_products()
    if not reference.live_products() or not reference.live_weights():
        return
    for _ in range(3):
        q = rng.random(recovered.products.dim) * 0.95
        rtk, rkr = reference.answers(q, k)
        assert recovered.reverse_topk(q, k).weights == rtk
        assert recovered.reverse_kranks(q, k).entries == rkr


@pytest.fixture
def stream(chaos_seed):
    rng = np.random.default_rng(chaos_seed)
    return _mutation_stream(rng, 3, 40)


class TestCrashMidAppend:
    @pytest.mark.parametrize("crash_after", [0, 7, 23])
    @pytest.mark.parametrize("keep_fraction", [0.1, 0.5, 0.9])
    def test_torn_append_loses_only_the_unacked_record(
            self, tmp_path, chaos_seed, stream, crash_after, keep_fraction):
        """``kill -9`` mid-append: the torn frame vanishes, every
        acknowledged record survives byte-exact."""
        engine = DurableDynamicRRQ(tmp_path / "db", dim=3, fsync="always")
        plan = FaultPlan(seed=chaos_seed).add(
            "wal.append", "partial_write", keep_fraction=keep_fraction)
        head, tail = stream[:crash_after], stream[crash_after:]
        acked_head, crashed = _apply_stream(engine, head)
        assert crashed is None
        with inject(plan) as injector:
            acked_tail, crashed = _apply_stream(engine, tail)
        assert injector.fired() == 1
        assert crashed is not None
        acked = acked_head + acked_tail
        assert engine.last_lsn == acked
        # The dying process never closes cleanly; just drop the handle.

        records, _, torn = read_wal(wal_path(tmp_path / "db"))
        assert torn > 0  # the torn frame really is on disk
        assert len(records) == acked

        recovered = DurableDynamicRRQ(tmp_path / "db", fsync="always")
        assert recovered.last_lsn == acked
        reference = _replay_reference(stream, acked)
        assert_equals_naive_over_acked(
            recovered, reference, np.random.default_rng(chaos_seed + 1))
        recovered.close()

    def test_fsync_failure_rolls_the_append_back(self, tmp_path, chaos_seed,
                                                 stream):
        """A *non-crash* fsync error must leave no half-acknowledged
        frame behind: the failed append is rolled back entirely and the
        next append lands on a clean boundary."""
        engine = DurableDynamicRRQ(tmp_path / "db", dim=3, fsync="always")
        acked_head, _ = _apply_stream(engine, stream[:10])
        plan = FaultPlan(seed=chaos_seed).add("wal.fsync", "io_error")
        with inject(plan) as injector:
            with pytest.raises(OSError):
                engine.insert_product([0.5, 0.5, 0.5])
        assert injector.fired() == 1
        assert engine.last_lsn == acked_head
        engine.insert_product([0.25, 0.25, 0.25])  # boundary still clean
        engine.close()

        records, _, torn = read_wal(wal_path(tmp_path / "db"))
        assert torn == 0
        assert len(records) == acked_head + 1


class TestCrashMidSnapshot:
    """``snapshot()`` is a store checkpoint followed by a WAL truncation:
    a checkpoint that dies must leave the log whole."""

    def _engine_with_history(self, tmp_path, stream):
        engine = DurableDynamicRRQ(tmp_path / "db", dim=3, fsync="always",
                                   auto_compact=False)
        acked, crashed = _apply_stream(engine, stream)
        assert crashed is None
        return engine, acked

    @pytest.mark.parametrize("site", ["storage.manifest.write",
                                      "storage.manifest.current"])
    def test_crash_before_commit_keeps_the_old_lineage(
            self, tmp_path, chaos_seed, stream, site):
        """Killed between the segment write and the CURRENT flip: the WAL
        is untruncated, recovery replays it, answers are exact."""
        engine, acked = self._engine_with_history(tmp_path, stream)
        barrier = engine.storage_stats()["manifest_lsn"]
        plan = FaultPlan(seed=chaos_seed).add(site, "io_error")
        with inject(plan) as injector:
            with pytest.raises(OSError):
                engine.snapshot()
        assert injector.fired() == 1
        engine.close()

        report = durability_report(tmp_path / "db")
        assert report["storage"]["lsn"] == barrier  # commit never ran
        assert report["wal"]["records"] == acked  # nothing truncated

        recovered = DurableDynamicRRQ(tmp_path / "db", fsync="always")
        assert recovered.last_lsn == acked
        assert recovered.snapshot_lsn == barrier
        assert_equals_naive_over_acked(
            recovered, _replay_reference(stream, acked),
            np.random.default_rng(chaos_seed + 2))
        # The interrupted checkpoint's segment was swept on recovery.
        seg_dirs = [d for d in (tmp_path / "db" / "segments").iterdir()
                    if d.is_dir()]
        assert len(seg_dirs) == recovered.storage_stats()["segments"]
        recovered.close()

    def test_crash_overwrites_nothing_when_a_snapshot_exists(
            self, tmp_path, chaos_seed, stream):
        """A failed *second* checkpoint must leave the committed first
        one (and the WAL tail after it) fully usable."""
        engine, _ = self._engine_with_history(tmp_path, stream[:20])
        first = engine.snapshot()
        acked_tail, crashed = _apply_stream(engine, stream[20:])
        assert crashed is None
        acked = first + acked_tail
        barrier = engine.storage_stats()["manifest_lsn"]
        assert barrier >= first
        plan = FaultPlan(seed=chaos_seed).add("storage.manifest.write",
                                              "io_error")
        with inject(plan) as injector:
            with pytest.raises(OSError):
                engine.snapshot()
        assert injector.fired() == 1
        engine.close()

        recovered = DurableDynamicRRQ(tmp_path / "db", fsync="always")
        assert recovered.snapshot_lsn == barrier
        assert recovered.last_lsn == acked
        assert recovered.replayed_records == acked - barrier
        assert_equals_naive_over_acked(
            recovered, _replay_reference(stream, acked),
            np.random.default_rng(chaos_seed + 3))
        recovered.close()

    def test_corrupt_snapshot_artifact_refuses_startup(
            self, tmp_path, chaos_seed, stream):
        """Damage inside a *committed* segment is acknowledged state
        gone — recovery must refuse, not improvise."""
        engine, _ = self._engine_with_history(tmp_path, stream[:15])
        plan = FaultPlan(seed=chaos_seed).add(
            "storage.segment.products.mat", "corrupt", corrupt_bytes=12)
        with inject(plan) as injector:
            engine.snapshot()  # corruption is silent at write time
        assert injector.fired() == 1
        engine.close()
        with pytest.raises(IndexCorruptionError, match="seg-"):
            DurableDynamicRRQ(tmp_path / "db", fsync="always")


class TestMidLogCorruption:
    def test_recovery_refuses_damaged_acknowledged_history(
            self, tmp_path, stream):
        engine = DurableDynamicRRQ(tmp_path / "db", dim=3, fsync="always")
        acked, _ = _apply_stream(engine, stream[:12])
        engine.close()
        wal_file = wal_path(tmp_path / "db")
        data = bytearray(wal_file.read_bytes())
        data[10] ^= 0xFF  # inside the first acknowledged record
        wal_file.write_bytes(bytes(data))

        with pytest.raises(WalCorruptionError) as excinfo:
            DurableDynamicRRQ(tmp_path / "db", fsync="always")
        assert excinfo.value.offset == 0
        report = durability_report(tmp_path / "db")
        assert not report["ok"]
        assert report["wal"]["status"] == "corrupt"
