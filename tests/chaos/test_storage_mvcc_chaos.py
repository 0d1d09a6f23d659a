"""Chaos tests for the MVCC segment store under a durable engine.

The contract under attack (ISSUE acceptance): SIGKILL at **every**
seal/compaction fault site recovers to a valid manifest with zero
acked-write loss.  Seals and compactions commit disk-first behind an
atomic ``CURRENT`` flip, so a crash at any point leaves either the old
or the new manifest — never a torn one — and the WAL tail replays the
delta the dead process never sealed.  Torn *artifacts* (segment files,
manifest bodies) must be swept as orphans on recovery; the one place a
torn write can land on a committed path (a non-atomic ``CURRENT``
overwrite, which the real temp+rename writer cannot produce) must
refuse with a structured error — silent wrong answers are the only
forbidden outcome.
"""

import numpy as np
import pytest

from repro.durability import DurableDynamicRRQ, durability_report
from repro.errors import IndexCorruptionError
from repro.resilience.faults import FaultPlan, InjectedCrashError, inject

from ..model import LiveModel

DIM = 3

#: Artifact payloads a dying seal/compaction can tear on disk.
SEGMENT_ARTIFACT_SITES = (
    "storage.segment.products.mat",
    "storage.segment.weights.mat",
    "storage.segment.segment.json",
    "storage.segment.MANIFEST.json",
)
#: Control-flow crash points around the store-manifest commit.
MANIFEST_SITES = ("storage.manifest.write", "storage.manifest.current")


def _stream(rng, count):
    """Deterministic mixed mutations; ids align between engine and model."""
    ops = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.45:
            ops.append(("insert_product", list(rng.random(DIM) * 0.9)))
        elif roll < 0.7:
            w = rng.random(DIM) + 1e-3
            ops.append(("insert_weight", list(w / w.sum())))
        elif roll < 0.85:
            ops.append(("delete_product", None))
        else:
            ops.append(("modify_product", list(rng.random(DIM) * 0.9)))
    return ops


def _apply(engine, ops):
    """Apply ops to a durable engine or to the rows + liveness model."""
    model = isinstance(engine, LiveModel)
    for op, payload in ops:
        live = (engine.live_products() if model
                else engine.products.live_indices())
        if op == "insert_product":
            engine.insert_product(payload)
        elif op == "insert_weight":
            engine.insert_weight(payload)
        elif op == "delete_product":
            if len(live):
                engine.delete_product(int(live[0]))
            else:
                engine.insert_product([0.5] * DIM)
        elif len(live):
            engine.modify_product(int(live[-1]), payload)
        else:
            engine.insert_product(payload)


def _reference(ops):
    reference = LiveModel()
    _apply(reference, ops)
    return reference


def assert_zero_acked_loss(recovered, reference, rng, k=5):
    """Recovered answers == exact scan over the model's live rows (ids
    align: the store never renumbers)."""
    assert recovered.num_products == len(reference.live_products())
    assert recovered.num_weights == len(reference.live_weights())
    if not reference.live_products() or not reference.live_weights():
        return
    for _ in range(4):
        q = rng.random(DIM) * 0.9
        rtk, rkr = reference.answers(q, k)
        assert recovered.reverse_topk(q, k).weights == rtk
        assert recovered.reverse_kranks(q, k).entries == rkr


def _segmented(path, **kwargs):
    return DurableDynamicRRQ(path, dim=DIM, fsync="always", seal_every=0,
                             auto_compact=False, **kwargs)


@pytest.fixture
def ops(chaos_seed):
    return _stream(np.random.default_rng(chaos_seed), 40)


@pytest.mark.timeout(120)
class TestCrashMidSeal:
    @pytest.mark.parametrize("site", SEGMENT_ARTIFACT_SITES)
    def test_torn_segment_artifact_is_swept_and_nothing_acked_is_lost(
            self, tmp_path, chaos_seed, ops, site):
        engine = _segmented(tmp_path / "db")
        _apply(engine, ops[:20])
        assert engine.engine.seal(force=True) is not None  # clean segment
        _apply(engine, ops[20:])
        acked = engine.last_lsn

        plan = FaultPlan(seed=chaos_seed).add(site, "partial_write")
        with inject(plan) as injector:
            with pytest.raises((InjectedCrashError, OSError)):
                engine.engine.seal(force=True)
        assert injector.fired() == 1
        engine.close()  # the dying process never sealed

        recovered = _segmented(tmp_path / "db")
        assert recovered.last_lsn == acked
        assert recovered.replayed_records > 0  # the unsealed delta came back
        stats = recovered.storage_stats()
        assert stats["segments"] == 1  # the torn second segment was swept
        report = durability_report(tmp_path / "db")
        assert report["ok"] and report["storage"]["status"] == "ok"
        assert_zero_acked_loss(recovered, _reference(ops),
                               np.random.default_rng(chaos_seed + 1))
        recovered.close()

    @pytest.mark.parametrize("site", MANIFEST_SITES)
    def test_crash_before_manifest_commit_keeps_the_old_lineage(
            self, tmp_path, chaos_seed, ops, site):
        engine = _segmented(tmp_path / "db")
        _apply(engine, ops)
        acked = engine.last_lsn
        barrier_before = engine.engine.applied_lsn
        assert engine.storage_stats()["manifest_lsn"] < barrier_before

        plan = FaultPlan(seed=chaos_seed).add(site, "io_error")
        with inject(plan) as injector:
            with pytest.raises(OSError):
                engine.engine.seal(force=True)
        assert injector.fired() == 1
        engine.close()

        recovered = _segmented(tmp_path / "db")
        assert recovered.last_lsn == acked
        # The old manifest barrier survived; the WAL replayed everything.
        assert recovered.storage_stats()["manifest_lsn"] < barrier_before + 1
        report = durability_report(tmp_path / "db")
        assert report["ok"] and report["storage"]["status"] == "ok"
        assert_zero_acked_loss(recovered, _reference(ops),
                               np.random.default_rng(chaos_seed + 2))
        recovered.close()


@pytest.mark.timeout(120)
class TestCrashMidCompaction:
    @pytest.mark.parametrize(
        "site", SEGMENT_ARTIFACT_SITES[:2] + MANIFEST_SITES)
    def test_every_compaction_fault_site_recovers_valid(
            self, tmp_path, chaos_seed, ops, site):
        engine = _segmented(tmp_path / "db")
        _apply(engine, ops[:20])
        engine.engine.seal(force=True)
        _apply(engine, ops[20:])
        engine.snapshot()  # checkpoint: seals + truncates the WAL
        acked = engine.last_lsn
        segments_before = engine.storage_stats()["segments"]
        assert segments_before >= 2

        kind = ("partial_write" if site.startswith("storage.segment")
                else "io_error")
        plan = FaultPlan(seed=chaos_seed).add(site, kind)
        with inject(plan) as injector:
            with pytest.raises(OSError):
                engine.compact()
        assert injector.fired() >= 1
        engine.close()

        recovered = _segmented(tmp_path / "db")
        assert recovered.last_lsn == acked
        stats = recovered.storage_stats()
        # Old segment lineage intact, the half-merged orphan swept.
        assert stats["segments"] == segments_before
        seg_dirs = [d for d in (tmp_path / "db" / "segments").iterdir()
                    if d.is_dir()]
        assert len(seg_dirs) == segments_before
        report = durability_report(tmp_path / "db")
        assert report["ok"] and report["storage"]["status"] == "ok"
        assert_zero_acked_loss(recovered, _reference(ops),
                               np.random.default_rng(chaos_seed + 3))
        recovered.close()

    def test_clean_compaction_after_recovery_still_converges(
            self, tmp_path, chaos_seed, ops):
        """After a crashed compaction, the next clean one finishes the
        job — the store is not wedged."""
        engine = _segmented(tmp_path / "db")
        _apply(engine, ops)
        engine.engine.seal(force=True)
        _apply(engine, ops[:10])
        engine.snapshot()
        plan = FaultPlan(seed=chaos_seed).add(
            "storage.manifest.current", "io_error")
        with inject(plan):
            with pytest.raises(OSError):
                engine.compact()
        engine.close()

        recovered = _segmented(tmp_path / "db")
        recovered.compact()
        assert recovered.storage_stats()["segments"] == 1
        assert_zero_acked_loss(recovered, _reference(ops + ops[:10]),
                               np.random.default_rng(chaos_seed + 4))
        recovered.close()


@pytest.mark.timeout(120)
class TestTornCommitPointer:
    def test_torn_current_refuses_with_a_structured_error(
            self, tmp_path, chaos_seed, ops):
        """A torn ``CURRENT`` (only producible by a non-atomic writer)
        must refuse recovery — never serve from a garbage manifest."""
        engine = _segmented(tmp_path / "db")
        _apply(engine, ops[:15])
        plan = FaultPlan(seed=chaos_seed).add(
            "storage.manifest.current", "partial_write", keep_fraction=0.3)
        with inject(plan):
            with pytest.raises(InjectedCrashError):
                engine.engine.seal(force=True)
        engine.close()

        report = durability_report(tmp_path / "db")
        assert not report["ok"]
        assert report["storage"]["status"].startswith("corrupt")
        with pytest.raises(IndexCorruptionError):
            _segmented(tmp_path / "db")


@pytest.mark.timeout(120)
class TestPinnedReaderUnderChaos:
    def test_pin_survives_a_crashed_seal_and_a_real_compaction(
            self, tmp_path, chaos_seed, ops):
        engine = _segmented(tmp_path / "db")
        _apply(engine, ops)
        engine.engine.seal(force=True)
        snap = engine.pin_snapshot()
        assert snap is not None
        rng = np.random.default_rng(chaos_seed + 5)
        queries = [rng.random(DIM) * 0.9 for _ in range(3)]
        before = [snap.reverse_kranks(q, 5).entries for q in queries]

        plan = FaultPlan(seed=chaos_seed).add(
            "storage.manifest.write", "io_error")
        _apply(engine, ops[:20])
        with inject(plan):
            with pytest.raises(OSError):
                engine.engine.seal(force=True)
        engine.engine.seal(force=True)  # clean retry
        engine.compact()

        after = [snap.reverse_kranks(q, 5).entries for q in queries]
        assert after == before  # the pin saw none of it
        snap.release()
        engine.close()


@pytest.mark.chaos_serial
@pytest.mark.timeout(120)
class TestKill9SegmentedServe:
    def test_sigkill_mid_traffic_recovers_the_segmented_store(
            self, tmp_path, chaos_seed):
        """End to end, no in-process shortcuts: a fresh ``serve
        --durable`` directory eats acked traffic (including /modify and
        a /snapshot checkpoint), dies by real SIGKILL, and recovers every
        acknowledged write."""
        from .test_kill9_recovery import (
            ServeProcess,
            _get,
            _post,
            wait_healthy,
        )

        rng = np.random.default_rng(chaos_seed + 11)
        db = tmp_path / "db"
        model = LiveModel()

        def insert(kind, vector):
            reply = _post(server.url + "/insert",
                          {"type": kind, "vector": vector})
            local = (model.insert_product if kind == "product"
                     else model.insert_weight)(vector)
            assert reply["index"] == local
            return reply["lsn"]

        server = ServeProcess(db, "--dim", str(DIM), "--fsync", "always")
        try:
            wait_healthy(server.url)
            for i in range(30):
                if i % 5 == 4:
                    w = rng.random(DIM) + 1e-3
                    insert("weight", list(w / w.sum()))
                else:
                    insert("product", list(rng.random(DIM) * 0.9))
            replacement = list(rng.random(DIM) * 0.9)
            reply = _post(server.url + "/modify",
                          {"type": "product", "index": 0,
                           "vector": replacement})
            assert reply["index"] == model.modify_product(0, replacement)
            _post(server.url + "/snapshot", {})  # checkpoint mid-history
            for _ in range(5):
                acked = insert("product", list(rng.random(DIM) * 0.9))
            server.kill9()
        finally:
            server.terminate()

        recovered = DurableDynamicRRQ(db, fsync="always")
        assert recovered.last_lsn == acked
        report = durability_report(db)
        assert report["ok"] and report["storage"]["status"] == "ok"
        assert_zero_acked_loss(recovered, model, rng)
        recovered.close()

        reborn = ServeProcess(db, "--fsync", "always")
        try:
            health = wait_healthy(reborn.url)
            assert health["last_lsn"] == acked
            assert _get(reborn.url + "/info")["segments"] >= 1
        finally:
            reborn.terminate()
