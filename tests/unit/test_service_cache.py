"""Unit tests for the result cache and the admission-limit primitives."""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ServiceOverloadError,
)
from repro.service.cache import ResultCache, bind_dynamic, make_key
from repro.service.limits import (
    Deadline,
    ServiceLimits,
    http_status,
    rejection_body,
)
from repro.storage import SegmentStore


class TestMakeKey:
    def test_equal_points_share_a_key(self):
        q1 = np.array([1.0, 2.0, 3.0])
        q2 = np.array([1.0, 2.0, 3.0])
        assert make_key(q1, "rtk", 5, "gir") == make_key(q2, "rtk", 5, "gir")

    def test_any_field_changes_the_key(self):
        q = np.array([1.0, 2.0])
        base = make_key(q, "rtk", 5, "gir")
        assert make_key(q + 1e-12, "rtk", 5, "gir") != base
        assert make_key(q, "rkr", 5, "gir") != base
        assert make_key(q, "rtk", 6, "gir") != base
        assert make_key(q, "rtk", 5, "naive") != base


class TestResultCache:
    def test_hit_miss_accounting(self):
        cache = ResultCache(capacity=4)
        key = make_key(np.array([1.0]), "rtk", 3, "gir")
        assert cache.get(key) is None
        cache.put(key, {"answer": 1})
        assert cache.get(key) == {"answer": 1}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        keys = [make_key(np.array([float(i)]), "rtk", 1, "gir")
                for i in range(3)]
        cache.put(keys[0], "a")
        cache.put(keys[1], "b")
        assert cache.get(keys[0]) == "a"   # refresh 0; 1 is now LRU
        cache.put(keys[2], "c")            # evicts 1
        assert keys[1] not in cache
        assert cache.get(keys[0]) == "a"
        assert cache.get(keys[2]) == "c"

    def test_zero_capacity_never_stores(self):
        cache = ResultCache(capacity=0)
        key = make_key(np.array([1.0]), "rtk", 1, "gir")
        cache.put(key, "x")
        assert cache.get(key) is None
        with pytest.raises(InvalidParameterError):
            ResultCache(capacity=-1)

    def test_invalidate_clears_everything(self):
        cache = ResultCache(capacity=8)
        for i in range(5):
            cache.put(make_key(np.array([float(i)]), "rtk", 1, "gir"), i)
        assert len(cache) == 5
        cache.invalidate()
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1

    def test_thread_safety_smoke(self):
        cache = ResultCache(capacity=32)

        def worker(seed):
            for i in range(200):
                key = make_key(np.array([float(i % 40)]), "rtk", 1, "gir")
                if (i + seed) % 3:
                    cache.put(key, i)
                else:
                    cache.get(key)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 32


class TestDynamicInvalidation:
    def test_every_mutation_flushes(self):
        engine = SegmentStore(dim=2, value_range=1.0, partitions=8)
        cache = ResultCache(capacity=8)
        bind_dynamic(cache, engine)
        key = make_key(np.array([0.5, 0.5]), "rtk", 1, "gir")

        def reprime():
            cache.put(key, "stale")
            assert key in cache

        reprime()
        pid = engine.insert_product([0.3, 0.4])
        assert key not in cache

        reprime()
        wid = engine.insert_weight([0.5, 0.5])
        assert key not in cache

        reprime()
        engine.remove_product(pid)
        assert key not in cache

        reprime()
        engine.remove_weight(wid)
        assert key not in cache

        reprime()
        engine.modify_product(engine.insert_product([0.1, 0.2]), [0.2, 0.1])
        assert key not in cache

        reprime()
        engine.compact()
        assert key not in cache


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline.unbounded()
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check()

    def test_expiry(self):
        deadline = Deadline.after(0.0)
        time.sleep(0.001)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError):
            deadline.check()

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            Deadline.after(-1.0)

    def test_limits_validation(self):
        with pytest.raises(InvalidParameterError):
            ServiceLimits(max_queue_depth=0)
        with pytest.raises(InvalidParameterError):
            ServiceLimits(max_batch=0)
        with pytest.raises(InvalidParameterError):
            ServiceLimits(default_deadline_s=0.0)
        assert ServiceLimits(default_deadline_s=None).deadline().at is None

    def test_per_request_override(self):
        limits = ServiceLimits(default_deadline_s=100.0)
        tight = limits.deadline(0.01)
        assert tight.remaining() <= 0.01 + 1e-6


class TestHTTPMapping:
    @pytest.mark.parametrize("exc,status", [
        (ServiceOverloadError("full"), 429),
        (DeadlineExceededError("late"), 504),
        (InvalidParameterError("bad k"), 400),
        (InvalidParameterError("request body is not JSON"), 400),
        (RuntimeError("bug"), 500),
        (ValueError("bug"), 500),
    ])
    def test_status_codes(self, exc, status):
        assert http_status(exc) == status
        body = rejection_body(exc)
        assert body["status"] == status
        assert body["error"] == type(exc).__name__
        assert body["message"]


class TestGenerationKeying:
    """The swap-vs-in-flight race: a put computed against a dead index
    must never land after the invalidate that retired that index."""

    def test_put_with_stale_generation_is_dropped(self):
        cache = ResultCache(capacity=8)
        key = make_key(np.array([1.0]), "rtk", 3, "gir")
        gen = cache.generation()
        cache.invalidate()           # the swap lands mid-computation
        cache.put(key, "stale", generation=gen)
        assert key not in cache

    def test_put_with_current_generation_lands(self):
        cache = ResultCache(capacity=8)
        key = make_key(np.array([1.0]), "rtk", 3, "gir")
        cache.put(key, "fresh", generation=cache.generation())
        assert cache.get(key) == "fresh"

    def test_ungated_put_keeps_old_behavior(self):
        cache = ResultCache(capacity=8)
        key = make_key(np.array([1.0]), "rtk", 3, "gir")
        cache.invalidate()
        cache.put(key, "x")          # no generation -> unconditional
        assert key in cache

    def test_every_invalidate_bumps_generation(self):
        cache = ResultCache(capacity=8)
        gens = [cache.generation()]
        for _ in range(3):
            cache.invalidate()
            gens.append(cache.generation())
        assert gens == sorted(set(gens))

    def test_mutate_rebuild_serves_fresh_answer(self, tmp_path):
        """Regression: a mutation followed by a checkpoint (a new store
        generation, so a kernel rebuild) used to leave a pre-rebuild
        answer in the cache; a repeated query then returned ranks that
        ignored the mutation entirely."""
        import numpy as np

        from repro.durability import DurableDynamicRRQ
        from repro.service.server import DurableQueryService, ServiceConfig

        rng = np.random.default_rng(13)
        engine = DurableDynamicRRQ(tmp_path / "db", dim=3,
                                   seal_every=8,
                                   auto_compact=False, fsync="never")
        for _ in range(20):
            engine.insert_product(rng.uniform(0, 0.9, 3))
        for _ in range(10):
            w = rng.uniform(0.1, 1.0, 3)
            engine.insert_weight(w / w.sum())
        service = DurableQueryService(
            engine, config=ServiceConfig(batch_window_s=0.0,
                                         cache_capacity=16))
        try:
            q = engine.products[4]
            primed = service.query(q, kind="rtk", k=5)
            assert primed["weights"], "need a non-empty answer to go stale"
            # Deleting a weight that is *in* the answer guarantees the
            # cached entry is now provably wrong.
            victim = primed["weights"][0]
            service.mutate("delete_weight", {"index": victim})
            service.mutate("snapshot")
            fresh = service.query(q, kind="rtk", k=5)
            assert victim not in fresh["weights"]
            assert fresh["weights"] == sorted(
                engine.reverse_topk(q, 5).weights)
        finally:
            service.close()
