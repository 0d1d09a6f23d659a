"""Unit tests for the workload-adaptive auto-tuner (repro.tuning).

The contract under test: candidate enumeration is deterministic and
deduplicated, the offline ``AutoTuner`` only ever reports a verified
winner, and the serving-side ``ServiceTuner`` swaps the scheduler's
kernel with zero downtime — answers stay byte-identical to the naive
oracle across the flip, and the result cache can never serve a
pre-swap answer afterwards.
"""

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.data.synthetic import generate_products, generate_weights
from repro.errors import InvalidParameterError
from repro.service.server import QueryService, ServiceConfig
from repro.tuning import (
    AutoTuner,
    CandidateConfig,
    ServiceTuner,
    build_tuned_kernel,
    default_config,
    format_tune_report,
    poor_filtering,
    verify_against_naive,
)


@pytest.fixture(scope="module")
def clustered():
    # Clustered data is where tuning matters: equal-width cells are
    # mostly empty and the undecided fraction balloons.
    P = generate_products("CL", 120, 4, seed=41)
    W = generate_weights("CL", 300, 4, seed=42)
    return P, W


class TestCandidateConfig:
    def test_label_and_short_are_stable(self):
        config = CandidateConfig(partitions=32, boundaries="quantile")
        assert config.label() == "n32-quantile"
        assert config.short() == CandidateConfig(
            partitions=32, boundaries="quantile").short()
        assert config.short() != default_config().short()

    def test_label_encodes_non_defaults(self):
        config = CandidateConfig(partitions=8, use_domin=False,
                                 w_block=256, p_block=512,
                                 filter_dtype="float64")
        label = config.label()
        for token in ("n8", "nodomin", "w256p512", "float64"):
            assert token in label

    def test_round_trips_through_dict(self):
        config = CandidateConfig(partitions=64, boundaries="quantile",
                                 use_domin=False)
        again = CandidateConfig.from_dict(config.as_dict())
        assert again == config
        assert again.short() == config.short()

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CandidateConfig(partitions=0)
        with pytest.raises(InvalidParameterError):
            CandidateConfig(partitions=8, boundaries="logspace")
        with pytest.raises(InvalidParameterError):
            CandidateConfig(partitions=8, w_block=0)
        with pytest.raises(InvalidParameterError):
            CandidateConfig.from_dict({"partitions": "many"})
        with pytest.raises(InvalidParameterError):
            CandidateConfig.from_dict({})

    def test_poor_filtering_verdict(self):
        bad = poor_filtering({"fractions": {"undecided": 0.3,
                                            "refined": 0.2}})
        assert bad["poor"] and bad["undecided_refined_fraction"] == 0.5
        good = poor_filtering({"fractions": {"undecided": 0.1,
                                             "refined": 0.05}})
        assert not good["poor"]
        # Exactly at the threshold is not poor (strictly greater fires).
        edge = poor_filtering({"fractions": {"undecided": 0.35}},
                              threshold=0.35)
        assert not edge["poor"]


class TestEnumeration:
    def test_ladder_includes_current_and_doubling(self, clustered):
        P, W = clustered
        tuner = AutoTuner(P, W, current=default_config(32))
        ns = tuner.candidate_partitions()
        assert 32 in ns and 64 in ns
        assert ns == sorted(set(ns))

    def test_doubling_is_capped(self, clustered):
        P, W = clustered
        tuner = AutoTuner(P, W, current=default_config(512))
        assert max(tuner.candidate_partitions()) == 512

    def test_candidates_deduplicated_current_first(self, clustered):
        P, W = clustered
        tuner = AutoTuner(P, W, current=default_config(32))
        candidates = tuner.candidates()
        shorts = [c.short() for c in candidates]
        assert len(shorts) == len(set(shorts))
        assert candidates[0] == tuner.current
        kinds = {c.boundaries for c in candidates}
        assert kinds == {"uniform", "quantile"}

    def test_probe_workload_is_pinned(self, clustered):
        P, W = clustered
        a = AutoTuner(P, W, probe_queries=4, seed=3).probe_workload()
        b = AutoTuner(P, W, probe_queries=4, seed=3).probe_workload()
        assert len(a) == 4
        for qa, qb in zip(a, b):
            np.testing.assert_array_equal(qa, qb)

    def test_parameter_validation(self, clustered):
        P, W = clustered
        with pytest.raises(InvalidParameterError):
            AutoTuner(P, W, k=0)
        with pytest.raises(InvalidParameterError):
            AutoTuner(P, W, probe_queries=0)


class TestTunedKernels:
    def test_quantile_kernel_is_exact(self, clustered):
        P, W = clustered
        config = CandidateConfig(partitions=16, boundaries="quantile")
        kernel = build_tuned_kernel(P, W, config)
        queries = [P[i] for i in (0, 17, 63)]
        assert verify_against_naive(kernel, P, W, queries, 5)

    def test_verify_catches_a_lying_engine(self, clustered):
        P, W = clustered

        class FakeAnswer:
            weights = frozenset({999})
            k = 5

        class Liar:
            def __init__(self, inner):
                self.inner = inner

            def reverse_topk(self, q, k):
                return FakeAnswer()

            def reverse_kranks(self, q, k):
                return self.inner.reverse_kranks(q, k)

        kernel = build_tuned_kernel(P, W, default_config(8))
        assert not verify_against_naive(Liar(kernel), P, W, [P[0]], 5)


class TestTuneReport:
    @pytest.fixture(scope="class")
    def report(self, clustered):
        P, W = clustered
        tuner = AutoTuner(P, W, k=5, probe_queries=4, seed=11,
                          current=default_config(32))
        return tuner.tune(), tuner

    def test_winner_is_best_by_measured_fraction(self, report):
        rep, _ = report
        fractions = [c["measured"]["undecided_refined_fraction"]
                     for c in rep["candidates"]]
        winner = rep["winner"]["measured"]["undecided_refined_fraction"]
        assert winner == min(fractions)
        assert rep["improvement"] == pytest.approx(
            rep["baseline"]["measured"]["undecided_refined_fraction"]
            - winner)

    def test_winner_verified_and_buildable(self, report, clustered):
        rep, tuner = report
        P, W = clustered
        assert rep["verified"] is True
        kernel = tuner.build_winner(rep)
        assert kernel.partitions == rep["winner"]["config"]["partitions"]

    def test_report_is_json_ready(self, report):
        import json

        rep, _ = report
        encoded = json.dumps(rep, sort_keys=True, default=float)
        assert json.loads(encoded)["schema"] == 1

    def test_format_marks_winner_and_current(self, report):
        rep, _ = report
        text = format_tune_report(rep)
        assert "<- winner" in text
        assert "improvement (undecided+refined):" in text
        assert "yes" in text.splitlines()[-1]


class TestServiceTuner:
    @pytest.fixture
    def service(self, clustered):
        P, W = clustered
        service = QueryService.from_datasets(
            P, W, method="gir",
            config=ServiceConfig(batch_window_s=0.0, cache_capacity=64),
        )
        yield service
        service.close()

    def test_forced_run_swaps_and_stays_exact(self, service, clustered):
        P, W = clustered
        naive = NaiveRRQ(P, W)
        tuner = ServiceTuner(service, probe_queries=4, k=5,
                             min_improvement=-1.0)
        before = service.query(P[5], kind="rtk", k=5)
        outcome = tuner.run_once(force=True)
        assert outcome["status"] in ("swapped", "rejected")
        assert outcome["verified"] is True
        after = service.query(P[5], kind="rtk", k=5)
        expect = sorted(naive.reverse_topk(P[5], 5).weights)
        assert before["weights"] == after["weights"] == expect
        if outcome["status"] == "swapped":
            assert tuner.status()["swaps"] == 1
            assert (tuner.status()["current_config"]
                    == outcome["winner"])

    def test_unforced_run_skips_quiet_service(self, service):
        tuner = ServiceTuner(service, threshold=0.99)
        outcome = tuner.run_once(force=False)
        assert outcome["status"] == "skipped"
        snap = service.metrics.snapshot()["tuner"]
        assert snap["runs"] == 1 and snap["swaps"] == 0

    def test_swap_invalidates_result_cache(self, service, clustered):
        P, _ = clustered
        service.query(P[3], kind="rtk", k=5)
        assert len(service.cache) == 1
        gen = service.cache.generation()
        tuner = ServiceTuner(service, probe_queries=4, k=5,
                             min_improvement=-1.0)
        outcome = tuner.run_once(force=True)
        if outcome["status"] == "swapped":
            assert len(service.cache) == 0
            assert service.cache.generation() == gen + 1

    def test_http_handlers(self, service):
        assert service.tuner_status() == {"enabled": False}
        outcome = service.handle_tuner_request({"force": True})
        assert outcome["status"] in ("swapped", "rejected")
        status = service.tuner_status()
        assert status["enabled"] is True and status["runs"] == 1
        assert status["auto"] is False

    def test_metrics_expose_tuner_counters(self, service):
        service.handle_tuner_request({"force": True})
        text = service.metrics.prometheus()
        assert "rrq_tuner_runs_total 1" in text
        assert "rrq_tuner_last_improvement" in text
        assert "rrq_tuner_last_undecided_refined_fraction" in text

    def test_background_thread_lifecycle(self, service):
        tuner = ServiceTuner(service, interval_s=30.0).start()
        assert tuner._thread is not None and tuner._thread.daemon
        tuner.stop()
        assert tuner._thread is None
        # interval 0 -> no thread at all.
        assert ServiceTuner(service).start()._thread is None


class TestServiceTunerDurable:
    @pytest.fixture
    def durable_service(self, tmp_path):
        from repro.durability import DurableDynamicRRQ
        from repro.service.server import DurableQueryService

        rng = np.random.default_rng(77)
        engine = DurableDynamicRRQ(tmp_path / "db", dim=4,
                                   backend="segmented", seal_every=8,
                                   auto_compact=False, fsync="never")
        service = DurableQueryService(
            engine,
            config=ServiceConfig(batch_window_s=0.0, cache_capacity=32),
        )
        # Two clusters of products -> clustered enough to tune on.
        for center in (0.2, 0.7):
            for _ in range(30):
                service.engine.insert_product(
                    np.clip(rng.normal(center, 0.03, 4), 0, 0.999))
        for _ in range(60):
            w = rng.uniform(0.1, 1.0, 4)
            service.engine.insert_weight(w / w.sum())
        yield service
        service.close()

    def test_mvcc_swap_keeps_answers_exact(self, durable_service):
        service = durable_service
        engine = service.engine
        q = engine.products[5]
        before = service.query(q, kind="rtk", k=5)
        tuner = ServiceTuner(service, probe_queries=4, k=5,
                             min_improvement=-1.0)
        outcome = tuner.run_once(force=True)
        assert outcome["verified"] is True
        after = service.query(q, kind="rtk", k=5)
        assert before["weights"] == after["weights"]
        assert after["weights"] == sorted(engine.reverse_topk(q, 5).weights)
        if outcome["status"] == "swapped":
            # The MVCC swap sealed a fresh generation and retargeted
            # the scheduler's snapshot kernels at the tuned config.
            assert service.scheduler._snapshot_tuning is not None

    def test_post_swap_mutations_stay_visible(self, durable_service):
        service = durable_service
        engine = service.engine
        tuner = ServiceTuner(service, probe_queries=4, k=5,
                             min_improvement=-1.0)
        tuner.run_once(force=True)
        q = engine.products[3]
        service.query(q, kind="rtk", k=5)       # prime the cache
        engine.insert_weight(np.full(4, 0.25))  # mutation invalidates
        fresh = service.query(q, kind="rtk", k=5)
        assert fresh["weights"] == sorted(engine.reverse_topk(q, 5).weights)


class TestDatasetExtraction:
    def test_static_engine_datasets(self, clustered):
        P, W = clustered
        service = QueryService.from_datasets(
            P, W, config=ServiceConfig(batch_window_s=0.0))
        try:
            tuner = ServiceTuner(service)
            products, weights = tuner._datasets()
            assert products.size == P.size and weights.size == W.size
        finally:
            service.close()

    def test_unreadable_engine_or_empty_side_has_no_datasets(self):
        from repro.storage import SegmentStore

        engine = SegmentStore(dim=2, value_range=1.0, partitions=4)
        engine.insert_product([0.5, 0.5])

        class FakeService:
            pass

        service = FakeService()
        service.engine = engine
        tuner = ServiceTuner.__new__(ServiceTuner)
        tuner.service = service
        # Neither static sets nor snapshots: nothing to read.
        assert tuner._datasets() is None
        engine.pin_snapshot = engine.pin
        assert tuner._datasets() is None  # a snapshot with an empty side
        engine.insert_weight([0.5, 0.5])
        products, weights = tuner._datasets()
        assert products.size == 1 and weights.size == 1
