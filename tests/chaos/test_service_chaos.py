"""Chaos tests for the self-healing service layer.

Under injected engine failures, index corruption, and mid-flight
shutdown, the service must degrade — never lie.  Each test drives the
stack through a deterministic :class:`FaultPlan` and checks two things:
the *signalling* (``degraded`` flags, breaker state, structured 503s)
and the *answers* (byte-identical to the exact naive scan, per
:func:`tests.chaos.conftest.assert_exact_answer`).
"""

import time

import pytest

from repro.core.storage import save_index
from repro.errors import (
    ServiceOverloadError,
    ServiceUnavailableError,
)
from repro.resilience.faults import FaultPlan, inject
from repro.service import (
    QueryService,
    ServiceClient,
    ServiceConfig,
    serve_in_background,
)

from .conftest import assert_exact_answer


def make_service(datasets, **config_kwargs):
    P, W = datasets
    config_kwargs.setdefault("batch_window_s", 0.0)
    return QueryService.from_datasets(P, W, method="gir",
                                      config=ServiceConfig(**config_kwargs))


class TestBreakerDegradation:
    def test_engine_faults_degrade_then_self_heal(self, datasets,
                                                  naive_oracle, chaos_seed):
        """Dispatch failures flip to exact fallback answers, open the

        breaker after the threshold, and the probe closes it again once
        the faults stop — the full self-healing loop."""
        P, _ = datasets
        service = make_service(datasets, breaker_threshold=3,
                               breaker_reset_s=0.2)
        plan = FaultPlan(seed=chaos_seed).add(
            "scheduler.dispatch", "raise", times=3,
            exception=lambda: RuntimeError("injected engine failure"))
        with service, inject(plan) as injector:
            # Three failing engine trips: every answer degraded but exact.
            for i in range(3):
                q = P[i]
                response = service.query(list(q), kind="rtk", k=7)
                assert response["degraded"] is True
                assert_exact_answer(response, naive_oracle, q, "rtk", 7)
            assert injector.fired("scheduler.dispatch") == 3

            health = service.healthz()
            assert health["status"] == "degraded"
            assert health["degraded"] is True
            assert health["breaker"] == "open"

            # Circuit open: the engine is bypassed (no new faults consumed)
            # yet answers keep flowing, exact and flagged.
            q = P[10]
            response = service.query(list(q), kind="rkr", k=4)
            assert response["degraded"] is True
            assert_exact_answer(response, naive_oracle, q, "rkr", 4)
            assert injector.fired("scheduler.dispatch") == 3

            # Cool-down passes; the next request is the half-open probe,
            # the faults are exhausted, and the circuit closes.
            time.sleep(0.25)
            assert service.healthz()["breaker"] == "half-open"
            q = P[20]
            response = service.query(list(q), kind="rtk", k=7)
            assert "degraded" not in response
            assert_exact_answer(response, naive_oracle, q, "rtk", 7)
            health = service.healthz()
            assert health["status"] == "ok"
            assert health["breaker"] == "closed"

        snap = service.metrics_snapshot()
        assert snap["requests"]["degraded"] == 4
        assert snap["requests"]["errors"] == 3

    def test_fallback_disabled_surfaces_503(self, datasets, chaos_seed):
        P, _ = datasets
        service = make_service(datasets, fallback=False, breaker_threshold=1,
                               breaker_reset_s=60.0)
        plan = FaultPlan(seed=chaos_seed).add(
            "scheduler.dispatch", "raise",
            exception=lambda: RuntimeError("injected engine failure"))
        with service, inject(plan):
            with pytest.raises(RuntimeError, match="injected engine failure"):
                service.query(list(P[0]), kind="rtk", k=5)
            # Breaker now open and there is nothing to fall back to.
            with pytest.raises(ServiceUnavailableError, match="circuit open"):
                service.query(list(P[1]), kind="rtk", k=5)

    def test_degraded_answers_are_not_cached(self, datasets, naive_oracle,
                                             chaos_seed):
        """A healed engine must not keep serving flagged cache entries."""
        P, _ = datasets
        service = make_service(datasets, breaker_threshold=5,
                               breaker_reset_s=60.0)
        plan = FaultPlan(seed=chaos_seed).add(
            "scheduler.dispatch", "raise",
            exception=lambda: RuntimeError("one bad dispatch"))
        q = P[33]
        with service, inject(plan):
            degraded = service.query(list(q), kind="rtk", k=6)
            assert degraded["degraded"] is True
            healthy = service.query(list(q), kind="rtk", k=6)
            assert "degraded" not in healthy
            assert_exact_answer(healthy, naive_oracle, q, "rtk", 6)
        assert service.cache.stats()["hits"] == 0


class TestCorruptIndexOverHTTP:
    def test_corrupt_index_serves_degraded_but_exact(self, built_index,
                                                     naive_oracle, tmp_path):
        """A damaged index starts on a kernel rebuilt from its raw data:

        counted once as a ``kernel_store`` rebuild and warned about by
        name, then every answer is byte-exact and unflagged — the
        rebuilt kernel is the same kernel, not a degraded engine."""
        save_index(tmp_path / "idx", built_index)
        meta = tmp_path / "idx" / "grid.meta"
        meta.write_bytes(b"\x00" * meta.stat().st_size)

        with pytest.warns(RuntimeWarning, match="grid.meta"):
            service = QueryService.from_index_dir(
                tmp_path / "idx", config=ServiceConfig(batch_window_s=0.0))
        with serve_in_background(service) as server:
            client = ServiceClient(server.url)
            health = client.wait_until_healthy()
            assert health["status"] == "ok"

            for i, kind, k in [(0, "rtk", 9), (41, "rkr", 3)]:
                q = built_index.products[i]
                response = client.query(list(q), kind=kind, k=k)
                assert "degraded" not in response
                assert_exact_answer(response, naive_oracle, q, kind, k)
        assert service.metrics_snapshot()["fallbacks"]["routes"] == [
            {"from": "kernel_store", "to": "rebuild", "reason": "corrupt",
             "count": 1}]


class TestClientRetries:
    def test_client_rides_out_transient_429s(self, datasets, naive_oracle,
                                             chaos_seed):
        """Two injected admission rejections, then success — invisible to

        the caller thanks to jittered retries."""
        P, _ = datasets
        service = make_service(datasets)
        plan = FaultPlan(seed=chaos_seed).add(
            "service.query", "raise", times=2,
            exception=lambda: ServiceOverloadError("injected overload"))
        with service, serve_in_background(service) as server:
            client = ServiceClient(server.url, retries=3,
                                   backoff_base_s=0.005)
            client.wait_until_healthy()
            with inject(plan) as injector:
                q = P[5]
                response = client.query(list(q), kind="rtk", k=8)
                assert injector.fired("service.query") == 2
            assert "degraded" not in response
            assert_exact_answer(response, naive_oracle, q, "rtk", 8)

    def test_retries_exhausted_surface_the_overload(self, datasets,
                                                    chaos_seed):
        P, _ = datasets
        service = make_service(datasets)
        plan = FaultPlan(seed=chaos_seed).add(
            "service.query", "raise", times=None,
            exception=lambda: ServiceOverloadError("injected overload"))
        with service, serve_in_background(service) as server:
            client = ServiceClient(server.url, retries=1,
                                   backoff_base_s=0.001)
            client.wait_until_healthy()
            with inject(plan) as injector:
                with pytest.raises(ServiceOverloadError,
                                   match="injected overload"):
                    client.query(list(P[0]), kind="rtk", k=5)
                assert injector.fired("service.query") == 2  # 1 + 1 retry


class TestShutdownOverHTTP:
    def test_drained_shutdown_rejects_with_structured_503(self, datasets):
        P, _ = datasets
        service = make_service(datasets)
        with serve_in_background(service) as server:
            client = ServiceClient(server.url, retries=0)
            client.wait_until_healthy()
            assert client.query(list(P[0]), kind="rtk", k=5)["weights"] \
                is not None
            service.close(drain=True)
            with pytest.raises(ServiceUnavailableError,
                               match="shutting down"):
                client.query(list(P[1]), kind="rtk", k=5)
            snap = client.metrics()
            assert snap["requests"]["rejected_unavailable"] >= 1


class TestExactnessUnderSustainedChaos:
    def test_every_successful_answer_is_exact(self, datasets, naive_oracle,
                                              chaos_seed):
        """The headline invariant: a sustained, probabilistic mix of

        latency and engine faults may slow or flag responses — every
        response that comes back is still byte-identical to naive."""
        P, _ = datasets
        service = make_service(datasets, breaker_threshold=3,
                               breaker_reset_s=0.05, cache_capacity=8)
        plan = (FaultPlan(seed=chaos_seed)
                .add("scheduler.dispatch", "raise", times=None,
                     probability=0.3,
                     exception=lambda: RuntimeError("flaky engine"))
                .add("service.query", "latency", times=None,
                     probability=0.2, latency_s=0.001))
        answered = degraded_count = 0
        with service, inject(plan):
            for i in range(40):
                q = P[i % P.size]
                kind = "rtk" if i % 2 == 0 else "rkr"
                k = 3 + (i % 5)
                response = service.query(list(q), kind=kind, k=k)
                answered += 1
                degraded_count += 1 if response.get("degraded") else 0
                assert_exact_answer(response, naive_oracle, q, kind, k)
        assert answered == 40
        assert degraded_count > 0  # the plan really did bite
