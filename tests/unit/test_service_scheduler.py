"""Unit tests for the micro-batching scheduler (repro.service.scheduler).

The deterministic trick used throughout: construct the scheduler with
``auto_start=False``, stage requests while the dispatcher is parked, then
``start()`` — the first ``get`` plus a non-empty queue guarantees exactly
one coalesced batch, no timing luck required.
"""

import threading

import pytest

from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ServiceOverloadError,
    ServiceUnavailableError,
)
from repro.queries.engine import RRQEngine
from repro.service.limits import ServiceLimits
from repro.service.metrics import render
from repro.service.scheduler import MicroBatchScheduler

from ..model import LiveModel
from .test_segment_store import naive_reference


@pytest.fixture(scope="module")
def engine():
    from repro.data.synthetic import uniform_products, uniform_weights

    P = uniform_products(140, 4, seed=901)
    W = uniform_weights(110, 4, seed=902)
    return RRQEngine(P, W, method="gir")


def make_scheduler(engine, **kwargs):
    kwargs.setdefault("auto_start", False)
    return MicroBatchScheduler(engine, **kwargs)


def broken_kernel():
    """A fault plan under which every kernel sweep raises: the one way
    to put a batch on the per-query route."""
    from repro.resilience.faults import FaultPlan

    return FaultPlan(seed=7).add(
        "scheduler.kernel", "raise", times=None,
        exception=lambda: RuntimeError("tile sweep exploded"))


def pinned_naive(durable):
    """``(rtk, rkr)`` answering from ``NaiveRRQ`` over the engine's live
    rows as pinned now, dense weight indices mapped to ids: the expected
    side of every MVCC assertion, sharing nothing with the kernel."""
    naive, w_gids = naive_reference(durable.engine)

    def rtk(q, k):
        return frozenset(int(w_gids[j])
                         for j in naive.reverse_topk(q, k).weights)

    def rkr(q, k):
        return tuple((rank, int(w_gids[j]))
                     for rank, j in naive.reverse_kranks(q, k).entries)

    return rtk, rkr


class TestCoalescing:
    def test_staged_requests_form_one_batch(self, engine):
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [engine.products[i] for i in (0, 7, 23, 41, 99)]
        futures = [scheduler.submit(q, "rtk", 8) for q in queries[:3]]
        futures += [scheduler.submit(q, "rkr", 5) for q in queries[3:]]
        scheduler.start()
        try:
            results = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()

        for q, result in zip(queries[:3], results[:3]):
            assert result.weights == engine.reverse_topk(q, 8).weights
        for q, result in zip(queries[3:], results[3:]):
            assert result.entries == engine.reverse_kranks(q, 5).entries

        snap = scheduler.metrics.snapshot()
        assert snap["batches"]["total"] == 1
        assert snap["batches"]["coalesced"] == 1
        assert snap["batches"]["max_size"] == 5

    def test_batch_respects_max_batch(self, engine):
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=2),
        )
        futures = [scheduler.submit(engine.products[i], "rtk", 5)
                   for i in range(5)]
        scheduler.start()
        try:
            for f in futures:
                f.result(timeout=10)
        finally:
            scheduler.close()
        snap = scheduler.metrics.snapshot()
        assert snap["batches"]["max_size"] <= 2
        assert snap["batches"]["batched_requests"] == 5

    def test_zero_window_disables_coalescing(self, engine):
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        scheduler.start()
        try:
            for i in (3, 4, 5):
                result = scheduler.answer(engine.products[i], "rtk", 6)
                assert result.weights == engine.reverse_topk(
                    engine.products[i], 6).weights
        finally:
            scheduler.close()
        snap = scheduler.metrics.snapshot()
        assert snap["batches"]["total"] == 3
        assert snap["batches"]["coalesced"] == 0
        assert snap["batches"]["mean_size"] == 1.0

    def test_batched_equals_single_path(self, engine):
        """A query inside a coalesced batch and the engine agree exactly."""
        q = engine.products[17]
        coalescing = make_scheduler(engine, batch_window_s=0.1)
        futures = [coalescing.submit(q, "rkr", 4),
                   coalescing.submit(engine.products[2], "rkr", 4)]
        coalescing.start()
        try:
            batched = futures[0].result(timeout=10)
        finally:
            coalescing.close()
        assert batched.entries == engine.reverse_kranks(q, 4).entries


class TestKernelPath:
    def test_kernel_batches_match_engine_and_feed_metrics(self, engine):
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [engine.products[i] for i in (0, 7, 23, 41)]
        futures = [scheduler.submit(q, "rtk", 8) for q in queries[:2]]
        futures += [scheduler.submit(q, "rkr", 5) for q in queries[2:]]
        scheduler.start()
        try:
            results = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        for q, result in zip(queries[:2], results[:2]):
            assert result.weights == engine.reverse_topk(q, 8).weights
        for q, result in zip(queries[2:], results[2:]):
            assert result.entries == engine.reverse_kranks(q, 5).entries
        kernel = scheduler.metrics.snapshot()["kernel"]
        assert kernel["queries"] == 4
        assert kernel["pairs"]["total"] + kernel["pairs"]["domin_skipped"] > 0
        assert kernel["stage_s"]["filter"] >= 0.0

    def test_coalesced_batch_dispatches_fused(self, engine):
        """A coalesced batch runs one fused kernel call per query kind
        (not one per query), and the answers still match the engine."""
        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [engine.products[i] for i in (3, 11, 29, 57, 88)]
        futures = [scheduler.submit(q, "rtk", 6) for q in queries[:3]]
        futures += [scheduler.submit(q, "rkr", 4) for q in queries[3:]]
        scheduler.start()
        try:
            results = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        for q, result in zip(queries[:3], results[:3]):
            assert result.weights == engine.reverse_topk(q, 6).weights
        for q, result in zip(queries[3:], results[3:]):
            assert result.entries == engine.reverse_kranks(q, 4).entries
        fused = scheduler.metrics.snapshot()["kernel"]["fused"]
        assert fused["queries"] == 5
        assert fused["batches"] == 2  # one rtk group + one rkr group

    def test_each_traced_request_gets_its_own_dispatch_span(self, engine):
        """The spans of a shared sweep enclose it, one per traced request;
        an untraced neighbour never shows up in somebody else's trace."""
        from repro.obs.trace import Tracer

        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        tracer = Tracer()
        roots, futures = [], []
        for i in (5, 17):
            with tracer.trace("test.request") as root:
                futures.append(scheduler.submit(engine.products[i], "rkr", 4))
            roots.append(root)
            futures.append(scheduler.submit(engine.products[i + 1], "rkr", 4))
        scheduler.start()
        try:
            [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        swept = sum(scheduler.metrics.snapshot()["kernel"]["stage_s"].values())
        for root in roots:
            (dispatch,) = tracer.get(root.trace_id)["spans"][0]["children"]
            assert dispatch["name"] == "kernel.batch"
            assert dispatch["annotations"]["batch_size"] == 4
            assert dispatch["annotations"]["fused"] is True
            assert "kernel_stats" not in dispatch["annotations"]
            assert dispatch["duration_s"] >= swept

    def test_lone_sweep_runs_in_its_trace_a_shared_one_in_none(self, engine):
        from repro.obs.trace import Tracer, current_trace_id

        scheduler = make_scheduler(engine, batch_window_s=0.1)
        kernel = scheduler._get_kernel()
        seen = []

        def recording(queries, ks):
            seen.append((len(queries), current_trace_id()))
            return type(kernel).reverse_kranks_batch(kernel, queries, ks)

        kernel.reverse_kranks_batch = recording
        tracer = Tracer()
        try:
            with tracer.trace("test.request") as pair:
                futures = [scheduler.submit(engine.products[i], "rkr", 4)
                           for i in (5, 6)]
            scheduler.start()
            [f.result(timeout=10) for f in futures]
            with tracer.trace("test.request") as lone:
                scheduler.answer(engine.products[7], "rkr", 4)
        finally:
            scheduler.close()
            del kernel.reverse_kranks_batch
        assert pair.trace_id != lone.trace_id
        assert seen == [(2, None), (1, lone.trace_id)]

    def test_sweep_runs_at_one_blas_thread(self, engine, monkeypatch):
        from repro.vectorized import blasthreads

        state = {"threads": 2}
        monkeypatch.setattr(blasthreads, "_controls", [
            (lambda: state["threads"],
             lambda count: state.update(threads=count))])
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        core = scheduler._get_kernel().core
        seen = []

        # The guard sits inside ``core.rtk_batch``: probe from within it.
        def recording(QM):
            seen.append(blasthreads.thread_counts())
            return type(core).prepare_batch(core, QM)

        core.prepare_batch = recording
        scheduler.start()
        try:
            scheduler.answer(engine.products[9], "rtk", 5)
        finally:
            scheduler.close()
            del core.prepare_batch
        assert seen == [[1]]
        assert blasthreads.thread_counts() == [2]

    def test_use_kernel_false_answers_per_query(self, engine):
        """No knob selects the per-query route any more: a coalesced
        batch lands there when its sweep raises, as one counted
        hand-over, answered by the reference scan."""
        from repro.resilience.faults import inject

        scheduler = make_scheduler(
            engine, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        futures = [scheduler.submit(engine.products[i], "rtk", 6)
                   for i in (1, 2, 3)]
        with inject(broken_kernel()):
            scheduler.start()
            try:
                results = [f.result(timeout=10) for f in futures]
            finally:
                scheduler.close()
        for i, result in zip((1, 2, 3), results):
            assert result.weights == engine.reverse_topk(
                engine.products[i], 6).weights
        snap = scheduler.metrics.snapshot()
        assert snap["kernel"]["queries"] == 0
        assert snap["fallbacks"]["routes"] == [
            {"from": "kernel", "to": "reference_scan", "reason": "kernel_error",
             "count": 1}]

    def test_kernel_and_per_query_payloads_identical(self, engine):
        """The acceptance bar: which route answered never changes an
        HTTP response payload."""
        from contextlib import nullcontext

        from repro.resilience.faults import inject
        from repro.service.server import encode_result

        queries = [engine.products[i] for i in (5, 31, 77)]
        payloads = {}
        for route in ("kernel", "per_query"):
            scheduler = make_scheduler(
                engine, batch_window_s=0.1,
                limits=ServiceLimits(max_batch=16),
            )
            futures = [scheduler.submit(q, "rtk", 7) for q in queries]
            futures += [scheduler.submit(q, "rkr", 4) for q in queries]
            with (inject(broken_kernel()) if route == "per_query"
                  else nullcontext()):
                scheduler.start()
                try:
                    answers = [f.result(timeout=10) for f in futures]
                finally:
                    scheduler.close()
            served = scheduler.metrics.snapshot()
            assert (served["kernel"]["queries"] == 0) == (route == "per_query")
            payloads[route] = (
                [encode_result(a, "rtk") for a in answers[:3]]
                + [encode_result(a, "rkr") for a in answers[3:]]
            )
        assert payloads["kernel"] == payloads["per_query"]

    def test_single_request_is_a_batch_of_one_through_the_kernel(
            self, engine):
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        scheduler.start()
        try:
            got = scheduler.answer(engine.products[9], "rtk", 5)
            ranks = scheduler.answer(engine.products[9], "rkr", 5)
        finally:
            scheduler.close()
        assert got.weights == engine.reverse_topk(
            engine.products[9], 5).weights
        assert ranks.entries == engine.reverse_kranks(
            engine.products[9], 5).entries
        snap = scheduler.metrics.snapshot()
        # Same sweep as a coalesced batch, but it shares its tiles with
        # nobody: counted as kernel work, never as fused.
        assert snap["kernel"]["queries"] == 2
        assert snap["kernel"]["fused"] == {"batches": 0, "queries": 0}
        assert snap["batches"]["coalesced"] == 0
        assert snap["fallbacks"]["total"] == 0


class TestDeclaredFallback:
    """A kernel that cannot answer hands its batch to the per-query
    route: exact, counted once per batch, and named on the spans."""

    def _naive_payloads(self, engine, requests):
        from repro.algorithms.naive import NaiveRRQ
        from repro.service.server import canonical_json, encode_result

        naive = NaiveRRQ(engine.products, engine.weights)
        return [canonical_json(encode_result(
            naive.reverse_topk(q, k) if kind == "rtk"
            else naive.reverse_kranks(q, k), kind))
            for q, kind, k in requests]

    def test_kernel_raising_on_every_batch_is_exact_and_counted(
            self, engine):
        from repro.obs.trace import Tracer
        from repro.resilience.faults import inject
        from repro.service.server import canonical_json, encode_result

        requests = [(engine.products[i], kind, 6)
                    for i in (4, 19, 63) for kind in ("rtk", "rkr")]
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        tracer = Tracer()
        payloads = []
        with inject(broken_kernel()) as injector:
            scheduler.start()
            try:
                for q, kind, k in requests:
                    with tracer.trace("test.request") as root:
                        result = scheduler.answer(q, kind, k)
                    payloads.append(
                        canonical_json(encode_result(result, kind)))
                    spans = {s["name"]: s for s in
                             tracer.get(root.trace_id)["spans"][0]["children"]}
                    notes = spans["reference_scan.query"]["annotations"]
                    assert notes["fallback_reason"] == "kernel_error"
                    assert "tile sweep exploded" in notes["fallback_error"]
                assert scheduler.fallback_reason == "kernel_error"
            finally:
                scheduler.close()
            assert injector.fired("scheduler.kernel") == len(requests)
        assert payloads == self._naive_payloads(engine, requests)
        snap = scheduler.metrics.snapshot()
        assert snap["batches"]["total"] == len(requests)
        assert snap["fallbacks"] == {
            "total": len(requests),
            "routes": [{"from": "kernel", "to": "reference_scan",
                        "reason": "kernel_error",
                        "count": len(requests)}],
        }
        assert snap["kernel"]["queries"] == 0
        text = render(scheduler.metrics.snapshot())
        assert ('rrq_fallback_total{from="kernel",to="reference_scan",'
                f'reason="kernel_error"}} {len(requests)}') in text

    def test_failed_build_is_counted_per_batch_and_retried_on_change(
            self, engine, monkeypatch):
        """The id predates the behaviour: nothing a static engine's
        build depends on can change (the hot-swap that did is gone), so
        the build is attempted once and never again; the mutable
        engine's retry on the next generation is
        ``test_failed_snapshot_build_waits_for_the_next_generation``."""
        from repro.vectorized.girkernel import GirKernelRRQ

        attempts = []

        def no_room(*args, **kwargs):
            attempts.append(1)
            raise MemoryError("no room for the score tiles")

        monkeypatch.setattr(GirKernelRRQ, "__init__", no_room)
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        scheduler.start()
        try:
            answers = [scheduler.answer(engine.products[2], "rtk", 5)
                       for _ in range(3)]
        finally:
            scheduler.close()
        assert len(attempts) == 1
        # A kernel that never builds keeps the node degraded.
        assert scheduler.fallback_reason == "kernel_build_error"
        expected = engine.reverse_topk(engine.products[2], 5).weights
        assert all(answer.weights == expected for answer in answers)
        snap = scheduler.metrics.snapshot()
        assert snap["fallbacks"]["routes"] == [
            {"from": "kernel", "to": "reference_scan",
             "reason": "kernel_build_error", "count": 3}]
        assert snap["kernel"]["queries"] == 0


class TestWindowEnd:
    """What closes a window, by count and order: the windows here are 5 s
    and every wait is 3 s, so a request answered at all was answered
    while its window was still open."""

    @staticmethod
    def _windows(scheduler):
        return scheduler.metrics.snapshot()["batches"]["windows"]

    def test_nobody_idle_a_lone_request_leaves_at_once(self, engine):
        scheduler = make_scheduler(engine, batch_window_s=5.0,
                                   idle_connections=lambda: 0)
        scheduler.start()
        try:
            got = scheduler.submit(engine.products[9], "rtk", 5).result(
                timeout=3)
        finally:
            scheduler.close()
        assert got.weights == engine.reverse_topk(
            engine.products[9], 5).weights
        assert self._windows(scheduler) == {
            "expired": 0, "complete": 1, "full": 0}

    def test_one_idle_holds_until_its_request_joins(self, engine):
        from repro.obs.trace import Tracer

        idle, asked = [1], threading.Event()

        def idle_connections():
            asked.set()
            return idle[0]

        scheduler = make_scheduler(engine, batch_window_s=5.0,
                                   idle_connections=idle_connections)
        scheduler.start()
        tracer = Tracer()
        try:
            with tracer.trace("test.request") as root:
                first = scheduler.submit(engine.products[5], "rkr", 4)
            # The dispatcher holds ``first`` and has been told of the one
            # caller still to come ...
            assert asked.wait(timeout=3)
            assert not first.done()
            # ... whose request joins, and nobody is left to wait for.
            idle[0] = 0
            second = scheduler.submit(engine.products[6], "rkr", 4)
            results = [f.result(timeout=3) for f in (first, second)]
        finally:
            scheduler.close()
        for i, result in zip((5, 6), results):
            assert result.entries == engine.reverse_kranks(
                engine.products[i], 4).entries
        batches = scheduler.metrics.snapshot()["batches"]
        assert (batches["total"], batches["max_size"]) == (1, 2)
        assert batches["windows"] == {"expired": 0, "complete": 1, "full": 0}
        (dispatch,) = tracer.get(root.trace_id)["spans"][0]["children"]
        assert dispatch["annotations"]["window"] == "complete"

    def test_nothing_arriving_is_counted_again_after_a_yield(
            self, engine, monkeypatch):
        """A count of zero is believed only once the dispatcher has given
        up the CPU and counted again: the second request of a pair whose
        sender was preempted goes out in that yield."""
        import os

        yields, seen, looked = [], [], threading.Event()
        monkeypatch.setattr(os, "sched_yield", lambda: yields.append(1))

        def idle_connections():
            seen.append(len(yields))
            if len(seen) == 2:  # the peer sent in the yield
                looked.set()
                return 1
            return 0

        scheduler = make_scheduler(engine, batch_window_s=5.0,
                                   idle_connections=idle_connections)
        scheduler.start()
        try:
            first = scheduler.submit(engine.products[5], "rtk", 4)
            assert looked.wait(timeout=3)
            assert not first.done()
            second = scheduler.submit(engine.products[6], "rtk", 4)
            [f.result(timeout=3) for f in (first, second)]
        finally:
            scheduler.close()
        assert seen[:2] == [0, 1]  # counted before the yield and after
        batches = scheduler.metrics.snapshot()["batches"]
        assert (batches["total"], batches["max_size"]) == (1, 2)
        assert batches["windows"] == {"expired": 0, "complete": 1, "full": 0}

    def test_the_queue_is_drained_before_the_window_closes(self, engine):
        scheduler = make_scheduler(engine, batch_window_s=5.0,
                                   idle_connections=lambda: 0)
        futures = [scheduler.submit(engine.products[i], "rtk", 5)
                   for i in range(3)]
        scheduler.start()
        try:
            [f.result(timeout=3) for f in futures]
        finally:
            scheduler.close()
        batches = scheduler.metrics.snapshot()["batches"]
        assert (batches["total"], batches["max_size"]) == (1, 3)
        assert batches["windows"]["complete"] == 1

    def test_without_a_server_the_clock_or_max_batch_closes(self, engine):
        scheduler = make_scheduler(engine, batch_window_s=0.05,
                                   limits=ServiceLimits(max_batch=2))
        futures = [scheduler.submit(engine.products[i], "rtk", 5)
                   for i in range(5)]
        scheduler.start()
        try:
            [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        assert self._windows(scheduler) == {
            "expired": 1, "complete": 0, "full": 2}

    def test_answer_waits_on_the_deadline_the_dispatcher_checks(
            self, engine, monkeypatch):
        """One ``Deadline`` per request: the caller's wait and the
        dispatcher's expiry check read the same clock."""
        built = []
        real = ServiceLimits.deadline

        def counting(limits, seconds=None):
            built.append(seconds)
            return real(limits, seconds)

        monkeypatch.setattr(ServiceLimits, "deadline", counting)
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        scheduler.start()
        try:
            scheduler.answer(engine.products[1], "rtk", 5, deadline_s=7.0)
        finally:
            scheduler.close()
        assert built == [7.0]


class TestDeadlines:
    def test_expired_deadline_rejected_at_dispatch(self, engine):
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        future = scheduler.submit(engine.products[0], "rtk", 5, deadline_s=0.0)
        scheduler.start()
        try:
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=10)
        finally:
            scheduler.close()
        snap = scheduler.metrics.snapshot()
        assert snap["requests"]["rejected_deadline"] == 1

    def test_an_expiry_is_counted_once(self, engine):
        """A waiter that times out while its request is queued and the
        dispatcher that later finds it expired book it once between
        them."""
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        scheduler.start()
        try:
            for i in range(20):
                with pytest.raises(DeadlineExceededError):
                    scheduler.answer(engine.products[i], "rtk", 5,
                                     deadline_s=0)
        finally:
            scheduler.close()
        snap = scheduler.metrics.snapshot()
        assert snap["requests"]["rejected_deadline"] == 20

    def test_an_expiry_parked_until_close_is_counted_once(self, engine):
        """A request its waiter gave up on is skipped at shutdown: it is
        a deadline rejection, not also a 503."""
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        with pytest.raises(DeadlineExceededError):
            scheduler.answer(engine.products[0], "rtk", 5, deadline_s=0.01)
        scheduler.close()
        requests = scheduler.metrics.snapshot()["requests"]
        assert requests["rejected_deadline"] == 1
        assert requests["rejected_unavailable"] == 0

    def test_answer_times_out_while_parked(self, engine):
        """answer() enforces the deadline even if dispatch never happens."""
        scheduler = make_scheduler(engine, batch_window_s=0.0)
        with pytest.raises(DeadlineExceededError):
            scheduler.answer(engine.products[0], "rtk", 5, deadline_s=0.05)
        scheduler.close()

    def test_unbounded_deadline_allowed(self, engine):
        scheduler = make_scheduler(
            engine, batch_window_s=0.0,
            limits=ServiceLimits(default_deadline_s=None),
        )
        scheduler.start()
        try:
            result = scheduler.answer(engine.products[1], "rtk", 5)
            assert result.k == 5
        finally:
            scheduler.close()


class TestOverflow:
    def test_full_queue_rejects_submit(self, engine):
        scheduler = make_scheduler(
            engine, limits=ServiceLimits(max_queue_depth=4),
        )
        for i in range(4):
            scheduler.submit(engine.products[i], "rtk", 5)
        with pytest.raises(ServiceOverloadError):
            scheduler.submit(engine.products[4], "rtk", 5)
        assert scheduler.queue_depth() == 4
        snap = scheduler.metrics.snapshot()
        assert snap["requests"]["rejected_overload"] == 1
        scheduler.close()

    def test_close_fails_parked_requests_with_503(self, engine):
        """With the dispatcher parked, shutdown sheds the queue as 503s."""
        scheduler = make_scheduler(engine)
        future = scheduler.submit(engine.products[0], "rtk", 5)
        scheduler.close()
        with pytest.raises(ServiceUnavailableError):
            future.result(timeout=1)
        snap = scheduler.metrics.snapshot()
        assert snap["requests"]["rejected_unavailable"] == 1


class TestShutdownDrain:
    def test_close_drains_admitted_requests(self, engine):
        """Requests admitted before close() are answered, not dropped."""
        scheduler = make_scheduler(engine, batch_window_s=0.02)
        futures = [scheduler.submit(engine.products[i], "rtk", 6)
                   for i in range(4)]
        scheduler.start()
        scheduler.close(drain=True)
        for i, future in enumerate(futures):
            result = future.result(timeout=1)
            assert result.weights == engine.reverse_topk(
                engine.products[i], 6).weights

    def test_submit_after_close_is_503(self, engine):
        scheduler = make_scheduler(engine)
        scheduler.start()
        scheduler.close()
        with pytest.raises(ServiceUnavailableError):
            scheduler.submit(engine.products[0], "rtk", 5)

    def test_close_without_drain_sheds_queue(self, engine):
        scheduler = make_scheduler(engine)
        futures = [scheduler.submit(engine.products[i], "rtk", 5)
                   for i in range(3)]
        scheduler.close(drain=False)
        for future in futures:
            with pytest.raises(ServiceUnavailableError):
                future.result(timeout=1)


class TestValidation:
    def test_bad_kind_and_k(self, engine):
        scheduler = make_scheduler(engine)
        with pytest.raises(InvalidParameterError):
            scheduler.submit(engine.products[0], "nearest", 5)
        with pytest.raises(InvalidParameterError):
            scheduler.submit(engine.products[0], "rtk", 0)
        with pytest.raises(InvalidParameterError):
            MicroBatchScheduler(engine, batch_window_s=-1.0, auto_start=False)
        scheduler.close()

    def test_engine_of_neither_kind_is_refused_at_construction(self):
        """Static arrays or pinned snapshots — a bare store offers
        neither, and must fail here, not at the first dispatch."""
        from repro.storage import SegmentStore

        store = SegmentStore(dim=3)
        store.insert_product([0.1, 0.2, 0.3])
        with pytest.raises(InvalidParameterError, match="pin_snapshot"):
            make_scheduler(store)

    def test_concurrent_submitters_all_answered(self, engine):
        scheduler = make_scheduler(engine, batch_window_s=0.02)
        scheduler.start()
        results = {}
        barrier = threading.Barrier(8)

        def hit(i):
            barrier.wait()
            results[i] = scheduler.answer(engine.products[i], "rtk", 7)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        scheduler.close()
        for i in range(8):
            assert results[i].weights == engine.reverse_topk(
                engine.products[i], 7).weights


class TestSnapshotBatchPath:
    """Coalesced batches over an MVCC engine pin one snapshot: no engine
    lock for the whole batch, answers byte-identical to the engine."""

    @pytest.fixture
    def durable(self, tmp_path):
        import numpy as np

        from repro.durability import DurableDynamicRRQ

        rng = np.random.default_rng(911)
        engine = DurableDynamicRRQ(tmp_path / "db", dim=4,
                                   backend="segmented", seal_every=16,
                                   auto_compact=False, fsync="never")
        for _ in range(60):
            engine.insert_product(rng.uniform(0, 0.9, 4))
        for _ in range(40):
            w = rng.uniform(0.1, 1.0, 4)
            engine.insert_weight(w / w.sum())
        yield engine
        engine.close()

    def test_batch_pins_one_snapshot_and_matches_engine(self, durable):
        scheduler = make_scheduler(
            durable, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [durable.products[i] for i in (0, 7, 23, 41)]
        futures = [scheduler.submit(q, "rtk", 8) for q in queries[:2]]
        futures += [scheduler.submit(q, "rkr", 5) for q in queries[2:]]
        scheduler.start()
        try:
            results = [f.result(timeout=10) for f in futures]
        finally:
            scheduler.close()
        rtk, rkr = pinned_naive(durable)
        for q, result in zip(queries[:2], results[:2]):
            assert result.weights == rtk(q, 8)
        for q, result in zip(queries[2:], results[2:]):
            assert result.entries == rkr(q, 5)
        # The store's densified kernel answered the batch.
        assert scheduler.metrics.snapshot()["kernel"]["queries"] == 4
        assert durable.engine._kernel is not None

    def test_kernel_cache_rebuilds_only_when_the_store_moves(self, durable):
        import numpy as np

        scheduler = make_scheduler(
            durable, batch_window_s=0.1,
            limits=ServiceLimits(max_batch=16),
        )
        queries = [durable.products[i] for i in (1, 5, 9)]

        def run_batch():
            futures = [scheduler.submit(q, "rtk", 6) for q in queries]
            scheduler.start()
            return [f.result(timeout=10) for f in futures]

        run_batch()
        first = durable.engine._kernel
        assert first is not None
        # Same store generation -> the kernel the store holds is reused.
        futures = [scheduler.submit(q, "rkr", 4) for q in queries]
        [f.result(timeout=10) for f in futures]
        assert durable.engine._kernel is first

        durable.insert_product(np.full(4, 0.42))  # writer never blocked
        futures = [scheduler.submit(q, "rtk", 6) for q in queries]
        results = [f.result(timeout=10) for f in futures]
        scheduler.close()
        assert durable.engine._kernel is not first  # generation moved
        rtk, _ = pinned_naive(durable)
        for q, result in zip(queries, results):
            assert result.weights == rtk(q, 6)

    def test_single_request_builds_and_uses_the_snapshot_kernel(
            self, durable):
        scheduler = make_scheduler(durable, batch_window_s=0.0)
        scheduler.start()
        try:
            got = scheduler.answer(durable.products[3], "rtk", 5)
        finally:
            scheduler.close()
        assert got.weights == pinned_naive(durable)[0](
            durable.products[3], 5)
        snap = scheduler.metrics.snapshot()
        assert durable.engine._kernel is not None
        assert snap["kernel"]["queries"] == 1
        assert snap["kernel"]["fused"]["queries"] == 0
        assert snap["fallbacks"]["total"] == 0

    def test_failed_snapshot_build_waits_for_the_next_generation(
            self, durable, monkeypatch):
        import numpy as np

        from repro.storage import SnapshotKernel

        real = SnapshotKernel.build.__func__
        attempts = []

        def fails_once(cls, snap, **kwargs):
            attempts.append(snap.generation)
            if len(attempts) == 1:
                raise MemoryError("no room to densify")
            return real(cls, snap, **kwargs)

        monkeypatch.setattr(SnapshotKernel, "build", classmethod(fails_once))
        scheduler = make_scheduler(durable, batch_window_s=0.0)
        q = durable.products[3]
        scheduler.start()
        try:
            scanned = [scheduler.answer(q, "rkr", 4) for _ in range(2)]
            assert len(attempts) == 1  # same generation: not attempted again
            before = pinned_naive(durable)[1](q, 4)
            durable.insert_product(np.full(4, 0.42))
            swept = scheduler.answer(q, "rkr", 4)
        finally:
            scheduler.close()
        assert len(attempts) == 2 and attempts[1] != attempts[0]
        assert [answer.entries for answer in scanned] == [before, before]
        assert swept.entries == pinned_naive(durable)[1](q, 4)
        snap = scheduler.metrics.snapshot()
        assert snap["fallbacks"]["routes"] == [
            {"from": "kernel", "to": "reference_scan",
             "reason": "kernel_build_error", "count": 2}]
        assert snap["kernel"]["queries"] == 1

    def test_empty_snapshot_side_is_a_counted_fallback(self, tmp_path):
        """The id predates the behaviour: an empty side used to be
        booked as a fallback to a route that could only raise.  It is
        the request's error (HTTP 400) and no fallback is counted."""
        import numpy as np

        from repro.durability import DurableDynamicRRQ
        from repro.service.limits import http_status

        engine = DurableDynamicRRQ(tmp_path / "empty", dim=3,
                                   backend="segmented", fsync="never")
        try:
            engine.insert_product(np.array([0.2, 0.4, 0.1]))
            scheduler = make_scheduler(engine, batch_window_s=0.0)
            scheduler.start()
            try:
                # There are no weights to rank.
                for kind in ("rtk", "rkr"):
                    with pytest.raises(InvalidParameterError) as refused:
                        scheduler.answer(np.array([0.3, 0.3, 0.3]), kind, 2)
                    assert http_status(refused.value) == 400
            finally:
                scheduler.close()
        finally:
            engine.close()
        assert scheduler.metrics.snapshot()["fallbacks"]["total"] == 0


class TestSnapshotFallback:
    """The kernel route's declared fallback on a mutable engine is the
    reference scan over the pinned rows: whatever the store has been
    through, the bytes are the model's and each batch is counted once."""

    def test_broken_kernel_after_writes_seal_and_compact_matches_model(
            self, tmp_path):
        import numpy as np

        from repro.durability import DurableDynamicRRQ
        from repro.obs.trace import Tracer
        from repro.resilience.faults import inject
        from repro.service.server import canonical_json, encode_result

        rng = np.random.default_rng(933)
        model = LiveModel()
        durable = DurableDynamicRRQ(tmp_path / "db", dim=4, seal_every=0,
                                    auto_compact=False, fsync="never")

        def write(op, *args):
            got = getattr(durable, op)(*args)
            want = getattr(model, op)(*args)
            if want is not None:  # inserts and modifies hand out an id
                assert got[0] == want

        def grow(products, weights):
            for _ in range(products):
                write("insert_product", rng.uniform(0, 0.9, 4))
            for _ in range(weights):
                w = rng.uniform(0.1, 1.0, 4)
                write("insert_weight", w / w.sum())

        try:
            grow(30, 20)
            durable.engine.seal(force=True)
            write("delete_product", 4)       # tombstones over a segment
            write("delete_weight", 7)
            write("modify_product", 11, rng.uniform(0, 0.9, 4))
            grow(10, 8)
            durable.compact()                # one segment, tombstones gone
            grow(6, 5)                       # and an unsealed delta on top
            write("delete_product", 41)
            write("delete_weight", 22)

            queries = [rng.uniform(0, 0.9, 4) for _ in range(4)]
            expected = {}
            for i, q in enumerate(queries):
                rtk, rkr = model.answers(q, 5)
                expected[i, "rtk"] = canonical_json(
                    {"kind": "rtk", "k": 5, "size": len(rtk),
                     "weights": sorted(rtk)})
                expected[i, "rkr"] = canonical_json(
                    {"kind": "rkr", "k": 5,
                     "entries": [list(pair) for pair in rkr]})

            scheduler = make_scheduler(
                durable, batch_window_s=0.1,
                limits=ServiceLimits(max_batch=16))
            tracer = Tracer()
            with inject(broken_kernel()):
                # Coalesced: both kinds in one staged batch.
                staged = [(i, kind) for kind in ("rtk", "rkr")
                          for i in (0, 1)]
                futures = [scheduler.submit(queries[i], kind, 5)
                           for i, kind in staged]
                scheduler.start()
                try:
                    served = {key: canonical_json(encode_result(
                        future.result(timeout=10), key[1]))
                        for key, future in zip(staged, futures)}
                    # Alone: a batch of one per kind.
                    for key in ((2, "rtk"), (3, "rkr")):
                        with tracer.trace("test.request") as root:
                            result = scheduler.answer(queries[key[0]],
                                                      key[1], 5)
                        served[key] = canonical_json(
                            encode_result(result, key[1]))
                        (span,) = tracer.get(
                            root.trace_id)["spans"][0]["children"][1:]
                        assert span["name"] == "reference_scan.query"
                        assert (span["annotations"]["fallback_reason"]
                                == "kernel_error")
                finally:
                    scheduler.close()
        finally:
            durable.close()
        assert served == {key: expected[key] for key in served}
        snap = scheduler.metrics.snapshot()
        assert snap["batches"]["total"] == 3
        assert snap["fallbacks"]["routes"] == [
            {"from": "kernel", "to": "reference_scan", "reason": "kernel_error",
             "count": 3}]
        assert snap["kernel"]["queries"] == 0


class TestRawStoreServing:
    def test_memory_only_store_is_served_on_the_kernel_route(self):
        """The documented "serve a dynamic engine + bind_dynamic" use: a
        raw memory-only store needs one alias, ``pin_snapshot = pin``,
        and answers byte-identical to ``NaiveRRQ`` before and after a
        mutation, with no fallback."""
        from repro.algorithms.naive import NaiveRRQ
        from repro.data.datasets import ProductSet
        from repro.data.synthetic import uniform_products, uniform_weights
        from repro.service.cache import bind_dynamic
        from repro.service.server import (
            QueryService,
            ServiceConfig,
            canonical_json,
            encode_result,
        )
        from repro.storage import SegmentStore

        P = uniform_products(60, 3, seed=931)
        W = uniform_weights(40, 3, seed=932)
        store = SegmentStore.from_datasets(P, W, partitions=8)
        store.pin_snapshot = store.pin
        service = QueryService(store, config=ServiceConfig(
            batch_window_s=0.0))
        bind_dynamic(service.cache, store)
        try:
            q = [float(x) for x in P.values[5]]
            for products in (P, None):
                if products is None:  # after a mutation: cache flushed
                    new = [0.01, 0.01, 0.01]
                    assert store.insert_product(new) == P.size
                    products = ProductSet(
                        list(P.values) + [new], value_range=P.value_range)
                naive = NaiveRRQ(products, W)
                for kind, run in (("rtk", naive.reverse_topk),
                                  ("rkr", naive.reverse_kranks)):
                    got = service.query(q, kind=kind, k=6)
                    assert canonical_json(got) == canonical_json(
                        encode_result(run(q, 6), kind))
            snap = service.metrics_snapshot()
            assert snap["kernel"]["queries"] == 4
            assert snap["fallbacks"]["total"] == 0
        finally:
            service.close()
