"""The failure detector's state machine and the supervisor's repair loop.

In-process HTTP workers (``serve_in_background``) play the primaries and
standbys — real sockets, no subprocesses — and every probe/act step is
driven by explicit ``tick()`` calls, so each assertion names the exact
tick where a state transition must happen.  The subprocess/SIGKILL
acceptance path lives in ``tests/chaos/test_cluster_failover.py``.
"""

from contextlib import ExitStack

import pytest

from repro.cluster import ClusterCoordinator, ClusterTopology
from repro.cluster.supervision import ClusterSupervisor, FailureDetector
from repro.data.datasets import WeightSet
from repro.data.synthetic import uniform_products, uniform_weights
from repro.resilience.faults import FaultInjector, FaultPlan, inject
from repro.service.server import QueryService, serve_in_background

PRODUCTS = uniform_products(size=40, dim=3, seed=911)
WEIGHTS = uniform_weights(size=30, dim=3, seed=912)


def start_worker(stack):
    """One in-process naive HTTP worker over the full weight set."""
    service = QueryService.from_datasets(PRODUCTS, WEIGHTS, method="naive")
    return stack.enter_context(serve_in_background(service))


def make_coordinator(stack, endpoints_per_shard):
    topology = ClusterTopology.build(endpoints_per_shard, WEIGHTS.size,
                                     "range")
    coordinator = ClusterCoordinator(topology, shard_timeout_s=5.0)
    stack.callback(coordinator.close)
    return coordinator


class TestFailureDetector:
    def test_alive_primary_stays_alive(self):
        with ExitStack() as stack:
            server = start_worker(stack)
            coordinator = make_coordinator(stack, [[server.url]])
            detector = FailureDetector(coordinator)
            for _ in range(4):
                assert detector.tick() == {0: "alive"}
            snap = detector.snapshot()["0"]
            assert snap["consecutive_misses"] == 0
            assert snap["probes"] == 4
            assert snap["misses"] == 0

    def test_misses_escalate_suspect_then_dead_at_thresholds(self):
        with ExitStack() as stack:
            coordinator = make_coordinator(stack, [["http://127.0.0.1:9"]])
            detector = FailureDetector(coordinator, probe_timeout_s=0.2,
                                       suspect_after=2, dead_after=4)
            states = [detector.probe(0) for _ in range(5)]
            assert states == ["alive", "suspect", "suspect", "dead", "dead"]

    def test_one_success_resets_the_miss_streak(self):
        """A GC pause (2 misses) must not leave a lasting mark."""
        with ExitStack() as stack:
            server = start_worker(stack)
            coordinator = make_coordinator(stack, [[server.url]])
            detector = FailureDetector(coordinator, suspect_after=2,
                                       dead_after=3)
            plan = FaultPlan().add("supervision.heartbeat", "io_error",
                                   times=2)
            with inject(plan) as injector:
                assert detector.probe(0) == "alive"   # miss 1 (injected)
                assert detector.probe(0) == "suspect"  # miss 2
                assert detector.probe(0) == "alive"    # fault exhausted
                assert injector.fired("supervision.heartbeat") == 2
            assert detector.snapshot()["0"]["consecutive_misses"] == 0

    def test_reachable_but_slow_stays_alive_never_dead(self):
        """Latency is reported, never acted on; only misses can kill."""
        with ExitStack() as stack:
            server = start_worker(stack)
            coordinator = make_coordinator(stack, [[server.url]])
            detector = FailureDetector(coordinator,
                                       dead_after=1, suspect_after=1)
            plan = FaultPlan().add("supervision.heartbeat", "latency",
                                   latency_s=0.05, times=5)
            with inject(plan):
                for _ in range(5):
                    assert detector.probe(0) == "alive"
            snap = detector.snapshot()["0"]
            assert snap["misses"] == 0
            assert snap["ewma_latency_ms"] >= 50.0

    def test_http_error_status_is_a_miss(self):
        """A probe goes through the shard's ``ServiceClient``: an answer
        that is not a 200 (here a 404) is a missed heartbeat, like no
        answer."""
        with ExitStack() as stack:
            server = start_worker(stack)
            coordinator = make_coordinator(stack, [[server.url + "/nope"]])
            detector = FailureDetector(coordinator, suspect_after=1,
                                       dead_after=2)
            assert [detector.probe(0) for _ in range(2)] == \
                ["suspect", "dead"]
            assert detector.snapshot()["0"]["last_error"].endswith(
                "/nope/healthz")

    def test_routing_flip_starts_a_fresh_streak(self):
        """A promoted primary must not inherit its predecessor's misses."""
        with ExitStack() as stack:
            server = start_worker(stack)
            coordinator = make_coordinator(
                stack, [["http://127.0.0.1:9", server.url]])
            detector = FailureDetector(coordinator, probe_timeout_s=0.2,
                                       suspect_after=1, dead_after=2)
            assert detector.probe(0) == "suspect"
            assert detector.probe(0) == "dead"
            coordinator.replace_shard_endpoints(0, [server.url])
            assert detector.probe(0) == "alive"
            assert detector.snapshot()["0"]["consecutive_misses"] == 0

    def test_threshold_validation(self):
        with ExitStack() as stack:
            coordinator = make_coordinator(stack, [["http://127.0.0.1:9"]])
            with pytest.raises(ValueError):
                FailureDetector(coordinator, suspect_after=5, dead_after=3)


class TestClusterSupervisor:
    def _dead_primary_with_standby(self, stack):
        """Shard 0: unreachable primary + one answering standby."""
        standby = start_worker(stack)
        coordinator = make_coordinator(
            stack, [["http://127.0.0.1:9", standby.url]])
        detector = FailureDetector(coordinator, probe_timeout_s=0.2,
                                   suspect_after=1, dead_after=2)
        return coordinator, detector, standby

    def test_promotes_standby_and_flips_routing(self, monkeypatch):
        with ExitStack() as stack:
            coordinator, detector, standby = \
                self._dead_primary_with_standby(stack)
            promoted = []
            monkeypatch.setattr(
                coordinator.clients[0], "promote",
                lambda endpoint=None: promoted.append(endpoint)
                or {"role": "primary", "last_lsn": 7})
            supervisor = ClusterSupervisor(coordinator, detector=detector)
            supervisor.tick()               # miss 1
            report = supervisor.tick()      # miss 2 -> dead -> failover
            assert report["states"][0] == "dead"
            (action,) = report["actions"]
            assert action["kind"] == "failover"
            assert action["new_primary"] == standby.url
            assert promoted == [standby.url]
            assert coordinator.topology.shard(0).primary == standby.url
            assert coordinator.failovers == 1
            assert supervisor.status()["promotions"] == 1
            # Fresh streak for the new primary: next tick sees it alive.
            assert supervisor.tick()["states"][0] == "alive"

    def test_no_standby_means_failover_failed_not_crash(self):
        with ExitStack() as stack:
            coordinator = make_coordinator(stack, [["http://127.0.0.1:9"]])
            detector = FailureDetector(coordinator, probe_timeout_s=0.2,
                                       suspect_after=1, dead_after=1)
            supervisor = ClusterSupervisor(coordinator, detector=detector)
            report = supervisor.tick()
            (action,) = report["actions"]
            assert action["kind"] == "failover_failed"
            assert "no standby" in action["reason"]
            assert supervisor.status()["failed_failovers"] == 1
            # Routing untouched: there was nothing safe to flip to.
            assert coordinator.failovers == 0

    def test_injected_promote_failure_is_contained(self):
        """The ``supervision.promote`` chaos site: a promote that dies
        mid-flight counts as a failed failover and is retried next tick."""
        with ExitStack() as stack:
            coordinator, detector, standby = \
                self._dead_primary_with_standby(stack)
            supervisor = ClusterSupervisor(coordinator, detector=detector)
            plan = FaultPlan().add("supervision.promote", "io_error",
                                   times=1)
            with inject(plan):
                supervisor.tick()           # miss 1
                report = supervisor.tick()  # dead -> promote blows up
            (action,) = report["actions"]
            assert action["kind"] == "failover_failed"
            assert "promote failed" in action["reason"]
            assert coordinator.topology.shard(0).primary == \
                "http://127.0.0.1:9"

    def test_restart_crash_loop_guard(self, monkeypatch):
        """A worker that dies on every restart is given up on after
        ``max_restarts`` attempts — promotion still happens each time."""
        with ExitStack() as stack:
            coordinator, detector, standby = \
                self._dead_primary_with_standby(stack)
            monkeypatch.setattr(
                coordinator.clients[0], "promote",
                lambda endpoint=None: {"role": "primary", "last_lsn": 1})

            def crashy_restart(shard_id, dead_url, primary_url):
                raise OSError("spawn failed")

            supervisor = ClusterSupervisor(coordinator,
                                           restart_worker=crashy_restart,
                                           detector=detector,
                                           max_restarts=1)
            supervisor.tick()
            report = supervisor.tick()      # failover + restart attempt 1
            (action,) = report["actions"]
            assert action["restart"]["status"] == "failed"
            assert supervisor.status()["failed_restarts"] == 1
            # Simulate the new primary dying too: force the shard dead
            # again by flipping routing back to a dead endpoint.
            coordinator.replace_shard_endpoints(
                0, ["http://127.0.0.1:9", standby.url])
            monkeypatch.setattr(
                coordinator.clients[0], "promote",
                lambda endpoint=None: {"role": "primary", "last_lsn": 2})
            supervisor.tick()
            report = supervisor.tick()
            (action,) = report["actions"]
            assert action["restart"]["status"] == "crash_loop"
            status = supervisor.status()
            assert status["restart_attempts"] == {"0": 1}
            assert not [key for key in status if key.startswith("tune")]

    def test_injected_restart_crash_counts_failed(self, monkeypatch):
        """The ``supervision.restart`` chaos site."""
        with ExitStack() as stack:
            coordinator, detector, standby = \
                self._dead_primary_with_standby(stack)
            monkeypatch.setattr(
                coordinator.clients[0], "promote",
                lambda endpoint=None: {"role": "primary", "last_lsn": 1})
            supervisor = ClusterSupervisor(
                coordinator, detector=detector,
                restart_worker=lambda *a: "http://127.0.0.1:10")
            plan = FaultPlan().add("supervision.restart", "io_error",
                                   times=1)
            with inject(plan):
                supervisor.tick()
                report = supervisor.tick()
            (action,) = report["actions"]
            assert action["kind"] == "failover"       # promotion landed
            assert action["restart"]["status"] == "failed"
            assert supervisor.status()["failed_restarts"] == 1

    def test_background_thread_lifecycle(self):
        with ExitStack() as stack:
            server = start_worker(stack)
            coordinator = make_coordinator(stack, [[server.url]])
            supervisor = ClusterSupervisor(coordinator,
                                           tick_interval_s=0.01)
            supervisor.start()
            assert supervisor.running
            try:
                deadline = 100
                while supervisor.status()["ticks"] == 0 and deadline:
                    deadline -= 1
                    import time
                    time.sleep(0.01)
                assert supervisor.status()["ticks"] > 0
            finally:
                supervisor.stop()
            assert not supervisor.running
