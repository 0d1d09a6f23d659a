"""Self-healing for the cluster: detect, promote, re-route, restart.

This module closes the loop that previous layers left to an operator.
The durability layer gave each shard a hot standby tailing the
primary's WAL feed and a ``POST /promote`` escape hatch; the
coordinator got an atomic routing flip
(:meth:`~repro.cluster.coordinator.ClusterCoordinator.
replace_shard_endpoints`).  The supervisor drives them automatically:

1. **Detect** — :class:`FailureDetector` probes every shard primary's
   ``/healthz`` each tick and classifies it ``alive`` / ``suspect`` /
   ``dead``.  Only *missed* probes (no answer, a timeout or an HTTP
   error status) advance toward ``dead``; a reachable-but-slow primary
   stays ``alive`` (its latency EWMA is reported) and is never failed
   over — hedged reads handle stragglers, failover handles corpses.
   The distinction matters: restarting a slow node under load is how
   outages metastasize.
2. **Promote** — once a primary is ``dead``
   (``dead_after`` consecutive misses), :class:`ClusterSupervisor`
   probes the shard's standbys and promotes the *freshest* one (highest
   ``last_lsn``; a standby that never answered is skipped).  Promotion
   goes to that standby's own endpoint, pinned — no failover rotation
   on the control path.
3. **Re-route** — the coordinator's routing table is flipped atomically
   to ``[new_primary, *surviving_standbys]``, surviving standbys are
   retargeted (``POST /retarget``) to tail the new primary, and the
   shard's breaker is reset so traffic returns immediately.  Because
   the coordinator is the routing table's only writer and the flip
   serializes on its lock, two ticks can never install conflicting
   primaries: split-brain is avoided by construction, not by consensus.
4. **Restart** — the dead worker is restarted *as a standby* of the new
   primary (via the launcher-provided ``restart_worker`` callback),
   recovering from its own WAL/snapshot directory and catching up
   through the replication feed.  A crash-looping worker stops being
   restarted after ``max_restarts`` attempts per shard.

Everything is **tick-driven**: :meth:`ClusterSupervisor.tick` performs
exactly one detect/repair round with no internal sleeps, so chaos tests
drive failover deterministically (``RRQ_CHAOS_SEED`` fault plans fire
on the ``supervision.heartbeat`` / ``supervision.promote`` /
``supervision.restart`` sites).  ``start()`` wraps the same tick in a
background thread for production use.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from ..obs.trace import span
from ..resilience.faults import fire
from .coordinator import ClusterCoordinator

#: Consecutive missed heartbeats before a primary is ``suspect``.
DEFAULT_SUSPECT_AFTER = 3

#: Consecutive missed heartbeats before a primary is ``dead``.
DEFAULT_DEAD_AFTER = 5

#: Per-probe socket timeout, seconds.
DEFAULT_PROBE_TIMEOUT_S = 1.0

#: EWMA smoothing factor for the reported probe latency.
EWMA_ALPHA = 0.2

#: Background supervisor tick interval, seconds.
DEFAULT_TICK_INTERVAL_S = 0.5

#: Restart attempts per shard before declaring a crash loop.
DEFAULT_MAX_RESTARTS = 3

#: Failover events retained for ``status()``.
_EVENT_LOG_SIZE = 64


class HeartbeatState:
    """One primary's rolling heartbeat bookkeeping (detector-internal)."""

    __slots__ = ("endpoint", "state", "consecutive_misses", "ewma_latency_s",
                 "probes", "misses", "last_error", "last_health")

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self.state = "alive"
        self.consecutive_misses = 0
        self.ewma_latency_s: Optional[float] = None
        self.probes = 0
        self.misses = 0
        self.last_error = ""
        self.last_health: Optional[dict] = None

    def snapshot(self) -> dict:
        return {
            "endpoint": self.endpoint,
            "state": self.state,
            "consecutive_misses": self.consecutive_misses,
            "ewma_latency_ms": (round(self.ewma_latency_s * 1000.0, 3)
                                if self.ewma_latency_s is not None else None),
            "probes": self.probes,
            "misses": self.misses,
            "last_error": self.last_error,
        }


class FailureDetector:
    """Heartbeat probes classifying each shard primary alive/suspect/dead.

    A probe goes through the shard's own
    :class:`~repro.service.client.ServiceClient`, pinned to the primary
    with no retry.  It *misses* when no ``200`` comes back (connection
    refused or reset, timeout, an HTTP error status); a worker that
    answers ``"status": "degraded"`` is not missing.
    ``suspect_after`` consecutive misses mark the primary ``suspect``
    (no action yet; one GC pause must not trigger failover),
    ``dead_after`` mark it ``dead`` (the supervisor acts).  A single
    successful probe resets the streak: liveness, not load, is what is
    being measured.  A slow but answering primary stays ``alive``; its
    latency EWMA is reported, never acted on.

    Probes run ``fire("supervision.heartbeat")`` first, so fault plans
    can drop heartbeats deterministically in chaos tests.
    """

    def __init__(self, coordinator: ClusterCoordinator,
                 probe_timeout_s: float = DEFAULT_PROBE_TIMEOUT_S,
                 suspect_after: int = DEFAULT_SUSPECT_AFTER,
                 dead_after: int = DEFAULT_DEAD_AFTER):
        if not 0 < suspect_after <= dead_after:
            raise ValueError(
                "need 0 < suspect_after <= dead_after "
                f"(got {suspect_after}, {dead_after})"
            )
        self.coordinator = coordinator
        self.probe_timeout_s = float(probe_timeout_s)
        self.suspect_after = int(suspect_after)
        self.dead_after = int(dead_after)
        self._lock = threading.Lock()
        self._states: Dict[int, HeartbeatState] = {}

    def _state_for(self, shard_id: int, endpoint: str) -> HeartbeatState:
        with self._lock:
            state = self._states.get(shard_id)
            if state is None or state.endpoint != endpoint:
                # New shard or a routing flip: start a fresh streak for
                # the new primary instead of inheriting the corpse's.
                state = HeartbeatState(endpoint)
                self._states[shard_id] = state
            return state

    def reset(self, shard_id: int) -> None:
        """Forget a shard's streak (called after its routing flipped)."""
        with self._lock:
            self._states.pop(shard_id, None)

    def healthz(self, shard_id: int, endpoint: str) -> dict:
        """One ``GET /healthz`` pinned to ``endpoint``, no retry."""
        return self.coordinator.clients[shard_id].healthz(
            timeout_s=self.probe_timeout_s, retries=0, endpoint=endpoint)

    def probe(self, shard_id: int) -> str:
        """Probe one shard's primary; returns its new state."""
        endpoint = self.coordinator.topology.shard(shard_id).primary
        hb = self._state_for(shard_id, endpoint)
        hb.probes += 1
        started = time.monotonic()
        try:
            fire("supervision.heartbeat")
            health = self.healthz(shard_id, endpoint)
        except Exception as exc:
            hb.misses += 1
            hb.consecutive_misses += 1
            hb.last_error = f"{type(exc).__name__}: {exc}"
            if hb.consecutive_misses >= self.dead_after:
                hb.state = "dead"
            elif hb.consecutive_misses >= self.suspect_after:
                hb.state = "suspect"
            return hb.state
        latency = time.monotonic() - started
        hb.consecutive_misses = 0
        hb.last_error = ""
        hb.last_health = health
        if hb.ewma_latency_s is None:
            hb.ewma_latency_s = latency
        else:
            hb.ewma_latency_s = (EWMA_ALPHA * latency
                                 + (1.0 - EWMA_ALPHA) * hb.ewma_latency_s)
        hb.state = "alive"
        self.coordinator.observe_worker_health(shard_id, health)
        return hb.state

    def tick(self) -> Dict[int, str]:
        """Probe every shard once; returns ``{shard_id: state}``."""
        return {shard_id: self.probe(shard_id)
                for shard_id in range(self.coordinator.topology.num_shards)}

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {str(shard_id): state.snapshot()
                    for shard_id, state in sorted(self._states.items())}


class ClusterSupervisor:
    """The repair loop: promote the freshest standby, flip routing, restart.

    Parameters
    ----------
    coordinator:
        The routing table's single writer; all repairs go through its
        :meth:`~repro.cluster.coordinator.ClusterCoordinator.
        replace_shard_endpoints`.
    restart_worker:
        Optional callback ``(shard_id, dead_url, primary_url) ->
        Optional[new_url]`` that restarts the dead worker as a standby
        of ``primary_url``, recovering from its own data directory.
        Returning ``None`` (or raising) counts as a failed restart.
        The local launcher provides one; a remote deployment would wire
        its process manager here.
    detector:
        A pre-configured :class:`FailureDetector`; one with defaults is
        built when omitted.
    tick_interval_s:
        Sleep between rounds when running as a background thread.
    max_restarts:
        Restart attempts per shard before the supervisor declares a
        crash loop and stops restarting (promotion/re-routing still
        run; the shard just stays without its replaced standby).
    """

    def __init__(self, coordinator: ClusterCoordinator,
                 restart_worker: Optional[Callable] = None,
                 detector: Optional[FailureDetector] = None,
                 tick_interval_s: float = DEFAULT_TICK_INTERVAL_S,
                 max_restarts: int = DEFAULT_MAX_RESTARTS):
        self.coordinator = coordinator
        self.restart_worker = restart_worker
        self.detector = detector or FailureDetector(coordinator)
        self.tick_interval_s = float(tick_interval_s)
        self.max_restarts = int(max_restarts)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._restarts: Dict[int, int] = {}
        self._events: deque = deque(maxlen=_EVENT_LOG_SIZE)
        self.ticks = 0
        self.promotions = 0
        self.failed_failovers = 0
        self.restarts = 0
        self.failed_restarts = 0

    # ------------------------------------------------------------------
    # one repair round
    # ------------------------------------------------------------------

    def tick(self) -> dict:
        """One detect/repair round; returns what it saw and did.

        Deterministic: no sleeps, no randomness — chaos tests call this
        in a bounded loop and assert convergence by tick count.
        """
        with span("supervision.tick") as sp:
            states = self.detector.tick()
            sp.annotate("states", {str(k): v for k, v in states.items()})
            actions: List[dict] = []
            for shard_id, state in states.items():
                if state != "dead":
                    continue
                actions.append(self._fail_over(shard_id))
            with self._lock:
                self.ticks += 1
            return {"states": states, "actions": actions}

    def _event(self, **fields) -> dict:
        fields.setdefault("at", time.time())  # wall-clock: display only
        with self._lock:
            self._events.append(fields)
        return fields

    def _probe_standby(self, shard_id: int,
                       endpoint: str) -> Optional[dict]:
        try:
            return self.detector.healthz(shard_id, endpoint)
        except Exception:
            return None

    def _fail_over(self, shard_id: int) -> dict:
        """Promote the freshest standby of one dead primary and re-route."""
        with span("supervision.failover") as sp:
            sp.annotate("shard", shard_id)
            spec = self.coordinator.topology.shard(shard_id)
            dead_primary = spec.primary
            sp.annotate("dead_primary", dead_primary)

            # Freshness election: highest last_lsn among answering
            # standbys wins (first wins ties — deterministic order).
            candidates = []
            for endpoint in spec.replicas:
                health = self._probe_standby(shard_id, endpoint)
                if health is None:
                    continue
                candidates.append((int(health.get("last_lsn") or 0),
                                   endpoint, health))
            if not candidates:
                with self._lock:
                    self.failed_failovers += 1
                return self._event(
                    kind="failover_failed", shard=shard_id,
                    dead_primary=dead_primary,
                    reason=("no standby answered"
                            if spec.replicas else "shard has no standby"),
                )
            best_lsn = max(lsn for lsn, _, _ in candidates)
            new_primary = next(endpoint for lsn, endpoint, _ in candidates
                               if lsn == best_lsn)
            sp.annotate("new_primary", new_primary)

            try:
                fire("supervision.promote")
                receipt = self.coordinator.clients[shard_id].promote(
                    new_primary)
            except Exception as exc:
                with self._lock:
                    self.failed_failovers += 1
                return self._event(
                    kind="failover_failed", shard=shard_id,
                    dead_primary=dead_primary, candidate=new_primary,
                    reason=f"promote failed: {type(exc).__name__}: {exc}",
                )

            survivors = [endpoint for _, endpoint, _ in candidates
                         if endpoint != new_primary]
            self.coordinator.replace_shard_endpoints(
                shard_id, [new_primary, *survivors])
            self.detector.reset(shard_id)
            with self._lock:
                self.promotions += 1

            # Surviving standbys must tail the new primary, or their
            # feeds go stale behind a corpse.
            retarget_errors = []
            for endpoint in survivors:
                try:
                    self.coordinator.clients[shard_id].retarget(
                        new_primary, endpoint=endpoint)
                except Exception as exc:
                    retarget_errors.append(
                        f"{endpoint}: {type(exc).__name__}: {exc}")

            event = self._event(
                kind="failover", shard=shard_id, dead_primary=dead_primary,
                new_primary=new_primary,
                promoted_lsn=receipt.get("last_lsn"),
                survivors=survivors,
            )
            if retarget_errors:
                event["retarget_errors"] = retarget_errors
            restart = self._restart_as_standby(shard_id, dead_primary,
                                               new_primary)
            if restart is not None:
                event["restart"] = restart
            return event

    def _restart_as_standby(self, shard_id: int, dead_url: str,
                            primary_url: str) -> Optional[dict]:
        """Bring the corpse back as a standby of the new primary."""
        if self.restart_worker is None:
            return None
        with self._lock:
            attempts = self._restarts.get(shard_id, 0)
            if attempts >= self.max_restarts:
                return {"status": "crash_loop",
                        "attempts": attempts,
                        "detail": f"gave up after {attempts} restarts"}
            self._restarts[shard_id] = attempts + 1
        try:
            fire("supervision.restart")
            new_url = self.restart_worker(shard_id, dead_url, primary_url)
        except Exception as exc:
            with self._lock:
                self.failed_restarts += 1
            return {"status": "failed",
                    "detail": f"{type(exc).__name__}: {exc}"}
        if new_url is None:
            with self._lock:
                self.failed_restarts += 1
            return {"status": "failed", "detail": "restart returned no URL"}
        endpoints = list(
            self.coordinator.topology.shard(shard_id).endpoints)
        self.coordinator.replace_shard_endpoints(
            shard_id, [*endpoints, new_url])
        with self._lock:
            self.restarts += 1
        return {"status": "restarted", "standby": new_url}

    # ------------------------------------------------------------------
    # background operation
    # ------------------------------------------------------------------

    def start(self) -> "ClusterSupervisor":
        """Run :meth:`tick` on a background thread until :meth:`stop`."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="rrq-supervisor", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.tick()
            except Exception as exc:  # never let the repair loop die
                self._event(kind="tick_error",
                            detail=f"{type(exc).__name__}: {exc}")
            self._stop.wait(self.tick_interval_s)

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=timeout_s)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Snapshot for ``/cluster/healthz`` and ``/metrics``."""
        with self._lock:
            return {
                "running": self.running,
                "ticks": self.ticks,
                "promotions": self.promotions,
                "failed_failovers": self.failed_failovers,
                "restarts": self.restarts,
                "failed_restarts": self.failed_restarts,
                "restart_attempts": {str(sid): n for sid, n
                                     in sorted(self._restarts.items())},
                "detector": self.detector.snapshot(),
                "events": list(self._events),
            }
