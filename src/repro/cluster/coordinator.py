"""The scatter-gather coordinator: one query in, N shard sub-requests out.

For every RTK/RKR request the coordinator fans the query to each shard's
:class:`~repro.service.client.ServiceClient` concurrently, translates
the shard-local weight indices in each partial answer back to global
indices through the :class:`~repro.cluster.topology.ClusterTopology`,
and merges exactly:

* RTK — per-shard answers are disjoint global index sets; the merged
  answer is their union;
* RKR — each shard returns its local top-k ``(rank, index)`` pairs with
  exact ranks (``rank(w, q)`` never depends on other weights); the
  global answer is the k lexicographically smallest pairs — byte-
  identical to the single-node heap's tie-break (smaller global index
  wins on equal ranks).

Partial failure is survived, never hidden.  Each shard has its own
:class:`~repro.resilience.breaker.CircuitBreaker`; a shard that fails
(transport error, per-shard deadline, open breaker) is answered by the
coordinator's **degraded-but-exact** local fallback — a shard-slice
engine kept in lock-step with every mutation routed through this
coordinator — and the response is flagged ``"degraded": true`` with
``"degraded_shards": [ids]``.  Without local fallback data (or when a
shard's fallback has been proven stale — an out-of-band write observed
through the worker's ``/healthz`` LSN, or a replay receipt mismatch)
the failed shard's slice is *omitted* and the same flags mark the
answer partial.  Healthy responses carry neither key, so they stay
byte-identical to a single-node
:class:`~repro.vectorized.girkernel.GirKernelRRQ` /
:class:`~repro.algorithms.naive.NaiveRRQ` serving the full ``W``.

Tail latency is defended, not just availability (one straggler gates
every scatter-gather merge):

* **hedged reads** — with ``hedge=True`` and a per-query budget, a
  shard whose primary has not answered within a p95-derived delay gets
  a backup probe to one of its standbys; the first answer wins and the
  merge is unchanged (both replicas serve the same shard slice).  The
  delay for shard *s* derives from the *other* shards' recent
  latencies, so a permanently slow shard cannot veto its own hedges.
* **load shedding** — at most ``max_inflight`` fan-outs run at once;
  excess queries are rejected with a structured 503 carrying
  ``retry_after_s`` (surfaced as HTTP ``Retry-After``), so a failover
  storm cannot pile threads onto an already struggling cluster.

Failover is a routing flip: :meth:`replace_shard_endpoints` atomically
swaps one shard's endpoint list (new primary first), rebuilds that
shard's client, and resets its breaker — the primitive
:class:`~repro.cluster.supervision.ClusterSupervisor` drives after
promoting a standby.  The coordinator is the routing table's single
writer, which is what keeps failover split-brain-free.

Writes route by ownership: weight mutations go to the owning shard's
primary (the per-shard client's 409 rotate-on-standby failover from the
durability layer applies unchanged), and product mutations,
``compact`` and ``snapshot`` broadcast to all shards (every worker holds
the full ``P``; compaction keeps shard-local indices stable).
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.datasets import as_vector, check_query_point
from ..errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ServiceUnavailableError,
)
from ..obs.trace import current, current_trace_id, span, use_context
from ..queries.types import RTKResult, make_rkr_result
from ..resilience.breaker import CircuitBreaker
from ..service.client import ServiceClient
from ..service.limits import Deadline, coerce
from ..service.server import encode_result
from ..stats.counters import OpCounter
from .topology import ClusterTopology

#: Default per-shard sub-request socket timeout, seconds.
DEFAULT_SHARD_TIMEOUT_S = 5.0

#: Consecutive sub-request failures that open a shard's breaker.
SHARD_BREAKER_THRESHOLD = 3

#: Cool-down before a shard breaker admits a half-open probe, seconds.
SHARD_BREAKER_RESET_S = 5.0

#: Per-shard sub-request retries: none, so a failed shard falls back at
#: once instead of stalling the merge behind backoff sleeps.
SHARD_RETRIES = 0

#: Backup probes one query may issue across all its shards.
HEDGE_BUDGET = 2

#: Floor for the hedge delay (and the cold-start delay before enough
#: latency samples exist to derive a p95).
HEDGE_MIN_DELAY_S = 0.01

#: Default bound on concurrently running fan-outs before 503s start.
DEFAULT_MAX_INFLIGHT = 64

#: Per-shard recent-latency window the hedge delay derives from.
LATENCY_WINDOW = 128

#: Minimum other-shard samples before the p95 replaces the floor delay.
_MIN_HEDGE_SAMPLES = 8


class _FallbackStaleError(RuntimeError):
    """Internal: a fallback replay receipt disagreed with the cluster."""


class _HedgeBudget:
    """The per-query cap on backup probes (thread-safe take-one)."""

    __slots__ = ("_remaining", "_lock")

    def __init__(self, budget: int):
        self._remaining = int(budget)
        self._lock = threading.Lock()

    def take(self) -> bool:
        with self._lock:
            if self._remaining <= 0:
                return False
            self._remaining -= 1
            return True


def _p95(samples: List[float]) -> float:
    samples = sorted(samples)
    return samples[int(0.95 * (len(samples) - 1))]


def _shard_breaker() -> CircuitBreaker:
    return CircuitBreaker(failure_threshold=SHARD_BREAKER_THRESHOLD,
                          reset_after_s=SHARD_BREAKER_RESET_S)


def _detached(slots: threading.BoundedSemaphore, fn,
              *args) -> Optional[Future]:
    """``fn(*args)`` on a daemon thread of its own, as a future; ``None``
    when every one of ``slots`` is held.

    The losing attempt of a hedged read runs on until its shard answers
    or its socket times out.  On a pool it held a worker that long:
    behind a 200 ms straggler the pool filled, later primaries queued,
    and the queue time fed the very latencies the hedge delay is the p95
    of (it climbed to about 137 ms).  Here nothing queues behind an
    attempt; ``slots`` only bounds how many run at once, so a shard that
    hangs until its timeout cannot pile up a thread per query.
    """
    if not slots.acquire(blocking=False):
        return None
    future: Future = Future()

    def run() -> None:
        try:
            result = fn(*args)
        except BaseException as exc:
            slots.release()
            # As concurrent.futures' own worker does: the waiter raises it.
            future.set_exception(exc)
        else:
            slots.release()
            future.set_result(result)

    threading.Thread(target=run, name="rrq-hedge", daemon=True).start()
    return future


class ClusterCoordinator:
    """Scatter-gather over the shards of one :class:`ClusterTopology`.

    Parameters
    ----------
    topology:
        The routing table (endpoints, per-shard weight counts).
    products, weights:
        The full data sets, when available (the local launcher always
        has them).  They power the degraded-but-exact fallback: a failed
        shard's partial answer is recomputed locally over exactly its
        weight slice.  Mutations routed through this coordinator are
        replayed into the fallback engines (receipt-verified), so the
        fallback stays exact across writes; it is withdrawn per shard
        only when proven stale.  Omit the data sets and a failed shard's
        slice is omitted from (flagged) answers instead.
    shard_timeout_s:
        Per-shard sub-request socket timeout; each sub-request is
        additionally capped by the query's own deadline, when it
        carries one.
    hedge:
        Enable hedged reads against standby replicas (off by default:
        it costs duplicate probes and needs per-shard replicas).
    max_inflight:
        Concurrently running fan-outs admitted before queries are shed
        with a structured 503 (``None`` disables shedding).
    """

    def __init__(self, topology: ClusterTopology,
                 products=None, weights=None,
                 shard_timeout_s: float = DEFAULT_SHARD_TIMEOUT_S,
                 hedge: bool = False,
                 max_inflight: Optional[int] = DEFAULT_MAX_INFLIGHT):
        if shard_timeout_s <= 0:
            raise InvalidParameterError("shard_timeout_s must be positive")
        if max_inflight is not None and max_inflight <= 0:
            raise InvalidParameterError(
                "max_inflight must be positive or None"
            )
        self.topology = topology
        self.products = products
        self.weights = weights
        self.shard_timeout_s = float(shard_timeout_s)
        self.clients: List[ServiceClient] = [
            self._shard_client(spec) for spec in topology.shards
        ]
        self.breakers: List[CircuitBreaker] = [
            _shard_breaker() for _ in topology.shards
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, topology.num_shards),
            thread_name_prefix="rrq-cluster",
        )
        # A hedged attempt runs on a thread of its own (``_detached``),
        # never on the fan-out pool, which it would deadlock once every
        # fan-out thread waits on attempts.  At most this many run at
        # once; past it a primary is called inline and nothing hedged.
        self.hedge_enabled = bool(hedge)
        self._hedge_slots = threading.BoundedSemaphore(
            max(4, 2 * topology.num_shards))
        self._latency_lock = threading.Lock()
        self._latency: List[deque] = [deque(maxlen=LATENCY_WINDOW)
                                      for _ in topology.shards]
        self._max_inflight = max_inflight
        self._inflight = (threading.BoundedSemaphore(int(max_inflight))
                          if max_inflight is not None else None)
        self._lock = threading.Lock()
        self._fallbacks: Dict[int, object] = {}
        #: Shard id -> why its local fallback can no longer be trusted.
        self._fallback_stale: Dict[int, str] = {}
        #: Ordered replay log of every data mutation routed through this
        #: coordinator (the fallback engines' source of truth).
        self._journal: List[tuple] = []
        #: Highest worker LSN this coordinator acked or observed per
        #: shard; a worker reporting *past* it wrote out of band.
        self._expected_lsn: Dict[int, int] = {}
        #: Last sub-request failure per shard (operator diagnostics).
        self._last_errors: Dict[int, str] = {}
        #: Global index the next routed weight insert will receive.
        self._next_global = topology.total_weights
        #: Cluster mutations applied through this coordinator.
        self.mutations_routed = 0
        #: Queries answered with at least one degraded shard.
        self.degraded_queries = 0
        #: Queries rejected by the in-flight bound.
        self.shed_queries = 0
        #: Backup probes issued / won by the backup replica.
        self.hedged_probes = 0
        self.hedge_wins = 0
        #: Primary routing flips applied via replace_shard_endpoints.
        self.failovers = 0

    def _shard_client(self, spec) -> ServiceClient:
        return ServiceClient(list(spec.endpoints),
                             timeout_s=self.shard_timeout_s,
                             retries=SHARD_RETRIES, annotate_endpoint=True)

    # ------------------------------------------------------------------
    # fallback (degraded-but-exact partials, mutation-synced)
    # ------------------------------------------------------------------

    def _fallback_ok_locked(self, shard_id: int) -> bool:
        return (self.products is not None and self.weights is not None
                and shard_id not in self._fallback_stale)

    def _fallback_available(self, shard_id: Optional[int] = None) -> bool:
        """Whether the local exact fallback can serve (one shard or all)."""
        with self._lock:
            if shard_id is not None:
                return self._fallback_ok_locked(shard_id)
            return (self.products is not None and self.weights is not None
                    and not self._fallback_stale)

    def _mark_stale_locked(self, shard_id: int, reason: str) -> None:
        self._fallback_stale.setdefault(shard_id, reason)
        self._fallbacks.pop(shard_id, None)

    def _apply_entry(self, engine, shard_id: int, entry: tuple) -> None:
        """Replay one journal entry into one shard's fallback engine.

        Receipt verification is the freshness proof: the index the local
        engine assigns must equal the index the live worker acked.  Any
        disagreement means the replay diverged from the cluster and the
        fallback is withdrawn (:class:`_FallbackStaleError`).
        """
        op = entry[0]
        if op == "insert_weight":
            _, owner, vector, local_index, renormalize = entry
            if owner != shard_id:
                return
            got = engine.insert_weight(np.asarray(vector, dtype=float),
                                       renormalize=renormalize)
            if int(got) != int(local_index):
                raise _FallbackStaleError(
                    f"insert_weight replay landed at local index {got}, "
                    f"worker acked {local_index}"
                )
        elif op == "delete_weight":
            _, owner, local_index = entry
            if owner != shard_id:
                return
            engine.delete_weight(int(local_index))
        elif op == "insert_product":
            _, vector, index = entry
            got = engine.insert_product(np.asarray(vector, dtype=float))
            if int(got) != int(index):
                raise _FallbackStaleError(
                    f"insert_product replay landed at index {got}, "
                    f"workers acked {index}"
                )
        elif op == "delete_product":
            engine.delete_product(int(entry[1]))
        else:  # pragma: no cover - journal writers are in this module
            raise _FallbackStaleError(f"unknown journal op {op!r}")

    def _fallback_engine(self, shard_id: int):
        """The shard's mutation-synced fallback engine (lazily built).

        Built from the construction-time data sets, then fast-forwarded
        through the mutation journal so it matches the live worker's
        slice exactly — each replayed receipt is verified on the way.
        """
        from ..data.datasets import ProductSet, WeightSet
        from ..storage import SegmentStore

        with self._lock:
            if shard_id in self._fallback_stale:
                raise ServiceUnavailableError(
                    f"shard {shard_id}: fallback withdrawn "
                    f"({self._fallback_stale[shard_id]})"
                )
            engine = self._fallbacks.get(shard_id)
            if engine is None:
                owned = self.topology.owned_globals(shard_id)
                engine = SegmentStore.from_datasets(
                    ProductSet(self.products.values,
                               value_range=self.products.value_range),
                    WeightSet(self.weights.values[owned]),
                )
                try:
                    for entry in self._journal:
                        self._apply_entry(engine, shard_id, entry)
                except _FallbackStaleError as exc:
                    self._mark_stale_locked(shard_id, str(exc))
                    raise ServiceUnavailableError(
                        f"shard {shard_id}: fallback withdrawn ({exc})"
                    ) from None
                self._fallbacks[shard_id] = engine
            return engine

    def _fallback_payload(self, shard_id: int, q: np.ndarray,
                          kind: str, k: int) -> List[Tuple[int, int]]:
        """The failed shard's partial answer, computed locally and exact."""
        engine = self._fallback_engine(shard_id)
        if kind == "rtk":
            local = engine.reverse_topk(q, k).weights
            return [self.topology.to_global(shard_id, int(j)) for j in local]
        entries = engine.reverse_kranks(q, k).entries
        return [(int(rank), self.topology.to_global(shard_id, int(j)))
                for rank, j in entries]

    def _journal_mutation(self, entry: Optional[tuple],
                          lsns: Dict[int, Optional[int]]) -> None:
        """Record one routed mutation: journal, live replay, LSN receipts.

        ``entry`` is ``None`` for mutations that change no data
        (compact/snapshot) — they still count and still advance the
        expected LSNs.
        """
        with self._lock:
            self.mutations_routed += 1
            for sid, lsn in lsns.items():
                if lsn is not None:
                    self._expected_lsn[sid] = max(
                        self._expected_lsn.get(sid, 0), int(lsn))
            if entry is None or self.products is None or self.weights is None:
                return
            self._journal.append(entry)
            for shard_id, engine in list(self._fallbacks.items()):
                if shard_id in self._fallback_stale:
                    continue
                try:
                    self._apply_entry(engine, shard_id, entry)
                except _FallbackStaleError as exc:
                    self._mark_stale_locked(shard_id, str(exc))

    def observe_worker_health(self, shard_id: int, health: dict) -> None:
        """Freshness check against one worker's ``/healthz`` body.

        The first observation baselines the shard's LSN; any later
        observation *past* the highest LSN this coordinator acked means
        a write went around the coordinator — the shard's fallback can
        no longer claim exactness and is withdrawn.
        """
        last = health.get("last_lsn")
        if last is None:
            return
        last = int(last)
        with self._lock:
            expected = self._expected_lsn.get(shard_id)
            if expected is None:
                self._expected_lsn[shard_id] = last
            elif last > expected:
                self._mark_stale_locked(
                    shard_id,
                    f"out-of-band write: worker at lsn {last}, "
                    f"coordinator acked up to {expected}"
                )
                self._expected_lsn[shard_id] = last

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _resolve_query_point(self, vector, product) -> np.ndarray:
        """Canonicalize the query point for the local fallback path."""
        if product is not None:
            size = self.products.size
            if not 0 <= int(product) < size:
                raise InvalidParameterError(
                    f"product index must be in [0, {size})"
                )
            vector = self.products[int(product)]
        return check_query_point(vector, self.products.dim)

    def _note_shard_error(self, shard_id: int, exc: Exception) -> None:
        with self._lock:
            self._last_errors[shard_id] = f"{type(exc).__name__}: {exc}"

    def _record_latency(self, shard_id: int, seconds: float) -> None:
        with self._latency_lock:
            self._latency[shard_id].append(float(seconds))

    def hedge_delay_s(self, shard_id: int) -> float:
        """The backup-probe delay for one shard.

        The p95 of the *other* shards' recent sub-request latencies: a
        permanently slow shard inflates only its own samples, so its
        hedges keep firing.  Falls back to the configured floor until
        enough samples exist.
        """
        with self._latency_lock:
            samples = [s for sid, window in enumerate(self._latency)
                       if sid != shard_id for s in window]
        if len(samples) < _MIN_HEDGE_SAMPLES:
            return HEDGE_MIN_DELAY_S
        return max(HEDGE_MIN_DELAY_S, _p95(samples))

    def _retry_after_hint_s(self) -> float:
        """How long a shed caller should wait (recent p95 fan-out cost)."""
        with self._latency_lock:
            samples = [s for window in self._latency for s in window]
        if not samples:
            return 0.05
        return max(0.05, _p95(samples))

    def _client_call(self, shard_id: int, endpoint: Optional[str],
                     vector, product, kind: str, k: int,
                     timeout_s: float, headers):
        return self.clients[shard_id].query(
            vector=vector, product=product, kind=kind, k=k,
            timeout_s=timeout_s, headers=headers,
            timeout_ms=timeout_s * 1000.0, endpoint=endpoint,
        )

    def _hedged_query(self, sp, shard_id: int, vector, product, kind: str,
                      k: int, timeout_s: float, headers,
                      hedge_ctx: Optional[_HedgeBudget]):
        """One shard answer, with an optional backup probe to a standby.

        The primary attempt goes through the client's normal endpoint
        rotation; the backup probe is pinned to the first standby.  The
        first *successful* answer wins (both replicas serve the same
        slice); only when both attempts fail does the primary's failure
        surface.
        """
        spec = self.topology.shard(shard_id)
        if (not self.hedge_enabled or hedge_ctx is None
                or not spec.replicas):
            return self._client_call(shard_id, None, vector, product,
                                     kind, k, timeout_s, headers)
        slots = self._hedge_slots
        primary = _detached(slots, self._client_call, shard_id, None,
                            vector, product, kind, k, timeout_s, headers)
        if primary is None:
            return self._client_call(shard_id, None, vector, product,
                                     kind, k, timeout_s, headers)
        try:
            return primary.result(timeout=self.hedge_delay_s(shard_id))
        except FutureTimeoutError:
            pass
        if not hedge_ctx.take():
            return primary.result()
        backup = _detached(slots, self._client_call, shard_id,
                           spec.replicas[0], vector, product, kind, k,
                           timeout_s, headers)
        if backup is None:
            return primary.result()
        with self._lock:
            self.hedged_probes += 1
        sp.annotate("hedged", True)
        pending = {primary: "primary", backup: "backup"}
        primary_error: Optional[Exception] = None
        while pending:
            done, _ = futures_wait(list(pending),
                                   return_when=FIRST_COMPLETED)
            for future in done:
                origin = pending.pop(future)
                try:
                    answer = future.result()
                except Exception as exc:
                    if origin == "primary" or primary_error is None:
                        primary_error = exc
                    continue
                if origin == "backup":
                    with self._lock:
                        self.hedge_wins += 1
                    sp.annotate("hedge_win", True)
                return answer
        raise primary_error

    def _shard_query(self, ctx, trace_id: Optional[str], shard_id: int,
                     vector, product, kind: str, k: int,
                     deadline: Deadline,
                     hedge_ctx: Optional[_HedgeBudget]) -> list:
        """One shard sub-request on a pool thread; returns global-id payload.

        Raises on any failure (open breaker, transport, timeout); the
        caller decides between fallback and omission.
        """
        with use_context(ctx):
            with span("cluster.shard_query") as sp:
                sp.annotate("shard", shard_id)
                breaker = self.breakers[shard_id]
                if not breaker.allow():
                    sp.annotate("breaker_open", True)
                    exc = ServiceUnavailableError(
                        f"shard {shard_id}: circuit open"
                    )
                    self._note_shard_error(shard_id, exc)
                    raise exc
                remaining = deadline.remaining()
                timeout_s = self.shard_timeout_s
                if remaining is not None:
                    if remaining <= 0:
                        raise DeadlineExceededError(
                            f"shard {shard_id}: deadline exhausted before "
                            "the sub-request was sent"
                        )
                    timeout_s = min(timeout_s, remaining)
                headers = ({"X-Trace-Id": trace_id}
                           if trace_id is not None else None)
                started = perf_counter()
                try:
                    answer = self._hedged_query(sp, shard_id, vector,
                                                product, kind, k,
                                                timeout_s, headers,
                                                hedge_ctx)
                except InvalidParameterError:
                    # The shard answered: a 400 is the caller's mistake
                    # (a product index or dimension only a worker can
                    # check), not a failure of the shard.
                    breaker.record_success()
                    raise
                except Exception as exc:
                    breaker.record_failure()
                    self._note_shard_error(shard_id, exc)
                    raise
                breaker.record_success()
                self._record_latency(shard_id, perf_counter() - started)
                endpoint = answer.get("_endpoint")
                if endpoint is not None:
                    sp.annotate("endpoint", endpoint)
                if kind == "rtk":
                    return [self.topology.to_global(shard_id, int(j))
                            for j in answer["weights"]]
                return [(int(rank),
                         self.topology.to_global(shard_id, int(j)))
                        for rank, j in answer["entries"]]

    def query(self, vector=None, *, product: Optional[int] = None,
              kind: str = "rtk", k: int = 10,
              deadline_s: Optional[float] = None) -> dict:
        """Answer one RTK/RKR query over the whole cluster.

        Returns the JSON-ready answer dict — byte-identical to a
        single-node engine over the full ``W`` when every shard (or its
        exact fallback) contributed, with ``"degraded"`` /
        ``"degraded_shards"`` added whenever a shard's slice came from
        the fallback or was omitted.  Sheds with a structured 503
        (``retry_after_s`` attached) once ``max_inflight`` fan-outs are
        already running.
        """
        if kind not in ("rtk", "rkr"):
            raise InvalidParameterError("kind must be 'rtk' or 'rkr'")
        k = coerce(k, int, "k")
        if k <= 0:
            raise InvalidParameterError("k must be positive")
        if (vector is None) == (product is None):
            raise InvalidParameterError(
                "provide exactly one of 'vector' or 'product'"
            )
        # Checked here, before any shard sees it: a caller's mistake must
        # never count against a shard's breaker.
        if vector is not None:
            vector = check_query_point(
                vector, self.products.dim if self.products is not None
                else None).tolist()
        else:
            product = coerce(product, int, "product")
        if self._inflight is None:
            return self._fan_out(vector, product, kind, k, deadline_s)
        if not self._inflight.acquire(blocking=False):
            with self._lock:
                self.shed_queries += 1
            exc = ServiceUnavailableError(
                f"coordinator at capacity ({self._max_inflight} in-flight "
                "fan-outs); retry after backoff"
            )
            exc.retry_after_s = self._retry_after_hint_s()
            raise exc
        try:
            return self._fan_out(vector, product, kind, k, deadline_s)
        finally:
            self._inflight.release()

    def _fan_out(self, vector, product, kind: str, k: int,
                 deadline_s: Optional[float]) -> dict:
        """The scatter-gather behind :meth:`query` (admission already done)."""
        deadline = Deadline.after(deadline_s)
        deadline.check()
        ctx = current()
        trace_id = current_trace_id()
        hedge_ctx = (_HedgeBudget(HEDGE_BUDGET) if self.hedge_enabled
                     else None)
        with span("cluster.scatter_gather") as sp:
            sp.annotate("kind", kind)
            sp.annotate("shards", self.topology.num_shards)
            futures = {
                shard_id: self._pool.submit(
                    self._shard_query, ctx, trace_id, shard_id,
                    vector, product, kind, k, deadline, hedge_ctx,
                )
                for shard_id in range(self.topology.num_shards)
            }
            payloads: List[list] = []
            failed: Dict[int, Exception] = {}
            for shard_id, future in futures.items():
                try:
                    payloads.append(future.result())
                except InvalidParameterError:
                    raise  # the caller's mistake, as a shard said
                except Exception as exc:
                    failed[shard_id] = exc
            degraded_shards = sorted(failed)
            if failed:
                sp.annotate("degraded_shards", degraded_shards)
                covered = 0
                q_arr = (self._resolve_query_point(vector, product)
                         if any(self._fallback_available(sid)
                                for sid in degraded_shards) else None)
                for shard_id in degraded_shards:
                    if not self._fallback_available(shard_id):
                        continue
                    with span("cluster.shard_fallback") as fb:
                        fb.annotate("shard", shard_id)
                        try:
                            payloads.append(self._fallback_payload(
                                shard_id, q_arr, kind, k))
                        except ServiceUnavailableError:
                            continue  # withdrawn mid-flight: omit slice
                        covered += 1
                if not covered and len(failed) == self.topology.num_shards:
                    # Nothing answered and nothing to fall back on.
                    raise ServiceUnavailableError(
                        "no shard answered: " + "; ".join(
                            f"shard {sid}: {exc}"
                            for sid, exc in sorted(failed.items()))
                    )
            t0 = perf_counter()
            counter = OpCounter()
            if kind == "rtk":
                qualifying = frozenset(g for payload in payloads
                                       for g in payload)
                result = RTKResult(weights=qualifying, k=k, counter=counter)
            else:
                pairs = [tuple(pair) for payload in payloads
                         for pair in payload]
                result = make_rkr_result(pairs, k, counter)
            sp.annotate("merge_s", perf_counter() - t0)
        encoded = encode_result(result, kind)
        if degraded_shards:
            with self._lock:
                self.degraded_queries += 1
            encoded["degraded"] = True
            encoded["degraded_shards"] = degraded_shards
        return encoded

    # ------------------------------------------------------------------
    # routing-table changes (failover)
    # ------------------------------------------------------------------

    def replace_shard_endpoints(self, shard_id: int,
                                endpoints: Sequence[str]) -> dict:
        """Atomically flip one shard's routing (the failover primitive).

        Replaces the shard's endpoint list (new primary first), rebuilds
        its client, and — when the primary actually changed — resets its
        breaker (the promoted replica must not inherit its predecessor's
        open circuit) and counts a failover.  The coordinator is the
        single writer of its routing table: all flips serialize on the
        coordinator lock, so two supervisors can never install
        conflicting primaries (split-brain avoidance).
        """
        with self._lock:
            old_primary = self.topology.shard(shard_id).primary
            self.topology = self.topology.with_shard_endpoints(shard_id,
                                                               endpoints)
            spec = self.topology.shard(shard_id)
            self.clients[shard_id] = self._shard_client(spec)
            flipped = spec.primary != old_primary
            if flipped:
                self.failovers += 1
                self.breakers[shard_id] = _shard_breaker()
                self._last_errors.pop(shard_id, None)
            return {"shard": shard_id, "primary": spec.primary,
                    "endpoints": list(spec.endpoints), "flipped": flipped}

    # ------------------------------------------------------------------
    # mutation routing
    # ------------------------------------------------------------------

    def _broadcast(self, op: str, call) -> Dict[int, dict]:
        """Run ``call(client)`` on every shard concurrently; all or error."""
        futures = {
            shard_id: self._pool.submit(call, self.clients[shard_id])
            for shard_id in range(self.topology.num_shards)
        }
        receipts: Dict[int, dict] = {}
        failures: Dict[int, Exception] = {}
        for shard_id, future in futures.items():
            try:
                receipts[shard_id] = future.result()
            except Exception as exc:
                failures[shard_id] = exc
        if failures:
            applied = sorted(receipts)
            raise ServiceUnavailableError(
                f"broadcast {op} failed on shard(s) " + ", ".join(
                    f"{sid} ({exc})" for sid, exc in sorted(failures.items()))
                + (f"; already applied on shard(s) {applied} — the cluster "
                   "needs repair before further writes" if applied else "")
            )
        return receipts

    def route_mutation(self, path: str, payload: dict) -> dict:
        """Map one mutation route onto the owning shard(s).

        Weight writes go to the owning shard's primary (the per-shard
        client rotates on 409 until it finds the primary — the PR-3
        failover reused verbatim); product writes, ``compact`` and
        ``snapshot`` broadcast to every shard (compaction is physical on
        a worker's store — shard-local ids are stable — and logs
        nothing); ``/promote`` targets one shard's named endpoint.
        """
        payload = payload or {}
        with span("cluster.mutate") as sp:
            sp.annotate("path", path)
            if path == "/promote":
                return self._route_promote(payload)
            if path in ("/compact", "/snapshot"):
                op = path[1:]
                receipts = self._broadcast(
                    op, lambda client: client._request(
                        "POST", path, {}, mutation=True))
                self._journal_mutation(None, {
                    sid: receipt.get("lsn")
                    for sid, receipt in receipts.items()
                })
                return {"op": op, "shards": {str(sid): receipt
                                             for sid, receipt
                                             in sorted(receipts.items())}}
            if path in ("/insert", "/delete"):
                target = payload.get("type", "product")
                if target not in ("product", "weight"):
                    raise InvalidParameterError(
                        "'type' must be 'product' or 'weight'"
                    )
                if target == "product":
                    return self._route_product(path, payload)
                return self._route_weight(path, payload)
            raise InvalidParameterError(f"unknown mutation route {path}")

    def _route_promote(self, payload: dict) -> dict:
        if "shard" not in payload:
            raise InvalidParameterError(
                "cluster promote requires 'shard' (and optionally "
                "'endpoint', one of that shard's replica URLs)"
            )
        shard_id = coerce(payload["shard"], int, "shard")
        spec = self.topology.shard(shard_id)
        endpoint = payload.get("endpoint")
        if endpoint is not None and \
                str(endpoint).rstrip("/") not in spec.endpoints:
            raise InvalidParameterError(
                f"endpoint {endpoint!r} is not a replica of shard {shard_id}"
            )
        receipt = self.clients[shard_id].promote(endpoint)
        if receipt.get("last_lsn") is not None:
            with self._lock:
                self._expected_lsn[shard_id] = max(
                    self._expected_lsn.get(shard_id, 0),
                    int(receipt["last_lsn"]))
        return {"op": "promote", "shard": shard_id, "receipt": receipt}

    def _route_product(self, path: str, payload: dict) -> dict:
        """Product mutations broadcast: every worker holds the full ``P``."""
        if path == "/insert":
            vector = payload.get("vector")
            if vector is None:
                raise InvalidParameterError("insert requires 'vector'")
            vector = as_vector(vector).tolist()
            receipts = self._broadcast(
                "insert_product",
                lambda client: client.insert_product(vector))
            op = "insert_product"
        else:
            if "index" not in payload:
                raise InvalidParameterError("delete requires 'index'")
            index = coerce(payload["index"], int, "index")
            receipts = self._broadcast(
                "delete_product",
                lambda client: client.delete_product(index))
            op = "delete_product"
        indices = {receipt.get("index") for receipt in receipts.values()}
        if len(indices) != 1:
            raise ServiceUnavailableError(
                f"{op}: shards disagree on the product index ({sorted(indices)}); "
                "the replicated product sets have diverged — repair before "
                "further writes"
            )
        index = indices.pop()
        lsns = {sid: receipt.get("lsn") for sid, receipt in receipts.items()}
        if op == "insert_product":
            entry = ("insert_product", vector, int(index))
        else:
            entry = ("delete_product", int(index))
        self._journal_mutation(entry, lsns)
        return {"op": op, "index": index,
                "shards": {str(sid): receipt
                           for sid, receipt in sorted(receipts.items())}}

    def _route_weight(self, path: str, payload: dict) -> dict:
        """Weight mutations go to exactly the owning shard's primary."""
        if path == "/insert":
            vector = payload.get("vector")
            if vector is None:
                raise InvalidParameterError("insert requires 'vector'")
            vector = as_vector(vector).tolist()
            renormalize = bool(payload.get("renormalize", False))
            with self._lock:
                next_global = self._next_global
            shard_id = self.topology.insert_owner(next_global)
            receipt = self.clients[shard_id].insert_weight(
                vector, renormalize=renormalize)
            local_index = int(receipt["index"])
            global_index = self.topology.to_global(shard_id, local_index)
            with self._lock:
                self._next_global = max(self._next_global, global_index) + 1
            self._journal_mutation(
                ("insert_weight", shard_id, vector, local_index, renormalize),
                {shard_id: receipt.get("lsn")},
            )
            return {"op": "insert_weight", "shard": shard_id,
                    "index": global_index,
                    "local_index": local_index,
                    "lsn": receipt.get("lsn")}
        if "index" not in payload:
            raise InvalidParameterError("delete requires 'index'")
        global_index = coerce(payload["index"], int, "index")
        if not 0 <= global_index:
            raise InvalidParameterError("'index' must be >= 0")
        shard_id, local = self.topology.to_local(global_index)
        receipt = self.clients[shard_id].delete_weight(local)
        self._journal_mutation(
            ("delete_weight", shard_id, local),
            {shard_id: receipt.get("lsn")},
        )
        return {"op": "delete_weight", "shard": shard_id,
                "index": global_index, "local_index": local,
                "lsn": receipt.get("lsn")}

    # ------------------------------------------------------------------
    # health / introspection
    # ------------------------------------------------------------------

    def shard_health(self, timeout_s: float = 1.0) -> dict:
        """Fan ``/healthz`` out to every shard (the ``/cluster/healthz`` body).

        A shard is ``ok`` when its worker answers healthily, ``degraded``
        when it answers but reports trouble, and ``unreachable`` when it
        does not answer at all; the aggregate ``status`` is the worst of
        them and ``degraded_shards`` lists the offenders.  Each entry
        carries the shard's full breaker snapshot (state, consecutive
        failures) and the last sub-request error, so operators can see
        *why* a shard is degraded.  Never raises — health must be
        readable mid-outage.
        """
        def probe(shard_id: int) -> dict:
            breaker = self.breakers[shard_id].snapshot()
            with self._lock:
                last_error = self._last_errors.get(shard_id)
                fallback_ok = self._fallback_ok_locked(shard_id)
                stale_reason = self._fallback_stale.get(shard_id)
            entry = {
                "shard_id": shard_id,
                "endpoints": list(self.topology.shard(shard_id).endpoints),
                "breaker": breaker["state"],
                "breaker_detail": breaker,
                "consecutive_failures": breaker["consecutive_failures"],
                "fallback": fallback_ok,
            }
            if last_error is not None:
                entry["last_error"] = last_error
            if stale_reason is not None:
                entry["fallback_stale_reason"] = stale_reason
            try:
                health = self.clients[shard_id].healthz(
                    timeout_s=timeout_s, retries=0)
            except Exception as exc:
                entry["status"] = "unreachable"
                entry["error"] = f"{type(exc).__name__}: {exc}"
                return entry
            self.observe_worker_health(shard_id, health)
            entry["status"] = health.get("status", "ok")
            entry["worker"] = health
            return entry

        futures = [self._pool.submit(probe, shard_id)
                   for shard_id in range(self.topology.num_shards)]
        shards = [future.result() for future in futures]
        worst = "ok"
        if any(s["status"] == "degraded" for s in shards):
            worst = "degraded"
        if any(s["status"] == "unreachable" for s in shards):
            worst = "unreachable"
        with self._lock:
            degraded_queries = self.degraded_queries
            mutations_routed = self.mutations_routed
        return {
            "status": worst,
            "shards": shards,
            "degraded_shards": sorted(s["shard_id"] for s in shards
                                      if s["status"] != "ok"),
            "degraded_queries": degraded_queries,
            "mutations_routed": mutations_routed,
            "failovers": self.failovers,
            "fallback": self._fallback_available(),
        }

    def stats(self) -> dict:
        """Cheap coordinator counters for ``/metrics`` and ``/info``."""
        with self._lock:
            return {
                "shards": self.topology.num_shards,
                "total_weights": self.topology.total_weights,
                "next_global": self._next_global,
                "degraded_queries": self.degraded_queries,
                "mutations_routed": self.mutations_routed,
                "fallback_available": (self.products is not None
                                       and self.weights is not None
                                       and not self._fallback_stale),
                "fallback_stale_shards": sorted(self._fallback_stale),
                "breakers": {str(i): b.snapshot()["state"]
                             for i, b in enumerate(self.breakers)},
                "failovers": self.failovers,
                "hedge": {
                    "enabled": self.hedge_enabled,
                    "budget": HEDGE_BUDGET,
                    "probes": self.hedged_probes,
                    "wins": self.hedge_wins,
                },
                "shedding": {
                    "max_inflight": self._max_inflight,
                    "shed_queries": self.shed_queries,
                },
            }

    def close(self) -> None:
        """Shut the fan-out pool down (idempotent).  A hedge's losing
        attempt still in flight ends on its own socket timeout."""
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
