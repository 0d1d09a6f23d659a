"""Single-query parallelism: shard ``W`` across shared-memory workers.

A fused batch shares one sweep *across* queries — no help when one user
asks one enormous query.  This module splits a single
query's weight scan into contiguous shards of ``W`` and fans the shards
across worker processes, each running the blocked kernel
(:class:`~repro.vectorized.girkernel.KernelCore`) over **zero-copy**
``multiprocessing.shared_memory`` views of the kernel's arrays
(``P``, ``W`` and, on the float32 filter path, their single-precision
copies).  The segments are created once per engine; per query only the
tiny ``(kind, q, k, lo, hi)`` task tuples and the per-shard partial
answers cross the process boundary.

Shard merging is deterministic and exact:

* RTK — ``rank(w, q)`` never depends on other weights, so the shard
  answers are disjoint index sets and the merged answer is their union;
* RKR — each shard returns its local top-k ``(rank, index)`` pairs with
  exact ranks; the global answer is the k lexicographically smallest
  pairs (:func:`~repro.queries.types.make_rkr_result`), which is
  byte-identical to the serial heap's tie-break (smaller index wins on
  equal ranks).

Lifecycle: the engine owns a process pool and the shared segments; call
:meth:`ShardedGirRRQ.close` (or use it as a context manager) to release
both.  Workers attach segments read-only-by-convention and detach on
exit; the parent unlinks at close.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.base import RRQAlgorithm
from ..data.datasets import ProductSet, WeightSet
from ..errors import InvalidParameterError
from ..obs.trace import span
from ..queries.types import RKRResult, RTKResult, make_rkr_result
from ..stats.counters import OpCounter
from .girkernel import (
    DEFAULT_P_BLOCK,
    DEFAULT_W_BLOCK,
    GirKernelRRQ,
    KernelCore,
    KernelStats,
)

#: spec = (shm name, shape, dtype string) — everything a worker needs to
#: rebuild an ndarray view of one segment.
ArraySpec = Tuple[str, tuple, str]


def _share_array(arr: np.ndarray) -> Tuple[shared_memory.SharedMemory,
                                           ArraySpec]:
    """Copy ``arr`` into a fresh shared-memory segment; return handle + spec."""
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return shm, (shm.name, arr.shape, arr.dtype.str)


def _attach_array(spec: ArraySpec) -> Tuple[np.ndarray,
                                            shared_memory.SharedMemory]:
    """Worker-side: map a segment by name and wrap it in an ndarray view.

    The segment must not be registered with this process's
    resource_tracker: the parent owns unlinking, and a tracker entry in
    a worker would tear the segment down when the *worker* exits
    (bpo-38119).  Python 3.13 grew ``track=False`` for exactly this;
    older versions need the unregister fallback.
    """
    name, shape, dtype = spec
    try:
        shm = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track flag
        # Suppress the attach-side tracker registration instead of
        # unregistering afterwards: under fork the tracker process is
        # shared with the parent, and an unregister here would strip the
        # parent's own entry (KeyError noise at unlink time).
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf), shm


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: Built by the pool initializer; one core (and its pinned segments) per
#: worker process.
_WORKER_CORE: Optional[KernelCore] = None
_WORKER_SEGMENTS: List[shared_memory.SharedMemory] = []

#: A float64 core has no ``P32`` / ``W32`` and gets no segment for them.
_ARRAY_KEYS = ("P", "W", "P32", "W32")


def _init_shard_worker(specs: Dict[str, ArraySpec], params: dict) -> None:
    global _WORKER_CORE
    arrays = {}
    for key, spec in specs.items():
        arr, shm = _attach_array(spec)
        arrays[key] = arr
        _WORKER_SEGMENTS.append(shm)  # keep mapped for the worker's lifetime
    _WORKER_CORE = KernelCore(**arrays, **params)


def _run_shard(task) -> Tuple[list, dict, dict]:
    kind, q, k, lo, hi = task
    counter = OpCounter()
    stats = KernelStats()
    if kind == "rtk":
        payload = _WORKER_CORE.rtk_indices(q, k, lo, hi, counter, stats)
    else:
        payload = _WORKER_CORE.rkr_pairs(q, k, lo, hi, counter, stats)
    return payload, counter.snapshot(), stats.snapshot()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class ShardedGirRRQ(RRQAlgorithm):
    """Blocked GIR kernel with the weight scan sharded across processes.

    Parameters
    ----------
    products, weights:
        The data sets.
    shards:
        Worker process count (= shard count); defaults to
        ``os.cpu_count()``.  ``shards=1`` still runs through one worker
        so the code path is uniform (use :class:`GirKernelRRQ` directly
        when no parallelism is wanted).
    w_block, p_block, use_domin:
        Forwarded to the kernel (see :class:`GirKernelRRQ`).

    Everything is built once: the kernel arrays are ordered and cast in
    the parent, published to shared memory, and the pool initializer
    maps them into each worker exactly once.  Answers are byte-identical to
    the serial kernel and to :class:`~repro.core.gir.GridIndexRRQ` (the
    tests enforce it).
    """

    name = "GIR-SHARD"

    def __init__(self, products: ProductSet, weights: WeightSet,
                 shards: Optional[int] = None,
                 w_block: int = DEFAULT_W_BLOCK,
                 p_block: int = DEFAULT_P_BLOCK,
                 use_domin: bool = True,
                 kernel: Optional[GirKernelRRQ] = None):
        super().__init__(products, weights)
        if shards is None:
            shards = os.cpu_count() or 1
        if shards < 1:
            raise InvalidParameterError(
                f"shards must be positive, got {shards}"
            )
        if kernel is None:
            kernel = GirKernelRRQ(products, weights, w_block=w_block,
                                  p_block=p_block, use_domin=use_domin)
        #: The serial kernel — source of the shared arrays, and the
        #: in-process fallback after :meth:`close`.
        self.kernel = kernel
        #: Local→global id map for snapshot-built engines (None = identity).
        self._w_gids: Optional[np.ndarray] = None
        self.shards = int(min(shards, self.W.shape[0]) or 1)
        #: Stats of the most recent query, merged across shards.
        self.last_stats: Optional[KernelStats] = None
        core = kernel.core
        self._segments: List[shared_memory.SharedMemory] = []
        specs: Dict[str, ArraySpec] = {}
        for key in _ARRAY_KEYS:
            arr = getattr(core, key)
            if arr is None:
                continue
            shm, spec = _share_array(arr)
            self._segments.append(shm)
            specs[key] = spec
        params = {"w_block": core.w_block, "p_block": core.p_block,
                  "use_domin": core.use_domin,
                  "filter_dtype": core.filter_dtype}
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.shards,
            initializer=_init_shard_worker,
            initargs=(specs, params),
        )
        bounds = np.linspace(0, self.W.shape[0], self.shards + 1).astype(int)
        self._ranges = [(int(lo), int(hi))
                        for lo, hi in zip(bounds[:-1], bounds[1:])
                        if hi > lo]

    @classmethod
    def from_snapshot(cls, snapshot, shards: Optional[int] = None,
                      w_block: int = DEFAULT_W_BLOCK,
                      p_block: int = DEFAULT_P_BLOCK,
                      use_domin: bool = True) -> "ShardedGirRRQ":
        """Build a sharded engine over one pinned MVCC store snapshot.

        The snapshot's live rows are gathered in ascending global-id
        order, densified into the kernel arrays, and answers are mapped
        back to the snapshot's stable global ids.  The id map is
        monotone, so the kernel's lexicographic ``(rank, index)``
        tie-break commutes with it — answers stay byte-identical to the
        snapshot's own kernel.  The caller keeps the snapshot
        pinned for as long as it wants the ids to stay meaningful; the
        engine itself copies everything it needs at build time.
        """
        p_rows, p_gids = snapshot.live_products()
        w_rows, w_gids = snapshot.live_weights()
        if p_rows.shape[0] == 0 or w_rows.shape[0] == 0:
            raise InvalidParameterError(
                "cannot build a sharded engine over an empty snapshot "
                f"({p_rows.shape[0]} products, {w_rows.shape[0]} weights)"
            )
        engine = cls(
            ProductSet(p_rows, value_range=snapshot.value_range),
            WeightSet(w_rows), shards=shards,
            w_block=w_block, p_block=p_block, use_domin=use_domin,
        )
        engine._w_gids = np.asarray(w_gids, dtype=np.int64)
        return engine

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down and unlink the shared segments.

        Idempotent and safe on half-built instances: a constructor that
        raised before ``_pool``/``_segments`` existed still gets
        garbage-collected through :meth:`__del__` → ``close()``, and at
        interpreter shutdown GC may run after module teardown — so every
        attribute access is guarded instead of assumed.
        """
        pool = getattr(self, "_pool", None)
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)
        segments = getattr(self, "_segments", None) or []
        self._segments = []
        for shm in segments:
            try:
                shm.close()
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - gone
                pass

    def __enter__(self) -> "ShardedGirRRQ":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        # BaseException: at interpreter exit pool.shutdown can raise
        # RuntimeError subclasses or partially-torn-down builtins; a
        # destructor must never let anything escape.
        try:
            self.close()
        except BaseException:
            pass

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _scatter_gather(self, kind: str, q: np.ndarray, k: int,
                        counter: OpCounter) -> List[list]:
        """Fan one query across the shard pool; collect partial payloads."""
        stats = KernelStats()
        with span("shard.scatter_gather") as sp:
            sp.annotate("kind", kind)
            if self._pool is None:
                # Closed engine: serve in-process so callers holding a
                # reference keep getting exact answers.
                sp.annotate("shards", 1)
                sp.annotate("in_process", True)
                payload, csnap, ssnap = _serial_shard(self.kernel.core, kind,
                                                      q, k, self.W.shape[0])
                _merge_snapshots(counter, stats, csnap, ssnap)
                self.last_stats = stats
                return [payload]
            sp.annotate("shards", len(self._ranges))
            futures = [
                self._pool.submit(_run_shard, (kind, q, k, lo, hi))
                for lo, hi in self._ranges
            ]
            payloads = []
            for future in futures:
                payload, csnap, ssnap = future.result()
                payloads.append(payload)
                _merge_snapshots(counter, stats, csnap, ssnap)
            # The shards ran concurrently; queries counts as one scan.
            stats.queries = 1
            self.last_stats = stats
            return payloads

    def _reverse_topk(self, q: np.ndarray, k: int,
                      counter: OpCounter) -> RTKResult:
        payloads = self._scatter_gather("rtk", q, k, counter)
        t0 = perf_counter()
        if self._w_gids is not None:
            qualifying = frozenset(int(self._w_gids[j])
                                   for payload in payloads for j in payload)
        else:
            qualifying = frozenset(j for payload in payloads for j in payload)
        if self.last_stats is not None:
            self.last_stats.merge_s += perf_counter() - t0
        return RTKResult(weights=qualifying, k=k, counter=counter)

    def _reverse_kranks(self, q: np.ndarray, k: int,
                        counter: OpCounter) -> RKRResult:
        payloads = self._scatter_gather("rkr", q, k, counter)
        t0 = perf_counter()
        pairs = [tuple(pair) for payload in payloads for pair in payload]
        result = make_rkr_result(pairs, k, counter)
        if self._w_gids is not None:
            # The id map is monotone, so remapping after the merge keeps
            # the lexicographic (rank, index) truncation intact.
            result = RKRResult(
                entries=tuple((rank, int(self._w_gids[j]))
                              for rank, j in result.entries),
                k=result.k, counter=result.counter,
            )
        if self.last_stats is not None:
            self.last_stats.merge_s += perf_counter() - t0
        return result


def _serial_shard(core: KernelCore, kind: str, q: np.ndarray, k: int,
                  m_w: int) -> Tuple[list, dict, dict]:
    counter = OpCounter()
    stats = KernelStats()
    if kind == "rtk":
        payload = core.rtk_indices(q, k, 0, m_w, counter, stats)
    else:
        payload = core.rkr_pairs(q, k, 0, m_w, counter, stats)
    return payload, counter.snapshot(), stats.snapshot()


def _merge_snapshots(counter: OpCounter, stats: KernelStats,
                     csnap: dict, ssnap: dict) -> None:
    """Fold a shard's counter/stats snapshots into the parent objects."""
    for name, value in csnap.items():
        setattr(counter, name, getattr(counter, name) + value)
    stats.queries += ssnap["queries"]
    stats.filter_s += ssnap["stage_s"]["filter"]
    stats.refine_s += ssnap["stage_s"]["refine"]
    stats.merge_s += ssnap["stage_s"]["merge"]
    pairs = ssnap["pairs"]
    stats.pairs_total += pairs["total"]
    stats.pairs_case1 += pairs["case1"]
    stats.pairs_case2 += pairs["case2"]
    stats.pairs_refined += pairs["refined"]
    stats.pairs_domin_skipped += pairs["domin_skipped"]
    stats.pairs_f32 += pairs.get("f32", 0)
    stats.weights_pruned += ssnap["weights_pruned"]
    fused = ssnap.get("fused", {})
    stats.fused_batches += fused.get("batches", 0)
    stats.fused_queries += fused.get("queries", 0)
