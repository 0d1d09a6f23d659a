"""The segmented MVCC store: immutable segments + one mutable delta.

Write path: every mutation appends to the :class:`MutableDelta` in
O(d) — no cache invalidation storm, no kernel-array rebuild.  Once the
delta crosses a threshold (or on an explicit checkpoint) it is
**sealed**: its live rows become a new immutable :class:`Segment` —
rows and stable ids, nothing derived — committed to disk through the
CRC32 manifest protocol and a ``CURRENT`` pointer flip
(:mod:`repro.storage.manifest`).  A background (or on-demand)
**compactor** merges adjacent runs of small segments and physically
drops manifest-dead rows, committing the same way; superseded segments
retire through refcounts so pinned readers keep their files.

Read path: :meth:`SegmentStore.pin` captures ``(segment list, frozen
delta, dead-set union)`` atomically under the store lock and returns a
:class:`~repro.storage.snapshot.StoreSnapshot` — after that the reader
never synchronizes with writers again.  ``reverse_topk`` /
``reverse_kranks`` are pin-query-release wrappers, so even the
single-query path is snapshot-isolated.  Every read is a tile sweep
through the snapshot's :class:`~repro.storage.kernel.SnapshotKernel`;
the store keeps exactly one in RAM, rebuilt on the first read after the
generation moves.

Crash contract (the WAL barrier invariant, enforced by the chaos
suite):

* ``manifest.lsn`` advances only at a seal/checkpoint, at which point
  the delta is (logically) empty — so the manifest's dead sets are
  exactly the deletes at or before its LSN whose rows still exist;
* compaction never changes ``lsn``; it drops **manifest-dead rows
  only** and removes exactly those ids from the dead sets, so WAL tail
  replay (records after ``lsn``) reconstructs the delta — inserts with
  their original ids, post-barrier deletes — idempotently on every
  recovery;
* disk commits happen *before* the in-memory flip: an injected crash
  (or SIGKILL) during a seal/compaction leaves the old manifest live
  and at worst an orphaned segment directory, swept on recovery.
"""

from __future__ import annotations

import shutil
import threading
from pathlib import Path
from time import monotonic
from typing import List, Optional, Set, Tuple

import numpy as np

from ..data.datasets import check_query_point
from ..errors import DataValidationError, InvalidParameterError
from ..obs.trace import span
from ..queries.types import RKRResult, RTKResult
from ..vectorized.blasthreads import single_threaded
from .delta import MutableDelta
from .kernel import SnapshotKernel
from .manifest import (
    manifest_name,
    read_current_manifest,
    sweep_store_orphans,
    write_manifest,
)
from .segment import Segment, load_segment
from .snapshot import StoreSnapshot

#: Delta rows that trigger an automatic seal (the durable engine's knob).
DEFAULT_SEAL_ROWS = 256

#: Background compaction fires when the store holds more segments...
DEFAULT_COMPACT_MAX_SEGMENTS = 8
#: ...or when this fraction of physical rows is dead.
DEFAULT_COMPACT_DEAD_FRACTION = 0.30
#: Segments smaller than this count as "small" for run merging.
DEFAULT_COMPACT_SMALL_ROWS = 2048


class _StoreView:
    """Dataset-like read view (stable global ids) for the serving stack.

    Shaped like a :class:`~repro.data.datasets.ProductSet` — ``dim``,
    ``size``, ``value_range``, ``view[i]`` — over the *live* rows:
    ``size`` spans every id ever allocated and a dead id raises a
    structured error.  There is deliberately no ``values`` attribute:
    the rows move under mutation, so the serving stack reads them
    through a pinned snapshot, never as a static matrix.
    """

    def __init__(self, store: "SegmentStore", kind: str, value_range: float):
        self._store = store
        self._kind = kind
        self.value_range = float(value_range)

    @property
    def dim(self) -> int:
        return self._store.dim

    @property
    def size(self) -> int:
        return (self._store._next_pid if self._kind == "products"
                else self._store._next_wid)

    @property
    def live_count(self) -> int:
        return (self._store.num_products if self._kind == "products"
                else self._store.num_weights)

    def live_indices(self) -> np.ndarray:
        with self._store.pin() as snap:
            getter = (snap.live_products if self._kind == "products"
                      else snap.live_weights)
            return getter()[1].copy()

    def live_values(self) -> np.ndarray:
        with self._store.pin() as snap:
            getter = (snap.live_products if self._kind == "products"
                      else snap.live_weights)
            return getter()[0].copy()

    def __getitem__(self, idx: int) -> np.ndarray:
        return self._store._get_row(self._kind, int(idx))

    def __len__(self) -> int:
        return self.size


class SegmentStore:
    """Segmented MVCC index store — the repo's one mutable engine.

    Parameters
    ----------
    dim:
        Data dimensionality.
    value_range:
        Product attribute range ``[0, value_range)``; inserts outside it
        are rejected.
    partitions:
        Recorded in the manifest and written back unchanged; no read
        consults it (the kernel has no grid).
    directory:
        Segment/manifest home.  ``None`` keeps the store memory-only
        (unit tests, ephemeral engines); the commit protocol becomes a
        no-op but all MVCC semantics are identical.
    compact_max_segments, compact_dead_fraction, compact_small_rows:
        Compaction triggers (see :meth:`maybe_compact`).
    """

    #: Engine identifier shown in ``/info`` and used in cache keys.
    method = "segmented"

    def __init__(self, dim: int, value_range: float = 1.0,
                 partitions: int = 32, directory=None,
                 compact_max_segments: int = DEFAULT_COMPACT_MAX_SEGMENTS,
                 compact_dead_fraction: float = DEFAULT_COMPACT_DEAD_FRACTION,
                 compact_small_rows: int = DEFAULT_COMPACT_SMALL_ROWS):
        if dim <= 0:
            raise InvalidParameterError("dim must be positive")
        if value_range <= 0:
            raise InvalidParameterError("value_range must be positive")
        self.dim = int(dim)
        self.value_range = float(value_range)
        self.partitions = int(partitions)
        self.directory = Path(directory) if directory is not None else None
        self.compact_max_segments = int(compact_max_segments)
        self.compact_dead_fraction = float(compact_dead_fraction)
        self.compact_small_rows = int(compact_small_rows)

        self._segments: Tuple[Segment, ...] = ()
        self._delta = MutableDelta(self.dim)
        self._manifest_dead_p: frozenset = frozenset()
        self._manifest_dead_w: frozenset = frozenset()
        self._next_pid = 0
        self._next_wid = 0
        self._next_segment = 0
        self._manifest_generation = 0
        self._manifest_lsn = 0
        #: Highest LSN applied to the in-memory state (durable engine).
        self.applied_lsn = 0
        #: Monotone mutation/flip counter — snapshot & kernel memo key.
        self._generation = 0
        #: The one in-RAM kernel (see :meth:`_kernel_for`).
        self._kernel: Optional[SnapshotKernel] = None
        self._kernel_lock = threading.Lock()

        self._lock = threading.RLock()
        #: Serializes seal vs compaction (never held during queries).
        self._maintenance = threading.Lock()
        self._retired: List[Segment] = []
        self._active_pins = 0
        self._change_listeners: List = []

        self.seals_total = 0
        self.compactions_total = 0
        self.compaction_seconds_total = 0.0
        self.last_compaction_s = 0.0
        self.segments_retired_total = 0
        self.orphans_swept_total = 0

        self._compactor: Optional[threading.Thread] = None
        self._compactor_stop = threading.Event()

        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            if read_current_manifest(self.directory) is None:
                # Commit generation 0 immediately so the directory is
                # recognizably segmented from its very first byte.
                self._write_current_manifest()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @classmethod
    def from_directory(cls, directory, **knobs) -> "SegmentStore":
        """Reopen a store: verified manifest, segments, orphan sweep.

        The WAL tail (records after ``manifest.lsn``) is the durable
        engine's to replay; this restores exactly the manifest state.
        Raises :class:`~repro.errors.IndexCorruptionError` on a corrupt
        pointer, manifest, or segment — acknowledged state is never
        silently dropped.
        """
        directory = Path(directory)
        manifest = read_current_manifest(directory)
        if manifest is None:
            raise InvalidParameterError(
                f"{directory} has no store manifest; "
                "construct SegmentStore(...) to create one"
            )
        params = manifest["params"]  # an older one's "chunk" is ignored
        store = cls(
            dim=int(params["dim"]),
            value_range=float(params["value_range"]),
            partitions=int(params["partitions"]),
            **knobs,
        )
        store.directory = directory
        segments = [load_segment(directory / name)
                    for name in manifest["segments"]]
        store._segments = tuple(segments)
        store._manifest_dead_p = frozenset(manifest["dead_products"])
        store._manifest_dead_w = frozenset(manifest["dead_weights"])
        store._next_pid = int(manifest["next_pid"])
        store._next_wid = int(manifest["next_wid"])
        store._next_segment = int(params.get("next_segment", len(segments)))
        store._manifest_generation = int(manifest["generation"])
        store._manifest_lsn = int(manifest["lsn"])
        store.applied_lsn = store._manifest_lsn
        removed = sweep_store_orphans(directory, manifest)
        store.orphans_swept_total += len(removed)
        return store

    # ------------------------------------------------------------------
    # change notification
    # ------------------------------------------------------------------

    def add_change_listener(self, callback) -> None:
        """Register a no-argument callable invoked after every mutation."""
        self._change_listeners.append(callback)

    def _notify_change(self) -> None:
        for callback in self._change_listeners:
            callback()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def _find(self, kind: str, gid: int):
        """Physical home of ``gid`` → ``(segment | delta, local idx)`` or None."""
        side = (self._delta.products if kind == "products"
                else self._delta.weights)
        local = side.find(gid)
        if local is not None:
            return side, local
        for seg in self._segments:
            ids = seg.p_ids if kind == "products" else seg.w_ids
            pos = int(np.searchsorted(ids, gid))
            if pos < ids.shape[0] and ids[pos] == gid:
                return seg, pos
        return None

    def _dead_union(self, kind: str) -> Set[int]:
        if kind == "products":
            return set(self._manifest_dead_p) | self._delta.dead_products
        return set(self._manifest_dead_w) | self._delta.dead_weights

    def _check_live(self, kind: str, gid: int) -> None:
        """Structured liveness check: a stale id and a double delete
        raise distinguishable errors, never a raw ``IndexError``."""
        upper = self._next_pid if kind == "products" else self._next_wid
        if not 0 <= gid < upper:
            raise InvalidParameterError(
                f"index {gid} out of range [0, {upper})"
            )
        if gid in self._dead_union(kind) or self._find(kind, gid) is None:
            raise InvalidParameterError(
                f"index {gid} is already deleted (tombstoned)"
            )

    def _get_row(self, kind: str, gid: int) -> np.ndarray:
        with self._lock:
            upper = self._next_pid if kind == "products" else self._next_wid
            if not 0 <= gid < upper:
                raise InvalidParameterError(
                    f"index {gid} out of range [0, {upper})"
                )
            if gid in self._dead_union(kind):
                raise InvalidParameterError(f"index {gid} is deleted")
            home = self._find(kind, gid)
            if home is None:
                raise InvalidParameterError(f"index {gid} is deleted")
            holder, local = home
            if isinstance(holder, Segment):
                rows = (holder.p_rows if kind == "products"
                        else holder.w_rows)
                return rows[local].copy()
            return holder.frozen()[0][local].copy()

    # ------------------------------------------------------------------
    # mutation (O(d) appends into the delta)
    # ------------------------------------------------------------------

    def validate_product(self, vector) -> np.ndarray:
        """The float64 row of a well-formed product, else a structured
        error.  The durable engine runs this before its WAL append."""
        row = check_query_point(vector, self.dim)
        if row.max(initial=0.0) >= self.value_range:
            raise DataValidationError(
                "product values must lie in [0, value_range)"
            )
        return row

    def validate_weight(self, vector, renormalize: bool) -> np.ndarray:
        """The (renormalized) float64 row of a well-formed preference."""
        row = check_query_point(vector, self.dim)
        total = float(row.sum())
        if renormalize:
            if total <= 0:
                raise DataValidationError("weight vector sums to zero")
            row = row / total
        elif abs(total - 1.0) > 1e-6:
            raise DataValidationError(
                f"weight vector sums to {total:.6f}, expected 1.0"
            )
        return row

    def insert_product(self, vector) -> int:
        """Add a product; returns its stable global id."""
        row = self.validate_product(vector)
        with self._lock:
            gid = self._next_pid
            self._next_pid += 1
            self._delta.append_product(row, gid)
            self._generation += 1
        self._notify_change()
        return gid

    def insert_weight(self, vector, renormalize: bool = False) -> int:
        """Add a preference vector; returns its stable global id."""
        row = self.validate_weight(vector, renormalize)
        with self._lock:
            gid = self._next_wid
            self._next_wid += 1
            self._delta.append_weight(row, gid)
            self._generation += 1
        self._notify_change()
        return gid

    def remove_product(self, idx: int) -> None:
        """Tombstone a product (recorded in the delta until sealed)."""
        idx = int(idx)
        with self._lock:
            self._check_live("products", idx)
            self._delta.kill_product(idx)
            self._generation += 1
        self._notify_change()

    def remove_weight(self, idx: int) -> None:
        """Tombstone a preference."""
        idx = int(idx)
        with self._lock:
            self._check_live("weights", idx)
            self._delta.kill_weight(idx)
            self._generation += 1
        self._notify_change()

    def modify_product(self, idx: int, vector) -> int:
        """Replace product ``idx``: validate, tombstone, append anew.

        Atomic under the store lock — no snapshot can observe the
        in-between state where the old row is gone and the new one is
        not yet appended.  Returns the replacement's global id.
        """
        row = self.validate_product(vector)
        idx = int(idx)
        with self._lock:
            self._check_live("products", idx)
            self._delta.kill_product(idx)
            gid = self._next_pid
            self._next_pid += 1
            self._delta.append_product(row, gid)
            self._generation += 1
        self._notify_change()
        return gid

    def modify_weight(self, idx: int, vector,
                      renormalize: bool = False) -> int:
        """Replace preference ``idx`` (same contract as modify_product)."""
        row = self.validate_weight(vector, renormalize)
        idx = int(idx)
        with self._lock:
            self._check_live("weights", idx)
            self._delta.kill_weight(idx)
            gid = self._next_wid
            self._next_wid += 1
            self._delta.append_weight(row, gid)
            self._generation += 1
        self._notify_change()
        return gid

    #: Mutation-op aliases matching the WAL vocabulary.
    delete_product = remove_product
    delete_weight = remove_weight

    def note_lsn(self, lsn: int) -> None:
        """Record the LSN just applied (the durable engine's bookkeeping)."""
        self.applied_lsn = max(self.applied_lsn, int(lsn))

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def pin(self) -> StoreSnapshot:
        """Capture one isolated read view; caller must release it."""
        with self._lock:
            segments = self._segments
            for seg in segments:
                seg.pins += 1
            self._active_pins += 1
            view = self._delta.freeze()
            dead_p = self._manifest_dead_p | view["dead_products"]
            dead_w = self._manifest_dead_w | view["dead_weights"]
            return StoreSnapshot(
                self, segments, view, frozenset(dead_p), frozenset(dead_w),
                next_pid=self._next_pid, next_wid=self._next_wid,
                generation=self._generation, lsn=self._manifest_lsn,
                dim=self.dim, value_range=self.value_range,
            )

    def _release_pins(self, segments: Tuple[Segment, ...]) -> None:
        with self._lock:
            self._active_pins -= 1
            doomed = []
            for seg in segments:
                seg.pins -= 1
                if seg.retired and seg.pins == 0:
                    doomed.append(seg)
                    if seg in self._retired:
                        self._retired.remove(seg)
        for seg in doomed:
            if seg.directory is not None:
                shutil.rmtree(seg.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # queries (pin-query-release)
    # ------------------------------------------------------------------

    def reverse_topk(self, q, k: int) -> RTKResult:
        """Snapshot-isolated reverse top-k (stable global ids)."""
        with self.pin() as snap:
            return snap.reverse_topk(q, k)

    def reverse_kranks(self, q, k: int) -> RKRResult:
        """Snapshot-isolated reverse k-ranks (stable global ids)."""
        with self.pin() as snap:
            return snap.reverse_kranks(q, k)

    def _kernel_for(self, snapshot: StoreSnapshot) -> SnapshotKernel:
        """The kernel over ``snapshot``'s live rows (``snapshot.kernel``).

        One memo, one builder: the last kernel built is kept, keyed on
        its generation, and a read that finds the generation moved
        rebuilds under the memo lock — concurrent readers of one
        generation wait for one build instead of each paying for it.  A
        failed build leaves the memo as it was.
        """
        with self._kernel_lock:
            kernel = self._kernel
            if kernel is None or not kernel.matches(snapshot):
                with single_threaded():
                    kernel = SnapshotKernel.build(snapshot)
                self._kernel = kernel
            return kernel

    # ------------------------------------------------------------------
    # seal / checkpoint
    # ------------------------------------------------------------------

    def _write_current_manifest(self, generation: Optional[int] = None,
                                lsn: Optional[int] = None,
                                segments: Optional[Tuple[Segment, ...]] = None,
                                dead_p: Optional[frozenset] = None,
                                dead_w: Optional[frozenset] = None,
                                next_segment: Optional[int] = None) -> None:
        """Write + flip the manifest for the given (or current) state.

        Pure disk I/O — touches no in-memory fields, so callers commit
        memory only after this returns (crash ⇒ memory unchanged, disk
        shows either the old or the new manifest).
        """
        if self.directory is None:
            return
        segments = self._segments if segments is None else segments
        target = (self._manifest_generation if generation is None
                  else generation)
        write_manifest(
            self.directory,
            generation=target,
            lsn=self._manifest_lsn if lsn is None else lsn,
            segments=[seg.name for seg in segments],
            dead_products=(self._manifest_dead_p if dead_p is None
                           else dead_p),
            dead_weights=(self._manifest_dead_w if dead_w is None
                          else dead_w),
            next_pid=self._next_pid, next_wid=self._next_wid,
            params={
                "dim": self.dim, "value_range": self.value_range,
                "partitions": self.partitions,
                "next_segment": (self._next_segment if next_segment is None
                                 else next_segment),
            },
        )
        # Superseded manifests are never pinned; drop them eagerly so a
        # long-running store doesn't shed them only at the next recovery.
        keep = manifest_name(target)
        for entry in self.directory.glob("MANIFEST-*.json"):
            if entry.name != keep:
                entry.unlink(missing_ok=True)

    def seal(self, lsn: Optional[int] = None, force: bool = False,
             blocking: bool = True) -> Optional[str]:
        """Freeze the delta into a new immutable segment and commit.

        Returns the new segment's name, or ``None`` when there was
        nothing to seal (or ``blocking=False`` and the compactor holds
        the maintenance lock).  ``lsn`` becomes the new manifest
        barrier; it defaults to :attr:`applied_lsn`.

        Commit order is disk-then-memory: the segment directory and the
        manifest flip land (or crash) *before* the in-memory state
        changes, so an injected crash leaves the store — memory and
        disk — exactly as it was.
        """
        if not self._maintenance.acquire(blocking=blocking):
            return None
        try:
            with span("storage.seal") as sp:
                return self._seal_locked(lsn, force, sp)
        finally:
            self._maintenance.release()

    def _seal_locked(self, lsn: Optional[int], force: bool, sp) -> Optional[str]:
        with self._lock:
            view = self._delta.freeze()
            if view["generation"] == 0 and not force:
                return None
            barrier = int(lsn if lsn is not None else self.applied_lsn)
            p_rows, p_ids = view["p_rows"], view["p_ids"]
            w_rows, w_ids = view["w_rows"], view["w_ids"]
            dead_p, dead_w = view["dead_products"], view["dead_weights"]
            keep_p = (~np.isin(p_ids, sorted(dead_p)) if p_ids.size
                      else np.zeros(0, dtype=bool))
            keep_w = (~np.isin(w_ids, sorted(dead_w)) if w_ids.size
                      else np.zeros(0, dtype=bool))
            sealed_p, sealed_pids = p_rows[keep_p], p_ids[keep_p]
            sealed_w, sealed_wids = w_rows[keep_w], w_ids[keep_w]
            # Deletes of segment-resident rows fold into the manifest
            # dead sets; deletes of delta rows simply drop the row.
            new_dead_p = self._manifest_dead_p | (
                dead_p - set(int(i) for i in p_ids)
            )
            new_dead_w = self._manifest_dead_w | (
                dead_w - set(int(i) for i in w_ids)
            )
            segment = None
            if sealed_pids.size or sealed_wids.size:
                name = f"seg-{self._next_segment:08d}"
                segment = Segment(
                    name,
                    sealed_p.reshape(-1, self.dim), sealed_pids,
                    sealed_w.reshape(-1, self.dim), sealed_wids,
                )
            new_segments = (self._segments + (segment,) if segment is not None
                            else self._segments)
            next_segment = self._next_segment + (1 if segment else 0)

        # Disk commit — outside the store lock (readers/writers proceed),
        # serialized by the maintenance lock.  Nothing in memory has
        # changed yet: a crash here leaves the old manifest live and at
        # worst an orphaned directory, and the store keeps serving its
        # pre-seal state.
        new_dead_p = frozenset(new_dead_p)
        new_dead_w = frozenset(new_dead_w)
        if segment is not None and self.directory is not None:
            segment.save(self.directory / segment.name)
        self._write_current_manifest(
            generation=self._manifest_generation + 1, lsn=barrier,
            segments=new_segments, dead_p=new_dead_p, dead_w=new_dead_w,
            next_segment=next_segment,
        )

        # Memory commit, one atomic flip: segment list, dead sets, and a
        # delta holding only what arrived after the freeze (nothing, when
        # the caller serializes mutations with seals).
        with self._lock:
            self._manifest_generation += 1
            self._manifest_lsn = barrier
            self._segments = new_segments
            self._next_segment = next_segment
            self._manifest_dead_p = new_dead_p
            self._manifest_dead_w = new_dead_w
            self._delta = self._split_delta_after(view)
            self._generation += 1
            self.seals_total += 1
        sp.annotate("segment", segment.name if segment else None)
        sp.annotate("lsn", barrier)
        return segment.name if segment else None

    def _split_delta_after(self, view: dict) -> MutableDelta:
        """New delta = everything the current delta gained after ``view``."""
        fresh = MutableDelta(self.dim)
        current = self._delta.freeze()
        n_p, n_w = view["p_ids"].shape[0], view["w_ids"].shape[0]
        for row, gid in zip(current["p_rows"][n_p:], current["p_ids"][n_p:]):
            fresh.append_product(row, int(gid))
        for row, gid in zip(current["w_rows"][n_w:], current["w_ids"][n_w:]):
            fresh.append_weight(row, int(gid))
        fresh.dead_products = set(
            current["dead_products"] - view["dead_products"]
        )
        fresh.dead_weights = set(
            current["dead_weights"] - view["dead_weights"]
        )
        return fresh

    def checkpoint(self, lsn: int) -> int:
        """Advance the manifest barrier to ``lsn`` (seal if needed).

        The durable engine calls this from ``snapshot()``: after it
        returns, every record at or before ``lsn`` is fully reflected
        by manifest + segments and the WAL may be truncated through it.
        Returns the committed manifest generation.
        """
        self.seal(lsn=lsn, force=True)
        with self._maintenance:
            with self._lock:
                stale = self._manifest_lsn < int(lsn)
                generation = self._manifest_generation
            if stale:
                # Empty delta, stale barrier: rewrite the manifest only.
                self._write_current_manifest(generation=generation + 1,
                                             lsn=int(lsn))
                with self._lock:
                    self._manifest_generation = generation + 1
                    self._manifest_lsn = int(lsn)
        with self._lock:
            return self._manifest_generation

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def _pick_run(self) -> Optional[Tuple[int, int]]:
        """Choose the segment run ``[lo, hi)`` to merge, or None."""
        segments = self._segments
        if len(segments) < 2:
            return None
        rows = [seg.n_products + seg.n_weights for seg in segments]
        total = sum(rows)
        dead = len(self._manifest_dead_p) + len(self._manifest_dead_w)
        if total and dead / total >= self.compact_dead_fraction:
            return (0, len(segments))
        if len(segments) > self.compact_max_segments:
            return (0, len(segments))
        best = None
        lo = None
        for i, n in enumerate(rows + [self.compact_small_rows]):
            if n < self.compact_small_rows:
                if lo is None:
                    lo = i
            else:
                if lo is not None and i - lo >= 2:
                    if best is None or i - lo > best[1] - best[0]:
                        best = (lo, i)
                lo = None
        return best

    def maybe_compact(self, blocking: bool = False) -> bool:
        """Compact if a trigger fires; returns whether a merge happened."""
        with self._lock:
            run = self._pick_run()
        if run is None:
            return False
        return self.compact_run(run, blocking=blocking) is not None

    def compact(self) -> Tuple[np.ndarray, np.ndarray]:
        """Merge **all** segments, dropping manifest-dead rows.

        Physical only: ids are stable, so the returned per-id maps are
        identity for live ids and ``-1`` for deleted ones.  Seals
        first, so delta tombstones are dropped too.
        """
        self.seal(force=True)
        with self._lock:
            n_seg = len(self._segments)
        if n_seg >= 1:
            self.compact_run((0, n_seg), blocking=True)
        with self._lock:
            p_map = np.full(self._next_pid, -1, dtype=np.int64)
            w_map = np.full(self._next_wid, -1, dtype=np.int64)
            dead_p = self._dead_union("products")
            dead_w = self._dead_union("weights")
            for seg in self._segments:
                p_map[seg.p_ids] = seg.p_ids
                w_map[seg.w_ids] = seg.w_ids
            view = self._delta.freeze()
            p_map[view["p_ids"]] = view["p_ids"]
            w_map[view["w_ids"]] = view["w_ids"]
            if dead_p:
                p_map[np.fromiter(dead_p, dtype=np.int64)] = -1
            if dead_w:
                w_map[np.fromiter(dead_w, dtype=np.int64)] = -1
        self._notify_change()
        return p_map, w_map

    def compact_run(self, run: Tuple[int, int],
                    blocking: bool = True) -> Optional[str]:
        """Merge the adjacent segment run ``[lo, hi)`` into one segment.

        Drops rows dead **per the manifest dead sets only** — deletes
        after the barrier stay in the delta so WAL replay keeps working
        (see the module docstring).  ``manifest.lsn`` is unchanged.
        Returns the merged segment's name, or None when skipped.
        """
        if not self._maintenance.acquire(blocking=blocking):
            return None
        t0 = monotonic()
        try:
            with span("storage.compact") as sp:
                name = self._compact_locked(run, sp)
        finally:
            self._maintenance.release()
        if name is not None:
            with self._lock:
                self.compactions_total += 1
                self.last_compaction_s = monotonic() - t0
                self.compaction_seconds_total += self.last_compaction_s
        return name

    def _compact_locked(self, run: Tuple[int, int], sp) -> Optional[str]:
        with self._lock:
            lo, hi = run
            victims = self._segments[lo:hi]
            if len(victims) < 1:
                return None
            dead_p, dead_w = self._manifest_dead_p, self._manifest_dead_w
            prefix, suffix = self._segments[:lo], self._segments[hi:]
            next_segment = self._next_segment

        # Merge outside the store lock: victims are immutable and the
        # maintenance lock keeps the segment list stable.
        p_blocks = [s.p_rows for s in victims]
        pid_blocks = [s.p_ids for s in victims]
        w_blocks = [s.w_rows for s in victims]
        wid_blocks = [s.w_ids for s in victims]
        p_rows = np.concatenate(p_blocks) if p_blocks else np.empty((0, self.dim))
        p_ids = np.concatenate(pid_blocks) if pid_blocks else np.empty(0, np.int64)
        w_rows = np.concatenate(w_blocks) if w_blocks else np.empty((0, self.dim))
        w_ids = np.concatenate(wid_blocks) if wid_blocks else np.empty(0, np.int64)
        keep_p = (~np.isin(p_ids, sorted(dead_p)) if p_ids.size
                  else np.zeros(0, dtype=bool))
        keep_w = (~np.isin(w_ids, sorted(dead_w)) if w_ids.size
                  else np.zeros(0, dtype=bool))
        dropped_p = set(int(i) for i in p_ids[~keep_p])
        dropped_w = set(int(i) for i in w_ids[~keep_w])
        name = f"seg-{next_segment:08d}"
        merged = Segment(
            name, p_rows[keep_p], p_ids[keep_p], w_rows[keep_w], w_ids[keep_w],
        )
        if merged.n_products == 0 and merged.n_weights == 0:
            merged = None

        new_segments = (prefix + ((merged,) if merged is not None else ())
                        + suffix)
        new_dead_p = dead_p - dropped_p
        new_dead_w = dead_w - dropped_w

        # Disk commit first (old manifest stays live until the CURRENT
        # flip lands), with no in-memory change until it succeeds; then
        # the atomic in-memory flip; then retirement.
        new_dead_p = frozenset(new_dead_p)
        new_dead_w = frozenset(new_dead_w)
        if merged is not None and self.directory is not None:
            merged.save(self.directory / merged.name)
        self._write_current_manifest(
            generation=self._manifest_generation + 1,
            segments=new_segments, dead_p=new_dead_p, dead_w=new_dead_w,
            next_segment=next_segment + (1 if merged else 0),
        )

        doomed = []
        with self._lock:
            self._manifest_generation += 1
            self._segments = new_segments
            self._next_segment = next_segment + (1 if merged else 0)
            self._manifest_dead_p = new_dead_p
            self._manifest_dead_w = new_dead_w
            self._generation += 1
            for seg in victims:
                seg.retired = True
                self.segments_retired_total += 1
                if seg.pins == 0:
                    doomed.append(seg)
                else:
                    self._retired.append(seg)
        for seg in doomed:
            if seg.directory is not None:
                shutil.rmtree(seg.directory, ignore_errors=True)
        sp.annotate("merged", name if merged else None)
        sp.annotate("victims", len(victims))
        sp.annotate("dropped_products", len(dropped_p))
        sp.annotate("dropped_weights", len(dropped_w))
        return name if merged is not None else "(empty)"

    # ------------------------------------------------------------------
    # background compactor
    # ------------------------------------------------------------------

    def start_compactor(self, interval_s: float = 0.25) -> None:
        """Run :meth:`maybe_compact` periodically in a daemon thread."""
        if self._compactor is not None:
            return
        self._compactor_stop.clear()

        def loop():
            while not self._compactor_stop.wait(interval_s):
                try:
                    self.maybe_compact(blocking=False)
                except Exception:  # pragma: no cover - keep the loop alive
                    pass

        self._compactor = threading.Thread(
            target=loop, name="segment-compactor", daemon=True
        )
        self._compactor.start()

    def stop_compactor(self) -> None:
        if self._compactor is None:
            return
        self._compactor_stop.set()
        self._compactor.join(timeout=5.0)
        self._compactor = None

    def close(self) -> None:
        self.stop_compactor()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def products(self) -> _StoreView:
        """Dataset-like live view (stable global ids)."""
        return _StoreView(self, "products", self.value_range)

    @property
    def weights(self) -> _StoreView:
        return _StoreView(self, "weights", 1.0)

    def _segment_dead(self, kind: str) -> Tuple[int, List[int]]:
        """``(size of the dead union, dead rows in each segment)`` for
        one side, the union built once.  Caller holds the lock."""
        dead = self._dead_union(kind)
        if not dead:
            return 0, [0] * len(self._segments)
        ids = np.fromiter(dead, np.int64, len(dead))
        attr = "p_ids" if kind == "products" else "w_ids"
        return len(dead), [int(np.isin(getattr(seg, attr), ids).sum())
                           for seg in self._segments]

    @property
    def num_products(self) -> int:
        with self._lock:
            return (sum(s.n_products for s in self._segments)
                    - sum(self._segment_dead("products")[1])
                    + self._delta.live_counts()[0])

    @property
    def num_weights(self) -> int:
        with self._lock:
            return (sum(s.n_weights for s in self._segments)
                    - sum(self._segment_dead("weights")[1])
                    + self._delta.live_counts()[1])

    def fragmentation(self) -> float:
        """Fraction of physically stored rows that are dead."""
        with self._lock:
            total = (sum(s.n_products + s.n_weights for s in self._segments)
                     + self._delta.products.count + self._delta.weights.count)
            if total == 0:
                return 0.0
            live = self.num_products + self.num_weights
            return 1.0 - live / total

    def delta_rows(self) -> int:
        """Buffered mutations since the last seal (the auto-seal trigger)."""
        return self._delta.mutation_rows

    def storage_stats(self) -> dict:
        """JSON-ready storage health (``/metrics`` storage section).

        Runs under the lock ``pin()`` and every write need, so each
        dead-set union is built once per call.
        """
        with self._lock:
            seg_p = sum(s.n_products for s in self._segments)
            seg_w = sum(s.n_weights for s in self._segments)
            dead_p, seg_dead_p = self._segment_dead("products")
            dead_w, seg_dead_w = self._segment_dead("weights")
            delta_p, delta_w = self._delta.live_counts()
            live_p = seg_p - sum(seg_dead_p) + delta_p
            live_w = seg_w - sum(seg_dead_w) + delta_w
            total = (seg_p + seg_w + self._delta.products.count
                     + self._delta.weights.count)
            live_fraction = (live_p + live_w) / total if total else 1.0
            return {
                "backend": self.method,
                "segments": len(self._segments),
                "segment_products": seg_p,
                "segment_weights": seg_w,
                "delta_products": self._delta.products.count,
                "delta_weights": self._delta.weights.count,
                "delta_rows": self._delta.mutation_rows,
                "live_products": live_p,
                "live_weights": live_w,
                "dead_products": dead_p,
                "dead_weights": dead_w,
                "live_fraction": live_fraction,
                "dead_fraction": 1.0 - live_fraction,
                "generation": self._generation,
                "manifest_generation": self._manifest_generation,
                "manifest_lsn": self._manifest_lsn,
                "applied_lsn": self.applied_lsn,
                "pinned_snapshots": self._active_pins,
                "retired_pending": len(self._retired),
                "seals_total": self.seals_total,
                "compactions_total": self.compactions_total,
                "compaction_seconds_total": self.compaction_seconds_total,
                "last_compaction_s": self.last_compaction_s,
                "segments_retired_total": self.segments_retired_total,
                "orphans_swept_total": self.orphans_swept_total,
                "per_segment": [
                    seg.stats(dead_products=n_p, dead_weights=n_w)
                    for seg, n_p, n_w in zip(self._segments, seg_dead_p,
                                             seg_dead_w)
                ],
            }

    # ------------------------------------------------------------------
    # bulk state (replication reset, bulk construction)
    # ------------------------------------------------------------------

    def state_arrays(self) -> dict:
        """Dense global-id arrays of the full state.

        Rows whose ids were compacted away get placeholder values (zeros
        for products, uniform for weights — both pass validation) with
        ``alive=False``; dead-but-present rows keep their real values.
        """
        with self._lock:
            products = np.zeros((self._next_pid, self.dim))
            p_alive = np.zeros(self._next_pid, dtype=bool)
            weights = np.full((self._next_wid, self.dim),
                              1.0 / self.dim if self.dim else 0.0)
            w_alive = np.zeros(self._next_wid, dtype=bool)
            for seg in self._segments:
                products[seg.p_ids] = seg.p_rows
                p_alive[seg.p_ids] = True
                weights[seg.w_ids] = seg.w_rows
                w_alive[seg.w_ids] = True
            view = self._delta.freeze()
            if view["p_ids"].size:
                products[view["p_ids"]] = view["p_rows"]
                p_alive[view["p_ids"]] = True
            if view["w_ids"].size:
                weights[view["w_ids"]] = view["w_rows"]
                w_alive[view["w_ids"]] = True
            dead_p = self._dead_union("products")
            dead_w = self._dead_union("weights")
            if dead_p:
                p_alive[np.fromiter(dead_p, np.int64, len(dead_p))] = False
            if dead_w:
                w_alive[np.fromiter(dead_w, np.int64, len(dead_w))] = False
            return {
                "products": products, "p_alive": p_alive,
                "weights": weights, "w_alive": w_alive,
            }

    def load_state_arrays(self, products, p_alive, weights, w_alive) -> None:
        """Replace the store's state wholesale (replication reset).

        Everything lands in a fresh delta with densely reassigned ids
        (identical to the source's id space); the caller checkpoints
        afterwards to re-commit the manifest.
        """
        products = np.asarray(products, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        with self._lock:
            for seg in self._segments:
                seg.retired = True
                if seg.pins == 0 and seg.directory is not None:
                    shutil.rmtree(seg.directory, ignore_errors=True)
                elif seg.pins > 0:
                    self._retired.append(seg)
            self._segments = ()
            self._delta = MutableDelta(self.dim)
            self._manifest_dead_p = frozenset()
            self._manifest_dead_w = frozenset()
            self._next_pid = 0
            self._next_wid = 0
            for row in products:
                self._delta.append_product(row, self._next_pid)
                self._next_pid += 1
            for row in weights:
                self._delta.append_weight(row, self._next_wid)
                self._next_wid += 1
            for idx in np.flatnonzero(~np.asarray(p_alive, dtype=bool)):
                self._delta.kill_product(int(idx))
            for idx in np.flatnonzero(~np.asarray(w_alive, dtype=bool)):
                self._delta.kill_weight(int(idx))
            self._generation += 1
        self._notify_change()

    @classmethod
    def from_datasets(cls, products, weights,
                      partitions: int = 32) -> "SegmentStore":
        """A memory-only store over static containers, sealed into one
        segment (ids are the containers' row numbers)."""
        store = cls(products.dim, products.value_range,
                    partitions=partitions)
        store.load_state_arrays(
            products.values, np.ones(products.size, dtype=bool),
            weights.values, np.ones(weights.size, dtype=bool))
        store.seal(force=True)
        return store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SegmentStore(dim={self.dim}, segments={len(self._segments)}, "
                f"delta={self._delta.mutation_rows}, "
                f"gen={self._manifest_generation})")
