"""Pinned snapshots — isolated read views of the store.

A :class:`StoreSnapshot` is everything one reader (a query, or a whole
micro-batch) needs, captured atomically under the store lock: the
segment list at pin time, a frozen view of the delta, and the union of
the manifest and delta dead sets.  After the pin the reader never takes
the store lock again — writers keep appending, the sealer keeps sealing,
the compactor keeps flipping manifests, and none of it is visible here.
Refcounts (:meth:`release`) are what let the store retire superseded
segment files without yanking them from under a long scan.

There is one read route: :meth:`StoreSnapshot.kernel` hands back the
store's in-RAM :class:`~repro.storage.kernel.SnapshotKernel` for this
generation (densified from the live rows on the first read after the
store moves) and every ``reverse_*`` here is a tile sweep through it —
a single query is a batch of one.  Live rows are gathered in ascending
global-id order (segment id ranges are disjoint and ascending, the
delta's ids exceed every sealed id), so the kernel's ``(rank, index)``
tie-break is the ``(rank, id)`` tie-break of the serial engines and of
``repro.cluster.coordinator``; the property suite holds every answer
byte-identical to ``NaiveRRQ`` over the snapshot's live rows.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..queries.types import RKRResult, RTKResult
from .segment import Segment


class StoreSnapshot:
    """One pinned, immutable view of the segment store.

    Built by ``SegmentStore.pin()`` — never directly.  Release with
    :meth:`release` (or use as a context manager) so retired segments
    can drop their files.
    """

    def __init__(self, store, segments: Sequence[Segment], delta_view: dict,
                 dead_products: frozenset, dead_weights: frozenset,
                 next_pid: int, next_wid: int, generation: int, lsn: int,
                 dim: int, value_range: float):
        self._store = store
        self.segments: Tuple[Segment, ...] = tuple(segments)
        self._delta = delta_view
        self.dead_products = dead_products
        self.dead_weights = dead_weights
        self.next_pid = int(next_pid)
        self.next_wid = int(next_wid)
        #: Store mutation generation at pin time (the kernel memo's key).
        self.generation = int(generation)
        #: Manifest barrier LSN at pin time.
        self.lsn = int(lsn)
        self.dim = int(dim)
        self.value_range = float(value_range)
        self._released = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def release(self) -> None:
        """Drop the pin (idempotent); lets retired segments retire."""
        if not self._released:
            self._released = True
            self._store._release_pins(self.segments)

    def __enter__(self) -> "StoreSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.release()
        except BaseException:
            pass

    # ------------------------------------------------------------------
    # live-state accessors
    # ------------------------------------------------------------------

    def _live(self, side: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, global ids)`` of one side's live rows, ascending by id:
        every segment in order, then the delta, minus the dead set."""
        dead = self.dead_products if side == "p" else self.dead_weights
        rows = np.concatenate(
            [getattr(seg, f"{side}_rows") for seg in self.segments]
            + [self._delta[f"{side}_rows"]])
        ids = np.concatenate(
            [getattr(seg, f"{side}_ids") for seg in self.segments]
            + [self._delta[f"{side}_ids"]])
        if dead:
            keep = ~np.isin(ids, np.fromiter(dead, np.int64, len(dead)))
            rows, ids = rows[keep], ids[keep]
        return rows, ids

    def live_products(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, global ids)`` of every live product, ascending by id."""
        return self._live("p")

    def live_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, global ids)`` of every live weight, ascending by id."""
        return self._live("w")

    @property
    def num_products(self) -> int:
        return self._live("p")[1].shape[0]

    @property
    def num_weights(self) -> int:
        return self._live("w")[1].shape[0]

    # ------------------------------------------------------------------
    # query execution (one route: the store's kernel for this generation)
    # ------------------------------------------------------------------

    def kernel(self):
        """The store's in-RAM kernel over this snapshot's live rows.

        Raises :class:`~repro.errors.InvalidParameterError` when either
        side has no live row — there is nothing to rank.
        """
        return self._store._kernel_for(self)

    def reverse_topk_batch(self, queries, k) -> List[RTKResult]:
        """Reverse top-k of every query in one tile sweep (global ids;
        ``k`` scalar or per query)."""
        return self.kernel().reverse_topk_batch(queries, k)

    def reverse_kranks_batch(self, queries, k) -> List[RKRResult]:
        """Reverse k-ranks of every query in one tile sweep."""
        return self.kernel().reverse_kranks_batch(queries, k)

    def reverse_topk(self, q, k: int) -> RTKResult:
        """Reverse top-k over the pinned live rows (global ids)."""
        return self.reverse_topk_batch([q], k)[0]

    def reverse_kranks(self, q, k: int) -> RKRResult:
        """Reverse k-ranks over the pinned live rows (global ids)."""
        return self.reverse_kranks_batch([q], k)[0]

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready pin summary (debug endpoints, tests)."""
        return {
            "segments": len(self.segments),
            "generation": self.generation,
            "lsn": self.lsn,
            "live_products": self.num_products,
            "live_weights": self.num_weights,
            "delta_products": int(self._delta["p_ids"].shape[0]),
            "delta_weights": int(self._delta["w_ids"].shape[0]),
            "dead_products": len(self.dead_products),
            "dead_weights": len(self.dead_weights),
        }
