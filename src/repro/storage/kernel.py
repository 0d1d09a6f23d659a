"""Blocked-kernel execution over a pinned snapshot.

Every read of the store is one densify-and-sweep: gather the snapshot's
live rows once, build a
:class:`~repro.vectorized.girkernel.GirKernelRRQ` over them, and run
every query — a micro-batch, or a batch of one — through the BLAS
kernel.  The kernel's sweep-ordered rows and float32 copies are derived
state: deterministic and cheap to recompute from the raw rows, so they
live here, per generation and in RAM, never in a segment or on disk.
Answers come back in *local* (dense) indices; this wrapper maps them to
the snapshot's stable global ids.

The remap preserves byte-identical tie-breaking: live rows are gathered
in ascending global-id order, so local order *is* global order and the
kernel's lexicographic ``(rank, index)`` truncation commutes with the
id map.

Build cost is one gather, one sort of the product rows, the
level-by-level kd order of the weight rows
(:func:`~repro.vectorized.girkernel.kd_boxes`: one ``argsort`` per
level, about 0.8 ms at |W| = 2,000) and one float32 cast, paid once per
store generation a read sees: the store memoizes
the one kernel it built last (``SegmentStore._kernel_for``) and nothing
else calls :meth:`build`.
"""

from __future__ import annotations

from ..data.datasets import ProductSet, WeightSet
from ..errors import InvalidParameterError
from ..queries.types import RKRResult, RTKResult
from ..vectorized.girkernel import GirKernelRRQ
from .snapshot import StoreSnapshot


class SnapshotKernel:
    """An engine over one snapshot's live rows, answers id-remapped.

    ``kernel`` is the :class:`GirKernelRRQ` that :meth:`build` densifies
    (the batch forms need it); the single-query forms work over any
    algorithm built on the same rows, which is how the scheduler's
    reference-scan fallback shares this remap.
    """

    def __init__(self, kernel, w_gids, generation: int):
        self.kernel = kernel
        self.w_gids = w_gids
        #: Store generation the kernel was built from.
        self.generation = int(generation)

    @classmethod
    def build(cls, snapshot: StoreSnapshot) -> "SnapshotKernel":
        """Densify ``snapshot``'s live rows into a kernel.

        A snapshot with no live product or no live weight has nothing
        to rank and raises :class:`~repro.errors.InvalidParameterError`.
        """
        p_rows, _ = snapshot.live_products()
        w_rows, w_gids = snapshot.live_weights()
        if p_rows.shape[0] == 0 or w_rows.shape[0] == 0:
            raise InvalidParameterError(
                "both products and weights must be non-empty to query"
            )
        kernel = GirKernelRRQ(
            ProductSet(p_rows, value_range=snapshot.value_range),
            WeightSet(w_rows))
        return cls(kernel, w_gids, snapshot.generation)

    def matches(self, snapshot: StoreSnapshot) -> bool:
        """True when ``snapshot`` shows the exact state this was built on."""
        return snapshot.generation == self.generation

    # ------------------------------------------------------------------

    def _rtk(self, res: RTKResult) -> RTKResult:
        return RTKResult(weights=frozenset(int(self.w_gids[j])
                                           for j in res.weights),
                         k=res.k, counter=res.counter)

    def _rkr(self, res: RKRResult) -> RKRResult:
        return RKRResult(entries=tuple((rank, int(self.w_gids[j]))
                                       for rank, j in res.entries),
                         k=res.k, counter=res.counter)

    def reverse_topk_batch(self, queries, k):
        """One tile sweep for the whole micro-batch (``k`` scalar or
        per-query), answers remapped to stable global ids."""
        return [self._rtk(res)
                for res in self.kernel.reverse_topk_batch(queries, k)]

    def reverse_kranks_batch(self, queries, k):
        return [self._rkr(res)
                for res in self.kernel.reverse_kranks_batch(queries, k)]

    def reverse_topk(self, q, k: int) -> RTKResult:
        """A single query; on the kernel, a batch of one through the
        same sweep."""
        return self._rtk(self.kernel.reverse_topk(q, k))

    def reverse_kranks(self, q, k: int) -> RKRResult:
        return self._rkr(self.kernel.reverse_kranks(q, k))

    @property
    def last_stats(self):
        return self.kernel.last_stats
