"""Blocked-kernel execution over a pinned snapshot.

The merge path in :mod:`repro.storage.snapshot` is exact but scalar —
one GInTop-k call per (weight, segment), ten times the cost of a kernel
sweep even for a single query.  So the scheduler densifies: gather the
snapshot's live rows once, build a
:class:`~repro.vectorized.girkernel.GirKernelRRQ` over them, and run
every micro-batch — a batch of one included — through the BLAS kernel.
Answers come back in *local* (dense) indices; this wrapper maps them to
the snapshot's stable global ids.

The remap preserves byte-identical tie-breaking: live rows are gathered
in ascending global-id order, so local order *is* global order and the
kernel's lexicographic ``(rank, index)`` truncation commutes with the
id map.

Build cost is O((|P| + |W|) d) quantization — amortized two ways:

* :meth:`SnapshotKernel.matches`: the scheduler caches the kernel and
  rebuilds only when the store generation moved;
* ``cache_dir``: each generation's densified kernel (plus its id maps)
  is persisted through :mod:`repro.vectorized.kernelstore`, so a
  *process restart* against an unchanged store re-acquires the kernel
  by memory-mapping ``<cache_dir>/gen-<N>`` instead of rebuilding —
  O(mmap) warm start.  Older generations are pruned after each save.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..data.datasets import ProductSet, WeightSet
from ..errors import DataValidationError, IndexCorruptionError
from ..queries.types import RKRResult, RTKResult
from ..vectorized.girkernel import GirKernelRRQ
from ..vectorized.kernelstore import load_kernel_bundle, save_kernel
from .snapshot import StoreSnapshot

PathLike = Union[str, Path]


class SnapshotKernel:
    """A :class:`GirKernelRRQ` over one snapshot's live rows, id-remapped.

    Construct through :meth:`build` (returns None when the snapshot is
    empty on either side — the merge path handles those).
    """

    def __init__(self, kernel: GirKernelRRQ, p_gids, w_gids,
                 generation: int, mmap_loaded: bool = False,
                 variant: Optional[str] = None):
        self.kernel = kernel
        self.p_gids = p_gids
        self.w_gids = w_gids
        #: Store generation the kernel was built from.
        self.generation = int(generation)
        #: True when this kernel came off the mmap cache, False when it
        #: was densified from the snapshot (observability only).
        self.mmap_loaded = bool(mmap_loaded)
        #: Tuned-config short digest when the auto-tuner chose the grid,
        #: None for the default build.  The scheduler keys its cache on
        #: (generation, variant) so a tuner swap forces a rebuild.
        self.variant = variant

    @classmethod
    def build(cls, snapshot: StoreSnapshot, use_domin: bool = True,
              cache_dir: Optional[PathLike] = None, tuning=None,
              ) -> Optional["SnapshotKernel"]:
        """Densify ``snapshot`` into a kernel, via the mmap cache if warm.

        With ``cache_dir`` set, ``<cache_dir>/gen-<generation>`` is
        tried first: a hit memory-maps the previously densified arrays
        (O(mmap), no gather/quantize/validate work); a miss — or a
        corrupt / parameter-mismatched entry — falls through to a fresh
        build whose result is saved back (and older generations pruned).

        ``tuning`` (a :class:`~repro.tuning.tuner.CandidateConfig`)
        overrides the default grid recipe: the kernel is built by
        :func:`~repro.tuning.tuner.build_tuned_kernel` and cached under
        ``gen-<N>-<variant>`` so tuned and default entries never alias.
        """
        variant = None
        if tuning is not None:
            use_domin = bool(tuning.use_domin)
            variant = tuning.short()
        if cache_dir is not None:
            cached = cls._load_cached(snapshot, use_domin, cache_dir,
                                      variant=variant)
            if cached is not None:
                return cached
        p_rows, p_gids = snapshot.live_products()
        w_rows, w_gids = snapshot.live_weights()
        if p_rows.shape[0] == 0 or w_rows.shape[0] == 0:
            return None
        products = ProductSet(p_rows, value_range=snapshot.value_range)
        weights = WeightSet(w_rows)
        if tuning is not None:
            from ..tuning.tuner import build_tuned_kernel

            kernel = build_tuned_kernel(products, weights, tuning)
        else:
            kernel = GirKernelRRQ(
                products, weights,
                partitions=max(1, snapshot.segments[0].partitions
                               if snapshot.segments else 32),
                use_domin=use_domin,
            )
        built = cls(kernel, p_gids, w_gids, snapshot.generation,
                    variant=variant)
        if cache_dir is not None:
            built.persist(cache_dir)
        return built

    # ------------------------------------------------------------------
    # mmap cache
    # ------------------------------------------------------------------

    @staticmethod
    def _gen_dir(cache_dir: PathLike, generation: int,
                 variant: Optional[str] = None) -> Path:
        name = f"gen-{int(generation)}"
        if variant is not None:
            name = f"{name}-{variant}"
        return Path(cache_dir) / name

    @classmethod
    def _load_cached(cls, snapshot: StoreSnapshot, use_domin: bool,
                     cache_dir: PathLike, variant: Optional[str] = None,
                     ) -> Optional["SnapshotKernel"]:
        gen_dir = cls._gen_dir(cache_dir, snapshot.generation, variant)
        try:
            kernel, extras = load_kernel_bundle(gen_dir)
        except (IndexCorruptionError, DataValidationError, OSError):
            return None
        if kernel.core.use_domin != use_domin or \
                "p_gids" not in extras or "w_gids" not in extras:
            return None
        return cls(kernel, np.asarray(extras["p_gids"]),
                   np.asarray(extras["w_gids"]),
                   snapshot.generation, mmap_loaded=True, variant=variant)

    def persist(self, cache_dir: PathLike) -> Path:
        """Save this kernel to ``<cache_dir>/gen-<generation>`` and prune
        entries for other (stale) generations.  Returns the entry path."""
        gen_dir = self._gen_dir(cache_dir, self.generation, self.variant)
        save_kernel(gen_dir, self.kernel, extras={
            "p_gids": np.asarray(self.p_gids, dtype=np.int64),
            "w_gids": np.asarray(self.w_gids, dtype=np.int64),
        })
        root = Path(cache_dir)
        for entry in root.glob("gen-*"):
            if entry != gen_dir and entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
        return gen_dir

    def matches(self, snapshot: StoreSnapshot) -> bool:
        """True when ``snapshot`` shows the exact state this was built on."""
        return snapshot.generation == self.generation

    # ------------------------------------------------------------------

    def reverse_topk_batch(self, queries, k):
        """One tile sweep for the whole micro-batch (``k`` scalar or
        per-query), answers remapped to stable global ids."""
        results = self.kernel.reverse_topk_batch(queries, k)
        return [RTKResult(weights=frozenset(int(self.w_gids[j])
                                            for j in res.weights),
                          k=res.k, counter=res.counter)
                for res in results]

    def reverse_kranks_batch(self, queries, k):
        results = self.kernel.reverse_kranks_batch(queries, k)
        return [RKRResult(entries=tuple((rank, int(self.w_gids[j]))
                                        for rank, j in res.entries),
                          k=res.k, counter=res.counter)
                for res in results]

    def reverse_topk(self, q, k: int) -> RTKResult:
        """A single query is a batch of one through the same sweep."""
        return self.reverse_topk_batch([q], k)[0]

    def reverse_kranks(self, q, k: int) -> RKRResult:
        return self.reverse_kranks_batch([q], k)[0]

    @property
    def last_stats(self):
        return self.kernel.last_stats
