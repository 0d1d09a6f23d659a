"""The cold-start race: kernel rebuild vs mmap warm start.

One measured fact for ``BENCH_fused.json``: how long acquiring a ready
:class:`~repro.vectorized.girkernel.GirKernelRRQ` takes from raw
arrays — the genuine cold-start path: dataset container construction
with its validation scans, then the sweep-order sort and the f32
copies — versus from an on-disk kernel store
(:func:`~repro.vectorized.kernelstore.load_kernel`, one ``mmap(2)`` of
the packed blob sliced into zero-copy views).  The loaded kernel also
answers one query and the result is compared against the in-memory
kernel's — a warm start that changed answers would be worse than no
warm start.
"""

from __future__ import annotations

from time import perf_counter
from typing import Tuple

import numpy as np

from ..data.datasets import ProductSet, WeightSet
from ..vectorized.girkernel import GirKernelRRQ
from ..vectorized.kernelstore import (
    kernel_store_size,
    load_kernel,
    save_kernel,
)


def _best_of(fn, repeats: int) -> Tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = perf_counter()
        value = fn()
        best = min(best, perf_counter() - start)
    return best, value


def probe_cold_start(products, weights, kernel: GirKernelRRQ,
                     store_dir, query, k: int,
                     repeats: int = 3) -> Tuple[dict, bool]:
    """Time rebuild vs mmap load of ``kernel``; returns (record, ok).

    ``ok`` is False when the mmap-loaded kernel's answer to ``query``
    differs from the in-memory kernel's (it never should — the store
    carries the exact same arrays).
    """
    save_kernel(store_dir, kernel)
    expected = kernel.reverse_topk(query, k)

    # Detached raw copies: the rebuild must pay the full cold-start
    # path, including dataset construction (validation scans and the
    # contiguity copy), not just the kernel derivation.
    p_raw = np.array(products.values)
    w_raw = np.array(weights.values)
    rebuild_s, _ = _best_of(
        lambda: GirKernelRRQ(ProductSet(p_raw), WeightSet(w_raw)),
        repeats,
    )
    mmap_load_s, loaded = _best_of(lambda: load_kernel(store_dir), repeats)
    ok = loaded.reverse_topk(query, k) == expected
    record = {
        "rebuild_s": rebuild_s,
        "mmap_load_s": mmap_load_s,
        "speedup": rebuild_s / mmap_load_s if mmap_load_s > 0 else 0.0,
        "store_bytes": kernel_store_size(store_dir),
    }
    return record, bool(ok)
