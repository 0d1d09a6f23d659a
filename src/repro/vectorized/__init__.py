"""Batch vectorized engines."""

from .._lazy import lazy_exports

_EXPORTS = {
    "batch": ["BatchOracle", "all_ranks_multi"],
    "girkernel": ["GirKernelRRQ", "KernelCore", "KernelStats"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = ["BatchOracle", "all_ranks_multi", "GirKernelRRQ",
           "KernelCore", "KernelStats"]
