"""Paper Section 7 extensions: adaptive grid and sparse preferences."""

from .._lazy import lazy_exports

_EXPORTS = {
    "adaptive_grid": ["AdaptiveGridIndexRRQ", "build_adaptive_grid",
                      "quantile_boundaries"],
    "aggregate": ["AGGREGATIONS", "AggregateGridIndexRKR",
                  "aggregate_reverse_kranks_naive"],
    "sparse": ["SparseGridIndexRRQ", "SparseWeightSet", "sparsify_weights"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "AdaptiveGridIndexRRQ", "build_adaptive_grid", "quantile_boundaries",
    "SparseGridIndexRRQ", "SparseWeightSet", "sparsify_weights",
    "AggregateGridIndexRKR", "aggregate_reverse_kranks_naive", "AGGREGATIONS",
]
