"""Paper Section 7 extensions: adaptive grid and sparse preferences."""

from .adaptive_grid import AdaptiveGridIndexRRQ, build_adaptive_grid, quantile_boundaries
from .aggregate import (
    AGGREGATIONS,
    AggregateGridIndexRKR,
    aggregate_reverse_kranks_naive,
)
from .sparse import SparseGridIndexRRQ, SparseWeightSet, sparsify_weights

__all__ = [
    "AdaptiveGridIndexRRQ", "build_adaptive_grid", "quantile_boundaries",
    "SparseGridIndexRRQ", "SparseWeightSet", "sparsify_weights",
    "AggregateGridIndexRKR", "aggregate_reverse_kranks_naive", "AGGREGATIONS",
]
