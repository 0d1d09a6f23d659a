"""Analytical models of the baselines' behaviour (paper Section 5.1-5.2)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "rtree_model": ["filtering_collapse_table", "histogram_bucket_count",
                    "histogram_expected_occupancy", "max_filtered_fraction",
                    "tetra_volume"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "histogram_bucket_count", "histogram_expected_occupancy",
    "tetra_volume", "max_filtered_fraction", "filtering_collapse_table",
]
