"""Spatial substrates: MBR geometry, R-tree (with R*/X-tree split
policies), weight histogram."""

from .._lazy import lazy_exports

_EXPORTS = {
    "histogram": ["Bucket", "WeightHistogram"],
    "mbr": ["MBR"],
    "rstar": ["XTreeSplitPolicy", "rstar_split", "split_quality"],
    "rtree": ["Node", "RTree"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "MBR", "RTree", "Node", "WeightHistogram", "Bucket",
    "rstar_split", "XTreeSplitPolicy", "split_quality",
]
