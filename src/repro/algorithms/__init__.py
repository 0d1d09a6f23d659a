"""RRQ algorithms: oracle, scan and tree baselines."""

from .._lazy import lazy_exports

_EXPORTS = {
    "base": ["RRQAlgorithm", "strictly_dominates"],
    "bbr": ["BranchBoundRTK"],
    "mpa": ["MarkedPruningRKR"],
    "naive": ["NaiveRRQ"],
    "rta": ["ThresholdRTK"],
    "sim": ["SimpleScan"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "RRQAlgorithm", "strictly_dominates", "NaiveRRQ", "SimpleScan",
    "BranchBoundRTK", "MarkedPruningRKR", "ThresholdRTK",
]
