"""repro — reproduction of "Grid-Index Algorithm for Reverse Rank Queries".

(Dong, Chen, Furuse, Yu, Kitagawa — EDBT 2017.)

Quick start::

    from repro import RRQEngine, uniform_products, uniform_weights

    P = uniform_products(size=1000, dim=6, seed=1)
    W = uniform_weights(size=1000, dim=6, seed=2)
    engine = RRQEngine(P, W, method="gir")
    print(engine.reverse_topk(P[0], k=10).sorted_indices())
    print(engine.reverse_kranks(P[0], k=5).entries)

The package layout mirrors the paper: :mod:`repro.core` holds the
Grid-index contribution, :mod:`repro.algorithms` the baselines it is
compared against, :mod:`repro.index` the spatial substrates those
baselines need, and :mod:`repro.ext` the future-work extensions.
"""

from ._lazy import lazy_exports

_EXPORTS = {
    "algorithms": ["BranchBoundRTK", "MarkedPruningRKR", "NaiveRRQ",
                   "SimpleScan", "ThresholdRTK"],
    "core": ["GridIndex", "GridIndexRRQ", "Quantizer", "model"],
    "data": ["ProductSet", "WeightSet", "anticorrelated_products",
             "clustered_products", "clustered_weights", "color", "dianping",
             "generate_products", "generate_weights", "house",
             "uniform_products", "uniform_weights"],
    "errors": ["DataValidationError", "DeadlineExceededError",
               "DimensionMismatchError", "EmptyDatasetError",
               "IndexCorruptionError", "InvalidParameterError", "ReproError",
               "ServiceError", "ServiceOverloadError"],
    "ext": ["AdaptiveGridIndexRRQ", "AggregateGridIndexRKR",
            "SparseGridIndexRRQ", "aggregate_reverse_kranks_naive",
            "sparsify_weights"],
    "queries": ["MonochromaticResult", "RKRResult", "RRQEngine", "RTKResult",
                "available_methods", "monochromatic_reverse_topk"],
    "service": ["QueryService", "ServiceClient", "ServiceConfig"],
    "stats": ["OpCounter"],
    "vectorized": ["BatchOracle"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # facade
    "RRQEngine", "available_methods", "RTKResult", "RKRResult", "OpCounter",
    "monochromatic_reverse_topk", "MonochromaticResult",
    # core
    "GridIndex", "GridIndexRRQ", "Quantizer", "model",
    # algorithms
    "NaiveRRQ", "SimpleScan", "BranchBoundRTK", "MarkedPruningRKR",
    "ThresholdRTK",
    "BatchOracle", "AdaptiveGridIndexRRQ", "SparseGridIndexRRQ",
    "sparsify_weights", "AggregateGridIndexRKR",
    "aggregate_reverse_kranks_naive",
    # data
    "ProductSet", "WeightSet", "uniform_products", "clustered_products",
    "anticorrelated_products", "uniform_weights", "clustered_weights",
    "generate_products", "generate_weights", "house", "color", "dianping",
    # serving
    "QueryService", "ServiceConfig", "ServiceClient",
    # errors
    "ReproError", "DataValidationError", "DimensionMismatchError",
    "EmptyDatasetError", "InvalidParameterError", "IndexCorruptionError",
    "ServiceError", "ServiceOverloadError", "DeadlineExceededError",
]
