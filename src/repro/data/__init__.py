"""Data sets: containers, synthetic generators, real-data stand-ins, I/O."""

from .._lazy import lazy_exports

_EXPORTS = {
    "datasets": ["ProductSet", "WeightSet", "check_compatible",
                 "check_query_point", "score"],
    "synthetic": ["anticorrelated_products", "clustered_products",
                  "clustered_weights", "exponential_products",
                  "exponential_weights", "generate_products",
                  "generate_weights", "normal_products", "normal_weights",
                  "uniform_products", "uniform_weights"],
    "real": ["DianpingData", "color", "dianping", "house"],
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "ProductSet", "WeightSet", "check_compatible", "check_query_point", "score",
    "uniform_products", "clustered_products", "anticorrelated_products",
    "normal_products", "exponential_products", "uniform_weights",
    "clustered_weights", "normal_weights", "exponential_weights",
    "generate_products", "generate_weights",
    "house", "color", "dianping", "DianpingData",
]
