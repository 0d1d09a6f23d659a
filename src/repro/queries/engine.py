"""The library facade: one entry point over every algorithm.

:class:`RRQEngine` hides the per-algorithm constructors behind a method
registry, which is what the examples and most downstream users want::

    engine = RRQEngine(products, weights, method="gir")
    matches = engine.reverse_topk(q, k=10)
    best = engine.reverse_kranks(q, k=5)

Methods: ``gir`` (the paper's contribution, default), ``sim``, ``bbr``
(RTK only), ``mpa`` (RKR only), ``rta`` (RTK only), ``naive``,
``gir-adaptive`` and ``gir-sparse`` (the Section 7 extensions),
``gir-kernel`` (the weight-blocked float32 score-tile kernel, see
:mod:`repro.vectorized.girkernel`), and ``auto`` (heuristic planner,
see :mod:`repro.queries.planner`).
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, Tuple

from ..algorithms.base import RRQAlgorithm
from ..data.datasets import ProductSet, WeightSet
from ..errors import InvalidParameterError
from ..queries.types import RKRResult, RTKResult

#: ``method -> (module, class)``, imported when the method is first built:
#: an engine loads the one algorithm it runs.
_METHODS: Dict[str, Tuple[str, str]] = {
    "gir": ("..core.gir", "GridIndexRRQ"),
    "gir-kernel": ("..vectorized.girkernel", "GirKernelRRQ"),
    "sim": ("..algorithms.sim", "SimpleScan"),
    "bbr": ("..algorithms.bbr", "BranchBoundRTK"),
    "mpa": ("..algorithms.mpa", "MarkedPruningRKR"),
    "naive": ("..algorithms.naive", "NaiveRRQ"),
    "rta": ("..algorithms.rta", "ThresholdRTK"),
    "gir-adaptive": ("..ext.adaptive_grid", "AdaptiveGridIndexRRQ"),
    "gir-sparse": ("..ext.sparse", "SparseGridIndexRRQ"),
    "auto": (".planner", "AutoEngine"),
}


def available_methods() -> tuple:
    """Names accepted by :class:`RRQEngine`."""
    return tuple(sorted(_METHODS))


def make_algorithm(method: str, products: ProductSet, weights: WeightSet,
                   **kwargs) -> RRQAlgorithm:
    """Construct the named algorithm, passing extra kwargs through."""
    key = method.lower()
    if key not in _METHODS:
        raise InvalidParameterError(
            f"unknown method {method!r}; available: {available_methods()}"
        )
    module, name = _METHODS[key]
    factory = getattr(import_module(module, __package__), name)
    return factory(products, weights, **kwargs)


class RRQEngine:
    """High-level reverse-rank-query engine bound to one ``(P, W)`` pair."""

    def __init__(self, products: ProductSet, weights: WeightSet,
                 method: str = "gir", **kwargs):
        self.algorithm = make_algorithm(method, products, weights, **kwargs)
        self.method = method.lower()

    @property
    def products(self) -> ProductSet:
        """The indexed product set."""
        return self.algorithm.products

    @property
    def weights(self) -> WeightSet:
        """The indexed preference set."""
        return self.algorithm.weights

    def reverse_topk(self, q, k: int) -> RTKResult:
        """Which preferences rank ``q`` in their top-k? (Definition 2)."""
        return self.algorithm.reverse_topk(q, k)

    def reverse_kranks(self, q, k: int) -> RKRResult:
        """The ``k`` preferences ranking ``q`` best (Definition 3)."""
        return self.algorithm.reverse_kranks(q, k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RRQEngine(method={self.method!r}, algorithm={self.algorithm!r})"
