"""Data-set containers for products (points) and user preferences (weights).

The paper (Section 1.1) models a product as a d-dimensional vector of
non-negative scoring attributes where *smaller is better*, and a user
preference as a non-negative weight vector whose components sum to one.
These two containers enforce exactly those constraints and expose the small
amount of shared behaviour the algorithms need (validation, score
evaluation, slicing).

Both containers wrap a read-only ``numpy.ndarray`` of shape ``(m, d)`` with
dtype ``float64``.  They are intentionally thin: algorithm code accesses
``.values`` directly in hot loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ..errors import (
    DataValidationError,
    DimensionMismatchError,
    EmptyDatasetError,
)

ArrayLike = Union[np.ndarray, Sequence[Sequence[float]]]

#: Tolerance used when checking that a weight vector sums to one.
WEIGHT_SUM_TOLERANCE = 1e-6


def _row_repr(arr: np.ndarray, row: int) -> str:
    """A short, readable rendering of one offending row for error messages."""
    return np.array2string(arr[row], threshold=8, precision=6,
                           suppress_small=True)


def _as_matrix(values: ArrayLike, name: str) -> np.ndarray:
    """Coerce ``values`` to a 2-D float64 array, validating shape and finiteness.

    Validation failures name the first offending row — a million-row
    ingest that dies with "contains NaN" and no coordinates is a
    debugging session; with ``row 73812: [nan, 0.2, ...]`` it is a grep.
    """
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(
            f"{name} is not numeric array-like: {exc}"
        ) from None
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DataValidationError(
            f"{name} must be a 2-D array of shape (m, d); got ndim={arr.ndim}"
        )
    if arr.shape[0] == 0:
        raise EmptyDatasetError(f"{name} must contain at least one vector")
    if arr.shape[1] == 0:
        raise DataValidationError(f"{name} must have at least one dimension")
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.nonzero(~finite.all(axis=1))[0][0])
        raise DataValidationError(
            f"{name} contains NaN or infinite values "
            f"(first offending row {bad}: {_row_repr(arr, bad)})"
        )
    negative = arr < 0
    if negative.any():
        bad = int(np.nonzero(negative.any(axis=1))[0][0])
        raise DataValidationError(
            f"{name} contains negative values "
            f"(first offending row {bad}: {_row_repr(arr, bad)})"
        )
    return arr


@dataclass(frozen=True)
class ProductSet:
    """The product data set ``P``: ``m`` points in ``d`` dimensions.

    Parameters
    ----------
    values:
        Array-like of shape ``(m, d)`` with non-negative finite entries.
    value_range:
        Upper bound ``r`` of the attribute value range ``[0, r)`` used for
        quantization (paper Section 3.1).  Defaults to the smallest power of
        ten not below the data maximum, or 1.0 for data already in ``[0, 1)``.
    """

    values: np.ndarray
    value_range: float = field(default=0.0)

    def __init__(self, values: ArrayLike, value_range: Optional[float] = None):
        arr = _as_matrix(values, "ProductSet")
        if value_range is None:
            top = float(arr.max(initial=0.0))
            value_range = 1.0
            while value_range <= top:
                value_range *= 10.0
        if value_range <= 0:
            raise DataValidationError("value_range must be positive")
        if float(arr.max(initial=0.0)) >= value_range:
            raise DataValidationError(
                "all product values must lie in [0, value_range)"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "value_range", float(value_range))

    @property
    def size(self) -> int:
        """Number of products ``|P|``."""
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality ``d``."""
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, idx: int) -> np.ndarray:
        return self.values[idx]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.values)

    def point(self, idx: int) -> np.ndarray:
        """Return the ``idx``-th product vector (read-only view)."""
        return self.values[idx]

    def subset(self, indices: Iterable[int]) -> "ProductSet":
        """Return a new :class:`ProductSet` restricted to ``indices``."""
        return ProductSet(self.values[np.fromiter(indices, dtype=np.intp)],
                          value_range=self.value_range)

    def normalized(self) -> "ProductSet":
        """Return a copy rescaled into ``[0, 1)`` (divides by ``value_range``)."""
        return ProductSet(self.values / self.value_range, value_range=1.0)


@dataclass(frozen=True)
class WeightSet:
    """The preference data set ``W``: ``m`` weight vectors in ``d`` dimensions.

    Every vector is non-negative and sums to one (paper Section 1.1).
    Construction validates the sum unless ``renormalize=True``, in which case
    rows are divided by their sums (rows summing to zero are rejected).
    """

    values: np.ndarray

    def __init__(self, values: ArrayLike, renormalize: bool = False):
        arr = _as_matrix(values, "WeightSet")
        sums = arr.sum(axis=1)
        if renormalize:
            if np.any(sums <= 0):
                bad = int(np.nonzero(sums <= 0)[0][0])
                raise DataValidationError(
                    "cannot renormalize weight vectors that sum to zero "
                    f"(first offending row {bad}: {_row_repr(arr, bad)})"
                )
            arr = arr / sums[:, None]
        else:
            off = np.abs(sums - 1.0) > WEIGHT_SUM_TOLERANCE
            if off.any():
                bad = int(np.nonzero(off)[0][0])
                raise DataValidationError(
                    f"weight vector {bad} sums to {sums[bad]:.6f}, expected "
                    f"1.0 (row {bad}: {_row_repr(arr, bad)}; pass "
                    "renormalize=True to fix automatically)"
                )
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        """Number of weight vectors ``|W|``."""
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality ``d``."""
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, idx: int) -> np.ndarray:
        return self.values[idx]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.values)

    def weight(self, idx: int) -> np.ndarray:
        """Return the ``idx``-th weight vector (read-only view)."""
        return self.values[idx]

    def subset(self, indices: Iterable[int]) -> "WeightSet":
        """Return a new :class:`WeightSet` restricted to ``indices``."""
        return WeightSet(self.values[np.fromiter(indices, dtype=np.intp)])


def check_compatible(products: ProductSet, weights: WeightSet) -> None:
    """Raise :class:`DimensionMismatchError` unless ``P`` and ``W`` share ``d``."""
    if products.dim != weights.dim:
        raise DimensionMismatchError(
            f"products have d={products.dim} but weights have d={weights.dim}"
        )


def as_vector(q: ArrayLike) -> np.ndarray:
    """``q`` as a 1-D float64 array.

    Anything that is not a list of numbers (``["a"]``, ``{"a": 1}``,
    ragged rows) is a :class:`DataValidationError` — a caller's mistake,
    never a bare ``ValueError``.
    """
    try:
        return np.asarray(q, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataValidationError(
            f"a vector must be a list of numbers ({exc})") from None


def check_query_point(q: ArrayLike, dim: Optional[int]) -> np.ndarray:
    """Validate a query product vector and return it as a 1-D float64 array
    (``dim`` ``None`` accepts any dimensionality)."""
    arr = as_vector(q)
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"query point has d={arr.shape[0]}, data sets have d={dim}"
        )
    if not np.all(np.isfinite(arr)):
        raise DataValidationError("query point contains NaN or infinite values")
    if np.any(arr < 0):
        raise DataValidationError("query point contains negative values")
    return arr


def score(w: np.ndarray, p: np.ndarray) -> float:
    """The paper's scoring function ``f_w(p) = sum_i w[i] * p[i]``."""
    return float(np.dot(w, p))
