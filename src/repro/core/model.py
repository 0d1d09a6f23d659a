"""The Grid-index performance model (paper Section 5.3).

Three layers, matching the paper's derivation:

1. **Exact combinatorics** — the probability that a d-dimensional score
   assembled from ``n^2`` equal sub-score intervals hits a given total,
   via the classic dice formula (Equation 15, after Uspensky).
2. **Normal approximation** — by the CLT the score is approximately
   ``N(mu', sigma')`` with ``mu' = r d / 2`` and
   ``sigma' = r sqrt(d) / (2 sqrt 3)`` (Lemma 1 / Equation 19).
3. **Worst-case filtering & Theorem 1** — the probability mass of the
   widest grid interval centred on the mean bounds the filtering
   performance from below (Equation 25), which inverts into the partition
   count needed for a target performance (Equation 26).

All functions are pure and cheap; the benchmarks validate them against
measured filtering rates (Figure 15b, Table 4).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import InvalidParameterError

# ``scipy.stats`` is imported inside the three functions that use it: the
# import costs ~1 s and ~60 MB, and a serving process never calls them.


# ----------------------------------------------------------------------
# 1. exact dice combinatorics (Equation 15)
# ----------------------------------------------------------------------

def dice_ways(total: int, dice: int, faces: int) -> int:
    """Number of ways ``dice`` fair ``faces``-sided dice (faces 1..faces) sum to ``total``.

    The coefficient of ``x^total`` in ``(x + ... + x^faces)^dice``
    (Equation 14), evaluated with the inclusion-exclusion closed form.
    """
    if dice <= 0 or faces <= 0:
        raise InvalidParameterError("dice and faces must be positive")
    if total < dice or total > dice * faces:
        return 0
    ways = 0
    for k in range((total - dice) // faces + 1):
        term = math.comb(dice, k) * math.comb(total - faces * k - 1, dice - 1)
        ways += term if k % 2 == 0 else -term
    return ways


def dice_probability(total: int, dice: int, faces: int) -> float:
    """Probability of rolling ``total`` with ``dice`` fair ``faces``-sided dice."""
    return dice_ways(total, dice, faces) / faces ** dice


def score_cell_probability(cell_sum: int, d: int, partitions: int) -> float:
    """Probability the grid-quantized score lands on a given cell-index sum.

    The paper's mapping: each dimension's sub-score is one of ``n^2``
    equally likely intervals (a ``n^2``-sided die); the d-dimensional score
    sum corresponds to the dice total (Equation 13/15).  ``cell_sum``
    ranges over ``d .. d * n**2``.
    """
    return dice_probability(cell_sum, d, partitions ** 2)


# ----------------------------------------------------------------------
# 2. normal approximation (Lemma 1, Equation 19)
# ----------------------------------------------------------------------

def subscore_moments(value_range: float = 1.0) -> Tuple[float, float]:
    """Mean and standard deviation of one uniform sub-score on ``[0, r)``.

    Equation 16: ``mu = r/2``, ``sigma = r / (2 sqrt 3)``.
    """
    if value_range <= 0:
        raise InvalidParameterError("value_range must be positive")
    return value_range / 2.0, value_range / (2.0 * math.sqrt(3.0))


def score_distribution_params(d: int, value_range: float = 1.0) -> Tuple[float, float]:
    """``(mu', sigma')`` of the d-dimensional score (Equation 19)."""
    if d <= 0:
        raise InvalidParameterError("d must be positive")
    mu, sigma = subscore_moments(value_range)
    return mu * d, sigma * math.sqrt(d)


def score_pdf(x: np.ndarray, d: int, value_range: float = 1.0) -> np.ndarray:
    """Normal pdf of the score distribution (Equation 21)."""
    from scipy.stats import norm

    mu_p, sigma_p = score_distribution_params(d, value_range)
    return norm.pdf(np.asarray(x, dtype=np.float64), loc=mu_p, scale=sigma_p)


# ----------------------------------------------------------------------
# 3. worst-case filtering and Theorem 1
# ----------------------------------------------------------------------

def grid_interval_width(d: int, partitions: int, value_range: float = 1.0) -> float:
    """``Delta = r d / n^2`` — the score span of one grid cell stack (Eq. 23)."""
    if partitions <= 0:
        raise InvalidParameterError("partitions must be positive")
    if d <= 0:
        raise InvalidParameterError("d must be positive")
    return value_range * d / partitions ** 2


def worst_case_filtering(d: int, partitions: int) -> float:
    """Lower bound on the filtering performance ``F`` (Equation 25).

    The worst interval is the width-``Delta`` window centred on the score
    mean; its mass is ``1 - 2 * P(Z > sqrt(3 d) / n^2)`` under the standard
    normal, so ``F_worst = 2 * Phi_tail(sqrt(3 d) / n^2)``.
    """
    if partitions <= 0 or d <= 0:
        raise InvalidParameterError("d and partitions must be positive")
    from scipy.stats import norm

    z_delta = math.sqrt(3.0 * d) / partitions ** 2
    return float(2.0 * norm.sf(z_delta))


def ceil_partitions(bound: float) -> int:
    """Round a real-valued partition bound to a usable grid size.

    The single place Theorem 1's real-valued bound becomes an integer a
    grid constructor can take: ceil, clamped to at least one partition.
    Non-finite bounds (NaN/inf from a degenerate model input) raise
    instead of silently producing a nonsense grid.
    """
    try:
        value = float(bound)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"partition bound must be a real number, got {bound!r}")
    if not math.isfinite(value):
        raise InvalidParameterError(
            f"partition bound must be finite, got {value!r}")
    return max(1, math.ceil(value))


def required_partitions(d: int, epsilon: float = 0.01) -> float:
    """Exact (real-valued) bound of Theorem 1: smallest ``n`` with ``F > 1 - eps``.

    ``delta`` satisfies ``Phi_tail(delta / 2) = (1 - eps) / 2`` and the
    theorem requires ``n > sqrt(2 sqrt(3 d) / delta)`` (Equation 26).
    Callers that need an integer grid size should go through
    :func:`recommend_partitions` (or :func:`ceil_partitions`), never
    truncate this float themselves.
    """
    if d <= 0:
        raise InvalidParameterError("d must be positive")
    if not isinstance(epsilon, (int, float)) or not math.isfinite(epsilon):
        raise InvalidParameterError(
            f"epsilon must be a finite number, got {epsilon!r}")
    if not 0 < epsilon < 1:
        raise InvalidParameterError("epsilon must be in (0, 1)")
    from scipy.stats import norm

    delta = 2.0 * norm.isf((1.0 - epsilon) / 2.0)
    return math.sqrt(2.0 * math.sqrt(3.0 * d) / delta)


def recommend_partitions(d: int, epsilon: float = 0.01,
                         power_of_two: bool = True) -> int:
    """Practical partition count: Theorem 1's bound rounded up.

    With ``power_of_two=True`` (the paper always uses ``n = 2^b``), rounds
    up to the next power of two — e.g. ``d = 20, eps = 1% -> 32``, the
    Section 5.3 worked example.
    """
    n = ceil_partitions(required_partitions(d, epsilon))
    if power_of_two:
        return 1 << (n - 1).bit_length()
    return n


def grid_memory_bytes(partitions: int, cell_bytes: int = 8) -> int:
    """Memory of an ``(n+1)^2`` grid — Section 5.3's 'less than 8 KB' check."""
    if partitions <= 0:
        raise InvalidParameterError("partitions must be positive")
    return (partitions + 1) ** 2 * cell_bytes


# ----------------------------------------------------------------------
# empirical validation helpers
# ----------------------------------------------------------------------

def measure_filtering(P: np.ndarray, W: np.ndarray, partitions: int,
                      value_range: float, queries: np.ndarray,
                      seed: int = 0) -> float:
    """Measured fraction of ``(p, w)`` pairs the grid decides without refinement.

    For each query point ``q`` and each weight ``w``, classifies all of
    ``P`` by the grid bounds and counts the Case 1/2 fraction — the
    quantity Table 4 and Figure 15b report.
    """
    from .approx import Quantizer, quantize_dataset
    from .grid import GridIndex

    # Mirror GridIndexRRQ: the weight axis spans the observed component
    # range ("the range of the attribute value", Section 3.1), which is
    # what keeps the grid useful when weights concentrate around 1/d.
    w_range = float(np.asarray(W).max())
    grid = GridIndex(
        np.linspace(0.0, value_range, partitions + 1),
        np.linspace(0.0, w_range, partitions + 1),
    )
    pq = Quantizer(grid.alpha_p)
    wq = Quantizer(grid.alpha_w)
    PA = quantize_dataset(P, pq).astype(np.intp)
    WA = quantize_dataset(W, wq).astype(np.intp)

    decided = 0
    total = 0
    for q in np.atleast_2d(queries):
        fq_all = W @ q
        for j in range(W.shape[0]):
            codes_w = WA[j]
            upper = grid.grid[PA + 1, codes_w + 1].sum(axis=1)
            lower = grid.grid[PA, codes_w].sum(axis=1)
            case3 = (lower <= fq_all[j]) & (upper >= fq_all[j])
            decided += int(P.shape[0] - np.count_nonzero(case3))
            total += P.shape[0]
    return decided / total if total else 0.0
