"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import uniform_products, uniform_weights
from repro.vectorized import blasthreads


@pytest.fixture
def small_products():
    """A small uniform product set (fast for exhaustive checks)."""
    return uniform_products(size=120, dim=4, seed=11)


@pytest.fixture
def small_weights():
    """A small uniform weight set matching ``small_products``."""
    return uniform_weights(size=100, dim=4, seed=12)


@pytest.fixture
def rng():
    """Deterministic RNG for ad-hoc randomness inside tests."""
    return np.random.default_rng(2024)


@pytest.fixture
def figure1_data():
    """The paper's Figure 1 cell-phone example, verbatim.

    Returns ``(P, W)`` value arrays: five phones scored on (smart, rating)
    and three users (Tom, Jerry, Spike).
    """
    P = np.array([
        [0.6, 0.7],   # p1
        [0.2, 0.3],   # p2
        [0.1, 0.6],   # p3
        [0.7, 0.5],   # p4
        [0.8, 0.2],   # p5
    ])
    W = np.array([
        [0.8, 0.2],   # Tom
        [0.3, 0.7],   # Jerry
        [0.9, 0.1],   # Spike
    ])
    return P, W


@pytest.fixture
def two_threads(monkeypatch):
    """A fake BLAS at two threads, so the test needs no particular build."""
    state = {"threads": 2, "sets": []}

    def put(count):
        state["threads"] = count
        state["sets"].append(count)

    monkeypatch.setattr(blasthreads, "_controls",
                        [(lambda: state["threads"], put)])
    return state
