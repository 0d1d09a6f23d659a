"""Shared fixtures for the chaos suite.

Every test here runs under deterministic fault injection: the fault seed
comes from ``RRQ_CHAOS_SEED`` (CI pins it; default 1337), so a failing
run reproduces byte-for-byte with the same environment.

The load-bearing invariant, enforced by :func:`assert_exact_answer`:
**every non-error response — healthy or degraded — is byte-identical to
the exact naive scan.**  Chaos may cost latency or (from the cluster
coordinator's degraded-shard fallback) a ``"degraded": true`` flag, never
correctness.
"""

import os

import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.core.gir import GridIndexRRQ
from repro.data.synthetic import clustered_products, uniform_weights
from repro.resilience.faults import active_injector, set_injector
from repro.service.server import canonical_json, encode_result

CHAOS_SEED = int(os.environ.get("RRQ_CHAOS_SEED", "1337"))


@pytest.fixture(scope="session")
def chaos_seed():
    return CHAOS_SEED


@pytest.fixture(scope="session")
def datasets():
    P = clustered_products(160, 4, seed=2201)
    W = uniform_weights(130, 4, seed=2202)
    return P, W


@pytest.fixture(scope="session")
def naive_oracle(datasets):
    P, W = datasets
    return NaiveRRQ(P, W)


@pytest.fixture
def built_index(datasets):
    P, W = datasets
    return GridIndexRRQ(P, W, partitions=16, chunk=128, use_domin=False)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """A test that dies mid-``inject`` must not poison its neighbours."""
    yield
    if active_injector() is not None:  # pragma: no cover - defensive
        set_injector(None)
        pytest.fail("test leaked an active fault injector")


def assert_exact_answer(response, oracle, q, kind, k):
    """``response`` must match the naive oracle byte-for-byte.

    ``degraded`` is the one key chaos may add; everything else —
    including element order — must be identical canonical JSON.
    """
    body = dict(response)
    body.pop("degraded", None)
    if kind == "rtk":
        expected = encode_result(oracle.reverse_topk(q, k), "rtk")
    else:
        expected = encode_result(oracle.reverse_kranks(q, k), "rkr")
    assert canonical_json(body) == canonical_json(expected)
