"""Integration tests for the beyond-paper extensions working together."""

import numpy as np
import pytest

from repro.algorithms.naive import NaiveRRQ
from repro.core.approximate import reverse_kranks_bounds, reverse_topk_bounds
from repro.core.gir import GridIndexRRQ
from repro.core.storage import load_index, save_index
from repro.data.synthetic import (
    anticorrelated_products,
    clustered_products,
    exponential_products,
    uniform_weights,
)
from repro.ext.aggregate import (
    AggregateGridIndexRKR,
    aggregate_reverse_kranks_naive,
)
from repro.ext.sparse import sparsify_weights
from repro.storage import SegmentStore


class TestAggregateAcrossDistributions:
    @pytest.mark.parametrize("gen", [clustered_products,
                                     anticorrelated_products,
                                     exponential_products])
    def test_bundle_matches_oracle(self, gen):
        P = gen(130, 4, seed=701)
        W = uniform_weights(110, 4, seed=702)
        bundle = [P[0], P[50], P[129]]
        for aggregation in ("sum", "max"):
            fast = AggregateGridIndexRKR(P, W).query(bundle, 7, aggregation)
            slow = aggregate_reverse_kranks_naive(P, W, bundle, 7, aggregation)
            assert fast.entries == slow.entries

    def test_sparse_weights_bundle(self):
        """Aggregate queries over sparsified preferences stay exact."""
        P = clustered_products(100, 8, seed=703)
        W = sparsify_weights(uniform_weights(90, 8, seed=704), nnz=3)
        bundle = [P[4], P[44]]
        fast = AggregateGridIndexRKR(P, W).query(bundle, 6)
        slow = aggregate_reverse_kranks_naive(P, W, bundle, 6)
        assert fast.entries == slow.entries


class TestPersistedIndexFeatureParity:
    def test_loaded_index_supports_everything(self, tmp_path):
        P = clustered_products(140, 5, seed=705)
        W = uniform_weights(120, 5, seed=706)
        original = GridIndexRRQ(P, W, partitions=16)
        save_index(tmp_path / "idx", original)
        loaded = load_index(tmp_path / "idx")
        q = P[11]
        # Exact queries...
        assert (loaded.reverse_topk(q, 9).weights
                == original.reverse_topk(q, 9).weights)
        # ...anytime envelopes...
        a1 = reverse_topk_bounds(loaded, q, 9)
        a2 = reverse_topk_bounds(original, q, 9)
        assert a1.certain == a2.certain
        assert a1.undecided == a2.undecided
        # ...and aggregate bundles on top of the loaded index.
        solver = AggregateGridIndexRKR(loaded.products, loaded.weights,
                                       gir=loaded)
        expected = aggregate_reverse_kranks_naive(P, W, [q, P[0]], 5)
        assert solver.query([q, P[0]], 5).entries == expected.entries


class TestDynamicToStaticParity:
    def test_dynamic_engine_reaches_static_state(self):
        """Building incrementally from empty equals a one-shot build."""
        P = clustered_products(90, 4, seed=707)
        W = uniform_weights(80, 4, seed=708)
        dynamic = SegmentStore(dim=4, value_range=P.value_range,
                               partitions=16)
        for row in P.values:
            dynamic.insert_product(row)
        for row in W.values:
            dynamic.insert_weight(row)
        static = GridIndexRRQ(P, W, partitions=16)
        for qi in (0, 40, 89):
            q = P.values[qi]
            assert (dynamic.reverse_topk(q, 8).weights
                    == static.reverse_topk(q, 8).weights)
            assert (dynamic.reverse_kranks(q, 8).entries
                    == static.reverse_kranks(q, 8).entries)

    def test_anytime_envelope_respects_mutations(self):
        """Bounds from a rebuilt static GIR sandwich the dynamic truth."""
        P = clustered_products(100, 4, seed=709)
        W = uniform_weights(90, 4, seed=710)
        dynamic = SegmentStore.from_datasets(P, W, partitions=16)
        rng = np.random.default_rng(711)
        for _ in range(15):
            dynamic.insert_product(rng.random(4) * 0.999)
        dynamic.remove_product(2)
        q = P.values[5]
        exact = dynamic.reverse_topk(q, 10).weights
        # Rebuild a static view of the live data for the envelope.
        from repro.data.datasets import ProductSet, WeightSet

        live_P = ProductSet(dynamic.products.live_values(),
                            value_range=P.value_range)
        gir = GridIndexRRQ(live_P, W, partitions=16)
        approx = reverse_topk_bounds(gir, q, 10)
        assert approx.certain <= exact <= approx.possible


class TestEnvelopeConsistencyWithOracle:
    @pytest.mark.parametrize("partitions", [4, 32, 128])
    def test_rtk_and_rkr_envelopes(self, partitions):
        P = exponential_products(160, 5, seed=712)
        W = uniform_weights(140, 5, seed=713)
        gir = GridIndexRRQ(P, W, partitions=partitions)
        naive = NaiveRRQ(P, W)
        for qi in (3, 80):
            q = P[qi]
            for k in (4, 25):
                exact_rtk = naive.reverse_topk(q, k).weights
                env = reverse_topk_bounds(gir, q, k)
                assert env.certain <= exact_rtk <= env.possible
                exact_rkr = naive.reverse_kranks(q, k).weights
                env2 = reverse_kranks_bounds(gir, q, k)
                assert env2.certain <= exact_rkr <= env2.candidates
