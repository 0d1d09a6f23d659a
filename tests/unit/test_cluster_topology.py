"""Unit tests for the cluster routing table and its range partition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import (
    ClusterTopology,
    ShardSpec,
    partition_weight_indices,
)
from repro.errors import InvalidParameterError


def make_topology(total=100, shards=3, partitioner="range"):
    return ClusterTopology.build(
        [[f"http://127.0.0.1:{9000 + s}"] for s in range(shards)],
        total, partitioner,
    )


class TestPartitioners:
    @pytest.mark.parametrize("partitioner", ["range"])
    @pytest.mark.parametrize("total,shards", [
        (0, 1), (1, 3), (7, 3), (100, 1), (100, 7), (101, 4),
    ])
    def test_partition_is_exact_and_disjoint(self, partitioner, total,
                                             shards):
        owned = partition_weight_indices(total, shards, partitioner)
        assert len(owned) == shards
        merged = np.concatenate(owned) if total else np.array([], dtype=int)
        assert sorted(merged.tolist()) == list(range(total))

    def test_range_matches_sharded_engine_split(self):
        # Contiguous linspace slices: the split
        # tests/property/test_shard_merge_property.py merges.
        total, shards = 103, 5
        bounds = np.linspace(0, total, shards + 1).astype(int)
        owned = partition_weight_indices(total, shards, "range")
        for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            assert owned[s][0] == lo and owned[s][-1] == hi - 1

    def test_unknown_partitioner_rejected(self):
        for partitioner in ("hash-ring", "mod"):
            with pytest.raises(InvalidParameterError):
                partition_weight_indices(10, 2, partitioner)
            with pytest.raises(InvalidParameterError):
                make_topology(10, 2, partitioner)


class TestBijection:
    @pytest.mark.parametrize("partitioner", ["range"])
    def test_to_local_to_global_roundtrip(self, partitioner):
        topo = make_topology(101, 4, partitioner)
        for g in range(101):
            shard_id, local = topo.to_local(g)
            assert topo.to_global(shard_id, local) == g
            assert topo.owner_of(g) == shard_id

    @pytest.mark.parametrize("partitioner", ["range"])
    def test_owned_globals_agree_with_owner_of(self, partitioner):
        topo = make_topology(60, 3, partitioner)
        for shard_id in range(3):
            for g in topo.owned_globals(shard_id):
                assert topo.owner_of(int(g)) == shard_id

    def test_insert_owner_range_appends_to_last_shard(self):
        topo = make_topology(10, 3, "range")
        assert topo.insert_owner(10) == 2
        # ...and the new weight's global id survives the round trip.
        local = 10 - topo.owned_globals(2)[0]
        assert topo.to_global(2, int(local)) == 10

    def test_negative_indices_rejected(self):
        topo = make_topology()
        with pytest.raises(InvalidParameterError):
            topo.to_local(-1)
        with pytest.raises(InvalidParameterError):
            topo.to_global(0, -1)


class TestManifest:
    def test_roundtrip_via_dict(self):
        """The ``GET /cluster/topology`` body carries everything the
        routing table is built from, and nothing else."""
        topo = make_topology(77, 3)
        body = topo.to_dict()
        assert set(body) == {"num_shards", "total_weights", "shards"}
        again = ClusterTopology.build(
            [shard["endpoints"] for shard in body["shards"]],
            body["total_weights"])
        assert again == topo

    def test_drifted_counts_rejected(self):
        # Counts that disagree with the partition would corrupt every
        # global<->local translation: refuse them.
        with pytest.raises(InvalidParameterError):
            ClusterTopology(shards=(
                ShardSpec(0, ("http://a",), 10),
                ShardSpec(1, ("http://b",), 5),
            ))

    def test_sparse_shard_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClusterTopology(shards=(
                ShardSpec(0, ("http://a",), 5),
                ShardSpec(2, ("http://b",), 5),
            ))

    def test_shard_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            ShardSpec(0, ())
        with pytest.raises(InvalidParameterError):
            ShardSpec(-1, ("http://a",))
        spec = ShardSpec(0, ("http://p", "http://s"), 3)
        assert spec.primary == "http://p"


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=400),
    shards=st.integers(min_value=1, max_value=8),
)
def test_built_topology_is_a_balanced_bijection(total, shards):
    """A built topology round-trips every global index through
    ``to_local``/``to_global`` (bijection), its shard sizes differ by at
    most one (balance), and ``owned_globals`` partitions ``[0, total)``
    exactly.  A weight mapped twice would be double-counted in RKR
    merges; one mapped nowhere would vanish from RTK answers."""
    topology = ClusterTopology.build(
        [[f"http://10.0.0.{i}:8377"] for i in range(shards)], total)

    seen_pairs = set()
    for g in range(total):
        shard_id, local = topology.to_local(g)
        assert 0 <= shard_id < shards
        assert local >= 0
        pair = (shard_id, local)
        assert pair not in seen_pairs, "two globals map to one local slot"
        seen_pairs.add(pair)
        assert topology.to_global(shard_id, local) == g
        assert topology.owner_of(g) == shard_id

    sizes = [len(topology.owned_globals(s)) for s in range(shards)]
    assert sum(sizes) == total
    if total:
        assert max(sizes) - min(sizes) <= 1

    union = np.concatenate([topology.owned_globals(s)
                            for s in range(shards)])
    assert sorted(int(g) for g in union) == list(range(total))
