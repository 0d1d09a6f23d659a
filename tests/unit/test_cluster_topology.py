"""Unit tests for the cluster membership manifest and partitioners."""

import numpy as np
import pytest

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
    @pytest.mark.parametrize("partitioner", ["range", "mod"])
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

    def test_mod_is_balanced(self):
        owned = partition_weight_indices(100, 7, "mod")
        sizes = sorted(len(o) for o in owned)
        assert sizes[-1] - sizes[0] <= 1

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(InvalidParameterError):
            partition_weight_indices(10, 2, "hash-ring")


class TestBijection:
    @pytest.mark.parametrize("partitioner", ["range", "mod"])
    def test_to_local_to_global_roundtrip(self, partitioner):
        topo = make_topology(101, 4, partitioner)
        for g in range(101):
            shard_id, local = topo.to_local(g)
            assert topo.to_global(shard_id, local) == g
            assert topo.owner_of(g) == shard_id

    @pytest.mark.parametrize("partitioner", ["range", "mod"])
    def test_owned_globals_agree_with_owner_of(self, partitioner):
        topo = make_topology(60, 3, partitioner)
        for shard_id in range(3):
            for g in topo.owned_globals(shard_id):
                assert topo.owner_of(int(g)) == shard_id

    def test_insert_owner_mod_round_robins(self):
        topo = make_topology(10, 3, "mod")
        assert [topo.insert_owner(10 + i) for i in range(6)] == \
            [1, 2, 0, 1, 2, 0]

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
        topo = make_topology(77, 3, "mod")
        again = ClusterTopology.from_dict(topo.to_dict())
        assert again == topo

    def test_roundtrip_via_file(self, tmp_path):
        topo = make_topology(50, 2)
        path = tmp_path / "topology.json"
        topo.save(path)
        assert ClusterTopology.load(path) == topo

    def test_load_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            ClusterTopology.load(tmp_path / "nope.json")

    def test_malformed_manifest_is_clean_error(self):
        with pytest.raises(InvalidParameterError):
            ClusterTopology.from_dict({"partitioner": "range"})

    def test_drifted_counts_rejected(self):
        # A manifest whose counts disagree with the partitioner would
        # corrupt every global<->local translation: refuse to load it.
        with pytest.raises(InvalidParameterError):
            ClusterTopology(partitioner="range", shards=(
                ShardSpec(0, ("http://a",), 10),
                ShardSpec(1, ("http://b",), 5),
            ))

    def test_sparse_shard_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClusterTopology(partitioner="range", shards=(
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


class TestRebalancePlan:
    def test_scale_out_moves_only_crossing_indices(self):
        topo = make_topology(100, 2, "range")
        plan = topo.rebalance_plan(
            [[f"http://127.0.0.1:{9100 + s}"] for s in range(4)])
        assert plan["from_shards"] == 2 and plan["to_shards"] == 4
        # Every move's ranges cover exactly its count, and the new
        # manifest is loadable.
        for move in plan["moves"]:
            covered = sum(hi - lo for lo, hi in move["ranges"])
            assert covered == move["count"]
        assert plan["moved_weights"] == sum(m["count"]
                                            for m in plan["moves"])
        new = ClusterTopology.from_dict(plan["new_topology"])
        assert new.num_shards == 4
        assert new.total_weights == 100

    def test_identity_rebalance_moves_nothing(self):
        topo = make_topology(100, 3, "mod")
        plan = topo.rebalance_plan(
            [[f"http://127.0.0.1:{9000 + s}"] for s in range(3)])
        assert plan["moved_weights"] == 0
        assert plan["moves"] == []

    def test_moves_are_consistent_with_new_owner(self):
        topo = make_topology(60, 3, "range")
        plan = topo.rebalance_plan(
            [[f"http://127.0.0.1:{9200 + s}"] for s in range(2)],
            partitioner="mod")
        new = ClusterTopology.from_dict(plan["new_topology"])
        for move in plan["moves"]:
            for lo, hi in move["ranges"]:
                for g in range(lo, hi):
                    assert topo.owner_of(g) == move["from"]
                    assert new.owner_of(g) == move["to"]
