"""Cluster membership and the weight-space partition function.

A cluster serves one logical ``(P, W)`` pair: every worker holds the
**full** product set (products are small and every rank computation
needs all of them) while the weight set is **partitioned** — each worker
owns a disjoint subset of the global weight indices.  Because
``rank(w, q)`` depends only on ``w``, ``q`` and ``P`` (never on other
weights), any partition of ``W`` yields exact scatter-gather answers:
RTK answers are unions of per-shard answers and RKR answers are
k-smallest merges (:func:`~repro.queries.types.make_rkr_result`).

The partition is ``range``: contiguous ``linspace`` slices.  Global
index ``g`` on shard ``s`` becomes local index ``g - base[s]``, and new
weights are routed to the *last* shard (its range is open above).

The topology is the coordinator's routing table: shard ids, their
endpoint URLs (primary first, standbys after — the order the write
failover walks) and per-shard initial weight counts.  It serializes to
canonical JSON as the ``GET /cluster/topology`` body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import InvalidParameterError


@dataclass(frozen=True)
class ShardSpec:
    """One worker shard: its id, endpoints, and initial weight count.

    ``endpoints`` lists the shard's replicas primary-first; the
    coordinator's per-shard client rotates across them on transport
    failure and on 409 (standby refused a write) exactly as the
    multi-endpoint :class:`~repro.service.client.ServiceClient` does.
    """

    shard_id: int
    endpoints: Tuple[str, ...]
    weight_count: int = 0

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise InvalidParameterError("shard_id must be >= 0")
        if not self.endpoints:
            raise InvalidParameterError(
                f"shard {self.shard_id}: at least one endpoint is required"
            )
        if self.weight_count < 0:
            raise InvalidParameterError(
                f"shard {self.shard_id}: weight_count must be >= 0"
            )

    @property
    def primary(self) -> str:
        """The endpoint writes go to first."""
        return self.endpoints[0]

    @property
    def replicas(self) -> Tuple[str, ...]:
        """The shard's standby endpoints (everything after the primary).

        Failover promotes one of these; hedged reads probe them while
        the primary is merely slow.
        """
        return self.endpoints[1:]

    def with_endpoints(self, endpoints: Sequence[str]) -> "ShardSpec":
        """This spec with a new endpoint list (a failover routing flip)."""
        return ShardSpec(shard_id=self.shard_id,
                         endpoints=tuple(url.rstrip("/")
                                         for url in endpoints),
                         weight_count=self.weight_count)

    def to_dict(self) -> dict:
        return {"shard_id": self.shard_id,
                "endpoints": list(self.endpoints),
                "replicas": list(self.replicas),
                "weight_count": int(self.weight_count)}


def partition_weight_indices(total: int, shards: int,
                             partitioner: str = "range"
                             ) -> List[np.ndarray]:
    """The global weight indices each of ``shards`` workers owns:
    contiguous ``linspace`` slices.  ``partitioner`` must be
    ``"range"``, the one partition there is."""
    if partitioner != "range":
        raise InvalidParameterError(
            f"unknown partitioner {partitioner!r}; the partition is 'range'"
        )
    if total < 0:
        raise InvalidParameterError("total must be >= 0")
    if shards < 1:
        raise InvalidParameterError("shards must be positive")
    bounds = np.linspace(0, total, shards + 1).astype(int)
    return [np.arange(int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class ClusterTopology:
    """The routing table + the global↔local index bijection.

    ``shards`` must be a dense ``shard_id`` sequence ``0..N-1`` whose
    ``weight_count`` values reproduce :func:`partition_weight_indices`
    over the topology's ``total_weights`` — the constructor enforces it,
    because counts that drifted from the partition would silently
    corrupt every global↔local translation.
    """

    shards: Tuple[ShardSpec, ...]
    _bases: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.shards:
            raise InvalidParameterError("a topology needs at least one shard")
        ids = [spec.shard_id for spec in self.shards]
        if ids != list(range(len(self.shards))):
            raise InvalidParameterError(
                f"shard ids must be dense 0..{len(self.shards) - 1}, "
                f"got {ids}"
            )
        expected = partition_weight_indices(self.total_weights,
                                            len(self.shards))
        for spec, owned in zip(self.shards, expected):
            if spec.weight_count != len(owned):
                raise InvalidParameterError(
                    f"shard {spec.shard_id}: weight_count "
                    f"{spec.weight_count} does not match the range "
                    f"partition of {self.total_weights} weights "
                    f"({len(owned)})"
                )
        # Bases let to_global/to_local run without re-deriving the
        # linspace split on every call.
        counts = [spec.weight_count for spec in self.shards]
        object.__setattr__(self, "_bases",
                           tuple(int(x) for x in
                                 np.concatenate([[0],
                                                 np.cumsum(counts)[:-1]])))

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def total_weights(self) -> int:
        return sum(spec.weight_count for spec in self.shards)

    def shard(self, shard_id: int) -> ShardSpec:
        if not 0 <= shard_id < len(self.shards):
            raise InvalidParameterError(
                f"shard_id must be in [0, {len(self.shards)}), "
                f"got {shard_id}"
            )
        return self.shards[shard_id]

    # ------------------------------------------------------------------
    # the global <-> local bijection
    # ------------------------------------------------------------------

    def owned_globals(self, shard_id: int) -> np.ndarray:
        """The global weight indices shard ``shard_id`` owns, ascending."""
        self.shard(shard_id)
        return partition_weight_indices(self.total_weights,
                                        self.num_shards)[shard_id]

    def to_global(self, shard_id: int, local: int) -> int:
        """Map a shard-local weight index back to its global index.

        Defined for *any* non-negative local index, including ones past
        the shard's initial count: an insert appends at the next local
        slot and this map gives the new weight its stable global id.
        """
        self.shard(shard_id)
        if local < 0:
            raise InvalidParameterError("local index must be >= 0")
        return self._bases[shard_id] + local

    def to_local(self, global_index: int) -> Tuple[int, int]:
        """Map a global weight index to ``(owner shard, local index)``."""
        g = int(global_index)
        if g < 0:
            raise InvalidParameterError("global index must be >= 0")
        owner = int(np.searchsorted(self._bases, g, side="right")) - 1
        return owner, g - self._bases[owner]

    def owner_of(self, global_index: int) -> int:
        """The shard that owns ``global_index`` (inserts included)."""
        return self.to_local(global_index)[0]

    def insert_owner(self, next_global: int) -> int:
        """The shard a weight inserted at ``next_global`` routes to: the
        last shard, whose range is open above."""
        return self.num_shards - 1

    def to_dict(self) -> dict:
        """JSON-ready routing table (the ``GET /cluster/topology`` body)."""
        return {
            "num_shards": self.num_shards,
            "total_weights": self.total_weights,
            "shards": [spec.to_dict() for spec in self.shards],
        }

    # ------------------------------------------------------------------
    # construction and routing flips
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, endpoints: Sequence[Sequence[str]], total_weights: int,
              partitioner: str = "range") -> "ClusterTopology":
        """A topology over ``endpoints`` (one endpoint list per shard);
        ``partitioner`` is checked by :func:`partition_weight_indices`."""
        owned = partition_weight_indices(int(total_weights), len(endpoints),
                                         partitioner)
        shards = tuple(
            ShardSpec(shard_id=i,
                      endpoints=(tuple(urls) if not isinstance(urls, str)
                                 else (urls,)),
                      weight_count=len(owned[i]))
            for i, urls in enumerate(endpoints)
        )
        return cls(shards=shards)

    def with_shard_endpoints(self, shard_id: int,
                             endpoints: Sequence[str]) -> "ClusterTopology":
        """A new topology with one shard's endpoint list replaced.

        The partition (weight counts, bijection) is untouched — this is
        the supervisor's failover primitive: promote a standby, then
        swap the shard's routing to ``[new_primary, *standbys]`` in one
        atomic topology replacement.
        """
        spec = self.shard(shard_id)
        if not endpoints:
            raise InvalidParameterError(
                f"shard {shard_id}: at least one endpoint is required"
            )
        shards = tuple(spec.with_endpoints(endpoints)
                       if s.shard_id == shard_id else s
                       for s in self.shards)
        return ClusterTopology(shards=shards)
